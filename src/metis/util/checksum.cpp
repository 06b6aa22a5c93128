#include "metis/util/checksum.h"

#include <array>
#include <cstdio>
#include <stdexcept>

namespace metis::util {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

constexpr std::string_view kMagic = "metis-artifact-v1 ";
constexpr std::string_view kFooterTag = "metis-crc32 ";

}  // namespace

std::uint32_t crc32(std::string_view data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c = kCrcTable[(c ^ static_cast<std::uint8_t>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string wrap_crc_frame(const std::string& header,
                           const std::string& payload) {
  if (header.empty() || header.find('\n') != std::string::npos ||
      header.back() == ' ' || header.back() == '\t') {
    throw std::invalid_argument("wrap_crc_frame: malformed header: \"" +
                                header + "\"");
  }
  std::string out;
  out.reserve(kMagic.size() + header.size() + payload.size() + 64);
  out.append(kMagic);
  out.append(header);
  out.push_back(' ');
  out.append(std::to_string(payload.size()));
  out.push_back('\n');
  out.append(payload);
  out.push_back('\n');
  const std::uint32_t sum = crc32(out);
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", sum);
  out.append(kFooterTag);
  out.append(hex);
  out.push_back('\n');
  return out;
}

FrameParse parse_crc_frame(std::string_view text, CrcFrame* out) {
  if (text.substr(0, kMagic.size()) != kMagic) return FrameParse::kCorrupt;
  const std::size_t nl = text.find('\n');
  if (nl == std::string_view::npos) return FrameParse::kCorrupt;

  // Preamble: "metis-artifact-v1 <header...> <size>". The size is the
  // last space-separated token; everything between the magic and it is
  // the header.
  const std::string_view preamble = text.substr(kMagic.size(),
                                                nl - kMagic.size());
  const std::size_t last_space = preamble.find_last_of(' ');
  if (last_space == std::string_view::npos || last_space == 0) {
    return FrameParse::kCorrupt;
  }
  const std::string_view header = preamble.substr(0, last_space);
  const std::string_view size_str = preamble.substr(last_space + 1);
  if (size_str.empty()) return FrameParse::kCorrupt;
  std::uint64_t size = 0;
  for (const char c : size_str) {
    if (c < '0' || c > '9') return FrameParse::kCorrupt;
    if (size > (UINT64_MAX - 9) / 10) return FrameParse::kCorrupt;
    size = size * 10 + static_cast<std::uint64_t>(c - '0');
  }

  // Layout check: payload + '\n' + footer line, nothing after.
  if (size > text.size()) return FrameParse::kCorrupt;
  const std::size_t payload_start = nl + 1;
  const std::size_t body_end = payload_start + size;  // end of payload
  // footer = '\n' already consumed as the byte AFTER payload:
  //   [payload][\n][metis-crc32 xxxxxxxx][\n]
  const std::size_t footer_start = body_end + 1;
  const std::size_t expected_total =
      footer_start + kFooterTag.size() + 8 + 1;
  if (text.size() != expected_total) return FrameParse::kCorrupt;
  if (text[body_end] != '\n') return FrameParse::kCorrupt;
  if (text.substr(footer_start, kFooterTag.size()) != kFooterTag) {
    return FrameParse::kCorrupt;
  }
  if (text.back() != '\n') return FrameParse::kCorrupt;

  const std::string_view hex =
      text.substr(footer_start + kFooterTag.size(), 8);
  std::uint32_t claimed = 0;
  for (const char c : hex) {
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return FrameParse::kCorrupt;
    }
    claimed = (claimed << 4) | digit;
  }
  if (crc32(text.substr(0, footer_start)) != claimed) {
    return FrameParse::kCorrupt;
  }

  if (out != nullptr) {
    out->header.assign(header);
    out->payload.assign(text.substr(payload_start, size));
  }
  return FrameParse::kOk;
}

}  // namespace metis::util
