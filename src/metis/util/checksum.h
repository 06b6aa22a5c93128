// CRC-32 checksummed framing for on-disk artifacts.
//
// Every artifact the snapshot store (and tree_io / nn::serialize) writes
// is wrapped in a self-describing frame so a reader can tell a *complete*
// artifact from a torn, truncated, or bit-rotted one:
//
//     metis-artifact-v1 <header> <payload-size>\n
//     <payload bytes>\n
//     metis-crc32 <8 hex digits>\n
//
// The checksum covers everything before the footer line (preamble,
// payload, and the separating newline), so any flipped bit, missing
// tail, or trailing garbage is detected. `header` is caller-defined
// whitespace-separated metadata ("tree", "params", or the store's
// "<kind> <key> <version>") and is validated by the reader against what
// the filename claims — a mislabeled artifact is as corrupt as a torn
// one. Bytes without the frame (no magic) are rejected the same way:
// there is no unframed artifact format to fall back to.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace metis::util {

// IEEE 802.3 CRC-32 (reflected, init/xorout 0xFFFFFFFF) — the zlib/PNG
// polynomial, table-driven. crc32("123456789") == 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

// Wraps `payload` in the checksummed frame described above. `header`
// must be non-empty, contain no newline, and not end in whitespace.
[[nodiscard]] std::string wrap_crc_frame(const std::string& header,
                                         const std::string& payload);

struct CrcFrame {
  std::string header;
  std::string payload;
};

enum class FrameParse : std::uint8_t {
  kOk = 0,   // complete frame, checksum verified; `out` filled
  kCorrupt,  // unframed, torn, truncated, bit-rotted or mislabeled
};

// Parses and verifies a frame produced by wrap_crc_frame. Returns
// kCorrupt for anything that is not exactly such a frame: missing magic,
// bad size, checksum mismatch, truncated footer, or trailing bytes after
// the frame.
[[nodiscard]] FrameParse parse_crc_frame(std::string_view text,
                                         CrcFrame* out);

}  // namespace metis::util
