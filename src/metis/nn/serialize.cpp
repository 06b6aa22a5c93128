#include "metis/nn/serialize.h"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "metis/util/atomic_file.h"
#include "metis/util/checksum.h"

namespace metis::nn {

std::string render_parameters(const std::vector<Var>& params) {
  std::ostringstream out;
  out << "metis-params v1\n" << params.size() << "\n";
  out << std::setprecision(17);
  for (const auto& p : params) {
    const Tensor& t = p->value();
    out << t.rows() << " " << t.cols() << "\n";
    for (std::size_t i = 0; i < t.rows() * t.cols(); ++i) {
      out << t.data()[i] << (i + 1 == t.rows() * t.cols() ? "\n" : " ");
    }
  }
  return out.str();
}

bool parse_parameters(const std::vector<Var>& params,
                      const std::string& payload) {
  std::istringstream in(payload);
  std::string magic, version;
  in >> magic >> version;
  if (magic != "metis-params" || version != "v1") return false;
  std::size_t count = 0;
  in >> count;
  if (count != params.size()) return false;

  // Stage into temporaries first: on any error the network is untouched.
  std::vector<Tensor> staged;
  staged.reserve(count);
  for (const auto& p : params) {
    std::size_t rows = 0, cols = 0;
    in >> rows >> cols;
    if (!in || rows != p->value().rows() || cols != p->value().cols()) {
      return false;
    }
    Tensor t(rows, cols);
    for (std::size_t i = 0; i < rows * cols; ++i) {
      in >> t.data()[i];
    }
    if (!in) return false;
    staged.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < count; ++i) {
    params[i]->value() = std::move(staged[i]);
  }
  return true;
}

bool save_parameters(const std::vector<Var>& params,
                     const std::string& path) {
  // Render to memory, then publish with write-temp + fsync + rename: a
  // crash (or power cut) mid-save can never leave a half-written cache at
  // `path` — readers see the old file or the new one, nothing in between.
  // The CRC frame additionally catches bit rot and truncation at load.
  try {
    return util::write_file_atomic(
        path, util::wrap_crc_frame("params", render_parameters(params)));
  } catch (const std::exception&) {
    return false;
  }
}

bool load_parameters(const std::vector<Var>& params,
                     const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  if (!in.good() && !in.eof()) return false;

  util::CrcFrame frame;
  return util::parse_crc_frame(text.str(), &frame) == util::FrameParse::kOk &&
         frame.header == "params" && parse_parameters(params, frame.payload);
}

}  // namespace metis::nn
