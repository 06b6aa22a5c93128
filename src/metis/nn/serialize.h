// Plain-text parameter serialization.
//
// Persists the values of a parameter list (as returned by
// Mlp::parameters() / PolicyNet::parameters()) so expensive teachers can
// be trained once and reloaded by every bench/example. The payload is a
// human-inspectable text form:
//
//     metis-params v1
//     <tensor count>
//     <rows> <cols>
//     <row-major doubles...>
//     ...
//
// On disk the payload is wrapped in a CRC-32 frame (util/checksum.h) and
// published via write-temp + fsync + rename, so a parameter cache is
// complete and checksummed or it is rejected, and so is a bare payload
// without the frame. Loading
// validates shapes against the (already constructed) network, so a stale
// cache for a different architecture fails loudly instead of silently
// corrupting weights.
//
// render_parameters/parse_parameters expose the payload form directly —
// the snapshot store (store/snapshot_store.h) uses them to version
// parameter sets without touching the filesystem layer here.
#pragma once

#include <string>
#include <vector>

#include "metis/nn/autodiff.h"

namespace metis::nn {

// The text payload for a parameter list (17 significant digits — doubles
// round-trip exactly).
[[nodiscard]] std::string render_parameters(const std::vector<Var>& params);

// Parses a render_parameters payload into the given parameters. Returns
// false if malformed or shape-mismatched; parameters are only mutated on
// success.
bool parse_parameters(const std::vector<Var>& params,
                      const std::string& payload);

// Writes the parameter values to `path` (CRC-framed, atomically
// published). Returns false on I/O failure.
bool save_parameters(const std::vector<Var>& params, const std::string& path);

// Loads parameter values from `path` into the given parameters. Returns
// false if the file is missing, corrupt (checksum mismatch), malformed,
// or shape-mismatched; parameters are only mutated on success.
bool load_parameters(const std::vector<Var>& params, const std::string& path);

}  // namespace metis::nn
