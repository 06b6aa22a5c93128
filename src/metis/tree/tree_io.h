// Human-readable rendering and text serialization of decision trees.
//
// print_tree reproduces Figure-7-style output: the top-k layers with the
// split variables and, at each node, the distribution of final decisions
// underneath it.
#pragma once

#include <iosfwd>
#include <string>

#include "metis/tree/cart.h"

namespace metis::tree {

struct PrintOptions {
  // Render at most this many layers below the root (0 = root only).
  std::size_t max_depth = 4;
  // Show the per-class decision frequency at each node (Fig. 7 palette).
  bool show_class_distribution = true;
  // Optional class labels (e.g. {"300kbps", ...}); indices used if empty.
  std::vector<std::string> class_labels;
};

// Renders an indented view of the tree.
void print_tree(const DecisionTree& tree, std::ostream& os,
                const PrintOptions& opts = {});

// Compact single-rule rendering of the path that an input takes through the
// tree: "rt<=1.53 & B>15.0 -> 2850kbps". Useful for per-decision
// explanations in examples.
[[nodiscard]] std::string explain_decision(const DecisionTree& tree,
                                           std::span<const double> x,
                                           const PrintOptions& opts = {});

// Text serialization (stable, line-oriented). Round-trips exactly:
// deserialize(serialize(t)) reproduces structure and payloads.
[[nodiscard]] std::string serialize(const DecisionTree& tree);
[[nodiscard]] DecisionTree deserialize(const std::string& text);

// Crash-safe file persistence of the serialize()/deserialize() text form.
// save() publishes via write-temp + fsync + atomic rename and wraps the
// text in a CRC-32 frame (util/checksum.h), so `path` always holds
// either the previous tree or the complete new one — a tree artifact on
// disk is loadable or absent, never torn, and bit rot is detected at
// load. load() verifies the checksum (bare unframed text is rejected)
// and throws std::runtime_error when the file is missing/unreadable/
// unframed/corrupt and the deserializer's error on malformed content.
void save(const DecisionTree& tree, const std::string& path);
[[nodiscard]] DecisionTree load(const std::string& path);

// Emits a standalone C function implementing the tree — nested if/else
// over a feature array, no loops, no state. This is the §6.4 data-plane
// offload artifact: the paper ported Metis+AuTO-lRLA to a SmartNIC in
// ~1000 LoC of exactly this shape. Classification trees return the class
// index; regression trees return the value.
[[nodiscard]] std::string emit_c_source(const DecisionTree& tree,
                                        const std::string& function_name);

}  // namespace metis::tree
