#include "metis/tree/tree_io.h"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "metis/util/atomic_file.h"
#include "metis/util/check.h"
#include "metis/util/checksum.h"

namespace metis::tree {
namespace {

std::string feature_label(const DecisionTree& tree, int feature) {
  const auto f = static_cast<std::size_t>(feature);
  if (f < tree.feature_names().size()) return tree.feature_names()[f];
  // Appended rather than `"x" + std::to_string(...)`, which trips a
  // false -Wrestrict in GCC 12's char_traits.
  std::string label = "x";
  label += std::to_string(feature);
  return label;
}

std::string class_label(const PrintOptions& opts, std::size_t cls) {
  if (cls < opts.class_labels.size()) return opts.class_labels[cls];
  return "class " + std::to_string(cls);
}

std::string distribution_string(const TreeNode& node,
                                const PrintOptions& opts) {
  if (node.class_weights.empty()) {
    std::ostringstream os;
    os << "value=" << std::fixed << std::setprecision(3) << node.prediction;
    return os.str();
  }
  double total = 0.0;
  for (double w : node.class_weights) total += w;
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (std::size_t c = 0; c < node.class_weights.size(); ++c) {
    const double frac = total > 0.0 ? node.class_weights[c] / total : 0.0;
    if (frac < 0.005) continue;  // hide negligible classes, like Fig. 7
    if (!first) os << ", ";
    first = false;
    os << class_label(opts, c) << ":" << std::fixed << std::setprecision(0)
       << frac * 100.0 << "%";
  }
  os << "]";
  return os.str();
}

void print_node(const DecisionTree& tree, const TreeNode& node,
                std::ostream& os, const PrintOptions& opts,
                std::size_t depth, const std::string& prefix) {
  os << prefix;
  if (node.is_leaf() || depth > opts.max_depth) {
    if (node.class_weights.empty()) {
      os << "-> " << distribution_string(node, opts);
    } else {
      os << "-> " << class_label(
          opts, static_cast<std::size_t>(node.prediction));
      if (opts.show_class_distribution) {
        os << "  " << distribution_string(node, opts);
      }
    }
    if (!node.is_leaf()) os << "  (subtree elided)";
    os << '\n';
    return;
  }
  os << feature_label(tree, node.feature) << " <= " << std::fixed
     << std::setprecision(3) << node.threshold;
  if (opts.show_class_distribution) {
    os << "  " << distribution_string(node, opts);
  }
  os << '\n';
  print_node(tree, *node.left, os, opts, depth + 1, prefix + "  [yes] ");
  print_node(tree, *node.right, os, opts, depth + 1, prefix + "  [no]  ");
}

void serialize_node(const TreeNode& node, std::ostream& os) {
  if (node.is_leaf()) {
    os << "L " << std::setprecision(17) << node.prediction << ' '
       << node.weight_sum << ' ' << node.sample_count << ' '
       << node.node_error << ' ' << node.class_weights.size();
    for (double w : node.class_weights) os << ' ' << w;
    os << '\n';
    return;
  }
  os << "N " << node.feature << ' ' << std::setprecision(17) << node.threshold
     << ' ' << node.prediction << ' ' << node.weight_sum << ' '
     << node.sample_count << ' ' << node.node_error << ' '
     << node.class_weights.size();
  for (double w : node.class_weights) os << ' ' << w;
  os << '\n';
  serialize_node(*node.left, os);
  serialize_node(*node.right, os);
}

std::unique_ptr<TreeNode> deserialize_node(std::istringstream& is) {
  std::string kind;
  is >> kind;
  MET_CHECK_MSG(kind == "L" || kind == "N", "corrupt tree serialization");
  auto node = std::make_unique<TreeNode>();
  if (kind == "N") {
    is >> node->feature >> node->threshold;
  }
  std::size_t n_classes = 0;
  is >> node->prediction >> node->weight_sum >> node->sample_count >>
      node->node_error >> n_classes;
  node->class_weights.resize(n_classes);
  for (double& w : node->class_weights) is >> w;
  MET_CHECK_MSG(static_cast<bool>(is), "corrupt tree serialization");
  if (kind == "N") {
    node->left = deserialize_node(is);
    node->right = deserialize_node(is);
  }
  return node;
}

}  // namespace

void print_tree(const DecisionTree& tree, std::ostream& os,
                const PrintOptions& opts) {
  MET_CHECK(!tree.empty());
  print_node(tree, *tree.root(), os, opts, 0, "");
}

std::string explain_decision(const DecisionTree& tree,
                             std::span<const double> x,
                             const PrintOptions& opts) {
  MET_CHECK(!tree.empty());
  std::ostringstream os;
  const TreeNode* node = tree.root();
  bool first = true;
  while (!node->is_leaf()) {
    const auto f = static_cast<std::size_t>(node->feature);
    MET_CHECK(f < x.size());
    const bool goes_left = x[f] <= node->threshold;
    if (!first) os << " & ";
    first = false;
    os << feature_label(tree, node->feature)
       << (goes_left ? " <= " : " > ") << std::fixed << std::setprecision(3)
       << node->threshold;
    node = goes_left ? node->left.get() : node->right.get();
  }
  os << " -> ";
  if (tree.task() == Task::kClassification) {
    os << class_label(opts, static_cast<std::size_t>(node->prediction));
  } else {
    os << std::fixed << std::setprecision(3) << node->prediction;
  }
  return os.str();
}

std::string serialize(const DecisionTree& tree) {
  MET_CHECK(!tree.empty());
  std::ostringstream os;
  os << "metis-tree-v1 "
     << (tree.task() == Task::kClassification ? "C" : "R") << ' '
     << tree.class_count() << ' ' << tree.feature_names().size();
  for (const auto& name : tree.feature_names()) os << ' ' << name;
  os << '\n';
  serialize_node(*tree.root(), os);
  return os.str();
}

DecisionTree deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string magic, task_str;
  std::size_t classes = 0, n_names = 0;
  is >> magic >> task_str >> classes >> n_names;
  MET_CHECK_MSG(magic == "metis-tree-v1", "unknown tree format");
  MET_CHECK(task_str == "C" || task_str == "R");
  std::vector<std::string> names(n_names);
  for (auto& n : names) is >> n;
  auto root = deserialize_node(is);
  return DecisionTree::from_parts(
      std::move(root),
      task_str == "C" ? Task::kClassification : Task::kRegression, classes,
      std::move(names));
}

namespace {

void emit_node(const TreeNode* node, const DecisionTree& tree, bool classify,
               int indent, std::ostream& os) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  if (node->is_leaf()) {
    if (classify) {
      os << pad << "return " << static_cast<int>(node->prediction) << ";\n";
    } else {
      os << pad << "return " << std::setprecision(17) << node->prediction
         << ";\n";
    }
    return;
  }
  os << pad << "if (x[" << node->feature << "] <= "
     << std::setprecision(17) << node->threshold << ") {  /* "
     << feature_label(tree, node->feature) << " */\n";
  emit_node(node->left.get(), tree, classify, indent + 1, os);
  os << pad << "} else {\n";
  emit_node(node->right.get(), tree, classify, indent + 1, os);
  os << pad << "}\n";
}

}  // namespace

std::string emit_c_source(const DecisionTree& tree,
                          const std::string& function_name) {
  MET_CHECK(!tree.empty());
  MET_CHECK(!function_name.empty());
  const bool classify = tree.task() == Task::kClassification;
  std::ostringstream os;
  os << "/* Generated by metis::tree::emit_c_source — "
     << tree.leaf_count() << " leaves, depth " << tree.depth() << ". */\n";
  if (classify) {
    os << "int " << function_name << "(const double* x) {\n";
  } else {
    os << "double " << function_name << "(const double* x) {\n";
  }
  emit_node(tree.root(), tree, classify, 1, os);
  os << "}\n";
  return os.str();
}

void save(const DecisionTree& tree, const std::string& path) {
  // Published artifacts carry a CRC-32 frame so a reader can prove the
  // file is complete before trusting a single byte of it.
  if (!util::write_file_atomic(path,
                               util::wrap_crc_frame("tree",
                                                    serialize(tree)))) {
    // Only the test-hook crash simulation makes write_file_atomic return
    // false; a production save() never takes this branch.
    throw std::runtime_error("tree::save: simulated crash before publish");
  }
}

DecisionTree load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("tree::load: cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw std::runtime_error("tree::load: read error on " + path);
  }
  // The checksummed frame is verified end to end before a byte is
  // parsed; bare "metis-tree-v1" text without one is rejected.
  util::CrcFrame frame;
  if (util::parse_crc_frame(text.str(), &frame) != util::FrameParse::kOk) {
    throw std::runtime_error(
        "tree::load: unframed, torn or checksum-mismatched artifact at " +
        path);
  }
  if (frame.header != "tree") {
    throw std::runtime_error("tree::load: " + path +
                             " is not a tree artifact (header \"" +
                             frame.header + "\")");
  }
  return deserialize(frame.payload);
}

}  // namespace metis::tree
