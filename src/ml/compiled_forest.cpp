#include "ml/compiled_forest.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

#include "ml/random_forest.h"

namespace libra::ml {

namespace {

// Rows interleaved per group sweep of the batch walk.
constexpr std::size_t kGroup = 8;

// Append one tree's nodes to the arena breadth-first. BFS packing keeps a
// level's nodes adjacent, so a batch of rows descending in lockstep touches
// a contiguous window per level instead of preorder's left-spine jumps.
void pack_tree(const DecisionTree& tree, std::size_t tree_index,
               int num_classes, std::vector<std::int16_t>& feature,
               std::vector<std::int32_t>& child,
               std::vector<double>& threshold) {
  const std::vector<DecisionTree::Node>& nodes = tree.nodes();
  const auto n = static_cast<int>(nodes.size());
  auto fail = [&](const std::string& what) {
    throw std::invalid_argument("CompiledForest: tree " +
                                std::to_string(tree_index) + ": " + what);
  };

  // First pass: BFS order and the original->arena index map.
  std::vector<std::int32_t> arena_slot(nodes.size(), -1);
  std::vector<std::int32_t> order;
  order.reserve(nodes.size());
  std::deque<std::int32_t> queue{0};
  while (!queue.empty()) {
    const std::int32_t id = queue.front();
    queue.pop_front();
    if (id < 0 || id >= n) fail("child index out of range");
    if (arena_slot[static_cast<std::size_t>(id)] >= 0) {
      fail("cycle or shared subtree");
    }
    arena_slot[static_cast<std::size_t>(id)] =
        static_cast<std::int32_t>(order.size());
    order.push_back(id);
    const DecisionTree::Node& node = nodes[static_cast<std::size_t>(id)];
    if (node.feature >= 0) {
      queue.push_back(node.left);
      queue.push_back(node.right);
    }
  }

  // Second pass: emit the packed words in BFS order.
  for (std::size_t slot = 0; slot < order.size(); ++slot) {
    const DecisionTree::Node& node =
        nodes[static_cast<std::size_t>(order[slot])];
    if (node.feature >= 0) {
      if (node.feature > std::numeric_limits<std::int16_t>::max()) {
        fail("feature index " + std::to_string(node.feature) +
             " does not fit int16");
      }
      feature.push_back(static_cast<std::int16_t>(node.feature));
      child.push_back(arena_slot[static_cast<std::size_t>(node.left)] -
                      static_cast<std::int32_t>(slot));
      child.push_back(arena_slot[static_cast<std::size_t>(node.right)] -
                      static_cast<std::int32_t>(slot));
      threshold.push_back(node.threshold);
    } else {
      if (node.label < 0 || node.label >= num_classes) {
        fail("leaf label " + std::to_string(node.label) +
             " outside [0, " + std::to_string(num_classes) + ")");
      }
      if (node.label > std::numeric_limits<std::int16_t>::max() - 1) {
        fail("leaf label does not fit int16");
      }
      // Fold the class ID into the node word: feature = ~label < 0.
      feature.push_back(static_cast<std::int16_t>(-1 - node.label));
      child.push_back(0);
      child.push_back(0);
      // Leaves store a zero threshold: the word is never compared, but the
      // arrays stay index-parallel.
      threshold.push_back(0.0);
    }
  }
}

// One row through one tree. Leaf labels ride in the feature word, so the
// loop exit test doubles as the vote read. The comparison result indexes
// into the child pair instead of selecting between two loads -- no
// data-dependent branch to mispredict, one load instead of two.
inline int walk_tree(const std::int16_t* feature, const double* thr,
                     const std::int32_t* child, std::size_t idx,
                     const double* row) {
  std::int16_t f = feature[idx];
  while (f >= 0) {
    const std::size_t go_right = row[f] <= thr[idx] ? 0 : 1;
    idx += static_cast<std::size_t>(child[2 * idx + go_right]);
    f = feature[idx];
  }
  return -1 - f;
}

// A group of kGroup rows through one tree together. A lone walk is
// latency-bound -- every level is a dependent load->compare->index chain --
// so interleaving independent rows lets the core overlap the chains. A
// finished row parks on its leaf: leaf child offsets are both 0, stepping
// it is a no-op (its cached feature word is clamped so the dummy feature
// read stays in bounds), and the group spins only until every row has
// parked -- cheap here because trees are depth-capped, so park times are
// close. Evaluation order over (tree, row) changes versus the serial walk
// but the integer vote counts are order-invariant, so batch results stay
// bit-identical.
inline void walk_group(const std::int16_t* feature, const double* thr,
                       const std::int32_t* child, std::size_t root,
                       const double* rows, std::size_t stride, int* labels) {
  std::size_t idx[kGroup];
  std::int16_t word[kGroup];  // feature word at idx[k], cached across sweeps
  const std::int16_t root_word = feature[root];
  for (std::size_t k = 0; k < kGroup; ++k) {
    idx[k] = root;
    word[k] = root_word;
  }
  bool active = root_word >= 0;
  while (active) {
    bool any = false;
    for (std::size_t k = 0; k < kGroup; ++k) {
      const std::int16_t f = word[k];
      const std::size_t safe_f = static_cast<std::size_t>(f >= 0 ? f : 0);
      const std::size_t i = idx[k];
      const std::size_t go_right = rows[k * stride + safe_f] <= thr[i] ? 0 : 1;
      const std::size_t next =
          i + static_cast<std::size_t>(child[2 * i + go_right]);
      idx[k] = next;
      word[k] = feature[next];
      any |= word[k] >= 0;
    }
    active = any;
  }
  for (std::size_t k = 0; k < kGroup; ++k) labels[k] = -1 - word[k];
}

}  // namespace

CompiledForest::CompiledForest(const RandomForest& forest)
    : num_classes_(forest.num_classes()) {
  const std::vector<DecisionTree>& trees = forest.trees();
  if (trees.empty()) {
    throw std::invalid_argument("CompiledForest: forest is not fitted");
  }
  if (num_classes_ < 2) {
    throw std::invalid_argument("CompiledForest: num_classes must be >= 2");
  }
  std::size_t total_nodes = 0;
  for (const DecisionTree& tree : trees) {
    total_nodes += tree.nodes().size();
  }
  feature_.reserve(total_nodes);
  thr_.reserve(total_nodes);
  child_.reserve(2 * total_nodes);
  roots_.reserve(trees.size());
  for (std::size_t t = 0; t < trees.size(); ++t) {
    if (trees[t].nodes().empty()) {
      throw std::invalid_argument("CompiledForest: tree " + std::to_string(t) +
                                  " is empty");
    }
    roots_.push_back(static_cast<std::uint32_t>(feature_.size()));
    pack_tree(trees[t], t, num_classes_, feature_, child_, thr_);
  }
}

std::size_t CompiledForest::arena_bytes() const {
  return feature_.size() * sizeof(std::int16_t) +
         thr_.size() * sizeof(double) + child_.size() * sizeof(std::int32_t) +
         roots_.size() * sizeof(std::uint32_t);
}

// Trees outermost, so a tree's upper levels stay cache-hot across the
// rows. Full groups run the interleaved walk; the tail walks serially, so
// a 1-row call costs exactly one walk per tree.
void CompiledForest::accumulate(const double* rows, std::size_t stride,
                                std::size_t num_rows,
                                std::uint32_t* votes) const {
  const std::int16_t* feature = feature_.data();
  const double* thr = thr_.data();
  const std::int32_t* child = child_.data();
  const auto classes = static_cast<std::size_t>(num_classes_);
  const std::size_t full = num_rows - num_rows % kGroup;
  int labels[kGroup];
  for (const std::uint32_t root : roots_) {
    for (std::size_t r = 0; r < full; r += kGroup) {
      walk_group(feature, thr, child, root, rows + r * stride, stride, labels);
      for (std::size_t k = 0; k < kGroup; ++k) {
        ++votes[(r + k) * classes + static_cast<std::size_t>(labels[k])];
      }
    }
    for (std::size_t k = full; k < num_rows; ++k) {
      ++votes[k * classes + static_cast<std::size_t>(walk_tree(
                                feature, thr, child, root, rows + k * stride))];
    }
  }
}

Label CompiledForest::predict(std::span<const double> features) const {
  if (empty()) {
    throw std::logic_error("CompiledForest::predict: empty (not compiled)");
  }
  std::vector<std::uint32_t> votes(static_cast<std::size_t>(num_classes_), 0);
  accumulate(features.data(), features.size(), 1, votes.data());
  return static_cast<Label>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<double> CompiledForest::vote_fractions(
    std::span<const double> features) const {
  std::vector<double> fractions(static_cast<std::size_t>(num_classes_), 0.0);
  if (empty()) return fractions;
  std::vector<std::uint32_t> votes(fractions.size(), 0);
  accumulate(features.data(), features.size(), 1, votes.data());
  // Integer vote counts divided by num_trees: exact, and bit-identical to
  // the pointer walk's (sum of 1.0s) / num_trees.
  for (std::size_t c = 0; c < fractions.size(); ++c) {
    fractions[c] = static_cast<double>(votes[c]) /
                   static_cast<double>(roots_.size());
  }
  return fractions;
}

// The DataSet's feature matrix is row-major and contiguous, so each block
// is addressed as base + k*stride directly, and each block writes only its
// own slice of the shared vote matrix.
std::vector<std::uint32_t> CompiledForest::batch_votes(
    const DataSet& data, util::ThreadPool* pool) const {
  const auto classes = static_cast<std::size_t>(num_classes_);
  std::vector<std::uint32_t> votes(data.size() * classes, 0u);
  const std::size_t num_blocks = (data.size() + kRowBlock - 1) / kRowBlock;
  util::parallel_for(pool, num_blocks, [&](std::size_t b) {
    const std::size_t begin = b * kRowBlock;
    const std::size_t end = std::min(data.size(), begin + kRowBlock);
    accumulate(data.row(begin).data(), data.num_features(), end - begin,
               votes.data() + begin * classes);
  });
  return votes;
}

std::vector<Label> CompiledForest::predict_batch(const DataSet& data,
                                                 util::ThreadPool* pool) const {
  if (empty()) {
    throw std::logic_error(
        "CompiledForest::predict_batch: empty (not compiled)");
  }
  const std::vector<std::uint32_t> votes = batch_votes(data, pool);
  const auto classes = static_cast<std::size_t>(num_classes_);
  std::vector<Label> out(data.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint32_t* row_votes = votes.data() + i * classes;
    out[i] = static_cast<Label>(
        std::max_element(row_votes, row_votes + classes) - row_votes);
  }
  return out;
}

std::vector<std::vector<double>> CompiledForest::vote_fractions_batch(
    const DataSet& data, util::ThreadPool* pool) const {
  const auto classes = static_cast<std::size_t>(num_classes_);
  std::vector<std::vector<double>> out(data.size(),
                                       std::vector<double>(classes, 0.0));
  if (empty()) return out;
  const std::vector<std::uint32_t> votes = batch_votes(data, pool);
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t c = 0; c < classes; ++c) {
      out[i][c] = static_cast<double>(votes[i * classes + c]) /
                  static_cast<double>(roots_.size());
    }
  }
  return out;
}

}  // namespace libra::ml
