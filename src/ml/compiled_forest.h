// Compiled forest inference: a fitted RandomForest frozen into one
// contiguous structure-of-arrays arena for cache-linear batched traversal.
// This is the serving engine -- every classifier decide, the inference
// daemon and the fleet trainer's model slot answer through it.
//
// The pointer walk (RandomForest / DecisionTree::predict) chases per-tree
// std::vector<Node> heaps through 40-byte nodes scattered across 60
// allocations; at fleet scale (a 60-tree vote every 2 frames per link) that
// walk would dominate serving cost. Compiling packs every tree's nodes
// breadth-first into shared flat arrays:
//
//   feature_[i]   int16   split feature; leaves fold the class ID into the
//                         same word as ~label (feature_ < 0 <=> leaf, so
//                         label = -1 - feature_ and one load both ends the
//                         walk and yields the vote)
//   thr_[i]       double  split threshold (go left when x[f] <= thr)
//   child_[2i],   int32   relative child offsets: left child = i +
//   child_[2i+1]          child_[2i], right child = i + child_[2i+1]. The
//                         pair is interleaved so the branch decision indexes
//                         one load (child_[2i + go_right]) instead of
//                         selecting between two. BFS packing keeps offsets
//                         small and forward.
//
// plus per-tree root offsets (roots_[t]). Traversal touches parallel arrays
// instead of one scattered node heap, and a whole batch walks the same hot
// arena: rows are cut into kRowBlock-row blocks (one pooled task each), and
// inside a block groups of 8 rows descend each tree in lockstep so their
// dependent load chains overlap.
//
// Exactness: every comparison `x[f] <= thr` is evaluated on exactly the
// doubles the pointer walk compares (NaN fails <= and goes right, -inf goes
// left, +inf goes right), so predict and vote_fractions_batch are
// bit-identical to RandomForest's pointer walk. Vote fractions are
// integer counts divided by num_trees -- exact in double. The pointer walk
// stays the fit-time model and the test oracle for this engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/data.h"
#include "util/thread_pool.h"

namespace libra::ml {

class RandomForest;

class CompiledForest {
 public:
  // Rows per pooled task in the batch paths: large enough to amortize
  // dispatch, small enough to load-balance uneven tree depths.
  static constexpr std::size_t kRowBlock = 64;

  CompiledForest() = default;  // empty; predict() throws until compiled

  // Freeze a fitted forest. Throws std::invalid_argument when the forest is
  // unfitted or its trees cannot be packed (feature index or leaf label
  // beyond int16, malformed children).
  explicit CompiledForest(const RandomForest& forest);

  bool empty() const { return roots_.empty(); }
  int num_trees() const { return static_cast<int>(roots_.size()); }
  int num_classes() const { return num_classes_; }
  // Total bytes of the packed arena (the cache footprint of a traversal).
  std::size_t arena_bytes() const;

  // Single-row inference; identical tie-breaking (first max) to
  // RandomForest::predict. Throws std::logic_error when empty().
  Label predict(std::span<const double> features) const;

  // Per-class vote fractions (counts / num_trees) of every row, all-zero
  // when empty(); row-blocked across `pool` (nullptr = serial). Row order of
  // the result is independent of threading.
  std::vector<std::vector<double>> vote_fractions_batch(
      const DataSet& data, util::ThreadPool* pool = nullptr) const;

 private:
  // Vote counts for `num_rows` rows starting at `rows` (`stride` doubles
  // apart), written row-major [num_rows x num_classes] into the zeroed
  // `votes`.
  void accumulate(const double* rows, std::size_t stride, std::size_t num_rows,
                  std::uint32_t* votes) const;
  // Row-major [data.size() x num_classes] vote counts for every row.
  std::vector<std::uint32_t> batch_votes(const DataSet& data,
                                         util::ThreadPool* pool) const;

  int num_classes_ = 0;
  std::vector<std::int16_t> feature_;  // < 0: leaf, label = -1 - feature_
  std::vector<double> thr_;
  // Interleaved relative child-offset pairs, 2 per node (both 0 on leaves).
  std::vector<std::int32_t> child_;
  std::vector<std::uint32_t> roots_;   // arena index of each tree's root
};

}  // namespace libra::ml
