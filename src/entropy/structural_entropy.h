// Copyright 2026 The GraphRARE Authors.
//
// Node structural entropy (paper Eqs. 5-8): similarity of two nodes' local
// structures measured as 1 - JS divergence between their normalised,
// descending degree sequences (node degree + 1-hop neighbour degrees,
// zero-padded to a common length). JS uses log base 2, so values live in
// [0, 1]; H_s(v,u) = 1 means identical local degree profiles.
//
// Between(v, u) returns exactly the bits of 1 - JsDivergence(p(v), p(u))
// while calling log only over the overlapping prefix min(|p|, |q|). The
// calculator caches two per-node terms at construction:
//
//   * the self-entropy h_p = -sum_i p_i ln p_i. JsDivergence accumulates
//     h_p over the zero-padded length, but every padded step subtracts
//     XLogX(0) = 0, which is exact, so the cached sum is the same number;
//   * ln(0.5 * p_i) for every element. Past the shorter sequence's end the
//     mixture is m_i = 0.5 * p_i, so Between recomputes m_i exactly and
//     subtracts m_i * cached_log in the same ascending order.
//
// The cache holds logs, not the products m_i * ln m_i: with FMA contraction
// (-march=native) the compiler fuses JsDivergence's `h -= x * log(x)` into
// one rounding, so a cached pre-rounded product would differ from it in the
// last bit. Keeping the `h -= x * cached_log` shape keeps the rounding.

#ifndef GRAPHRARE_ENTROPY_STRUCTURAL_ENTROPY_H_
#define GRAPHRARE_ENTROPY_STRUCTURAL_ENTROPY_H_

#include <vector>

#include "graph/graph.h"

namespace graphrare {
namespace entropy {

/// Jensen-Shannon divergence between two discrete distributions given as
/// (possibly different-length) arrays; missing tail entries are zeros.
/// Inputs must be non-negative and sum to 1 (up to rounding). Log base 2.
/// The reference definition that StructuralEntropyCalculator::Between
/// reproduces bitwise.
double JsDivergence(const std::vector<float>& p, const std::vector<float>& q);

/// Precomputes every node's normalised degree sequence, self-entropy and
/// per-element half-mass logs once, then answers pairwise structural-entropy
/// queries in O(len(v) + len(u)) with min(len(v), len(u)) log calls.
/// Between is const and thread-safe.
class StructuralEntropyCalculator {
 public:
  explicit StructuralEntropyCalculator(const graph::Graph& g);

  /// H_s(v, u) = 1 - JS(p(v), p(u)) in [0, 1]. Symmetric. Bitwise equal to
  /// 1.0 - JsDivergence(Sequence(v), Sequence(u)).
  double Between(int64_t v, int64_t u) const;

  /// The normalised descending degree sequence p(v) (Eq. 6), without the
  /// implicit zero padding.
  const std::vector<float>& Sequence(int64_t v) const {
    return sequences_[static_cast<size_t>(v)];
  }

 private:
  std::vector<std::vector<float>> sequences_;
  /// half_logs_[v][i] = ln(0.5 * p_i(v)).
  std::vector<std::vector<double>> half_logs_;
  /// self_entropy_[v] = -sum_i p_i(v) ln p_i(v), in JsDivergence's order.
  std::vector<double> self_entropy_;
};

}  // namespace entropy
}  // namespace graphrare

#endif  // GRAPHRARE_ENTROPY_STRUCTURAL_ENTROPY_H_
