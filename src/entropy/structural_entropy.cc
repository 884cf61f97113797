#include "entropy/structural_entropy.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace graphrare {
namespace entropy {

namespace {

constexpr double kLog2 = 0.6931471805599453;  // ln 2

inline double XLogX(double x) { return x > 0.0 ? x * std::log(x) : 0.0; }

// XLogX(x) with log(x) supplied: the same `x * log` expression, so the
// caller's `h -= ...` contracts (or not) exactly as it does around XLogX.
inline double XLogXGivenLog(double x, double log_x) {
  return x > 0.0 ? x * log_x : 0.0;
}

// Nodes per dynamic chunk when building the per-node caches.
constexpr int64_t kNodeGrain = 64;

}  // namespace

double JsDivergence(const std::vector<float>& p, const std::vector<float>& q) {
  const size_t n = std::max(p.size(), q.size());
  // JS(p,q) = H(m) - (H(p) + H(q))/2 in nats, converted to bits; zero tail
  // entries contribute nothing.
  double h_m = 0.0, h_p = 0.0, h_q = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pi = i < p.size() ? p[i] : 0.0;
    const double qi = i < q.size() ? q[i] : 0.0;
    const double mi = 0.5 * (pi + qi);
    h_m -= XLogX(mi);
    h_p -= XLogX(pi);
    h_q -= XLogX(qi);
  }
  const double js_nats = h_m - 0.5 * (h_p + h_q);
  double js_bits = js_nats / kLog2;
  // Clamp tiny negative rounding noise.
  if (js_bits < 0.0) js_bits = 0.0;
  if (js_bits > 1.0) js_bits = 1.0;
  return js_bits;
}

StructuralEntropyCalculator::StructuralEntropyCalculator(
    const graph::Graph& g) {
  const size_t n = static_cast<size_t>(g.num_nodes());
  sequences_.resize(n);
  half_logs_.resize(n);
  self_entropy_.resize(n);
  ParallelForDynamic(g.num_nodes(), kNodeGrain, [&](int64_t v0, int64_t v1) {
    for (int64_t v = v0; v < v1; ++v) {
      std::vector<float> seq;
      seq.reserve(static_cast<size_t>(g.Degree(v)) + 1);
      seq.push_back(static_cast<float>(g.Degree(v)));
      for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v);
           ++p) {
        seq.push_back(static_cast<float>(g.Degree(*p)));
      }
      std::sort(seq.begin(), seq.end(), std::greater<float>());
      double total = 0.0;
      for (float d : seq) total += d;
      if (total > 0.0) {
        for (float& d : seq) d = static_cast<float>(d / total);
      } else {
        // Isolated node: degenerate one-point distribution.
        seq.assign(1, 1.0f);
      }
      std::vector<double> half_logs;
      half_logs.reserve(seq.size());
      double h_p = 0.0;
      for (float x : seq) {
        const double pi = x;
        half_logs.push_back(std::log(0.5 * pi));
        h_p -= XLogX(pi);
      }
      const size_t slot = static_cast<size_t>(v);
      sequences_[slot] = std::move(seq);
      half_logs_[slot] = std::move(half_logs);
      self_entropy_[slot] = h_p;
    }
  });
}

double StructuralEntropyCalculator::Between(int64_t v, int64_t u) const {
  GR_CHECK(v >= 0 && v < static_cast<int64_t>(sequences_.size()));
  GR_CHECK(u >= 0 && u < static_cast<int64_t>(sequences_.size()));
  const std::vector<float>& p = sequences_[static_cast<size_t>(v)];
  const std::vector<float>& q = sequences_[static_cast<size_t>(u)];
  // JsDivergence's h_m accumulation, in the same ascending order: the
  // overlap mixes both sequences; past it the shorter one is zero padding,
  // so m_i = 0.5 * p_i with ln m_i cached.
  const size_t overlap = std::min(p.size(), q.size());
  double h_m = 0.0;
  for (size_t i = 0; i < overlap; ++i) {
    const double mi = 0.5 * (static_cast<double>(p[i]) + q[i]);
    h_m -= XLogX(mi);
  }
  const int64_t longer = p.size() >= q.size() ? v : u;
  const std::vector<float>& tail = sequences_[static_cast<size_t>(longer)];
  const std::vector<double>& tail_logs =
      half_logs_[static_cast<size_t>(longer)];
  for (size_t i = overlap; i < tail.size(); ++i) {
    const double mi = 0.5 * static_cast<double>(tail[i]);
    h_m -= XLogXGivenLog(mi, tail_logs[i]);
  }
  const double h_p = self_entropy_[static_cast<size_t>(v)];
  const double h_q = self_entropy_[static_cast<size_t>(u)];
  // Same finish as JsDivergence, term for term.
  const double js_nats = h_m - 0.5 * (h_p + h_q);
  double js_bits = js_nats / kLog2;
  if (js_bits < 0.0) js_bits = 0.0;
  if (js_bits > 1.0) js_bits = 1.0;
  return 1.0 - js_bits;
}

}  // namespace entropy
}  // namespace graphrare
