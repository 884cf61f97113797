// The benchmark's four workloads. Each takes its inputs from the seed,
// measures for about `seconds`, checks the program's outputs and fills an
// Outcome with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "metrics.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the gate tests; the benchmark itself always runs full.
  bool tiny = false;
  /// Directory for files the run writes (serving artifacts).
  std::string tmp_dir = ".";
  /// Stop after the set-up repeats and report only setup_s.
  bool setup_only = false;
  /// Test hook: corrupts the traced re-drive (training workloads) or one
  /// received response body (serving workloads) so the gates must fire.
  bool perturb = false;
};

/// A process times one set-up, except cotrain-squirrel's: at about 0.2 s
/// it takes the median of this many. The set-up's speed differs more from
/// process to process than within one (back-to-back processes building the
/// squirrel twin had medians from 0.15 to 0.21 s, each within about 5% of
/// its own median, on a 4-vCPU Xeon VM), so run.py also times the set-up in
/// fresh processes (--setup-only) and reports setup_s as the median over
/// processes.
inline constexpr int kCotrainSetupRepeats = 3;

/// Validity gate of a traced training run: the spans must cover at least
/// this share of the re-drive's wall, or the per-layer split is not trusted.
inline constexpr double kMinCoverage = 0.95;

Outcome RunCotrainSquirrel(const RunConfig& config);
Outcome RunBlocks100k(const RunConfig& config);
Outcome RunServeSampled(const RunConfig& config);
Outcome RunServeLookup(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
