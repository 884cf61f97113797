// Metric schema, outcome record and the outside-in span tracer of the
// repository benchmark.
//
// Every workload prints the same metric names: with --trace 0 every
// end-to-end metric, with --trace 1 every per-layer metric. A per-layer
// metric of a layer the workload does not exercise reads 0. The names and
// units here must match BENCHMARK.json (the gate test checks that).

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// What one benchmark run produced: checks, operation counts and metric
/// values (a superset is fine; ResultLine picks the schema's names).
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> errors;

  /// Records a correctness check; a failing one marks the run incorrect.
  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value) { values[name] = value; }
};

/// The result line: {"correct", "attempted", "failed", "metrics"} with the
/// end-to-end (trace = false) or per-layer (trace = true) metrics. An
/// end-to-end metric missing from `outcome` is a benchmark bug and aborts.
std::string ResultLine(const Outcome& outcome, bool trace);

/// The result of a set-up-only run: the median of `setup_s` as an outcome.
Outcome SetupOnlyOutcome(const std::vector<double>& setup_s);
/// Its result line: {"correct", "setup_s"}.
std::string SetupOnlyLine(const Outcome& outcome);

/// Peak resident set size of this process in MiB.
double PeakRssMiB();

double Median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> v, double q);
/// The q-th percentile when at least ten samples lie beyond it; otherwise
/// the highest percentile that has ten beyond it, and the median for under
/// 20 samples.
double TailPercentile(const std::vector<double>& v, double q);

/// Monotonic seconds since an arbitrary epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans recorded around calls into the program's public functions. Spans
/// nest: a span opened while another is open becomes its child, so a
/// layer's self time excludes the layers it calls. Everything stays in
/// memory; the per-layer metrics are computed when the run ends.
class Tracer {
 public:
  class Span {
   public:
    /// A null tracer makes the span a no-op (untraced path).
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  /// Adds `amount` to a named counter (edges built, block nodes, ...).
  void Count(const std::string& name, double amount);

  double Total(const std::string& name) const;
  /// Total minus the time covered by the span's direct children.
  double SelfTotal(const std::string& name) const;
  int64_t Calls(const std::string& name) const;
  double Counter(const std::string& name) const;
  /// Sum of the outermost spans' durations: the traced share of the wall.
  double RootTotal() const;

  /// Writes `<name>_s` (total seconds) and `<name>_n` (calls).
  void Export(const std::string& name, Outcome* out) const;

 private:
  struct Record {
    const char* name;
    double start;
    double end;
    int parent;
  };
  std::vector<Record> spans_;
  int open_ = -1;
  std::map<std::string, double> counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
