#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"p50_ms", "ms"},
      {"p90_ms", "ms"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"quality.accuracy", "ratio"},
      {"entropy.build_s", "s"},
      {"entropy.build_n", "count"},
      {"entropy.restrict_s", "s"},
      {"entropy.restrict_n", "count"},
      {"nn.pretrain_s", "s"},
      {"nn.pretrain_n", "count"},
      {"nn.finetune_s", "s"},
      {"nn.finetune_n", "count"},
      {"nn.eval_s", "s"},
      {"nn.eval_n", "count"},
      {"rl.act_s", "s"},
      {"rl.act_n", "count"},
      {"rl.update_s", "s"},
      {"rl.update_n", "count"},
      {"rl.agent_s", "s"},
      {"rl.agent_n", "count"},
      {"core.observe_s", "s"},
      {"core.observe_n", "count"},
      {"core.rebuild_s", "s"},
      {"core.rebuild_n", "count"},
      {"core.rebuild_edges", "count"},
      {"core.env_build_s", "s"},
      {"core.env_build_n", "count"},
      {"core.env_reset_s", "s"},
      {"core.env_reset_n", "count"},
      {"core.env_step_s", "s"},
      {"core.env_step_n", "count"},
      {"core.merge_s", "s"},
      {"core.merge_n", "count"},
      {"core.conflict_rate", "ratio"},
      {"data.next_round_s", "s"},
      {"data.next_round_n", "count"},
      {"data.block_nodes", "count"},
      {"tensor.pool_hit_rate", "ratio"},
      {"serve.engine_us_per_req", "us"},
      {"serve.engine_n", "count"},
      {"serve.load_ms", "ms"},
      {"serve.load_n", "count"},
      {"net.batcher.queue_p50_ms", "ms"},
      {"net.batcher.queue_p99_ms", "ms"},
      {"net.batcher.mean_batch", "req"},
      {"net.batcher.shed", "count"},
      {"net.batcher.rejected", "count"},
      {"net.route_p50_ms", "ms"},
      {"net.route_p99_ms", "ms"},
      {"net.route_n", "count"},
      {"net.wire_mean_ms", "ms"},
      {"net.reload_ms", "ms"},
      {"net.reload_n", "count"},
      {"client.p50_ms.low", "ms"},
      {"client.p99_ms.low", "ms"},
      {"client.p50_ms.mid", "ms"},
      {"client.p99_ms.mid", "ms"},
      {"client.p50_ms.high", "ms"},
      {"client.p99_ms.high", "ms"},
      {"client.goodput_qps", "1/s"},
      {"client.fail_ratio", "ratio"},
      {"client.send_lag_p99_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return kDefs;
}

void Outcome::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

namespace {

std::string FormatValue(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultLine(const Outcome& outcome, bool trace) {
  std::string metrics;
  for (const MetricDef& def : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = outcome.values.find(def.name);
    double value = 0.0;
    if (it != outcome.values.end()) {
      value = it->second;
    } else if (!trace) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                   def.name);
      std::abort();
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + def.name + "\": {\"value\": " +
               FormatValue(value) + ", \"unit\": \"" + def.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (outcome.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(outcome.attempted) +
         ", \"failed\": " + std::to_string(outcome.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

Outcome SetupOnlyOutcome(const std::vector<double>& setup_s) {
  Outcome out;
  out.attempted = static_cast<int64_t>(setup_s.size());
  out.Set("setup_s", Median(setup_s));
  return out;
}

std::string SetupOnlyLine(const Outcome& outcome) {
  return std::string("{\"correct\": ") + (outcome.correct ? "true" : "false") +
         ", \"setup_s\": " + FormatValue(outcome.values.at("setup_s")) + "}";
}

double PeakRssMiB() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<size_t>(rank) - 1);
  return v[index];
}

double TailPercentile(const std::vector<double>& v, double q) {
  const double n = static_cast<double>(v.size());
  const double supported = n > 0.0 ? 100.0 * (1.0 - 10.0 / n) : 50.0;
  return Percentile(v, std::min(q, std::max(50.0, supported)));
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back({name, NowSeconds(), 0.0, tracer_->open_});
  tracer_->open_ = static_cast<int>(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Record& r = tracer_->spans_[index_];
  r.end = NowSeconds();
  tracer_->open_ = r.parent;
}

void Tracer::Count(const std::string& name, double amount) {
  counters_[name] += amount;
}

double Tracer::Total(const std::string& name) const {
  double total = 0.0;
  for (const Record& r : spans_) {
    if (name == r.name) total += r.end - r.start;
  }
  return total;
}

double Tracer::SelfTotal(const std::string& name) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (name == r.name) total += r.end - r.start;
    if (r.parent >= 0 && name == spans_[static_cast<size_t>(r.parent)].name) {
      total -= r.end - r.start;
    }
  }
  return total;
}

int64_t Tracer::Calls(const std::string& name) const {
  int64_t calls = 0;
  for (const Record& r : spans_) calls += name == r.name ? 1 : 0;
  return calls;
}

double Tracer::Counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double Tracer::RootTotal() const {
  double total = 0.0;
  for (const Record& r : spans_) {
    if (r.parent < 0) total += r.end - r.start;
  }
  return total;
}

void Tracer::Export(const std::string& name, Outcome* out) const {
  out->Set(name + "_s", Total(name));
  out->Set(name + "_n", static_cast<double>(Calls(name)));
}

}  // namespace perfbench
