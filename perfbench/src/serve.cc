// serve-sampled and serve-lookup: the in-process HTTP server
// (net::HttpServer + ContinuousBatcher) over loopback, driven open-loop.
//
//   serve-sampled  POST /v1/predict with 1-8 Zipfian node ids, engine in
//                  sampled mode (SAGE, fanouts 10,10): engine sampling and
//                  forward do most of the work.
//   serve-lookup   single-id predict/topk, engine in full-graph mode (a
//                  row lookup), plus POST /v1/reload of the same artifact
//                  once a second on its own connection: the HTTP tier
//                  does most of the work and swaps run beside reads.
//
// Each run offers three fixed Poisson rates (low/mid/high; see README.md
// for how they were chosen). A traced run then climbs a fixed ladder of
// rates until one misses p99 <= 50 ms, fails a request or leaves a
// backlog. Latency is timed from each request's due time. Every response
// is validated. The server runs at its defaults.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/graphrare.h"
#include "loadgen.h"
#include "net/json.h"
#include "net/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace graphrare;

struct Rates {
  double low, mid, high;
  std::vector<double> ladder;
};

// Offered loads in requests per second. Fixed so that the parent and a
// change face identical load; see README.md for how they were chosen.
const Rates kSampledRates = {2000, 4000, 6500,
                             {6500, 7500, 8500, 9500, 10500, 11500, 12500,
                              14000, 16000, 18000}};
const Rates kLookupRates = {8000, 16000, 24000,
                            {24000, 28000, 32000, 38000, 44000, 50000, 56000,
                             62000, 70000, 80000}};

constexpr double kSloMs = 50.0;
constexpr double kDrainAllowanceS = 3.0;
// One full-graph reload (LoadFrom plus its forward pass over the pubmed
// twin) took about 105 ms of wall and 185 ms of CPU on a 4-vCPU Xeon VM. A
// reload a second then uses under 5% of the machine and is in flight about
// a tenth of the time, so reads still dominate while a tenth of them meet
// a swap.
constexpr double kReloadPeriodS = 1.0;
// The read mix: the workload names both single-id read routes and no
// production trace exists to weight them, so each gets half.
constexpr double kPredictShare = 0.5;
constexpr int kTopK = 3;
constexpr int kWindows = 10;

struct Workload {
  bool sampled;
  const Rates& rates;
  const char* name;
};

/// Zipfian (s = 1.1) node ids: rank r has weight 1/(r+1)^s; ranks map to a
/// fixed permutation of the ids so the hot nodes are spread over the graph.
/// Which nodes are hot is part of the fixed workload (in sampled mode a hot
/// hub costs more than a hot leaf); the seed draws the trace.
class ZipfNodes {
 public:
  explicit ZipfNodes(int64_t n) : ids_(static_cast<size_t>(n)) {
    double total = 0.0;
    cdf_.reserve(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
      cdf_.push_back(total);
      ids_[static_cast<size_t>(r)] = r;
    }
    Rng rng(0x5EEDULL);
    rng.Shuffle(&ids_);
  }
  int64_t Draw(Rng* rng) const {
    const double u = rng->Uniform() * cdf_.back();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return ids_[std::min(rank, ids_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> ids_;
};

enum class Kind { kPredict, kTopK, kReload };

struct Planned {
  Kind kind = Kind::kPredict;
  std::vector<int64_t> nodes;
};

std::string HttpPost(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// One phase's open-loop schedule: Poisson arrivals at `qps` for
/// `seconds`, plus (lookup) a reload every kReloadPeriodS on the last
/// connection.
struct Phase {
  std::vector<WireRequest> wire;
  std::vector<Planned> plan;
};

Phase MakePhase(const Workload& w, const ZipfNodes& zipf,
                const std::string& artifact_path, double qps, double seconds,
                uint64_t seed) {
  Rng rng(seed);
  const int read_conns = w.sampled ? 4 : 3;
  std::vector<std::pair<double, Planned>> items;
  double t = 0.0;
  while (true) {
    double u = rng.Uniform();
    while (u <= 1e-12) u = rng.Uniform();
    t += -std::log(u) / qps;
    if (t >= seconds) break;
    Planned p;
    if (w.sampled) {
      const int count = 1 + static_cast<int>(rng.UniformInt(8));
      for (int i = 0; i < count; ++i) p.nodes.push_back(zipf.Draw(&rng));
    } else {
      p.kind = rng.Bernoulli(kPredictShare) ? Kind::kPredict : Kind::kTopK;
      p.nodes.push_back(zipf.Draw(&rng));
    }
    items.emplace_back(t, std::move(p));
  }
  if (!w.sampled) {
    for (double r = kReloadPeriodS; r < seconds; r += kReloadPeriodS) {
      items.emplace_back(r, Planned{Kind::kReload, {}});
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  }
  Phase phase;
  int next_conn = 0;
  for (auto& [due, p] : items) {
    WireRequest r;
    r.due_s = due;
    if (p.kind == Kind::kReload) {
      r.conn = 3;
      r.bytes = HttpPost("/v1/reload",
                         "{\"path\":\"" + net::JsonEscape(artifact_path) +
                             "\"}");
    } else {
      r.conn = next_conn;
      next_conn = (next_conn + 1) % read_conns;
      if (p.kind == Kind::kTopK) {
        r.bytes = HttpPost("/v1/topk",
                           "{\"node\":" + std::to_string(p.nodes[0]) +
                               ",\"k\":" + std::to_string(kTopK) + "}");
      } else {
        std::string body = "{\"nodes\":[";
        for (size_t i = 0; i < p.nodes.size(); ++i) {
          if (i) body += ",";
          body += std::to_string(p.nodes[i]);
        }
        r.bytes = HttpPost("/v1/predict", body + "]}");
      }
    }
    phase.wire.push_back(std::move(r));
    phase.plan.push_back(std::move(p));
  }
  return phase;
}

/// Trained model, its artifact on disk, the engine loaded from it and the
/// server around that engine. The destructor stops the server and removes
/// the artifact file.
class ServeStack {
 public:
  ServeStack(const Workload& w, const RunConfig& config) {
    // The graph is the fixed pubmed twin; the seed draws the split and
    // the request traces.
    auto made = data::MakeDatasetScaled("pubmed", config.tiny ? 20 : 1,
                                        /*seed=*/1);
    GR_CHECK(made.ok()) << made.status().ToString();
    ds = std::move(made).value();
    data::SplitOptions so;
    so.num_splits = 1;
    so.seed = config.seed;
    const data::Split split =
        data::MakeSplits(ds.labels, ds.num_classes, so).at(0);

    nn::ModelOptions mo;
    mo.in_features = ds.num_features();
    mo.hidden = 64;
    mo.num_classes = ds.num_classes;
    mo.seed = 7;
    auto model = nn::MakeModel(nn::BackboneKind::kSage, mo);
    nn::ClassifierTrainer::Options to;
    to.adam.lr = 0.01f;
    to.seed = 7;
    nn::ClassifierTrainer trainer(
        model.get(), nn::LayerInput::Sparse(ds.FeaturesCsr()), &ds.labels, to);
    const int epochs = config.tiny ? 5 : 20;
    trainer.Fit(ds.graph, split.train, split.val, epochs, epochs);

    auto artifact = core::PackageArtifact(*model, nn::BackboneKind::kSage, mo,
                                          7, ds.graph, ds);
    GR_CHECK(artifact.ok()) << artifact.status().ToString();
    path = config.tmp_dir + "/" + w.name + "-" + std::to_string(::getpid()) +
           ".grare";
    GR_CHECK_OK(artifact->Save(path));

    serve::EngineOptions eo;
    if (w.sampled) eo.fanouts = {10, 10};
    const double t0 = NowSeconds();
    auto engine = serve::InferenceEngine::LoadFrom(path, eo);
    load_ms = (NowSeconds() - t0) * 1e3;
    GR_CHECK(engine.ok()) << engine.status().ToString();
    handle = std::make_shared<serve::EngineHandle>(
        std::make_shared<const serve::InferenceEngine>(
            std::move(engine).value()));

    net::HttpServerOptions options;
    options.slo_ms = kSloMs;
    server = std::make_unique<net::HttpServer>(handle, nullptr, options);
    GR_CHECK_OK(server->Start());
    loop = std::thread([this] { server->Run(); });
  }

  ~ServeStack() {
    server->Shutdown();
    loop.join();
    server.reset();
    ::unlink(path.c_str());
  }

  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  data::Dataset ds;
  std::string path;
  double load_ms = 0.0;
  std::shared_ptr<serve::EngineHandle> handle;
  std::unique_ptr<net::HttpServer> server;
  std::thread loop;
};

/// Per-phase tallies. A request that failed counts as answered at the end
/// of the phase, so failures always miss the latency limit.
struct PhaseReport {
  int64_t attempted = 0;
  int64_t failed = 0;   ///< non-200, shed, rejected, unanswered or invalid
  int64_t invalid = 0;  ///< 200 with a wrong body
  int64_t correct_class = 0;
  int64_t classified = 0;
  std::vector<double> latency_ms;       ///< reads, from due time
  std::vector<double> due_s;            ///< aligned with latency_ms
  std::vector<double> client_ms;        ///< reads, from send time (ok only)
  std::vector<double> send_lag_ms;
  double span_s = 0.0;
  double wall_s = 0.0;
  bool stalled = false;
  std::string first_error;
};

/// Checks one read response. Lookup bodies must equal the direct engine's
/// rendering byte for byte; sampled bodies must echo the ids, keep classes
/// in range and probabilities summing to 1.
class Validator {
 public:
  Validator(const Workload& w, const serve::InferenceEngine* engine)
      : w_(w), engine_(engine) {}

  bool Check(const Planned& p, const std::string& body,
             std::vector<int64_t>* classes) {
    classes->clear();
    if (!w_.sampled) {
      const serve::Prediction& pred = Lookup(p.nodes[0]);
      classes->push_back(pred.predicted_class);
      const std::string expected =
          p.kind == Kind::kTopK
              ? net::TopKToJson(p.nodes[0], serve::TopKOf(pred, kTopK))
              : net::PredictionsToJson({pred});
      return body == expected;
    }
    auto doc = net::JsonValue::Parse(body);
    if (!doc.ok()) return false;
    const net::JsonValue* preds = doc->Find("predictions");
    if (preds == nullptr || !preds->is_array() ||
        preds->items().size() != p.nodes.size()) {
      return false;
    }
    const int64_t num_classes = engine_->num_classes();
    for (size_t i = 0; i < p.nodes.size(); ++i) {
      const net::JsonValue& item = preds->items()[i];
      const net::JsonValue* node = item.Find("node");
      const net::JsonValue* cls = item.Find("class");
      const net::JsonValue* probs = item.Find("probabilities");
      if (node == nullptr || cls == nullptr || probs == nullptr ||
          !probs->is_array()) {
        return false;
      }
      auto node_id = node->AsInt64();
      auto class_id = cls->AsInt64();
      if (!node_id.ok() || *node_id != p.nodes[i] || !class_id.ok() ||
          *class_id < 0 || *class_id >= num_classes ||
          static_cast<int64_t>(probs->items().size()) != num_classes) {
        return false;
      }
      double sum = 0.0;
      for (const net::JsonValue& v : probs->items()) sum += v.AsNumber();
      if (std::fabs(sum - 1.0) > 1e-4) return false;
      classes->push_back(*class_id);
    }
    return true;
  }

 private:
  const serve::Prediction& Lookup(int64_t node) {
    auto it = cache_.find(node);
    if (it == cache_.end()) {
      auto pred = engine_->Predict({node});
      GR_CHECK(pred.ok()) << pred.status().ToString();
      it = cache_.emplace(node, std::move(pred).value()[0]).first;
    }
    return it->second;
  }

  const Workload& w_;
  const serve::InferenceEngine* engine_;
  std::unordered_map<int64_t, serve::Prediction> cache_;
};

PhaseReport RunPhase(ServeStack* stack, const Phase& phase,
                     Validator* validator, bool perturb) {
  PhaseReport rep;
  LoadResult load = RunOpenLoop(stack->server->port(), phase.wire, 4,
                                kDrainAllowanceS);
  rep.span_s = load.span_s;
  rep.wall_s = load.wall_s;
  rep.stalled = load.stalled || !load.error.empty();
  if (!load.error.empty()) rep.first_error = load.error;
  if (perturb) {
    // Corrupt one echoed node id; the response checks must catch it.
    for (WireResponse& r : load.responses) {
      const size_t at = r.body.find("\"node\":");
      if (at == std::string::npos) continue;
      r.body.insert(at + 7, "1");
      break;
    }
  }
  std::vector<int64_t> classes;
  for (size_t i = 0; i < phase.plan.size(); ++i) {
    const Planned& p = phase.plan[i];
    const WireResponse& r = load.responses[i];
    const double due = phase.wire[i].due_s;
    ++rep.attempted;
    rep.send_lag_ms.push_back((r.sent_s - due) * 1e3);
    bool ok = r.received && r.status == 200;
    if (ok && p.kind == Kind::kReload) {
      ok = r.body.find("\"status\":\"ok\"") != std::string::npos;
      if (!ok) ++rep.invalid;
    } else if (ok) {
      ok = validator->Check(p, r.body, &classes);
      if (!ok) {
        ++rep.invalid;
        if (rep.first_error.empty()) rep.first_error = "invalid body: " + r.body;
      }
      for (size_t k = 0; k < classes.size(); ++k) {
        ++rep.classified;
        rep.correct_class +=
            classes[k] == stack->ds.labels[static_cast<size_t>(p.nodes[k])];
      }
    }
    if (!ok) ++rep.failed;
    if (p.kind == Kind::kReload) continue;
    const double done = ok ? r.done_s : std::max(load.wall_s, due);
    rep.latency_ms.push_back((done - due) * 1e3);
    rep.due_s.push_back(due);
    if (ok) rep.client_ms.push_back((r.done_s - r.sent_s) * 1e3);
  }
  return rep;
}

/// Median, over `windows` equal slices of the phase by due time, of each
/// slice's q-th percentile latency: one slice hit by a host hiccup moves it
/// little, a slower server moves every slice.
double WindowedPercentile(const PhaseReport& rep, double q, int windows) {
  std::vector<std::vector<double>> slices(static_cast<size_t>(windows));
  for (size_t i = 0; i < rep.latency_ms.size(); ++i) {
    const double share = rep.span_s > 0.0 ? rep.due_s[i] / rep.span_s : 0.0;
    const size_t w = std::min(static_cast<size_t>(windows) - 1,
                              static_cast<size_t>(share * windows));
    slices[w].push_back(rep.latency_ms[i]);
  }
  std::vector<double> per_slice;
  for (const std::vector<double>& slice : slices) {
    if (!slice.empty()) per_slice.push_back(TailPercentile(slice, q));
  }
  return Median(per_slice);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

Outcome RunServe(const Workload& w, const RunConfig& config) {
  Outcome out;
  const double setup_start = NowSeconds();
  const auto stack = std::make_unique<ServeStack>(w, config);
  // Warm-up: a short burst at the low rate, unvalidated.
  const ZipfNodes zipf(stack->ds.num_nodes());
  const Phase warmup = MakePhase(w, zipf, stack->path, w.rates.low,
                                 config.tiny ? 0.1 : 0.3, config.seed + 7);
  RunOpenLoop(stack->server->port(), warmup.wire, 4, kDrainAllowanceS);
  const double setup_s = NowSeconds() - setup_start;
  if (config.setup_only) return SetupOnlyOutcome({setup_s});

  const auto engine = stack->handle->Get();
  Validator validator(w, engine.get());
  const double scale = config.seconds / 10.0;
  // Server counters are read before and after the fixed rates; the time
  // the reads take is the tracing overhead on a server run.
  double read_s = 0.0;
  auto read_counters = [&](net::BatcherStats* batcher,
                           std::vector<net::RouteStats>* routes) {
    const double t0 = NowSeconds();
    *batcher = stack->server->batcher().Stats();
    *routes = stack->server->AllRouteStats();
    read_s += NowSeconds() - t0;
  };
  net::BatcherStats batcher0, batcher1;
  std::vector<net::RouteStats> routes0, routes;
  read_counters(&batcher0, &routes0);

  // Fixed rates: 1 s, 2.5 s and 1 s per 10 s of run; the mid rate carries
  // the end-to-end latency figures.
  const double levels[3] = {w.rates.low, w.rates.mid, w.rates.high};
  const double durations[3] = {1.0, 2.5, 1.0};
  const char* level_names[3] = {"low", "mid", "high"};
  PhaseReport reports[3];
  std::vector<Phase> phases;
  for (int l = 0; l < 3; ++l) {
    phases.push_back(MakePhase(w, zipf, stack->path, levels[l],
                               durations[l] * scale,
                               config.seed * 1000 + static_cast<uint64_t>(l)));
  }
  for (int l = 0; l < 3; ++l) {
    reports[l] = RunPhase(stack.get(), phases[static_cast<size_t>(l)],
                          &validator, config.perturb && l == 0);
  }
  read_counters(&batcher1, &routes);

  PhaseReport all;
  for (int l = 0; l < 3; ++l) {
    const PhaseReport& r = reports[l];
    out.Check(!r.stalled, std::string("phase ") + level_names[l] +
                              " stalled: " + r.first_error);
    out.Check(r.invalid == 0, std::string("phase ") + level_names[l] +
                                  " got invalid responses: " + r.first_error);
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.correct_class += r.correct_class;
    all.classified += r.classified;
    all.send_lag_ms.insert(all.send_lag_ms.end(), r.send_lag_ms.begin(),
                           r.send_lag_ms.end());
    all.client_ms.insert(all.client_ms.end(), r.client_ms.begin(),
                         r.client_ms.end());
  }
  // A generator running later than the latency limit measures itself.
  const double send_lag_p99_ms = Percentile(all.send_lag_ms, 99);
  out.Check(send_lag_p99_ms <= kSloMs, "load generator ran late");
  // At the low rate the server keeps up: everything answered, nothing late.
  const PhaseReport& low = reports[0];
  out.Check(low.failed == 0, "requests failed at the low rate");
  out.Check(low.wall_s <= low.span_s + 0.25,
            "low-rate phase did not drain within 250 ms");
  out.attempted = all.attempted;
  out.failed = all.failed;

  const double accuracy =
      all.classified > 0 ? static_cast<double>(all.correct_class) /
                               static_cast<double>(all.classified)
                         : 0.0;
  if (!config.trace) {
    out.Set("setup_s", setup_s);
    out.Set("peak_rss_mib", PeakRssMiB());
    out.Set("p50_ms", WindowedPercentile(reports[1], 50, kWindows));
    out.Set("p90_ms", WindowedPercentile(reports[1], 90, kWindows));
    return out;
  }

  // Goodput, a per-layer figure, so only traced runs climb the ladder: it
  // stops when a rung misses twice in a row (a second attempt with a fresh
  // schedule keeps one host hiccup from ending it).
  double goodput = 0.0;
  for (size_t k = 0; k < w.rates.ladder.size(); ++k) {
    const double qps = w.rates.ladder[k];
    bool meets = false;
    for (uint64_t attempt = 0; attempt < 2 && !meets; ++attempt) {
      const Phase rung =
          MakePhase(w, zipf, stack->path, qps, 0.4 * scale,
                    config.seed * 1000 + 100 + 2 * k + attempt);
      const PhaseReport rep = RunPhase(stack.get(), rung, &validator, false);
      out.Check(!rep.stalled, "ladder rung stalled: " + rep.first_error);
      out.Check(rep.invalid == 0,
                "ladder rung got invalid responses: " + rep.first_error);
      meets = rep.failed == 0 && !rep.stalled &&
              WindowedPercentile(rep, 99, kWindows) <= kSloMs &&
              rep.wall_s - rep.span_s <= kSloMs / 1e3;
    }
    if (!meets) break;
    goodput = qps;
  }

  out.Set("quality.accuracy", accuracy);
  for (int l = 0; l < 3; ++l) {
    out.Set(std::string("client.p50_ms.") + level_names[l],
            Percentile(reports[l].latency_ms, 50));
    out.Set(std::string("client.p99_ms.") + level_names[l],
            Percentile(reports[l].latency_ms, 99));
  }
  out.Set("client.goodput_qps", goodput);
  out.Set("client.fail_ratio", static_cast<double>(all.failed) /
                                   static_cast<double>(all.attempted));
  out.Set("client.send_lag_p99_ms", send_lag_p99_ms);

  const double batches =
      static_cast<double>(batcher1.batches - batcher0.batches);
  const double batched = static_cast<double>(batcher1.batched_requests -
                                             batcher0.batched_requests);
  const double mean_batch = batches > 0 ? batched / batches : 0.0;
  out.Set("net.batcher.queue_p50_ms", batcher1.queue_delay_ms.p50);
  out.Set("net.batcher.queue_p99_ms", batcher1.queue_delay_ms.p99);
  out.Set("net.batcher.mean_batch", mean_batch);
  out.Set("net.batcher.shed",
          static_cast<double>(batcher1.shed - batcher0.shed));
  out.Set("net.batcher.rejected",
          static_cast<double>(batcher1.rejected - batcher0.rejected));

  // Route latencies cover the set-up warm-up and the fixed rates; the
  // read route is /v1/predict (both workloads send it).
  double route_requests = 0.0;
  for (const net::RouteStats& r : routes0) {
    route_requests -= static_cast<double>(r.requests);
  }
  for (const net::RouteStats& r : routes) {
    if (r.route == "/v1/predict") {
      out.Set("net.route_p50_ms", r.latency_ms.p50);
      out.Set("net.route_p99_ms", r.latency_ms.p99);
      out.Set("net.wire_mean_ms", Mean(all.client_ms) - r.latency_ms.mean);
    }
    route_requests += static_cast<double>(r.requests);
    if (r.route == "/v1/reload") {
      out.Set("net.reload_ms", r.latency_ms.mean);
      out.Set("net.reload_n", static_cast<double>(r.requests));
    }
  }
  out.Set("net.route_n", route_requests);
  out.Set("serve.load_ms", stack->load_ms);
  out.Set("serve.load_n", 1.0);

  // Direct engine replay of the fixed-rate reads at the observed batch size.
  std::vector<std::vector<int64_t>> reads;
  for (const Phase& phase : phases) {
    for (const Planned& p : phase.plan) {
      if (p.kind != Kind::kReload) reads.push_back(p.nodes);
    }
  }
  const size_t batch = std::max<size_t>(1, static_cast<size_t>(
                                               std::lround(mean_batch)));
  const double e0 = NowSeconds();
  for (size_t i = 0; i < reads.size(); i += batch) {
    const size_t end = std::min(reads.size(), i + batch);
    std::vector<std::vector<int64_t>> group(reads.begin() + i,
                                            reads.begin() + end);
    std::vector<uint64_t> seeds;
    for (size_t s = i; s < end; ++s) seeds.push_back(s);
    auto answers = engine->PredictBatchWithSeeds(group, seeds);
    out.Check(answers.ok(), "direct engine replay failed");
  }
  const double engine_s = NowSeconds() - e0;
  out.Set("serve.engine_us_per_req",
          engine_s * 1e6 / static_cast<double>(std::max<size_t>(1, reads.size())));
  out.Set("serve.engine_n", static_cast<double>(reads.size()));

  // Outside-in tracing of a server: every request the client sent must
  // show in the route counters.
  double sent = 0.0, wall = 0.0;
  for (const PhaseReport& r : reports) {
    sent += static_cast<double>(r.attempted);
    wall += r.wall_s;
  }
  out.Set("trace.coverage", route_requests / sent);
  out.Set("trace.overhead", (wall + read_s) / wall);
  return out;
}

}  // namespace

Outcome RunServeSampled(const RunConfig& config) {
  return RunServe({true, kSampledRates, "serve-sampled"}, config);
}

Outcome RunServeLookup(const RunConfig& config) {
  return RunServe({false, kLookupRates, "serve-lookup"}, config);
}

}  // namespace perfbench
