// cotrain-squirrel: one GraphRareTrainer::Run (paper Algorithm 1, GCN) on
// the full-scale squirrel twin, the paper's densest graph. The traced run
// re-drives the same loop from here through the public calls Run makes and
// must reproduce Run's reward history and test accuracy bitwise.

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/graphrare.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace graphrare;

/// The bench_util.h BenchRareOptions(kGcn) values of the quick protocol,
/// pinned here so the workload does not move when the paper benches do,
/// with the benchmark seed as the run's master seed (model init, PPO,
/// entropy candidates, dropout).
core::GraphRareOptions CotrainOptions(bool tiny, uint64_t seed) {
  core::GraphRareOptions opts;
  opts.backbone = nn::BackboneKind::kGcn;
  opts.adam.lr = 0.01f;
  opts.adam.weight_decay = 5e-5f;
  opts.seed = seed;
  opts.iterations = tiny ? 4 : 24;
  opts.pretrain_epochs = tiny ? 10 : 100;
  opts.pretrain_patience = tiny ? 5 : 20;
  opts.finetune_epochs = tiny ? 2 : 6;
  opts.ppo.steps_per_update = 6;
  return opts;
}

constexpr size_t kMinRuns = 3;

struct Trajectory {
  std::vector<double> rewards;
  std::vector<double> val_acc;
  double test_accuracy = 0.0;
};

core::RewardInputs EvaluateForReward(nn::ClassifierTrainer* trainer,
                                     const data::Dataset& ds,
                                     const core::GraphRareOptions& options,
                                     const graph::Graph& g,
                                     const std::vector<int64_t>& idx,
                                     Tracer* tracer) {
  Tracer::Span span(tracer, "nn.eval");
  core::RewardInputs out;
  const nn::EvalResult eval = trainer->Evaluate(g, idx);
  out.accuracy = eval.accuracy;
  out.loss = eval.loss;
  if (options.reward.kind == core::RewardKind::kAuc) {
    out.auc = nn::MacroAucOvr(trainer->EvalLogits(g), ds.labels, idx,
                              ds.num_classes);
  }
  return out;
}

/// GraphRareTrainer::Run (core/trainer.cc) for PolicyMode::kDrl and
/// SequenceMode::kEntropy, step for step, with a span around every call
/// into entropy, nn, rl and the topology optimizer. `perturb` nudges one
/// reward by one ulp, a divergence the bitwise comparison must catch.
Trajectory Redrive(const data::Dataset& ds, const data::Split& split,
                   const core::GraphRareOptions& options, bool perturb,
                   Tracer* tracer) {
  const graph::Graph& g0 = ds.graph;
  const core::DerivedSeeds seeds = core::DeriveSeeds(options.seed);
  Trajectory out;

  entropy::EntropyOptions entropy_opts = options.entropy;
  entropy_opts.seed = seeds.entropy;
  std::unique_ptr<entropy::RelativeEntropyIndex> index;
  {
    Tracer::Span span(tracer, "entropy.build");
    auto built =
        entropy::RelativeEntropyIndex::Build(g0, ds.features, entropy_opts);
    GR_CHECK(built.ok()) << built.status().ToString();
    index = std::make_unique<entropy::RelativeEntropyIndex>(
        std::move(built).value());
  }

  nn::ModelOptions model_opts;
  model_opts.in_features = ds.num_features();
  model_opts.hidden = options.hidden;
  model_opts.num_classes = ds.num_classes;
  model_opts.num_layers = options.num_layers;
  model_opts.dropout = options.dropout;
  model_opts.gat_heads = options.gat_heads;
  model_opts.seed = options.seed;
  auto model = nn::MakeModel(options.backbone, model_opts);
  nn::ClassifierTrainer::Options trainer_opts;
  trainer_opts.adam = options.adam;
  trainer_opts.seed = options.seed;
  nn::ClassifierTrainer trainer(model.get(),
                                nn::LayerInput::Sparse(ds.FeaturesCsr()),
                                &ds.labels, trainer_opts);
  if (options.pretrain_epochs > 0) {
    Tracer::Span span(tracer, "nn.pretrain");
    trainer.Fit(g0, split.train, split.val, options.pretrain_epochs,
                options.pretrain_patience);
  }

  core::TopologyState state(g0.num_nodes(), options.k_max, options.d_max);
  graph::Graph current = g0;
  rl::PpoOptions ppo_opts = options.ppo;
  ppo_opts.seed = seeds.ppo;
  rl::PpoAgent agent(core::kObservationDim, ppo_opts);
  core::TopologyOptimizerOptions topo_opts;
  topo_opts.enable_add = options.enable_add;
  topo_opts.enable_remove = options.enable_remove;

  auto evaluate = [&](const graph::Graph& g, const std::vector<int64_t>& idx) {
    Tracer::Span span(tracer, "nn.eval");
    return trainer.Evaluate(g, idx).accuracy;
  };

  core::RewardInputs prev =
      EvaluateForReward(&trainer, ds, options, current, split.train, tracer);
  double max_train_acc = 0.0;
  double last_reward = 0.0;
  bool reward_pending = false;
  std::vector<tensor::Tensor> best_weights = trainer.SaveWeights();
  graph::Graph best_graph = current;
  double best_val = evaluate(current, split.val);

  for (int t = 0; t < options.iterations; ++t) {
    const core::RewardInputs curr =
        EvaluateForReward(&trainer, ds, options, current, split.train, tracer);
    if (curr.accuracy >= max_train_acc && options.finetune_epochs > 0) {
      max_train_acc = curr.accuracy;
      int since_best = 0;
      double ft_best_val = -1.0;
      for (int e = 0; e < options.finetune_epochs; ++e) {
        {
          Tracer::Span span(tracer, "nn.finetune");
          trainer.TrainEpoch(current, split.train);
        }
        const double val_acc = evaluate(current, split.val);
        if (val_acc > ft_best_val) {
          ft_best_val = val_acc;
          since_best = 0;
        } else if (++since_best >= 3) {
          break;
        }
      }
    }

    double reward = core::ComputeReward(options.reward, prev, curr);
    if (perturb && t == options.iterations / 2) {
      reward = std::nextafter(reward, std::numeric_limits<double>::max());
    }
    prev = curr;
    last_reward = reward;
    out.rewards.push_back(reward);

    const double val_acc = evaluate(current, split.val);
    out.val_acc.push_back(val_acc);
    if (val_acc > best_val) {
      best_val = val_acc;
      best_weights = trainer.SaveWeights();
      best_graph = current;
    }

    tensor::Tensor obs;
    {
      Tracer::Span span(tracer, "core.observe");
      obs = core::BuildObservation(g0, current, state, *index, last_reward);
    }
    if (reward_pending) {
      agent.StoreReward(reward);
      if (agent.ReadyToUpdate()) {
        Tracer::Span span(tracer, "rl.update");
        agent.Update(obs);
      }
    }
    rl::ActionSample action;
    {
      Tracer::Span span(tracer, "rl.act");
      action = agent.Act(obs);
    }
    reward_pending = true;
    state.Apply(action);

    {
      Tracer::Span span(tracer, "core.rebuild");
      current = core::BuildOptimizedGraph(g0, state, *index, topo_opts);
    }
    if (tracer != nullptr) {
      tracer->Count("core.rebuild_edges",
                    static_cast<double>(current.num_edges()));
    }
  }
  if (reward_pending) {
    const core::RewardInputs final_eval =
        EvaluateForReward(&trainer, ds, options, current, split.train, tracer);
    agent.StoreReward(core::ComputeReward(options.reward, prev, final_eval));
  }
  trainer.LoadWeights(best_weights);
  out.test_accuracy = evaluate(best_graph, split.test);
  return out;
}

}  // namespace

Outcome RunCotrainSquirrel(const RunConfig& config) {
  Outcome out;
  const int64_t shrink = config.tiny ? 20 : 1;
  std::vector<double> setup_s;
  data::Dataset ds;
  data::Split split;
  for (int i = 0; i < kCotrainSetupRepeats; ++i) {
    // Free the previous copy, out of the tensor pool too, so every repeat
    // starts as the first did and the Run's memory is one set-up's.
    ds = data::Dataset();
    tensor::TensorPool::Clear();
    const double t0 = NowSeconds();
    // The graph and its 60/20/20 split are fixed; the seed drives the run.
    auto made = data::MakeDatasetScaled("squirrel", shrink, /*seed=*/1);
    GR_CHECK(made.ok()) << made.status().ToString();
    ds = std::move(made).value();
    data::SplitOptions so;
    so.num_splits = 1;
    so.seed = 1;
    split = data::MakeSplits(ds.labels, ds.num_classes, so).at(0);
    setup_s.push_back(NowSeconds() - t0);
  }
  if (config.setup_only) return SetupOnlyOutcome(setup_s);
  const core::GraphRareOptions options =
      CotrainOptions(config.tiny, config.seed);

  auto run_library = [&](double* seconds) {
    core::GraphRareTrainer trainer(&ds, options);
    const double t0 = NowSeconds();
    core::GraphRareResult result = trainer.Run(split);
    *seconds = NowSeconds() - t0;
    return result;
  };
  auto check_result = [&](const core::GraphRareResult& r) {
    out.Check(r.reward_history.size() ==
                  static_cast<size_t>(options.iterations),
              "reward history length != iterations");
    for (const double reward : r.reward_history) {
      out.Check(std::isfinite(reward), "non-finite reward");
    }
    out.Check(r.test_accuracy > 0.0 && r.test_accuracy <= 1.0,
              "test accuracy outside (0, 1]");
    out.Check(r.model != nullptr, "Run returned no model");
    out.Check(r.best_graph.num_nodes() == ds.num_nodes(),
              "best graph lost nodes");
  };

  if (!config.trace) {
    // Repeat whole runs until the measuring window is used, at least
    // kMinRuns times so one host hiccup cannot move the median; every
    // repeat must replay the first one bitwise.
    std::vector<double> run_s;
    std::vector<double> first_rewards;
    double first_accuracy = 0.0;
    double peak_rss_mib = 0.0;
    const double start = NowSeconds();
    do {
      double seconds = 0.0;
      const core::GraphRareResult r = run_library(&seconds);
      run_s.push_back(seconds);
      ++out.attempted;
      check_result(r);
      if (run_s.size() == 1) {
        first_rewards = r.reward_history;
        first_accuracy = r.test_accuracy;
        // One Run's footprint: the pool and allocator keep part of each
        // Run's memory, so later repeats would read higher.
        peak_rss_mib = PeakRssMiB();
      } else {
        const bool same = r.reward_history == first_rewards &&
                          r.test_accuracy == first_accuracy;
        out.Check(same, "repeated Run diverged from the first");
        out.failed += same ? 0 : 1;
      }
    } while (run_s.size() < kMinRuns || NowSeconds() - start < config.seconds);
    out.Set("setup_s", Median(setup_s));
    out.Set("peak_rss_mib", peak_rss_mib);
    out.Set("p50_ms", Median(run_s) * 1e3);
    out.Set("p90_ms", TailPercentile(run_s, 90) * 1e3);
    return out;
  }

  double library_s = 0.0;
  const core::GraphRareResult library = run_library(&library_s);
  check_result(library);

  Tracer tracer;
  const tensor::TensorPool::Stats pool0 = tensor::TensorPool::GetStats();
  const double t0 = NowSeconds();
  const Trajectory redrive =
      Redrive(ds, split, options, config.perturb, &tracer);
  const double redrive_s = NowSeconds() - t0;
  const tensor::TensorPool::Stats pool1 = tensor::TensorPool::GetStats();

  out.attempted = 1;
  out.Set("quality.accuracy", library.test_accuracy);
  const bool same = redrive.rewards == library.reward_history &&
                    redrive.val_acc == library.val_acc_history &&
                    redrive.test_accuracy == library.test_accuracy;
  out.Check(same, "traced re-drive does not reproduce Run bitwise");
  out.failed = same ? 0 : 1;

  tracer.Export("entropy.build", &out);
  tracer.Export("nn.pretrain", &out);
  tracer.Export("nn.finetune", &out);
  tracer.Export("nn.eval", &out);
  tracer.Export("rl.act", &out);
  tracer.Export("rl.update", &out);
  tracer.Export("core.observe", &out);
  tracer.Export("core.rebuild", &out);
  out.Set("core.rebuild_edges", tracer.Counter("core.rebuild_edges"));
  const double hits = static_cast<double>(pool1.hits - pool0.hits);
  const double misses = static_cast<double>(pool1.misses - pool0.misses);
  out.Set("tensor.pool_hit_rate",
          hits + misses > 0 ? hits / (hits + misses) : 0.0);
  const double coverage = tracer.RootTotal() / redrive_s;
  out.Check(coverage >= kMinCoverage, "spans cover too little of the re-drive");
  out.Set("trace.coverage", coverage);
  // The library Run goes first and pays the cold start, so this can read
  // below 1.
  out.Set("trace.overhead", redrive_s / library_s);
  return out;
}

}  // namespace perfbench
