// blocks-100k: BlockRolloutRunner::RunRound on the 100k-node graph of
// bench/million_node (8 blocks x 512 seeds, fanouts 8,8, 2 steps, locality
// partition, default prefetch). One warm-up round comes first and is not
// timed. The traced run re-drives RunRound from here through
// BlockPipeline::NextRound, Restrict, timed envs, RunAgentOnBatchedEnvs
// and EditMerger, and must reproduce the runner's per-round mean rewards
// and merged edge set bitwise.

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/graphrare.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace graphrare;

struct BlocksInputs {
  data::Dataset ds;
  data::Split split;
  std::unique_ptr<entropy::RelativeEntropyIndex> index;
  double entropy_build_s = 0.0;
};

BlocksInputs MakeInputs(const RunConfig& config) {
  BlocksInputs in;
  data::GeneratorOptions o;
  o.name = "synthetic-100k";
  o.num_nodes = config.tiny ? 2000 : 100000;
  o.num_edges = 3 * o.num_nodes;
  o.num_features = 32;
  o.num_classes = 4;
  o.homophily = 0.6;
  o.degree_power = 0.35;
  o.feature_signal = 8.0;
  o.feature_density = 0.05;
  // The graph is fixed (bench/million_node's generator seed); the seed
  // draws the split, the entropy candidates and so the blocks.
  o.seed = 5;
  auto made = data::GenerateDataset(o);
  GR_CHECK(made.ok()) << made.status().ToString();
  in.ds = std::move(made).value();

  data::SplitOptions so;
  so.num_splits = 1;
  so.seed = config.seed + 11;
  in.split = data::MakeSplits(in.ds.labels, in.ds.num_classes, so).at(0);

  // Small candidate budgets, as bench/million_node builds its index.
  entropy::EntropyOptions eo;
  eo.max_two_hop_candidates = 4;
  eo.num_random_candidates = 2;
  eo.seed = config.seed * 977 + 13;
  const double t0 = NowSeconds();
  auto index = entropy::RelativeEntropyIndex::Build(in.ds.graph,
                                                    in.ds.features, eo);
  GR_CHECK(index.ok()) << index.status().ToString();
  in.index = std::make_unique<entropy::RelativeEntropyIndex>(
      std::move(index).value());
  in.entropy_build_s = NowSeconds() - t0;
  return in;
}

/// Timed rounds at least, so one host hiccup cannot move the median.
constexpr size_t kMinRounds = 3;

core::BlockRolloutOptions RolloutOptions(bool tiny) {
  core::BlockRolloutOptions ro;
  ro.blocks_per_round = tiny ? 2 : 8;
  ro.seeds_per_block = tiny ? 32 : 512;
  ro.fanouts = tiny ? std::vector<int64_t>{4, 4} : std::vector<int64_t>{8, 8};
  ro.steps_per_episode = 2;
  ro.env.gnn_epochs_per_step = 1;
  ro.seed = 21;
  ro.partition = data::PartitionMode::kLocality;
  ro.partition_seed = 21;
  return ro;
}

/// Model, trainer and agent of one co-training path; identically seeded
/// every time so the library path and the re-drive are the same trajectory.
struct Learner {
  std::unique_ptr<nn::NodeClassifier> model;
  std::unique_ptr<nn::MiniBatchTrainer> trainer;
  std::unique_ptr<rl::PpoAgent> agent;

  Learner(const data::Dataset& ds, const core::BlockRolloutOptions& ro) {
    nn::ModelOptions mo;
    mo.in_features = ds.num_features();
    mo.hidden = 16;
    mo.num_classes = ds.num_classes;
    mo.seed = 7;
    model = nn::MakeModel(nn::BackboneKind::kSage, mo);
    nn::MiniBatchTrainer::Options to;
    to.adam.lr = 0.01f;
    to.seed = 7;
    trainer = std::make_unique<nn::MiniBatchTrainer>(
        model.get(), ds.FeaturesCsr(), &ds.labels, to);
    rl::PpoOptions po;
    po.steps_per_update = ro.steps_per_episode;
    po.seed = 11;
    agent = std::make_unique<rl::PpoAgent>(core::kObservationDim, po);
  }
};

/// Times Reset and Step of the wrapped env.
class TimedEnv : public rl::Env {
 public:
  TimedEnv(rl::Env* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  tensor::Tensor Reset() override {
    Tracer::Span span(tracer_, "core.env_reset");
    return inner_->Reset();
  }
  double Step(const rl::ActionSample& action,
              tensor::Tensor* next_obs) override {
    Tracer::Span span(tracer_, "core.env_step");
    return inner_->Step(action, next_obs);
  }
  int64_t obs_dim() const override { return inner_->obs_dim(); }
  int64_t num_components() const override {
    return inner_->num_components();
  }

 private:
  rl::Env* inner_;
  Tracer* tracer_;
};

/// BlockRolloutRunner's public pieces, assembled as its constructor and
/// RunRound (core/block_rollout.cc) assemble them.
class TracedRoundRunner {
 public:
  TracedRoundRunner(const BlocksInputs& in, nn::MiniBatchTrainer* trainer,
                const core::BlockRolloutOptions& ro)
      : in_(in), trainer_(trainer), ro_(ro) {
    data::BlockPipelineOptions po;
    po.sampler.fanouts = ro.fanouts;
    po.sampler.replace = ro.sample_replace;
    po.sampler.seed = ro.seed;
    po.blocks_per_round = ro.blocks_per_round;
    po.seeds_per_block = ro.seeds_per_block;
    po.partition = ro.partition;
    po.partition_seed =
        ro.partition == data::PartitionMode::kIndependent
            ? ro.seed
            : (ro.partition_seed != 0 ? ro.partition_seed : ro.seed);
    po.prefetch_depth = ro.prefetch_depth;
    po.num_producers = ro.num_producers;
    pipeline_ = std::make_unique<data::BlockPipeline>(&in.ds.graph,
                                                      in.split.train, po);
  }

  /// One round; returns the mean env-step reward.
  double RunRound(rl::PpoAgent* agent, Tracer* tracer) {
    std::vector<data::ScheduledBlock> scheduled;
    {
      Tracer::Span span(tracer, "data.next_round");
      scheduled = pipeline_->NextRound();
    }
    std::vector<std::unique_ptr<core::BlockTopologyEnv>> envs;
    for (data::ScheduledBlock& sb : scheduled) {
      if (tracer != nullptr) {
        tracer->Count("data.block_nodes",
                      static_cast<double>(sb.block.num_nodes()));
      }
      entropy::RelativeEntropyIndex block_index = [&] {
        Tracer::Span span(tracer, "entropy.restrict");
        return in_.index->Restrict(sb.block);
      }();
      Tracer::Span span(tracer, "core.env_build");
      envs.push_back(std::make_unique<core::BlockTopologyEnv>(
          &in_.ds, std::move(sb.block), in_.split.train, trainer_,
          std::move(block_index), ro_.env));
    }
    std::vector<TimedEnv> timed;
    timed.reserve(envs.size());
    std::vector<rl::Env*> raw;
    for (const auto& e : envs) {
      timed.emplace_back(e.get(), tracer);
      raw.push_back(&timed.back());
    }
    std::vector<double> rewards;
    {
      Tracer::Span span(tracer, "rl.agent");
      rewards = rl::RunAgentOnBatchedEnvs(agent, raw, ro_.steps_per_episode);
    }
    {
      Tracer::Span span(tracer, "core.merge");
      merger_.BeginRound();
      for (const auto& e : envs) e->MergeInto(&merger_);
    }
    if (tracer != nullptr) {  // one traced round: the sum is its rate
      tracer->Count("core.conflict_rate",
                    merger_.round_stats().ConflictRate());
    }
    double sum = 0.0;
    for (const double r : rewards) sum += r;
    return rewards.empty() ? 0.0 : sum / static_cast<double>(rewards.size());
  }

  graph::Graph MergedGraph() const { return merger_.Merge(in_.ds.graph); }

 private:
  const BlocksInputs& in_;
  nn::MiniBatchTrainer* trainer_;
  core::BlockRolloutOptions ro_;
  std::unique_ptr<data::BlockPipeline> pipeline_;
  core::EditMerger merger_;
};

}  // namespace

Outcome RunBlocks100k(const RunConfig& config) {
  Outcome out;
  const double setup_start = NowSeconds();
  const BlocksInputs in = MakeInputs(config);
  const double setup_s = NowSeconds() - setup_start;
  if (config.setup_only) return SetupOnlyOutcome({setup_s});
  const core::BlockRolloutOptions ro = RolloutOptions(config.tiny);

  auto check_round = [&](const core::BlockRolloutRunner::RoundStats& s) {
    out.Check(std::isfinite(s.mean_reward), "non-finite round reward");
    out.Check(s.num_blocks == ro.blocks_per_round, "round lost blocks");
    out.Check(s.env_steps == ro.steps_per_episode, "round lost env steps");
    out.Check(s.conflicts.nodes_recorded > 0, "round recorded no edits");
  };

  if (!config.trace) {
    Learner learner(in.ds, ro);
    core::BlockRolloutRunner runner(&in.ds, &in.split, learner.trainer.get(),
                                    in.index.get(), ro);
    check_round(runner.RunRound(learner.agent.get()));  // warm-up
    std::vector<double> round_s;
    const double start = NowSeconds();
    do {
      const double t0 = NowSeconds();
      const core::BlockRolloutRunner::RoundStats stats =
          runner.RunRound(learner.agent.get());
      round_s.push_back(NowSeconds() - t0);
      ++out.attempted;
      check_round(stats);
    } while (round_s.size() < kMinRounds ||
             NowSeconds() - start < config.seconds);
    const graph::Graph merged = runner.MergedGraph();
    out.Check(merged.num_nodes() == in.ds.num_nodes(), "merge lost nodes");
    const double val_acc =
        learner.trainer->Evaluate(merged, in.split.val).accuracy;
    out.Check(val_acc > 0.0 && val_acc <= 1.0, "val accuracy outside (0, 1]");
    out.Set("setup_s", setup_s);
    out.Set("peak_rss_mib", PeakRssMiB());
    out.Set("p50_ms", Median(round_s) * 1e3);
    out.Set("p90_ms", TailPercentile(round_s, 90) * 1e3);
    return out;
  }

  // Library path: warm-up plus one timed round.
  std::vector<double> library_rewards;
  graph::Graph library_merged;
  double library_s = 0.0;
  {
    Learner learner(in.ds, ro);
    core::BlockRolloutRunner runner(&in.ds, &in.split, learner.trainer.get(),
                                    in.index.get(), ro);
    for (int round = 0; round < 2; ++round) {
      const double t0 = NowSeconds();
      const core::BlockRolloutRunner::RoundStats stats =
          runner.RunRound(learner.agent.get());
      library_s = NowSeconds() - t0;
      library_rewards.push_back(stats.mean_reward);
      check_round(stats);
    }
    library_merged = runner.MergedGraph();
    out.Set("quality.accuracy",
            learner.trainer->Evaluate(library_merged, in.split.val).accuracy);
  }

  // Re-drive: the warm-up round untraced, the timed round traced.
  Tracer tracer;
  std::vector<double> redrive_rewards;
  double redrive_s = 0.0;
  tensor::TensorPool::Stats pool0, pool1;
  graph::Graph redrive_merged;
  {
    Learner learner(in.ds, ro);
    TracedRoundRunner redrive(in, learner.trainer.get(), ro);
    redrive_rewards.push_back(redrive.RunRound(learner.agent.get(), nullptr));
    pool0 = tensor::TensorPool::GetStats();
    const double t0 = NowSeconds();
    double reward = redrive.RunRound(learner.agent.get(), &tracer);
    redrive_s = NowSeconds() - t0;
    pool1 = tensor::TensorPool::GetStats();
    if (config.perturb) {
      reward = std::nextafter(reward, std::numeric_limits<double>::max());
    }
    redrive_rewards.push_back(reward);
    redrive_merged = redrive.MergedGraph();
  }

  out.attempted = 2;
  const bool same_rewards = redrive_rewards == library_rewards;
  const bool same_edges = redrive_merged.edges() == library_merged.edges();
  out.Check(same_rewards, "re-driven round rewards differ from RunRound");
  out.Check(same_edges, "re-driven merged edge set differs from RunRound");
  out.failed = (same_rewards ? 0 : 1) + (same_edges ? 0 : 1);

  // The index is built once, in set-up.
  out.Set("entropy.build_s", in.entropy_build_s);
  out.Set("entropy.build_n", 1);
  tracer.Export("entropy.restrict", &out);
  tracer.Export("core.env_build", &out);
  tracer.Export("core.env_reset", &out);
  tracer.Export("core.env_step", &out);
  tracer.Export("core.merge", &out);
  tracer.Export("data.next_round", &out);
  tracer.Export("rl.agent", &out);
  out.Set("rl.agent_s", tracer.SelfTotal("rl.agent"));
  out.Set("data.block_nodes", tracer.Counter("data.block_nodes"));
  out.Set("core.conflict_rate", tracer.Counter("core.conflict_rate"));
  const double hits = static_cast<double>(pool1.hits - pool0.hits);
  const double misses = static_cast<double>(pool1.misses - pool0.misses);
  out.Set("tensor.pool_hit_rate",
          hits + misses > 0 ? hits / (hits + misses) : 0.0);
  const double coverage = tracer.RootTotal() / redrive_s;
  out.Check(coverage >= kMinCoverage, "spans cover too little of the re-drive");
  out.Set("trace.coverage", coverage);
  out.Set("trace.overhead", redrive_s / library_s);
  return out;
}

}  // namespace perfbench
