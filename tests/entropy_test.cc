// Entropy module tests: JS divergence properties, structural entropy
// (Eqs. 5-8), feature entropy (Eq. 4), relative entropy index (Eq. 9) and
// sequence construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "data/generator.h"
#include "entropy/relative_entropy.h"

namespace graphrare {
namespace entropy {
namespace {

TEST(JsDivergenceTest, IdenticalDistributionsGiveZero) {
  std::vector<float> p = {0.5f, 0.3f, 0.2f};
  EXPECT_NEAR(JsDivergence(p, p), 0.0, 1e-9);
}

TEST(JsDivergenceTest, DisjointSupportGivesOne) {
  std::vector<float> p = {1.0f, 0.0f};
  std::vector<float> q = {0.0f, 1.0f};
  EXPECT_NEAR(JsDivergence(p, q), 1.0, 1e-9);
}

TEST(JsDivergenceTest, Symmetric) {
  std::vector<float> p = {0.7f, 0.2f, 0.1f};
  std::vector<float> q = {0.1f, 0.6f, 0.3f};
  EXPECT_NEAR(JsDivergence(p, q), JsDivergence(q, p), 1e-12);
}

TEST(JsDivergenceTest, BoundedInUnitInterval) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> p(6), q(6);
    float sp = 0, sq = 0;
    for (int i = 0; i < 6; ++i) {
      p[i] = static_cast<float>(rng.Uniform());
      q[i] = static_cast<float>(rng.Uniform());
      sp += p[i];
      sq += q[i];
    }
    for (int i = 0; i < 6; ++i) {
      p[i] /= sp;
      q[i] /= sq;
    }
    const double js = JsDivergence(p, q);
    EXPECT_GE(js, 0.0);
    EXPECT_LE(js, 1.0);
  }
}

TEST(JsDivergenceTest, DifferentLengthsZeroPadded) {
  std::vector<float> p = {0.5f, 0.5f};
  std::vector<float> q = {0.5f, 0.25f, 0.25f};
  const double js = JsDivergence(p, q);
  EXPECT_GT(js, 0.0);
  EXPECT_LT(js, 1.0);
}

// ---- Structural entropy -----------------------------------------------------

TEST(StructuralEntropyTest, IdenticalLocalStructureGivesOne) {
  // 4-cycle: every node has the same degree profile.
  graph::Graph g =
      graph::Graph::FromEdgeListOrDie(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  StructuralEntropyCalculator calc(g);
  EXPECT_NEAR(calc.Between(0, 2), 1.0, 1e-9);
  EXPECT_NEAR(calc.Between(1, 3), 1.0, 1e-9);
}

TEST(StructuralEntropyTest, HubVsLeafIsLow) {
  // Star: node 0 is the hub of 5 leaves; compare hub vs leaf profiles.
  graph::Graph g = graph::Graph::FromEdgeListOrDie(
      6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  StructuralEntropyCalculator calc(g);
  const double hub_leaf = calc.Between(0, 1);
  const double leaf_leaf = calc.Between(1, 2);
  EXPECT_GT(leaf_leaf, hub_leaf);
  EXPECT_NEAR(leaf_leaf, 1.0, 1e-9);
}

TEST(StructuralEntropyTest, Symmetric) {
  graph::Graph g = graph::Graph::FromEdgeListOrDie(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}});
  StructuralEntropyCalculator calc(g);
  for (int64_t v = 0; v < 5; ++v) {
    for (int64_t u = 0; u < 5; ++u) {
      EXPECT_NEAR(calc.Between(v, u), calc.Between(u, v), 1e-12);
    }
  }
}

TEST(StructuralEntropyTest, SequencesNormalised) {
  graph::Graph g = graph::Graph::FromEdgeListOrDie(4, {{0, 1}, {0, 2}, {2, 3}});
  StructuralEntropyCalculator calc(g);
  for (int64_t v = 0; v < 4; ++v) {
    const auto& seq = calc.Sequence(v);
    double sum = 0.0;
    for (float x : seq) sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-6);
    // Descending.
    for (size_t i = 1; i < seq.size(); ++i) EXPECT_LE(seq[i], seq[i - 1]);
  }
}

TEST(StructuralEntropyTest, IsolatedNodeHandled) {
  graph::Graph g = graph::Graph::FromEdgeListOrDie(3, {{0, 1}});
  StructuralEntropyCalculator calc(g);
  const double h = calc.Between(2, 0);
  EXPECT_GE(h, 0.0);
  EXPECT_LE(h, 1.0);
}

// ---- Feature entropy --------------------------------------------------------

TEST(FeatureEntropyTest, EmbeddingL2Normalised) {
  Rng rng(2);
  tensor::Tensor x = tensor::Tensor::Rand(10, 32, &rng);
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 8;
  tensor::Tensor z = EmbedFeatures(x, opts);
  EXPECT_EQ(z.cols(), 8);
  for (int64_t r = 0; r < z.rows(); ++r) {
    EXPECT_NEAR(EmbeddingDot(z, r, r), 1.0, 1e-5);
  }
}

TEST(FeatureEntropyTest, IdentityWhenProjectionDisabled) {
  Rng rng(3);
  tensor::Tensor x = tensor::Tensor::Rand(5, 6, &rng);
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  opts.l2_normalize = false;
  tensor::Tensor z = EmbedFeatures(x, opts);
  EXPECT_TRUE(z.AllClose(x));
}

TEST(FeatureEntropyTest, MoreSimilarPairsHaveHigherEntropy) {
  // Nodes 0 and 1 share features; 2 is orthogonal to both. With a realistic
  // (large) pair set every pair probability is << 1/e, where -P log P is
  // increasing, so the similar pair must rank above the dissimilar one
  // (the paper's Eq. 4 reading).
  Rng rng(99);
  tensor::Tensor x = tensor::Tensor::Rand(20, 4, &rng);
  // Overwrite the three probe nodes with controlled features.
  for (int64_t c = 0; c < 4; ++c) {
    x.at(0, c) = c < 2 ? 1.0f : 0.0f;
    x.at(1, c) = c < 2 ? 1.0f : 0.0f;
    x.at(2, c) = c < 2 ? 0.0f : 1.0f;
  }
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  tensor::Tensor z = EmbedFeatures(x, opts);
  std::vector<NodePair> pairs = {{0, 1}, {0, 2}};
  for (int64_t v = 3; v < 20; ++v) pairs.push_back({v, (v + 5) % 20});
  const auto h = FeatureEntropyForPairs(z, pairs);
  EXPECT_GT(h[0], h[1]);  // similar pair ranks above dissimilar pair
}

TEST(FeatureEntropyTest, TinyPairSetsAreOutsideMonotoneRegime) {
  // Documented boundary: with only two pairs the larger probability can
  // exceed 1/e, where -P log P decreases — rankings are only meaningful
  // for candidate sets of realistic size (the index always builds those).
  tensor::Tensor x = tensor::Tensor::FromData(3, 4,
                                              {1, 1, 0, 0,   //
                                               1, 1, 0, 0,   //
                                               0, 0, 1, 1});
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  tensor::Tensor z = EmbedFeatures(x, opts);
  const auto h = FeatureEntropyForPairs(z, {{0, 1}, {0, 2}});
  ASSERT_EQ(h.size(), 2u);
  EXPECT_LT(h[0], h[1]);  // inverted: P(0,1) = 0.73 > 1/e here
}

TEST(FeatureEntropyTest, EntropiesPositive) {
  Rng rng(4);
  tensor::Tensor x = tensor::Tensor::Rand(20, 16, &rng);
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  tensor::Tensor z = EmbedFeatures(x, opts);
  std::vector<NodePair> pairs;
  for (int64_t v = 0; v < 20; ++v) {
    for (int64_t u = v + 1; u < 20; ++u) pairs.push_back({v, u});
  }
  const auto h = FeatureEntropyForPairs(z, pairs);
  for (double e : h) EXPECT_GT(e, 0.0);
}

TEST(FeatureEntropyTest, EmptyPairsGiveEmpty) {
  tensor::Tensor z = tensor::Tensor::Ones(3, 3);
  EXPECT_TRUE(FeatureEntropyForPairs(z, {}).empty());
}

// ---- Relative entropy index -------------------------------------------------

data::Dataset TestDataset(uint64_t seed = 31) {
  data::GeneratorOptions o;
  o.num_nodes = 100;
  o.num_edges = 250;
  o.num_features = 60;
  o.num_classes = 4;
  o.homophily = 0.2;
  o.partner_affinity = 0.9;
  o.feature_signal = 10.0;
  o.feature_density = 0.1;
  o.seed = seed;
  return std::move(data::GenerateDataset(o)).value();
}

TEST(RelativeEntropyIndexTest, BuildsSequencesForEveryNode) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  EXPECT_EQ(index.num_nodes(), ds.num_nodes());
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    const NodeSequences& seq = index.sequences(v);
    EXPECT_EQ(static_cast<int64_t>(seq.neighbors.size()), ds.graph.Degree(v));
  }
}

TEST(RelativeEntropyIndexTest, RemoteSequencesDescending) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    const auto& remote = index.sequences(v).remote;
    for (size_t i = 1; i < remote.size(); ++i) {
      EXPECT_GE(remote[i - 1].entropy, remote[i].entropy);
    }
  }
}

TEST(RelativeEntropyIndexTest, NeighborSequencesAscending) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    const auto& nbrs = index.sequences(v).neighbors;
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LE(nbrs[i - 1].entropy, nbrs[i].entropy);
    }
  }
}

TEST(RelativeEntropyIndexTest, RemoteCandidatesAreNonAdjacent) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (const auto& s : index.sequences(v).remote) {
      EXPECT_FALSE(ds.graph.HasEdge(v, s.node));
      EXPECT_NE(s.node, v);
    }
  }
}

TEST(RelativeEntropyIndexTest, CandidateCapRespected) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.max_two_hop_candidates = 5;
  opts.num_random_candidates = 3;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    EXPECT_LE(index.sequences(v).remote.size(), 8u);
  }
}

TEST(RelativeEntropyIndexTest, LambdaZeroIgnoresStructure) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.lambda = 0.0;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  // All entropies must be within [0, 1] (rescaled feature entropy alone).
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (const auto& s : index.sequences(v).remote) {
      EXPECT_GE(s.entropy, 0.0);
      EXPECT_LE(s.entropy, 1.0);
    }
  }
}

TEST(RelativeEntropyIndexTest, EntropyBoundedByOnePlusLambda) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.lambda = 2.0;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (const auto& s : index.sequences(v).remote) {
      EXPECT_GE(s.entropy, 0.0);
      EXPECT_LE(s.entropy, 3.0 + 1e-9);
    }
  }
}

TEST(RelativeEntropyIndexTest, ShuffleKeepsMembership) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  std::vector<int64_t> before;
  for (const auto& s : index.sequences(0).remote) before.push_back(s.node);
  Rng rng(5);
  index.ShuffleSequences(&rng);
  std::vector<int64_t> after;
  for (const auto& s : index.sequences(0).remote) after.push_back(s.node);
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

TEST(RelativeEntropyIndexTest, ShuffleSequencesDeterministicForFixedRng) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  auto a = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  auto b = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  Rng rng_a(42), rng_b(42);
  a.ShuffleSequences(&rng_a);
  b.ShuffleSequences(&rng_b);
  for (int64_t v = 0; v < a.num_nodes(); ++v) {
    const NodeSequences& sa = a.sequences(v);
    const NodeSequences& sb = b.sequences(v);
    ASSERT_EQ(sa.remote.size(), sb.remote.size());
    for (size_t i = 0; i < sa.remote.size(); ++i) {
      EXPECT_EQ(sa.remote[i].node, sb.remote[i].node);
      EXPECT_EQ(sa.remote[i].entropy, sb.remote[i].entropy);
    }
    ASSERT_EQ(sa.neighbors.size(), sb.neighbors.size());
    for (size_t i = 0; i < sa.neighbors.size(); ++i) {
      EXPECT_EQ(sa.neighbors[i].node, sb.neighbors[i].node);
      EXPECT_EQ(sa.neighbors[i].entropy, sb.neighbors[i].entropy);
    }
  }
}

TEST(RelativeEntropyIndexTest, ShuffleSequencesIsPermutationOnly) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  const auto snapshot = [&] {
    std::vector<std::vector<std::pair<int64_t, double>>> all;
    for (int64_t v = 0; v < index.num_nodes(); ++v) {
      std::vector<std::pair<int64_t, double>> entries;
      for (const auto& s : index.sequences(v).remote) {
        entries.emplace_back(s.node, s.entropy);
      }
      for (const auto& s : index.sequences(v).neighbors) {
        entries.emplace_back(s.node, s.entropy);
      }
      std::sort(entries.begin(), entries.end());
      all.push_back(std::move(entries));
    }
    return all;
  };
  const auto before = snapshot();
  Rng rng(7);
  index.ShuffleSequences(&rng);
  // Shuffling permutes each sequence in place: the (node, entropy) multiset
  // per node is untouched — no entry gains, loses, or changes its score.
  EXPECT_EQ(snapshot(), before);
}

TEST(RelativeEntropyIndexTest, MaxRemoteLengthOnEmptyGraph) {
  const graph::Graph empty = graph::Graph::FromEdgeListOrDie(0, {});
  const tensor::Tensor features(0, 4);
  auto index = *RelativeEntropyIndex::Build(empty, features, {});
  EXPECT_EQ(index.num_nodes(), 0);
  EXPECT_EQ(index.MaxRemoteLength(), 0);
}

TEST(RelativeEntropyIndexTest, MaxRemoteLengthOnSingletonGraph) {
  const graph::Graph singleton = graph::Graph::FromEdgeListOrDie(1, {});
  const tensor::Tensor features(1, 4);
  auto index = *RelativeEntropyIndex::Build(singleton, features, {});
  EXPECT_EQ(index.num_nodes(), 1);
  // The only node has no 2-hop or remote candidates: remote stays empty.
  EXPECT_EQ(index.MaxRemoteLength(), 0);
  EXPECT_TRUE(index.sequences(0).remote.empty());
  EXPECT_TRUE(index.sequences(0).neighbors.empty());
}

TEST(RelativeEntropyIndexTest, ValidationErrors) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.lambda = -1.0;
  EXPECT_FALSE(RelativeEntropyIndex::Build(ds.graph, ds.features, opts).ok());
  opts = EntropyOptions();
  opts.max_two_hop_candidates = 0;
  opts.num_random_candidates = 0;
  EXPECT_FALSE(RelativeEntropyIndex::Build(ds.graph, ds.features, opts).ok());
  // Feature row mismatch.
  tensor::Tensor bad(ds.num_nodes() + 1, 4);
  EXPECT_FALSE(RelativeEntropyIndex::Build(ds.graph, bad, {}).ok());
}

TEST(DenseEntropyMatrixTest, SymmetricWithEmptyDiagonal) {
  data::Dataset ds = TestDataset();
  tensor::Tensor m = DenseRelativeEntropyMatrix(ds.graph, ds.features, {});
  EXPECT_EQ(m.rows(), ds.num_nodes());
  for (int64_t v = 0; v < 20; ++v) {
    EXPECT_EQ(m.at(v, v), 0.0f);
    for (int64_t u = 0; u < 20; ++u) {
      EXPECT_FLOAT_EQ(m.at(v, u), m.at(u, v));
    }
  }
}

TEST(DenseEntropyMatrixTest, SameLabelPairsHaveHigherEntropy) {
  // The paper's Fig. 8 claim: same-label blocks are brighter. Use a
  // strongly separable feature model so it holds robustly.
  data::GeneratorOptions o;
  o.num_nodes = 80;
  o.num_edges = 200;
  o.num_features = 80;
  o.num_classes = 4;
  o.homophily = 0.25;
  o.feature_signal = 15.0;
  o.feature_density = 0.15;
  o.seed = 77;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  tensor::Tensor m = DenseRelativeEntropyMatrix(ds.graph, ds.features, {});
  double same = 0.0, cross = 0.0;
  int64_t n_same = 0, n_cross = 0;
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (int64_t u = v + 1; u < ds.num_nodes(); ++u) {
      if (ds.labels[v] == ds.labels[u]) {
        same += m.at(v, u);
        ++n_same;
      } else {
        cross += m.at(v, u);
        ++n_cross;
      }
    }
  }
  EXPECT_GT(same / n_same, cross / n_cross);
}

// ---- Bitwise oracle for the cached / parallel build --------------------------

// Hub-heavy graph: endpoint u ~ n * U^3 collects most edges on a few low
// ids, so hub and leaf degree sequences differ in length by two orders of
// magnitude, and the last node stays isolated.
graph::Graph SkewedGraph(int64_t n, int64_t num_edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::Edge> edges;
  for (int64_t e = 0; e < num_edges; ++e) {
    const double x = rng.Uniform();
    const int64_t u = static_cast<int64_t>(static_cast<double>(n - 1) * x *
                                           x * x);
    const int64_t v = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(n - 1)));
    if (u != v) edges.emplace_back(u, v);
  }
  return graph::Graph::FromEdgeListOrDie(n, edges);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// RelativeEntropyIndex::Build written the straightforward serial way: one
// hash set per node for candidate membership, 1 - JsDivergence for the
// structural term, a serial softmax over the pair set.
std::vector<NodeSequences> ReferenceBuild(const graph::Graph& g,
                                          const tensor::Tensor& features,
                                          const EntropyOptions& options) {
  const int64_t n = g.num_nodes();
  Rng rng(options.seed);
  const tensor::Tensor z = EmbedFeatures(features, options.embedding);
  StructuralEntropyCalculator structural(g);
  std::vector<NodePair> pairs;
  std::vector<int64_t> begin_of, remote_of;
  for (int64_t v = 0; v < n; ++v) {
    begin_of.push_back(static_cast<int64_t>(pairs.size()));
    std::unordered_set<int64_t> taken = {v};
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      taken.insert(*p);
    }
    std::vector<int64_t> two_hop;
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      for (const int64_t* q = g.NeighborsBegin(*p); q != g.NeighborsEnd(*p);
           ++q) {
        if (taken.insert(*q).second) two_hop.push_back(*q);
      }
    }
    if (static_cast<int>(two_hop.size()) > options.max_two_hop_candidates) {
      std::vector<int64_t> sampled;
      for (int64_t i : rng.SampleWithoutReplacement(
               static_cast<int64_t>(two_hop.size()),
               options.max_two_hop_candidates)) {
        sampled.push_back(two_hop[static_cast<size_t>(i)]);
      }
      two_hop = std::move(sampled);
    }
    for (int64_t c : two_hop) pairs.emplace_back(v, c);
    int drawn = 0;
    for (int attempts = 0; drawn < options.num_random_candidates &&
                           attempts < options.num_random_candidates * 20;
         ++attempts) {
      const int64_t c =
          static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
      if (taken.insert(c).second) {
        pairs.emplace_back(v, c);
        ++drawn;
      }
    }
    remote_of.push_back(static_cast<int64_t>(two_hop.size()) + drawn);
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      pairs.emplace_back(v, *p);
    }
  }
  begin_of.push_back(static_cast<int64_t>(pairs.size()));

  std::vector<double> hf;
  for (const auto& [v, u] : pairs) hf.push_back(EmbeddingDot(z, v, u));
  const double mx = *std::max_element(hf.begin(), hf.end());
  double sum_exp = 0.0;
  for (double s : hf) sum_exp += std::exp(s - mx);
  const double log_z = mx + std::log(sum_exp);
  for (double& h : hf) {
    const double log_p = h - log_z;
    const double p = std::exp(log_p);
    h = -p * log_p;
  }
  const auto [mn_it, mx_it] = std::minmax_element(hf.begin(), hf.end());
  const double mn = *mn_it, range = *mx_it - mn;
  for (double& h : hf) h = range > 0.0 ? (h - mn) / range : 0.5;

  std::vector<NodeSequences> out(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    NodeSequences& seq = out[static_cast<size_t>(v)];
    for (int64_t i = begin_of[v]; i < begin_of[v + 1]; ++i) {
      const int64_t u = pairs[static_cast<size_t>(i)].second;
      const double h =
          hf[static_cast<size_t>(i)] +
          options.lambda *
              (1.0 - JsDivergence(structural.Sequence(v),
                                  structural.Sequence(u)));
      (i - begin_of[v] < remote_of[v] ? seq.remote : seq.neighbors)
          .push_back({u, h});
    }
    std::sort(seq.remote.begin(), seq.remote.end(),
              [](const ScoredNode& a, const ScoredNode& b) {
                return a.entropy != b.entropy ? a.entropy > b.entropy
                                              : a.node < b.node;
              });
    std::sort(seq.neighbors.begin(), seq.neighbors.end(),
              [](const ScoredNode& a, const ScoredNode& b) {
                return a.entropy != b.entropy ? a.entropy < b.entropy
                                              : a.node < b.node;
              });
  }
  return out;
}

void ExpectSameSequence(const std::vector<ScoredNode>& got,
                        const std::vector<ScoredNode>& want, int64_t v) {
  ASSERT_EQ(got.size(), want.size()) << "node " << v;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << "node " << v << " entry " << i;
    EXPECT_TRUE(SameBits(got[i].entropy, want[i].entropy))
        << "node " << v << " entry " << i << ": " << got[i].entropy
        << " vs " << want[i].entropy;
  }
}

void ExpectIndexMatchesReference(const graph::Graph& g,
                                 const tensor::Tensor& features,
                                 const EntropyOptions& options,
                                 const std::vector<NodeSequences>& want) {
  const RelativeEntropyIndex index =
      *RelativeEntropyIndex::Build(g, features, options);
  ASSERT_EQ(index.num_nodes(), static_cast<int64_t>(want.size()));
  for (int64_t v = 0; v < index.num_nodes(); ++v) {
    ExpectSameSequence(index.sequences(v).remote,
                       want[static_cast<size_t>(v)].remote, v);
    ExpectSameSequence(index.sequences(v).neighbors,
                       want[static_cast<size_t>(v)].neighbors, v);
  }
}

TEST(EntropyBuildOracleTest, BetweenIsBitwiseOneMinusJsDivergence) {
  const graph::Graph g = SkewedGraph(300, 1500, 41);
  StructuralEntropyCalculator calc(g);
  size_t longest = 0, shortest = ~size_t{0};
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    longest = std::max(longest, calc.Sequence(v).size());
    shortest = std::min(shortest, calc.Sequence(v).size());
  }
  ASSERT_GE(longest, 20 * shortest) << "graph is not skewed enough";
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    for (int64_t u = 0; u < g.num_nodes(); ++u) {
      const double want =
          1.0 - JsDivergence(calc.Sequence(v), calc.Sequence(u));
      ASSERT_TRUE(SameBits(calc.Between(v, u), want))
          << v << "," << u << ": " << calc.Between(v, u) << " vs " << want;
    }
  }
}

TEST(EntropyBuildOracleTest, BuildMatchesSerialReferenceBitwise) {
  const graph::Graph g = SkewedGraph(400, 2400, 43);
  Rng rng(47);
  const tensor::Tensor features = tensor::Tensor::Randn(400, 96, &rng);
  for (const double lambda : {1.0, 0.7}) {
    EntropyOptions options;
    options.lambda = lambda;
    options.seed = 53;
    const std::vector<NodeSequences> want =
        ReferenceBuild(g, features, options);
    ExpectIndexMatchesReference(g, features, options, want);
#ifdef _OPENMP
    const int old_threads = omp_get_max_threads();
    for (const int threads : {1, 4}) {
      omp_set_num_threads(threads);
      ExpectIndexMatchesReference(g, features, options, want);
    }
    omp_set_num_threads(old_threads);
#endif
  }
}

}  // namespace
}  // namespace entropy
}  // namespace graphrare
