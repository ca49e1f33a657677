#include "algos/saps_psgd.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>


namespace netmax::algos {

net::Topology BuildFastLinkSubgraph(const linalg::Matrix& cost) {
  const int n = cost.rows();
  NETMAX_CHECK_EQ(cost.rows(), cost.cols());
  net::Topology subgraph(n);
  if (n == 1) return subgraph;

  // Prim's MST on the measured cost.
  std::vector<bool> in_tree(static_cast<size_t>(n), false);
  std::vector<double> best_cost(static_cast<size_t>(n),
                                std::numeric_limits<double>::infinity());
  std::vector<int> best_edge(static_cast<size_t>(n), -1);
  in_tree[0] = true;
  for (int v = 1; v < n; ++v) {
    best_cost[static_cast<size_t>(v)] = cost(0, v);
    best_edge[static_cast<size_t>(v)] = 0;
  }
  for (int step = 1; step < n; ++step) {
    int pick = -1;
    for (int v = 0; v < n; ++v) {
      if (in_tree[static_cast<size_t>(v)]) continue;
      if (pick < 0 ||
          best_cost[static_cast<size_t>(v)] <
              best_cost[static_cast<size_t>(pick)]) {
        pick = v;
      }
    }
    NETMAX_CHECK_GE(pick, 0);
    in_tree[static_cast<size_t>(pick)] = true;
    subgraph.AddEdge(pick, best_edge[static_cast<size_t>(pick)]);
    for (int v = 0; v < n; ++v) {
      if (!in_tree[static_cast<size_t>(v)] &&
          cost(pick, v) < best_cost[static_cast<size_t>(v)]) {
        best_cost[static_cast<size_t>(v)] = cost(pick, v);
        best_edge[static_cast<size_t>(v)] = pick;
      }
    }
  }
  // Redundancy: add each node's cheapest non-tree edge — but only if it is
  // still a fast link (within a small factor of the node's cheapest existing
  // edge); SAPS keeps *initially high-speed* links only, so an expensive
  // redundant edge defeats the purpose.
  constexpr double kRedundancyCostFactor = 3.0;
  for (int v = 0; v < n; ++v) {
    double cheapest_existing = std::numeric_limits<double>::infinity();
    for (int u : subgraph.Neighbors(v)) {
      cheapest_existing = std::min(cheapest_existing, cost(v, u));
    }
    int best = -1;
    for (int u = 0; u < n; ++u) {
      if (u == v || subgraph.AreNeighbors(u, v)) continue;
      if (best < 0 || cost(v, u) < cost(v, best)) best = u;
    }
    if (best >= 0 &&
        cost(v, best) <= kRedundancyCostFactor * cheapest_existing) {
      subgraph.AddEdge(v, best);
    }
  }
  return subgraph;
}

namespace {

using core::ExperimentConfig;
using core::ExperimentHarness;
using core::RunResult;

class SapsEngine {
 public:
  explicit SapsEngine(const ExperimentConfig& config)
      : harness_(config, "SAPS-PSGD") {}

  StatusOr<RunResult> Run() {
    NETMAX_RETURN_IF_ERROR(harness_.Init());
    const int n = harness_.num_workers();
    // One-shot link measurement at t = 0 (the paper's "initially high-speed
    // links"); the subgraph never changes afterwards.
    linalg::Matrix cost(n, n, 0.0);
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (a != b) cost(a, b) = harness_.PullSeconds(b, a);
      }
    }
    subgraph_ = std::make_unique<net::Topology>(BuildFastLinkSubgraph(cost));
    NETMAX_CHECK(subgraph_->IsConnected());
    // The subgraph is rebuilt deterministically from the t = 0 link costs,
    // so the engine has no checkpoint state of its own.
    return harness_.Run({
        .build = [this](const net::SavedEvent& event) {
          return BuildEvent(event);
        },
        .start = [this, n] {
          for (int w = 0; w < n; ++w) StartIteration(w);
        },
        .chain = [this](int w) { StartIteration(w); },
        .pull = [this](int w, int m, double waited) {
          IssuePull(w, m, waited);
        },
    });
  }

 private:
  // Reified event tags (ExperimentHarness::Emit).
  enum Tag : int64_t {
    kIterate = 0,  // compute event: args [peer, compute_secs, wall_secs, round]
  };

  StatusOr<net::RebuiltEvent> BuildEvent(const net::SavedEvent& event) {
    const std::vector<double>& args = event.payload.args;
    const int n = harness_.num_workers();
    net::RebuiltEvent rebuilt;
    switch (event.payload.tag) {
      case kIterate: {
        const int w = event.worker_key;
        if (w < 0 || w >= n || args.size() != 4) break;
        const int m = static_cast<int>(args[0]);
        const double compute = args[1];
        const double wall = args[2];
        const int64_t round = static_cast<int64_t>(args[3]);
        if (m < 0 || m >= n || m == w) break;
        rebuilt.compute = [this, w] { return harness_.EvalBatchGradient(w); };
        rebuilt.commit = [this, w, m, compute, wall, round](double loss) {
          CompleteIteration(w, m, compute, wall, round, loss);
        };
        return rebuilt;
      }
      default:
        break;
    }
    return InvalidArgumentError("malformed SAPS-PSGD event (tag " +
                                std::to_string(event.payload.tag) + ")");
  }

  void CompleteIteration(int w, int m, double compute, double wall,
                         int64_t round, double loss) {
    core::WorkerRuntime& wr = harness_.worker(w);
    harness_.CommitBatchStats(w, loss);
    if (harness_.PullLost(w, m, compute, wall)) return;
    // One-sided averaging writes only the puller's parameters (m is
    // read-only here, and compute halves only read their own worker's
    // parameters, so no notify is needed for m under any backend).
    harness_.sim().NotifyStateWrite(w);
    auto x_i = wr.model->parameters();
    const auto x_m = harness_.worker(m).model->parameters();
    if (!harness_.compression_enabled()) {
      for (size_t j = 0; j < x_i.size(); ++j) {
        x_i[j] = 0.5 * (x_i[j] + x_m[j]);
      }
    } else {
      // One-sided compressed pull: the puller moves halfway along the decoded
      // difference C(x_m - x_i); m stays read-only like the exact path.
      std::span<double> diff = harness_.CompressionScratch();
      for (size_t j = 0; j < x_i.size(); ++j) diff[j] = x_m[j] - x_i[j];
      harness_.ApplyCompression(w, round, diff);
      for (size_t j = 0; j < x_i.size(); ++j) x_i[j] += 0.5 * diff[j];
    }
    harness_.ApplyStoredGradient(w);
    harness_.AccountIteration(w, compute, wall);
    StartIteration(w);
  }

  void StartIteration(int w) {
    if (!harness_.ContinueChain(w)) return;
    core::WorkerRuntime& worker = harness_.worker(w);
    const auto& neighbors = subgraph_->Neighbors(w);
    const int m = neighbors[static_cast<size_t>(worker.rng.UniformInt(
        0, static_cast<int64_t>(neighbors.size()) - 1))];
    harness_.PullFrom(w, m);
  }

  void IssuePull(int w, int m, double waited) {
    const double compute = harness_.EffectiveComputeSeconds(w);
    const int64_t round = harness_.NextCommRound(w);
    const double transfer = harness_.SendSeconds(m, w, round);
    harness_.SampleBatch(w);
    const double wall = std::max(compute, transfer);
    harness_.Emit(wall, w,
                  {kIterate,
                   {static_cast<double>(m), compute, waited + wall,
                    static_cast<double>(round)}});
  }

  ExperimentHarness harness_;
  std::unique_ptr<net::Topology> subgraph_;
};

}  // namespace

StatusOr<core::RunResult> SapsPsgdAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  SapsEngine engine(config);
  return engine.Run();
}

}  // namespace netmax::algos
