#include "perfbench/src/layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "algos/registry.h"
#include "common/random.h"
#include "core/policy.h"
#include "core/policy_generator.h"
#include "linalg/eigen.h"
#include "ml/compression.h"
#include "net/event_queue.h"

namespace netmax::perfbench {
namespace {

// Blocks per probe; each layer reports the median block's per-call time.
constexpr int kBlocks = 7;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Median over kBlocks blocks of the per-call seconds of `calls` calls of
// `fn`, each block inside a span named `span`.
template <typename Fn>
double PerCallSeconds(Tracer* tracer, std::string_view span, int calls,
                      Fn&& fn) {
  std::vector<double> per_call;
  for (int block = 0; block < kBlocks; ++block) {
    ScopedSpan scope(tracer, span, std::to_string(calls) + " calls");
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(Seconds(start) / calls);
  }
  return Median(std::move(per_call));
}

StatusOr<double> TimedRun(Tracer* tracer, std::string_view span,
                          const std::string& detail,
                          const std::string& algorithm,
                          const core::ExperimentConfig& config,
                          core::RunResult* result) {
  ScopedSpan scope(tracer, span, detail);
  NETMAX_ASSIGN_OR_RETURN(const auto trainer, algos::MakeAlgorithm(algorithm));
  const auto start = std::chrono::steady_clock::now();
  StatusOr<core::RunResult> run = trainer->Run(config);
  const double seconds = Seconds(start);
  NETMAX_RETURN_IF_ERROR(run.status());
  *result = std::move(run.value());
  return seconds;
}

StatusOr<double> TimedInit(Tracer* tracer,
                           const core::ExperimentConfig& config) {
  ScopedSpan scope(tracer, "core.harness.init");
  core::ExperimentHarness harness(config, "perfbench");
  const auto start = std::chrono::steady_clock::now();
  NETMAX_RETURN_IF_ERROR(harness.Init());
  return Seconds(start);
}

// Generate on the workload's topology with iteration times from its own link
// model (one batch's compute and one pull per edge, overlapped when the
// config overlaps them), then lambda_2 of the chosen
// policy's Y matrix, K*R times per Generate like Algorithm 3's grid.
Status MeasurePolicy(const core::ExperimentConfig& config, Tracer* tracer,
                     LayerCosts& costs) {
  core::ExperimentHarness harness(config, "perfbench");
  NETMAX_RETURN_IF_ERROR(harness.Init());
  const int n = config.num_workers;
  linalg::Matrix times(n, n);
  for (int i = 0; i < n; ++i) {
    for (int m : harness.topology().Neighbors(i)) {
      const double compute = harness.ComputeSeconds(config.batch_size);
      const double pull = harness.PullSeconds(m, i);
      times(i, m) = config.overlap_communication ? std::max(compute, pull)
                                                 : compute + pull;
    }
  }
  core::PolicyGeneratorOptions options = config.generator;
  options.alpha = config.learning_rate;
  const core::PolicyGenerator generator(harness.topology(), options);
  NETMAX_ASSIGN_OR_RETURN(core::GeneratedPolicy chosen,
                          generator.Generate(times));
  Status status;
  costs.generate_ms =
      1e3 * PerCallSeconds(tracer, "core.policy.generate", 1, [&] {
        StatusOr<core::GeneratedPolicy> again = generator.Generate(times);
        if (!again.ok()) status = again.status();
      });
  NETMAX_RETURN_IF_ERROR(status);

  const std::vector<double> uniform(static_cast<size_t>(n), 1.0 / n);
  NETMAX_ASSIGN_OR_RETURN(
      const linalg::Matrix y,
      core::BuildNetMaxY(chosen.policy, harness.topology(), options.alpha,
                         chosen.rho, uniform, /*allow_overshoot=*/true));
  const int grid = options.outer_rounds * options.inner_rounds;
  costs.lambda2_ms =
      1e3 * grid * PerCallSeconds(tracer, "linalg.lambda2", grid, [&] {
        StatusOr<double> lambda2 = linalg::SecondLargestEigenvalue(y);
        if (!lambda2.ok()) status = lambda2.status();
      });
  return status;
}

// One worker's gradient and optimizer step on its own shard and batch size.
Status MeasureTraining(const core::ExperimentConfig& config, Tracer* tracer,
                       LayerCosts& costs) {
  core::ExperimentHarness harness(config, "perfbench");
  NETMAX_RETURN_IF_ERROR(harness.Init());
  core::WorkerRuntime& worker = harness.worker(0);
  std::vector<int> batch(static_cast<size_t>(worker.batch_size));
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i] = static_cast<int>(i) % worker.shard.size();
  }
  std::vector<double> gradient(
      static_cast<size_t>(worker.model->num_parameters()));
  double loss_sum = 0.0;
  costs.grad_us = 1e6 * PerCallSeconds(tracer, "ml.grad", 200, [&] {
                    loss_sum += worker.model->LossAndGradient(
                        worker.shard, batch, gradient, worker.workspace);
                  });
  std::vector<double> parameters(worker.model->parameters().begin(),
                                 worker.model->parameters().end());
  costs.step_us = 1e6 * PerCallSeconds(tracer, "ml.step", 1000, [&] {
                    worker.optimizer->Step(parameters, gradient);
                  });
  if (!std::isfinite(loss_sum)) {
    return InternalError("non-finite loss in the gradient probe");
  }
  return Status::Ok();
}

// Push + pop on the library's default queue holding one pending event per
// worker, the depth a run's steady state keeps.
void MeasureQueue(const core::ExperimentConfig& config, Tracer* tracer,
                  LayerCosts& costs) {
  std::unique_ptr<net::EventQueue> queue =
      net::MakeEventQueue(core::ExperimentConfig{}.event_queue);
  Rng rng(config.seed);
  int64_t sequence = 0;
  for (int w = 0; w < config.num_workers; ++w) {
    net::SimEvent event;
    event.time = rng.Uniform();
    event.sequence = sequence++;
    event.worker_key = w;
    queue->Push(std::move(event));
  }
  costs.queue_op_ns = 1e9 * PerCallSeconds(tracer, "net.queue", 20000, [&] {
                        net::SimEvent event = queue->PopNext();
                        event.time += rng.Uniform();
                        event.sequence = sequence++;
                        queue->Push(std::move(event));
                      });
}

// One model-sized message: its wire description and the lossy transform the
// receiver decodes, on a delta the size of the proxy model.
Status MeasureCompression(const core::ExperimentConfig& config,
                          Tracer* tracer, LayerCosts& costs) {
  core::ExperimentHarness harness(config, "perfbench");
  NETMAX_RETURN_IF_ERROR(harness.Init());
  const ml::Model& model = *harness.worker(0).model;
  const ml::GradientCompressor compressor(config.compress,
                                          model.LayerSegments());
  Rng rng(config.seed);
  std::vector<double> delta(static_cast<size_t>(model.num_parameters()));
  for (double& value : delta) value = rng.Gaussian(0.0, 0.01);
  int64_t round = 0;
  int64_t bytes = 0;
  costs.encode_us = 1e6 * PerCallSeconds(tracer, "ml.compress.encode", 500, [&] {
                      bytes += compressor
                                   .Describe(config.profile.num_parameters,
                                             round)
                                   .PayloadBytes();
                      compressor.Transform(delta, round, rng);
                      ++round;
                    });
  if (bytes <= 0) return InternalError("compressed messages have no bytes");
  return Status::Ok();
}

// Save: the first run's cadence against one four times as dense, the wall
// time difference over the extra checkpoints. Restore: a run resumed from a
// checkpoint taken just before its last event, net of ExperimentHarness
// set-up; it must finish bit-identical to the run that was never stopped.
Status MeasureCheckpoints(const RunSpec& spec, Tracer* tracer,
                          LayerCosts& costs) {
  const core::ExperimentConfig& config = spec.config;
  std::vector<uint8_t> sink;
  core::ExperimentConfig sparse = config;
  sparse.checkpoint_sink = &sink;
  sparse.restore_source = nullptr;
  core::ExperimentConfig dense = sparse;
  dense.checkpoint_every_seconds = config.checkpoint_every_seconds / 4;

  core::ExperimentConfig plain = sparse;
  plain.checkpoint_every_seconds = 0.0;
  plain.checkpoint_sink = nullptr;
  core::RunResult uninterrupted;
  NETMAX_RETURN_IF_ERROR(
      TimedRun(tracer, "algos.run", "uninterrupted", spec.algorithm, plain,
               &uninterrupted)
          .status());
  std::vector<uint8_t> end_checkpoint;
  core::ExperimentConfig stop = plain;
  stop.checkpoint_at_seconds = uninterrupted.total_virtual_seconds * (1 - 1e-9);
  stop.checkpoint_sink = &end_checkpoint;
  core::RunResult unused;
  NETMAX_RETURN_IF_ERROR(
      TimedRun(tracer, "core.checkpoint.save", "one-shot", spec.algorithm,
               stop, &unused)
          .status());
  core::ExperimentConfig resume = plain;
  resume.restore_source = &end_checkpoint;

  std::vector<double> sparse_s, dense_s, init_s, resume_s;
  int64_t extra_checkpoints = 0;
  for (int block = 0; block < kBlocks; ++block) {
    core::RunResult sparse_result, dense_result, resumed;
    NETMAX_ASSIGN_OR_RETURN(
        sparse_s.emplace_back(),
        TimedRun(tracer, "core.checkpoint.save", "cadence", spec.algorithm,
                 sparse, &sparse_result));
    NETMAX_ASSIGN_OR_RETURN(
        dense_s.emplace_back(),
        TimedRun(tracer, "core.checkpoint.save", "4x cadence", spec.algorithm,
                 dense, &dense_result));
    extra_checkpoints = CheckpointCount(dense_result, dense) -
                        CheckpointCount(sparse_result, sparse);
    NETMAX_ASSIGN_OR_RETURN(init_s.emplace_back(), TimedInit(tracer, plain));
    NETMAX_ASSIGN_OR_RETURN(
        resume_s.emplace_back(),
        TimedRun(tracer, "core.checkpoint.restore", "resume", spec.algorithm,
                 resume, &resumed));
    const std::string field = FirstDifference(uninterrupted, resumed);
    if (!field.empty()) {
      return InternalError("restored run differs in " + field);
    }
  }
  if (extra_checkpoints <= 0) {
    return InternalError("the denser cadence wrote no extra checkpoints");
  }
  costs.save_ms = 1e3 * (Median(dense_s) - Median(sparse_s)) /
                  static_cast<double>(extra_checkpoints);
  costs.restore_ms = 1e3 * (Median(resume_s) - Median(init_s));
  return Status::Ok();
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return 0.5 * (upper + *std::max_element(values.begin(),
                                          values.begin() + mid));
}

StatusOr<LayerCosts> MeasureLayers(const Workload& workload, Tracer* tracer) {
  LayerCosts costs;
  const core::ExperimentConfig& first = workload.runs.front().config;
  for (const RunSpec& spec : workload.runs) {
    if (spec.algorithm == "netmax") {
      NETMAX_RETURN_IF_ERROR(MeasurePolicy(spec.config, tracer, costs));
      break;
    }
  }
  NETMAX_RETURN_IF_ERROR(MeasureTraining(first, tracer, costs));
  MeasureQueue(first, tracer, costs);
  if (first.compress.enabled()) {
    NETMAX_RETURN_IF_ERROR(MeasureCompression(first, tracer, costs));
  }
  if (first.checkpoint_every_seconds > 0.0) {
    NETMAX_RETURN_IF_ERROR(
        MeasureCheckpoints(workload.runs.front(), tracer, costs));
  }
  return costs;
}

}  // namespace netmax::perfbench
