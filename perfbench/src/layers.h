#ifndef NETMAX_PERFBENCH_LAYERS_H_
#define NETMAX_PERFBENCH_LAYERS_H_

// Per-call costs of the library layers a workload's runs call into, measured
// on inputs of the workload's shape: its topology and measured link times,
// its model and batch, its event-queue depth, its compression spec and its
// checkpoint cadence. The traced pass multiplies them by the call counts the
// runs report to split run wall time across layers.

#include "common/status.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace netmax::perfbench {

// Host times; a layer the workload never calls reads 0.
struct LayerCosts {
  double generate_ms = 0.0;  // one PolicyGenerator::Generate
  double lambda2_ms = 0.0;   // the K*R lambda_2 solves of one Generate
  double grad_us = 0.0;      // one Model::LossAndGradient on a batch
  double step_us = 0.0;      // one SgdOptimizer::Step
  double queue_op_ns = 0.0;  // one push + pop on the default event queue
  double encode_us = 0.0;    // one message through the GradientCompressor
  double save_ms = 0.0;      // one periodic checkpoint
  double restore_ms = 0.0;   // one restore, net of the run's set-up
};

// Times each layer the workload uses; every call runs inside a span when
// `tracer` is set.
StatusOr<LayerCosts> MeasureLayers(const Workload& workload, Tracer* tracer);

// Median of `values` (0 for an empty list).
double Median(std::vector<double> values);

}  // namespace netmax::perfbench

#endif  // NETMAX_PERFBENCH_LAYERS_H_
