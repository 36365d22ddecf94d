// The benchmark's workloads. Each takes the seed, the measured duration and
// whether to run the traced pass, and fills the Result that main() prints.

#ifndef QREL_PERFBENCH_WORKLOADS_H_
#define QREL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory inside the checkout: spans, the checkpoint and the
  // RELOAD files.
  std::string workdir;
};

// approx_sparse / exact_small: one closed-loop analyst calling
// ReliabilityEngine::Run (engine_bench.cc).
void RunApproxSparse(const RunConfig& config, Result* result);
void RunExactSmall(const RunConfig& config, Result* result);
// The serving path's traced replay (serve_trace.cc): adds the net.* layer
// metrics and trace.share.engine_compute.
void AddServeTraceMetrics(const RunConfig& config, Result* result);

// Fills every per-layer metric the workload does not exercise with 0, so
// that each traced run reports the full per-layer set.
void AddMissingLayerMetrics(Result* result);

}  // namespace perfbench

#endif  // QREL_PERFBENCH_WORKLOADS_H_
