// qrel_perfbench: the repository benchmark's binary. Usually started
// by run.py, which builds it first:
//
//   qrel_perfbench --workload approx_sparse|exact_small --seed N
//                  --seconds S --trace 0|1 --workdir DIR
//
// Progress and per-query detail go to stderr; the last line of stdout is
// the JSON result. The exit code is 0 only when every checked answer was
// right and no operation failed.

#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric of a traced run, in BENCHMARK.json order.
constexpr LayerMetric kLayerMetrics[] = {
    {"logic.parse.ms", "ms"},
    {"logic.analyze.ms", "ms"},
    {"engine.plan.ms", "ms"},
    {"logic.grounding.ms", "ms"},
    {"logic.grounding.assignments", "count"},
    {"logic.grounding.terms", "count"},
    {"logic.grounding.terms_per_assignment", "ratio"},
    {"propositional.karp_luby.ms", "ms"},
    {"propositional.karp_luby.samples", "count"},
    {"propositional.karp_luby.ns_per_sample", "ns"},
    {"propositional.karp_luby.lineage_share", "ratio"},
    {"core.padded.ms", "ms"},
    {"core.padded.samples", "count"},
    {"core.padded.ns_per_sample", "ns"},
    {"core.exact.ms", "ms"},
    {"core.exact.worlds", "count"},
    {"core.exact.ns_per_world", "ns"},
    {"core.exact.relevant_world_share", "ratio"},
    {"datalog.exact.ms", "ms"},
    {"datalog.exact.worlds", "count"},
    {"datalog.padded.ms", "ms"},
    {"datalog.padded.samples", "count"},
    {"lifted.extensional.ms", "ms"},
    {"util.run_context.work_units", "count"},
    {"util.checkpoint.gate_ns_per_sample", "ns"},
    {"engine.run.ms", "ms"},
    {"engine.run.self_ms", "ms"},
    {"net.codec.us_per_request", "us"},
    {"net.transport.us", "us"},
    {"net.server.handle_overhead_us", "us"},
    {"net.server.cache_hit_ratio", "ratio"},
    {"net.server.single_flight_shared", "count"},
    {"net.server.shed", "count"},
    {"net.catalog.reload_ms", "ms"},
    {"trace.share.grounding_sampling", "ratio"},
    {"trace.share.exact", "ratio"},
    {"trace.share.engine_compute", "ratio"},
    {"trace.overhead_ms", "ms"},
    {"trace.fidelity", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: qrel_perfbench --workload approx_sparse|exact_small "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

void AddMissingLayerMetrics(Result* result) {
  std::vector<Metric> ordered;
  for (const LayerMetric& layer : kLayerMetrics) {
    Metric metric{layer.name, 0.0, layer.unit};
    for (const Metric& measured : result->metrics) {
      if (measured.name == layer.name) {
        metric.value = measured.value;
      }
    }
    ordered.push_back(metric);
  }
  result->metrics = std::move(ordered);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunConfig config;
  bool have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
      have_workdir = true;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workdir || !(config.seconds > 0.0)) {
    return Usage();
  }
  Result result;
  if (workload == "approx_sparse") {
    RunApproxSparse(config, &result);
  } else if (workload == "exact_small") {
    RunExactSmall(config, &result);
  } else {
    return Usage();
  }
  if (result.attempted == 0) {
    result.Mismatch("no operation was attempted");
  }
  result.Print();
  return result.correct && result.failed == 0 ? 0 : 1;
}
