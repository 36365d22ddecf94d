// E3 — Theorem 4.2: exact FP^#P computation by world enumeration.
//
// Claim: reliability of any (second-order; here first-order) query reduces
// to one #P-style count — realized as integer enumeration of the 2^u
// worlds, each weighted by g·ν(𝔅) — followed by polynomial
// post-processing. The scaling integer g (product of the ν-denominators)
// is the arithmetic: g · Pr[𝔅 ⊨ ψ] is the integer the walk sums.
//
// Expected shape: time ≈ 2^u with u = #uncertain atoms, at a per-world
// cost (time ÷ worlds) that stays flat in u: a Gray-code step
// flips one entry and recomputes two integer products on average, and the
// rest is query evaluation.

#include <cmath>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "qrel/core/reliability.h"
#include "qrel/logic/parser.h"

namespace {

void BM_E3_ExactEnumeration(benchmark::State& state) {
  int uncertain = static_cast<int>(state.range(0));
  qrel::UnreliableDatabase db =
      qrel_bench::GraphDatabase(16, uncertain, /*seed=*/3);
  qrel::FormulaPtr query =
      *qrel::ParseFormula("exists x y . E(x, y) & S(x) & !S(y)");
  uint64_t worlds = 0;
  for (auto _ : state) {
    qrel::StatusOr<qrel::ReliabilityReport> report =
        qrel::ExactReliability(query, db);
    benchmark::DoNotOptimize(report);
    worlds = report->work_units;
  }
  state.counters["u"] = static_cast<double>(db.UncertainEntries().size());
  state.counters["worlds"] = static_cast<double>(worlds);
}
BENCHMARK(BM_E3_ExactEnumeration)->DenseRange(4, 18, 2)
    ->Unit(benchmark::kMillisecond);

void BM_E3_ScaledProbabilityIntegrality(benchmark::State& state) {
  // The g·Pr ∈ ℕ check of the theorem, including the (large) g arithmetic.
  int uncertain = static_cast<int>(state.range(0));
  qrel::UnreliableDatabase db =
      qrel_bench::GraphDatabase(12, uncertain, /*seed=*/4);
  qrel::FormulaPtr query = *qrel::ParseFormula("exists x . S(x) & E(x, x)");
  double g_bits = 0;
  for (auto _ : state) {
    qrel::StatusOr<qrel::ScaledProbability> scaled =
        qrel::ExactScaledProbability(query, db, {});
    benchmark::DoNotOptimize(scaled);
    g_bits = static_cast<double>(scaled->g.BitLength());
  }
  state.counters["u"] = static_cast<double>(db.UncertainEntries().size());
  state.counters["g_bits"] = g_bits;
}
BENCHMARK(BM_E3_ScaledProbabilityIntegrality)->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
