// E5 — Theorem 5.4: the FPTRAS for existential query probabilities is
// fully polynomial.
//
// Claim: the runtime is polynomial in the database size n, in 1/ε and in
// ln(1/δ). Expected shape: the n-sweep is Karp-Luby's — about n terms, so
// samples ∝ n, each drawing the ≈ 2n lineage variables and scanning the n
// terms, Θ(n²) — while the join grounding visits only the ≈ 2n bindings
// that the n possible E tuples and their S(x) lookups give; the ε-sweep
// grows ≈ 1/ε²; the δ-sweep grows logarithmically.

#include <benchmark/benchmark.h>

#include <memory>

#include "qrel/core/approx.h"
#include "qrel/logic/parser.h"

namespace {

// A database where *every* atom relevant to the query is uncertain, so the
// grounding never collapses to a constant and the Karp-Luby stage always
// runs: the ring edges E(i, i+1) carry error 1/4 and every S(i) label
// error 1/3.
qrel::UnreliableDatabase FullyUncertainRing(int n) {
  auto vocabulary = std::make_shared<qrel::Vocabulary>();
  int e = vocabulary->AddRelation("E", 2);
  int s = vocabulary->AddRelation("S", 1);
  qrel::Structure observed(vocabulary, n);
  for (int i = 0; i < n; ++i) {
    observed.AddFact(e, {static_cast<qrel::Element>(i),
                         static_cast<qrel::Element>((i + 1) % n)});
    if (i % 2 == 0) {
      observed.AddFact(s, {static_cast<qrel::Element>(i)});
    }
  }
  qrel::UnreliableDatabase db(std::move(observed));
  for (int i = 0; i < n; ++i) {
    db.SetErrorProbability(
        qrel::GroundAtom{e,
                         {static_cast<qrel::Element>(i),
                          static_cast<qrel::Element>((i + 1) % n)}},
        qrel::Rational(1, 4));
    db.SetErrorProbability(qrel::GroundAtom{s, {static_cast<qrel::Element>(i)}},
                           qrel::Rational(1, 3));
  }
  return db;
}

const qrel::FormulaPtr& Query() {
  static const qrel::FormulaPtr query =
      *qrel::ParseFormula("exists x y . E(x, y) & S(x) & !S(y)");
  return query;
}

void BM_E5_ScalingInN(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  qrel::UnreliableDatabase db = FullyUncertainRing(n);
  qrel::ApproxOptions options;
  options.epsilon = 0.05;
  options.delta = 0.05;
  options.seed = 11;
  uint64_t samples = 0;
  for (auto _ : state) {
    qrel::StatusOr<qrel::ApproxResult> result =
        qrel::ExistentialProbabilityFptras(Query(), db, {}, options);
    benchmark::DoNotOptimize(result);
    samples = result->samples;
  }
  state.counters["n"] = n;
  state.counters["samples"] = static_cast<double>(samples);
  state.SetComplexityN(n);
}
BENCHMARK(BM_E5_ScalingInN)->RangeMultiplier(2)->Range(8, 128)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_E5_ScalingInInverseEpsilon(benchmark::State& state) {
  double epsilon = 1.0 / static_cast<double>(state.range(0));
  qrel::UnreliableDatabase db = FullyUncertainRing(24);
  qrel::ApproxOptions options;
  options.epsilon = epsilon;
  options.delta = 0.05;
  options.seed = 13;
  uint64_t samples = 0;
  for (auto _ : state) {
    qrel::StatusOr<qrel::ApproxResult> result =
        qrel::ExistentialProbabilityFptras(Query(), db, {}, options);
    benchmark::DoNotOptimize(result);
    samples = result->samples;
  }
  state.counters["inv_eps"] = static_cast<double>(state.range(0));
  state.counters["samples"] = static_cast<double>(samples);
}
BENCHMARK(BM_E5_ScalingInInverseEpsilon)->RangeMultiplier(2)->Range(4, 64)
    ->Unit(benchmark::kMillisecond);

void BM_E5_ScalingInInverseDelta(benchmark::State& state) {
  double delta = 1.0 / static_cast<double>(state.range(0));
  qrel::UnreliableDatabase db = FullyUncertainRing(24);
  qrel::ApproxOptions options;
  options.epsilon = 0.05;
  options.delta = delta;
  options.seed = 17;
  uint64_t samples = 0;
  for (auto _ : state) {
    qrel::StatusOr<qrel::ApproxResult> result =
        qrel::ExistentialProbabilityFptras(Query(), db, {}, options);
    benchmark::DoNotOptimize(result);
    samples = result->samples;
  }
  state.counters["inv_delta"] = static_cast<double>(state.range(0));
  state.counters["samples"] = static_cast<double>(samples);
}
BENCHMARK(BM_E5_ScalingInInverseDelta)->RangeMultiplier(4)->Range(4, 4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
