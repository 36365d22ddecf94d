// E11 — Datalog (fixed-point) queries: the Theorem 4.2 / Theorem 5.12
// pipeline beyond first-order logic.
//
// Claim (Sect. 4 remark): the FP^#P upper bound and the Thm 5.12
// absolute-error estimator apply to every polynomial-time evaluable
// query — in particular to recursive Datalog queries, which first-order
// logic cannot express. Expected shape: exact reliability of transitive
// closure doubles per uncertain edge; the padded estimator's time is flat
// in the number of uncertain atoms at a fixed budget, and grows with the
// per-world evaluation cost only.

#include <cmath>
#include <memory>

#include <benchmark/benchmark.h>

#include "datalog_oracle.h"
#include "qrel/datalog/reliability.h"

namespace {

volatile double qrel_bench_sink = 0.0;

constexpr char kProgram[] =
    "Path(x, y) :- E(x, y).\n"
    "Path(x, z) :- Path(x, y), E(y, z).";

// A ring of `n` nodes whose first `uncertain` edges are unreliable.
qrel::UnreliableDatabase Ring(int n, int uncertain) {
  auto vocabulary = std::make_shared<qrel::Vocabulary>();
  int e = vocabulary->AddRelation("E", 2);
  qrel::Structure observed(vocabulary, n);
  for (int i = 0; i < n; ++i) {
    observed.AddFact(e, {static_cast<qrel::Element>(i),
                         static_cast<qrel::Element>((i + 1) % n)});
  }
  qrel::UnreliableDatabase db(std::move(observed));
  for (int i = 0; i < uncertain && i < n; ++i) {
    db.SetErrorProbability(
        qrel::GroundAtom{e,
                         {static_cast<qrel::Element>(i),
                          static_cast<qrel::Element>((i + 1) % n)}},
        qrel::Rational(1, 10));
  }
  return db;
}

void BM_E11_ExactTransitiveClosure(benchmark::State& state) {
  int uncertain = static_cast<int>(state.range(0));
  qrel::UnreliableDatabase db = Ring(10, uncertain);
  qrel::CompiledDatalog program =
      std::move(qrel::CompiledDatalog::Compile(
                    *qrel::ParseDatalogProgram(kProgram), db.vocabulary()))
          .value();
  double r = 0;
  for (auto _ : state) {
    r = qrel::ExactDatalogReliability(program, "Path", db)
            ->reliability.ToDouble();
    qrel_bench_sink = r;
  }
  state.counters["u"] = uncertain;
  state.counters["worlds"] = std::pow(2.0, uncertain);
  state.counters["R"] = r;
}
BENCHMARK(BM_E11_ExactTransitiveClosure)->DenseRange(2, 10, 2)
    ->Unit(benchmark::kMillisecond);

void BM_E11_PaddedTransitiveClosure(benchmark::State& state) {
  int uncertain = static_cast<int>(state.range(0));
  qrel::UnreliableDatabase db = Ring(10, uncertain);
  qrel::CompiledDatalog program =
      std::move(qrel::CompiledDatalog::Compile(
                    *qrel::ParseDatalogProgram(kProgram), db.vocabulary()))
          .value();
  double exact = qrel::ExactDatalogReliability(program, "Path", db)
                     ->reliability.ToDouble();
  qrel::ApproxOptions options;
  options.seed = 19;
  options.fixed_samples = 3000;
  double estimate = 0;
  for (auto _ : state) {
    estimate =
        qrel::PaddedDatalogReliability(program, "Path", db, options)
            ->estimate;
    qrel_bench_sink = estimate;
  }
  state.counters["u"] = uncertain;
  state.counters["abs_err"] = std::fabs(estimate - exact);
}
BENCHMARK(BM_E11_PaddedTransitiveClosure)->DenseRange(2, 10, 4)
    ->Unit(benchmark::kMillisecond);

// Ablation: the semi-naive join vs the naive, universe-probing fixpoint
// of tests/datalog_oracle.h on a long chain, where naive re-derives all
// shorter paths every round.
void BM_E11_SemiNaiveVsNaive(benchmark::State& state) {
  bool semi = state.range(1) == 1;
  int n = static_cast<int>(state.range(0));
  auto vocabulary = std::make_shared<qrel::Vocabulary>();
  int e = vocabulary->AddRelation("E", 2);
  qrel::Structure db(vocabulary, n);
  for (int i = 0; i + 1 < n; ++i) {
    db.AddFact(e, {static_cast<qrel::Element>(i),
                   static_cast<qrel::Element>(i + 1)});
  }
  qrel::CompiledDatalog program =
      std::move(qrel::CompiledDatalog::Compile(
                    *qrel::ParseDatalogProgram(kProgram), db.vocabulary()))
          .value();
  size_t facts = 0;
  for (auto _ : state) {
    qrel::DatalogResult result =
        semi ? program.Eval(db) : qrel::NaiveDatalogEval(program, db);
    facts = result.at("Path").size();
    qrel_bench_sink = static_cast<double>(facts);
  }
  state.counters["n"] = n;
  state.counters["semi_naive"] = semi ? 1 : 0;
  state.counters["path_facts"] = static_cast<double>(facts);
}
BENCHMARK(BM_E11_SemiNaiveVsNaive)
    ->Args({16, 0})->Args({16, 1})
    ->Args({32, 0})->Args({32, 1})
    ->Args({48, 0})->Args({48, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
