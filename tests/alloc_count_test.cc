// The samplers allocate nothing per sample, and the Datalog world loop
// nothing per world, when no checkpointer is attached: the allocation
// count of a run does not grow with its sample or world count. Counted
// through a replacement global operator new, so this file is its own test
// binary.

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/core/approx.h"
#include "qrel/datalog/reliability.h"
#include "qrel/logic/parser.h"
#include "qrel/propositional/karp_luby.h"
#include "qrel/propositional/naive_mc.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
// The nothrow forms too (std::stable_sort's buffer), so that every block
// the deletes below free() came from malloc().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qrel {
namespace {

Dnf TestDnf() {
  Dnf dnf(8);
  dnf.AddTerm({{0, true}, {1, false}});
  dnf.AddTerm({{2, true}, {3, true}, {4, false}});
  dnf.AddTerm({{5, false}, {7, true}});
  return dnf;
}

std::vector<Rational> TestProbabilities() {
  std::vector<Rational> probs;
  for (int i = 0; i < 8; ++i) {
    probs.push_back(Rational(i + 1, 11));
  }
  return probs;
}

// Allocations made by one call of `run` with `samples` samples.
template <typename Run>
uint64_t AllocationsOf(const Run& run, uint64_t samples) {
  uint64_t before = g_allocations.load();
  run(samples);
  return g_allocations.load() - before;
}

TEST(AllocationTest, KarpLubyAllocatesNothingPerSample) {
  Dnf dnf = TestDnf();
  std::vector<Rational> probs = TestProbabilities();
  RunContext ctx;  // governed, but no checkpointer
  auto run = [&](uint64_t samples) {
    KarpLubyOptions options;
    options.seed = 3;
    options.fixed_samples = samples;
    options.run_context = &ctx;
    ASSERT_TRUE(KarpLubyProbability(dnf, probs, options).ok());
  };
  run(10);  // registers the fault site
  uint64_t once = AllocationsOf(run, 1000);
  EXPECT_EQ(AllocationsOf(run, 2000), once);
  EXPECT_LT(once, 1000u);  // fewer than one per sample
}

TEST(AllocationTest, NaiveMonteCarloAllocatesNothingPerSample) {
  Dnf dnf = TestDnf();
  std::vector<Rational> probs = TestProbabilities();
  RunContext ctx;
  auto run = [&](uint64_t samples) {
    ASSERT_TRUE(NaiveMcProbability(dnf, probs, samples, 3, &ctx).ok());
  };
  run(10);
  uint64_t once = AllocationsOf(run, 1000);
  EXPECT_EQ(AllocationsOf(run, 2000), once);
  EXPECT_LT(once, 1000u);  // fewer than one per sample
}

TEST(AllocationTest, PaddedEstimatorAllocatesNothingPerSample) {
  // ∀x∃y E(x,y) ∨ S(x) on three elements: about one sample in five draws
  // a world and evaluates the query on it.
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("S", 1);
  Structure observed(vocabulary, 3);
  observed.AddFact(0, {0, 1});
  observed.AddFact(0, {1, 2});
  observed.AddFact(1, {2});
  UnreliableDatabase db(std::move(observed));
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{0, {1, 2}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{0, {2, 0}}, Rational(1, 5));
  db.SetErrorProbability(GroundAtom{1, {2}}, Rational(1, 2));
  FormulaPtr query = *ParseFormula("forall x . exists y . E(x, y) | S(x)");
  RunContext ctx;
  auto run = [&](uint64_t samples) {
    ApproxOptions options;
    options.seed = 5;
    options.xi = 0.25;
    options.fixed_samples = samples;
    options.run_context = &ctx;
    ASSERT_TRUE(PaddedReliabilityApprox(query, db, options).ok());
  };
  run(10);
  uint64_t once = AllocationsOf(run, 1000);
  EXPECT_EQ(AllocationsOf(run, 2000), once);
}

// A directed 8-cycle whose first `uncertain` edges may be missing (μ =
// 1/3) and whose other edges carry a μ = 0 entry, so that databases with
// different world counts have the same error-model size. Every world's
// closure is at most the observed one.
UnreliableDatabase UncertainCycle(int uncertain) {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("E", 2);
  Structure observed(vocabulary, 8);
  for (Element i = 0; i < 8; ++i) {
    observed.AddFact(0, {i, (i + 1) % 8});
  }
  UnreliableDatabase db(std::move(observed));
  for (Element i = 0; i < 8; ++i) {
    db.SetErrorProbability(GroundAtom{0, {i, (i + 1) % 8}},
                           i < uncertain ? Rational(1, 3) : Rational(0));
  }
  return db;
}

TEST(AllocationTest, DatalogExactAllocatesNothingPerWorld) {
  UnreliableDatabase shape = UncertainCycle(0);  // outlives the program
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(
                    *ParseDatalogProgram("Path(x, y) :- E(x, y).\n"
                                         "Path(x, z) :- Path(x, y), E(y, z)."),
                    shape.vocabulary()))
          .value();
  RunContext ctx;  // governed, but no checkpointer
  auto run = [&](int uncertain) {
    UnreliableDatabase db = UncertainCycle(uncertain);
    uint64_t before = g_allocations.load();
    StatusOr<ReliabilityReport> report =
        ExactDatalogReliability(program, "Path", db, &ctx);
    uint64_t allocations = g_allocations.load() - before;
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return allocations;
  };
  run(4);  // registers the fault sites
  // Setting up the walk allocates a few times per uncertain entry (about
  // ten to thirty, unevenly); 240 more worlds with even one allocation
  // each would outgrow that.
  uint64_t at_four = run(4);
  uint64_t at_eight = run(8);
  EXPECT_LT(at_eight, at_four + (256 - 16));
}

TEST(AllocationTest, DatalogPaddedAllocatesNothingPerSample) {
  UnreliableDatabase db = UncertainCycle(4);
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(
                    *ParseDatalogProgram("Path(x, y) :- E(x, y).\n"
                                         "Path(x, z) :- Path(x, y), E(y, z)."),
                    db.vocabulary()))
          .value();
  RunContext ctx;
  auto run = [&](uint64_t samples) {
    ApproxOptions options;
    options.seed = 9;
    options.fixed_samples = samples;
    options.run_context = &ctx;
    ASSERT_TRUE(PaddedDatalogReliability(program, "Path", db, options).ok());
  };
  run(10);
  uint64_t once = AllocationsOf(run, 200);
  EXPECT_EQ(AllocationsOf(run, 400), once);
}

}  // namespace
}  // namespace qrel
