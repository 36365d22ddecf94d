// The samplers allocate nothing per sample when no checkpointer is
// attached: the allocation count of a run does not grow with its sample
// count. Counted through a replacement global operator new, so this file
// is its own test binary.

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace qrel
