// Theorem 4.2's world loop, on the paper's integers.
//
// Every exact rung sums a per-world count over the 2^u possible worlds of
// Ω(𝔇), u = |UncertainEntries()|, weighted by ν(𝔅). Theorem 4.2 rests on
// g·ν(𝔅) being an integer for g = ∏ denᵢ (UnreliableDatabase::ComputeG),
// so the walk carries each world's weight as that integer,
//
//   g·ν(𝔅) = ∏ᵢ (flippedᵢ ? numᵢ : denᵢ − numᵢ),   μᵢ = numᵢ/denᵢ,
//
// and a caller divides the weighted sum by g once, at the end:
//
//  - worlds are visited in Gray-code order: step s is the world whose flip
//    mask over the uncertain entries is s ⊕ (s >> 1), so each step flips
//    one entry of the World;
//  - the weight is kept as suffix products of the per-entry factors, so
//    flipping entry i recomputes i + 1 products (two on average);
//  - weights live in unsigned __int128 while bits(g) ≤ 127, and a sum of
//    weight·count in unsigned __int128 while bits(g) + bits(max count)
//    ≤ 127; beyond either budget the same loop uses BigInt.
//
// Atoms are read through one WorldIndex built with the walk (world.h).

#ifndef QREL_PROB_WORLD_ENUMERATOR_H_
#define QREL_PROB_WORLD_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "qrel/prob/unreliable_database.h"
#include "qrel/prob/world.h"
#include "qrel/util/bigint.h"
#include "qrel/util/governed_loop.h"
#include "qrel/util/status.h"

namespace qrel {

// An exact running sum Σ g·ν(𝔅)·count(𝔅); see WorldEnumerator::NewSum.
class WeightSum {
 public:
  BigInt Value() const;
  // Replaces the sum (checkpoint resume); `value` must lie in [0, g·max].
  void Set(BigInt value);
  // Whether the sum is kept in unsigned __int128 (else in a BigInt).
  bool narrow() const { return narrow_; }

 private:
  friend class WorldEnumerator;
  explicit WeightSum(bool narrow) : narrow_(narrow) {}

  bool narrow_;       // the sum fits in 127 bits
  Uint128 small_ = 0;  // the sum when narrow_
  BigInt big_;        // the sum otherwise
};

class WorldEnumerator {
 public:
  // The most uncertain entries a walk takes (2^62 worlds would never
  // finish anyway); callers refuse larger databases with a typed error.
  static constexpr size_t kMaxUncertain = 62;

  // Starts at Gray step 0: no uncertain entry flipped, every μ = 1 entry
  // flipped. Aborts if u > kMaxUncertain. `db` must outlive the walk.
  explicit WorldEnumerator(const UnreliableDatabase& db);

  WorldEnumerator(const WorldEnumerator&) = delete;
  WorldEnumerator& operator=(const WorldEnumerator&) = delete;

  uint64_t world_count() const { return world_count_; }  // 2^u
  // Gray step of the current world; world_count() once the walk is done.
  uint64_t step() const { return step_; }
  bool done() const { return step_ == world_count_; }
  const World& world() const { return world_; }
  const WorldIndex& index() const { return index_; }
  // ∏ denᵢ over the uncertain entries: the sum of all 2^u weights.
  const BigInt& g() const { return g_; }

  // Moves to the next world, flipping one entry.
  void Next();
  // Moves to Gray step `step` ≤ world_count() (checkpoint resume).
  void Seek(uint64_t step);

  // g·ν(𝔅) for the current world.
  BigInt Weight() const;

  // An empty sum for counts of at most `max_count` per world.
  WeightSum NewSum(const BigInt& max_count) const;
  // *sum += g·ν(𝔅)·count for the current world; count ≤ the sum's
  // max_count.
  void Add(uint64_t count, WeightSum* sum) const;

 private:
  void RecomputeSuffix(size_t top);

  WorldIndex index_;
  std::vector<int> entries_;  // the uncertain entries, bit i of the mask
  World world_;
  uint64_t world_count_ = 1;
  uint64_t step_ = 0;
  uint64_t mask_ = 0;  // Gray code of step_: which entries are flipped
  BigInt g_;
  bool narrow_;  // bits(g) ≤ 127: weights in Uint128
  // Per-entry factors (flipped: numᵢ, kept: denᵢ − numᵢ) and the suffix
  // products suffix[i] = ∏_{j ≥ i} factorⱼ, suffix[u] = 1; the weight is
  // suffix[0]. One representation is in use, as narrow_ says.
  std::vector<Uint128> flip_, keep_, suffix_;
  std::vector<BigInt> big_flip_, big_keep_, big_suffix_;
};

// What one world contributes to a sum: for Hamming error the number of
// answer tuples that differ from the observed answer, for a probability
// 1 or 0. A failed Status stops the walk.
using WorldCount = std::function<StatusOr<uint64_t>(const AtomOracle&)>;

struct WorldSum {
  BigInt weighted;      // Σ over Ω(𝔇) of g·ν(𝔅)·count(𝔅)
  BigInt g;             // divide by it for the expectation
  uint64_t worlds = 0;  // worlds visited, those before a resume included
};

// The Theorem 4.2 loop of every exact rung that sums over worlds: one
// governed step per world (util/governed_loop.h), whose body is `count`.
// The snapshot payload is (Gray step, weighted sum, worlds). A null `loop`
// runs ungoverned. Every count must be at most `max_count`, which picks
// the accumulator's width.
StatusOr<WorldSum> SumOverWorlds(const UnreliableDatabase& db,
                                 const BigInt& max_count, GovernedLoop* loop,
                                 const WorldCount& count);

}  // namespace qrel

#endif  // QREL_PROB_WORLD_ENUMERATOR_H_
