// Possible-world enumeration as Definition 2.1 states it: visit the 2^u
// worlds in increasing bitmask order and give each the exact Rational
// product of its per-entry probabilities, reading atoms through a view
// that looks each one up in the observed structure and the error model.
// This was the library's world loop before WorldEnumerator carried the
// weights as integers over an indexed world (prob/world_enumerator.h); it
// is kept as the differential oracle the enumerator must match bit for bit
// (tests and fuzzers only).

#ifndef QREL_TESTS_WORLD_ENUMERATION_ORACLE_H_
#define QREL_TESTS_WORLD_ENUMERATION_ORACLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qrel/datalog/eval.h"
#include "qrel/logic/eval.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/util/rational.h"

namespace qrel {

// Enumerates every world with its exact probability. Aborts if u > 62.
void ForEachWorld(const UnreliableDatabase& db,
                  const std::function<void(const World&, const Rational&)>& fn);

// Like ForEachWorld, but `fn` returns false to stop; starts at world index
// `first_code` (bitmask order). Returns true iff every remaining world was
// visited.
bool ForEachWorldWhile(
    const UnreliableDatabase& db,
    const std::function<bool(const World&, const Rational&)>& fn,
    uint64_t first_code = 0);

// AtomOracle of one world by direct lookup: observed truth from the
// Structure, the flip from the error model's atom map.
class LookupWorldView : public AtomOracle {
 public:
  LookupWorldView(const UnreliableDatabase& db, const World& world)
      : db_(db), world_(world) {}

  const Vocabulary& vocabulary() const override { return db_.vocabulary(); }
  int universe_size() const override { return db_.universe_size(); }
  bool AtomTrue(int relation_id, const Tuple& tuple) const override;

 private:
  const UnreliableDatabase& db_;
  const World& world_;
};

// H_ψ = Σ_𝔅 ν(𝔅)·|ψ^𝔄 Δ ψ^𝔅| for a first-order query.
Rational OracleExpectedError(const CompiledQuery& query,
                             const UnreliableDatabase& db);
// Pr[𝔅 ⊨ ψ(assignment)].
Rational OracleQueryProbability(const CompiledQuery& query,
                                const UnreliableDatabase& db,
                                const Tuple& assignment);
// H for a Datalog predicate: Σ_𝔅 ν(𝔅)·|P^𝔄 Δ P^𝔅|.
Rational OracleDatalogExpectedError(const CompiledDatalog& program,
                                    const std::string& predicate,
                                    const UnreliableDatabase& db);

// A seeded random database over S/1 and E/2 with exactly `uncertain`
// entries 0 < μ < 1 (at most the number of ground atoms), plus entries
// with μ = 0 and μ = 1 on other atoms and a few certain facts. Each
// uncertain μ is num/den with den drawn from `denominators`.
UnreliableDatabase RandomEnumerationDatabase(
    uint64_t seed, int universe_size, int uncertain,
    const std::vector<BigInt>& denominators);

}  // namespace qrel

#endif  // QREL_TESTS_WORLD_ENUMERATION_ORACLE_H_
