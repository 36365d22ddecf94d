// The safe plan evaluated as its rules read: every independent projection
// walks all n values of the universe, whatever the database holds. It
// costs n per projection level, which is why lifted/extensional.cc
// projects over the support instead; this walk is kept as the
// differential oracle that evaluation must match bit for bit (tests only).

#ifndef QREL_TESTS_EXTENSIONAL_ORACLE_H_
#define QREL_TESTS_EXTENSIONAL_ORACLE_H_

#include <cstdint>

#include "qrel/core/reliability.h"
#include "qrel/logic/ast.h"
#include "qrel/prob/unreliable_database.h"

namespace qrel {

// ExtensionalReliability's expected error and reliability by the universe
// walk (work_units is left 0). Fails like ExtensionalReliability on a
// query with no safe plan.
StatusOr<ReliabilityReport> UniverseWalkExtensionalReliability(
    const FormulaPtr& query, const UnreliableDatabase& db);

// Pr[𝔅 ⊨ ψ(assignment)] by the universe walk.
StatusOr<Rational> UniverseWalkQueryProbability(const FormulaPtr& query,
                                                const UnreliableDatabase& db,
                                                const Tuple& assignment);

// A seeded sparse random database over S/1, T/1, E/2, F/2 and R/3: half
// the atoms are absent with no error entry; the rest are observed facts
// or observed-false atoms with no entry or μ ∈ {0, 1/4, 1/3, 1/2, 1}.
UnreliableDatabase RandomSparseDatabase(uint64_t seed, int universe_size);

}  // namespace qrel

#endif  // QREL_TESTS_EXTENSIONAL_ORACLE_H_
