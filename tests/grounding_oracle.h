// The Theorem 5.4 grounding as the construction states it: visit every
// assignment b̄ of the bound variables in odometer order, instantiate each
// matrix conjunct φ(ā, b̄), and keep the first occurrence of every term.
// It costs n^#bound whatever the facts are, which is why GroundExistential
// joins over the possible tuples instead; this walk is kept as the
// differential oracle that join must match term for term (tests and
// fuzzers only).

#ifndef QREL_TESTS_GROUNDING_ORACLE_H_
#define QREL_TESTS_GROUNDING_ORACLE_H_

#include <cstddef>
#include <cstdint>

#include "qrel/logic/grounding.h"

namespace qrel {

// Same contract as GroundExistential, charging `ctx` one unit per bound
// assignment plus one per emitted term.
StatusOr<GroundDnf> UniverseWalkGrounding(const PrenexExistential& prenex,
                                          const UnreliableDatabase& database,
                                          const Tuple& free_assignment,
                                          size_t max_terms = size_t{1} << 22,
                                          RunContext* ctx = nullptr);

// A seeded random database over S/1, T/1, E/2, F/2 and R/3 for the
// differential checks. Every atom independently takes one of the cases the
// grounding distinguishes: absent or present with no error entry, an
// observed fact with μ ∈ {0, 1/3, 1/2, 1}, or an observed-false atom with
// μ ∈ {0, 1/4, 1} — so entries with ν ∈ {0, 1} and uncertain observed-false
// atoms all occur.
UnreliableDatabase RandomGroundingDatabase(uint64_t seed, int universe_size);

}  // namespace qrel

#endif  // QREL_TESTS_GROUNDING_ORACLE_H_
