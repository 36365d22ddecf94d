// The Theorem 5.4 grounding: from an existential query over an unreliable
// database to a propositional kDNF formula over the uncertain atoms.
//
//   ψ(x̄) = ∃ȳ φ(x̄, ȳ)   ↦   ψ'(x̄) = ⋁_b̄ φ(x̄, b̄)   ↦   ψ''
//
// where ψ'' replaces equalities by their truth values and treats atomic
// statements as propositional variables. We additionally fold in atoms
// whose truth is certain (error probability 0, or 1), so the variables of
// ψ'' are exactly the error-model entries with 0 < μ < 1. The number of
// literals per disjunct is bounded by the width of φ's DNF — independent
// of the database — so ψ'' is a kDNF of size polynomial in n, as the
// theorem requires.
//
// Only the b̄ that make every positive atom of a disjunct possible
// (ν > 0) can contribute, so the construction does not walk all n^|ȳ|
// assignments: each disjunct's positive atoms drive a depth-first join
// over their possible tuples (observed facts with μ < 1 and observed-false
// atoms with μ > 0), and only variables that occur in no positive atom of
// the disjunct range over the universe. The cost is the number of join
// candidates visited, which for a conjunctive query is about the number of
// facts its atoms can match. The result is the DNF the walk over all b̄
// would produce, term for term and in the same order.

#ifndef QREL_LOGIC_GROUNDING_H_
#define QREL_LOGIC_GROUNDING_H_

#include <vector>

#include "qrel/logic/normal_form.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

// A literal of the grounded DNF: an error-model entry id, possibly negated.
struct GroundLiteral {
  int entry = 0;
  bool positive = true;

  bool operator==(const GroundLiteral& other) const {
    return entry == other.entry && positive == other.positive;
  }
  bool operator<(const GroundLiteral& other) const {
    if (entry != other.entry) return entry < other.entry;
    return positive < other.positive;
  }
};

// A propositional DNF over error-model entries. Terms are consistent
// (no complementary pair) and duplicate-free, with literals sorted by
// entry id; the term list is duplicate-free.
struct GroundDnf {
  std::vector<std::vector<GroundLiteral>> terms;
  // Some disjunct reduced to the empty (always-true) term: the query holds
  // in every world with positive probability. `terms` is empty then.
  bool certainly_true = false;

  // The k of kDNF: maximum number of literals in a term (0 if no terms).
  int Width() const;
};

// Grounds the prenex-existential query against `database`, with
// `free_assignment` supplying values for prenex.free_variables (in order;
// empty for sentences). Terms appear in the order of their first
// occurrence when the bound assignments are visited in odometer order and,
// per assignment, the matrix's DNF disjuncts in order. Fails with
// InvalidArgument if an atom argument (a constant, or a free value) lies
// outside the universe, and with OutOfRange if more than `max_terms`
// ground terms survive (the bound exists to keep malformed inputs from
// exhausting memory; the construction itself is polynomial for a fixed
// query). `ctx` (nullable) is charged one work unit per binding the join
// visits (each partial binding, from the empty one to complete ones) plus
// one per emitted ground clause; a tripped envelope stops the expansion
// with the budget status.
StatusOr<GroundDnf> GroundExistential(const PrenexExistential& prenex,
                                      const UnreliableDatabase& database,
                                      const Tuple& free_assignment,
                                      size_t max_terms = size_t{1} << 22,
                                      RunContext* ctx = nullptr);

// The support of `relation`: the tuples R ā with ν(R ā) > 0, i.e. the
// observed facts unless μ = 1, plus the observed-false atoms with μ > 0.
// Every other atom of R is false in every world with positive probability,
// so these are the only values a positive atom can take. The grounding's
// join and the safe plan's projections (lifted/extensional.h) iterate
// them. O(facts of R + error-model entries).
std::vector<Tuple> PossibleTuples(const UnreliableDatabase& db, int relation);

}  // namespace qrel

#endif  // QREL_LOGIC_GROUNDING_H_
