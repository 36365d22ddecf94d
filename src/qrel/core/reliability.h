// Exact query reliability: Definition 2.2, Proposition 3.1, Theorem 4.2.
//
// For a k-ary query ψ on an unreliable database 𝔇 = (𝔄, μ) over a universe
// of size n:
//
//   H_ψ(𝔇) = E[ |ψ^𝔄 Δ ψ^𝔅| ]   (expected Hamming error)
//   R_ψ(𝔇) = 1 − H_ψ(𝔇)/n^k     (reliability / fault tolerance)
//
// ExactReliability enumerates the 2^u possible worlds (u = number of
// uncertain atoms) and is the FP^#P-style exact algorithm of Theorem 4.2 —
// the #P oracle is realized by integer world enumeration
// (prob/world_enumerator.h): each world carries its weight g·ν(𝔅) as an
// integer, the loop sums weight × (differing tuples), and the sum is
// divided by the scaling integer g once. ExactScaledProbability returns
// the integer g·Pr[𝔅 ⊨ ψ(ā)] itself.
//
// QuantifierFreeReliability is de Rougemont's polynomial-time algorithm
// (Proposition 3.1): for each tuple ā, only the ground atoms occurring in
// ψ(ā) matter — a constant number — so summing over their 2^{n(ψ)} local
// truth assignments is polynomial in n for fixed ψ.

#ifndef QREL_CORE_RELIABILITY_H_
#define QREL_CORE_RELIABILITY_H_

#include <vector>

#include "qrel/logic/ast.h"
#include "qrel/logic/eval.h"
#include "qrel/logic/second_order.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/util/rational.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

struct ReliabilityReport {
  int arity = 0;
  Rational expected_error;  // H_ψ(𝔇)
  Rational reliability;     // R_ψ(𝔇) = 1 − H_ψ/n^k
  // Number of worlds enumerated (exact enumeration) or of local atom
  // assignments summed (quantifier-free algorithm).
  uint64_t work_units = 0;
};

// Exact H_ψ and R_ψ by possible-world enumeration (Theorem 4.2). Works for
// every first-order query; cost Θ(2^u · n^k) query evaluations with
// u = |UncertainEntries()|. Fails if u > 62. `ctx` (nullable) is charged
// one work unit per enumerated world; a tripped envelope stops the
// enumeration with the budget status. Checkpoints under kind
// "core.exact.v2" (Gray step, integer sum, worlds).
StatusOr<ReliabilityReport> ExactReliability(const FormulaPtr& query,
                                             const UnreliableDatabase& db,
                                             RunContext* ctx = nullptr);

// Exact Pr[𝔅 ⊨ ψ(ā)] for a Boolean instantiation of a query, by world
// enumeration.
StatusOr<Rational> ExactQueryProbability(const FormulaPtr& query,
                                         const UnreliableDatabase& db,
                                         const Tuple& assignment);

// Theorem 4.2 artifacts: the scaling integer g (product of ν-denominators)
// and the exact integer g·Pr[𝔅 ⊨ ψ] = Σ_{𝔅 ⊨ ψ} g·ν(𝔅), the sum the world
// enumeration computes, certifying that the probability is a ratio of
// polynomial-size integers.
struct ScaledProbability {
  BigInt g;
  BigInt g_times_probability;
};
StatusOr<ScaledProbability> ExactScaledProbability(const FormulaPtr& query,
                                                   const UnreliableDatabase& db,
                                                   const Tuple& assignment);

// Proposition 3.1: polynomial-time exact reliability for quantifier-free
// queries. Fails with InvalidArgument if `query` has quantifiers. `ctx`
// (nullable) is charged one work unit per local atom assignment summed.
StatusOr<ReliabilityReport> QuantifierFreeReliability(
    const FormulaPtr& query, const UnreliableDatabase& db,
    RunContext* ctx = nullptr);

// Per-tuple breakdown of the expected error: H_ψ(ā) = Pr[ψ(ā) wrong] for
// every tuple ā (lexicographic order), exactly. The linearity of
// expectation behind Prop. 3.1 / Thm. 4.2 makes H_ψ their sum. Uses the
// polynomial local-atom algorithm for quantifier-free queries and world
// enumeration otherwise (same feasibility limits as ExactReliability).
struct TupleError {
  Tuple tuple;
  bool observed = false;     // ā ∈ ψ^𝔄
  Rational error;            // H_ψ(ā)
};
StatusOr<std::vector<TupleError>> PerTupleExpectedError(
    const FormulaPtr& query, const UnreliableDatabase& db);

// Theorem 4.2 at full strength: exact reliability of a second-order
// Boolean query — Σ¹₁ (default) or Π¹₁ (`pi11` = true) — by world
// enumeration. Each world evaluation itself enumerates the relation-
// variable contents, so both the world space (≤ 2^62) and the per-world
// guess space (≤ 2^24 bits, checked by the evaluator) must be small.
StatusOr<ReliabilityReport> ExactSecondOrderReliability(
    const CompiledSecondOrder& query, const UnreliableDatabase& db,
    bool pi11 = false);

}  // namespace qrel

#endif  // QREL_CORE_RELIABILITY_H_
