// Extensional (lifted) evaluation of safe plans.
//
// For a safe self-join-free conjunctive query (logic/safe_plan.h), the
// query probability factors over independent tuple events, so reliability
// needs no possible worlds and no samples:
//
//   leaf R(t̄)        Pr = ν(R t̄)                     (one marginal lookup)
//   equality t₁ = t₂  Pr = 1 or 0                     (deterministic)
//   independent join  Pr[φ₁ ∧ φ₂] = Pr[φ₁]·Pr[φ₂]
//   independent proj  Pr[∃x φ] = 1 − Π_c (1 − Pr[φ[x:=c]])
//
// A projection multiplies only over the values c its variable takes in the
// possible tuples (ν > 0, logic/grounding.h PossibleTuples) of one atom
// below it that agree with the values bound above; for any other c that
// atom, and so φ[x:=c], is certainly false and its factor is 1.
//
// ExtensionalReliability evaluates the plan once per answer tuple ā over
// the n^k tuple space, in exact rational arithmetic, and assembles
// H_ψ(𝔇) = Σ_ā Pr[ψ(ā) wrong] and R_ψ = 1 − H_ψ/n^k exactly — the same
// quantities core/reliability.h computes by 2^u world enumeration, at
// polynomial cost, at most O(n^k · plan-size · n^depth) and on sparse data
// about n^k times the support the projections visit.
//
// RunContext (nullable) is charged one unit per answer tuple and one per
// plan-leaf evaluation; a tripped envelope stops the computation with its
// budget status. The run is polynomial and restartable from scratch, so
// unlike the exponential rungs it takes no checkpoints.

#ifndef QREL_LIFTED_EXTENSIONAL_H_
#define QREL_LIFTED_EXTENSIONAL_H_

#include "qrel/core/reliability.h"
#include "qrel/logic/ast.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/util/rational.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

// Exact H_ψ and R_ψ by safe-plan evaluation. Fails with kInvalidArgument
// when the query admits no safe plan (use logic/safe_plan.h or
// QueryClass::kSafeConjunctive to decide beforehand); work_units counts
// plan operations (tuples + leaf evaluations).
StatusOr<ReliabilityReport> ExtensionalReliability(
    const FormulaPtr& query, const UnreliableDatabase& db,
    RunContext* ctx = nullptr);

// Exact Pr[𝔅 ⊨ ψ(ā)] via the safe plan, for one assignment of the free
// variables (free_variables order; empty for Boolean queries). The
// extensional counterpart of ExactQueryProbability, used by the
// cross-check tests.
StatusOr<Rational> ExtensionalQueryProbability(const FormulaPtr& query,
                                               const UnreliableDatabase& db,
                                               const Tuple& assignment);

}  // namespace qrel

#endif  // QREL_LIFTED_EXTENSIONAL_H_
