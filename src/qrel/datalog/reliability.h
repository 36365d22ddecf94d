// Reliability of Datalog queries on unreliable databases.
//
// A stratified Datalog program evaluates in polynomial time, so the
// paper's machinery applies directly:
//   * Theorem 4.2 — exact reliability by possible-world enumeration (the
//     "in particular, this includes all Datalog queries" remark);
//   * Theorem 5.12 — the padded (ψ ∨ Rc) ∧ Rd estimator gives an
//     absolute-error randomized approximation, since it only needs to
//     *evaluate* the query on sampled worlds.
// The query is one predicate of the program; its materialized relation is
// the answer set whose expected Hamming error defines H and R.

#ifndef QREL_DATALOG_RELIABILITY_H_
#define QREL_DATALOG_RELIABILITY_H_

#include <string>

#include "qrel/core/approx.h"
#include "qrel/core/reliability.h"
#include "qrel/datalog/eval.h"
#include "qrel/prob/unreliable_database.h"

namespace qrel {

// Exact H and R for `predicate` by world enumeration (WorldEnumerator, the
// same integer Gray walk as ExactReliability). Every world's fixpoint runs
// in one DatalogWorkspace, so after the first worlds a world allocates
// nothing. Fails if the database has more than 62 uncertain atoms. `ctx`
// (nullable) is charged one unit per world plus the fixpoint's own
// per-node charges; a tripped envelope aborts with the budget status.
// Checkpoints under kind "datalog.exact.v2".
StatusOr<ReliabilityReport> ExactDatalogReliability(
    const CompiledDatalog& program, const std::string& predicate,
    const UnreliableDatabase& db, RunContext* ctx = nullptr);

// Theorem 5.12 estimator for Datalog: PaddedEstimate (core/approx.h)
// under kind "datalog.padded.v2", evaluating the program on each sampled
// world. Samples are shared across answer tuples (each per-tuple estimate
// stays unbiased and the union bound is unaffected by correlation), so a
// prefix of them is usable for every tuple and options.allow_truncation
// applies even for k-ary predicates. Absolute error `options.epsilon` on R
// with probability ≥ 1 − options.delta. Charges options.run_context one
// unit per sample plus the fixpoint's own charges.
StatusOr<ApproxResult> PaddedDatalogReliability(
    const CompiledDatalog& program, const std::string& predicate,
    const UnreliableDatabase& db, const ApproxOptions& options);

}  // namespace qrel

#endif  // QREL_DATALOG_RELIABILITY_H_
