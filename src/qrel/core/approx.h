// Randomized approximation of query probabilities and reliabilities:
// Theorem 5.4, Corollary 5.5 and Theorem 5.12.
//
//  * ExistentialProbabilityFptras — an FPTRAS (relative error ε, failure
//    probability δ) for ν(ψ) = Pr[𝔅 ⊨ ψ], existential Boolean ψ: ground to
//    kDNF (Theorem 5.4) and run Karp-Luby.
//  * ReliabilityAbsoluteApprox — |R̂ − R_ψ| ≤ ε with probability ≥ 1−δ for
//    existential and universal queries of any arity (Corollary 5.5);
//    k-ary queries split the budget into (ε/n^k, δ/n^k) per tuple.
//  * PaddedReliabilityApprox — the same absolute-error guarantee for every
//    polynomial-time evaluable query (Theorem 5.12), via the padded query
//    ψ' = (ψ ∨ Rc) ∧ Rd with fresh ξ-probability atoms Rc, Rd, which pins
//    p = E[X] into [ξ², ξ] so the Karp-Luby zero-one lemma (Lemma 5.11)
//    applies with t = ⌈9/(2ξ(ε/2)²) · ln(1/δ)⌉ samples.

#ifndef QREL_CORE_APPROX_H_
#define QREL_CORE_APPROX_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qrel/logic/ast.h"
#include "qrel/prob/unreliable_database.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

struct ApproxOptions {
  // Error targets: relative for the FPTRAS, absolute for the reliability
  // approximators. Must lie in (0, 1).
  double epsilon = 0.05;
  double delta = 0.05;
  uint64_t seed = 1;

  // Theorem 5.12's ξ ∈ (0, 1/2); chosen before seeing 𝔇, ε or δ. The
  // sample count scales as 1/ξ, but the footnote fixes it a priori — the
  // default 1/4 matches the usual instantiation.
  double xi = 0.25;

  // Overrides the derived sample counts when set (for equal-budget
  // benchmark comparisons). Applies per Boolean sub-estimate.
  std::optional<uint64_t> fixed_samples;

  // Execution envelope (non-owning, nullable): sampling loops charge one
  // work unit per sample, grounding charges per assignment/clause. A
  // tripped envelope aborts the computation with the budget status.
  RunContext* run_context = nullptr;

  // When the envelope trips mid-sampling with at least one sample drawn,
  // return the running estimate marked `truncated` instead of failing.
  // Applies to Boolean Cor 5.5 and to the padded estimator (its samples
  // serve every tuple); never to cancellation, nor to Cor 5.5's k-ary
  // loop (a partially covered tuple space is not a usable estimate).
  bool allow_truncation = false;
};

struct ApproxResult {
  double estimate = 0.0;
  // Samples drawn: summed over Cor 5.5's Boolean sub-estimates; for the
  // padded estimator the per-tuple count t (each sample serves all tuples).
  uint64_t samples = 0;
  // Human-readable description of the algorithm that ran.
  std::string method;
  // Set when the drawn sample count delivers a weaker guarantee than the
  // requested `epsilon` (fixed_samples below the theorem-derived bound, or
  // a truncated run): the error actually guaranteed at the requested
  // delta, in the same units as the request (relative for the FPTRAS,
  // absolute on R for the reliability approximators).
  std::optional<double> achieved_epsilon;
  // The sampling loop stopped early on a tripped budget (see
  // ApproxOptions::allow_truncation).
  bool truncated = false;
};

// FPTRAS for ν(ψ(ā)) where ψ is existential (Theorem 5.4): relative error
// ε with probability ≥ 1-δ. `assignment` instantiates the free variables
// (empty for sentences). Fails if ψ is not existential.
StatusOr<ApproxResult> ExistentialProbabilityFptras(
    const FormulaPtr& query, const UnreliableDatabase& db,
    const Tuple& assignment, const ApproxOptions& options);

// Absolute-error approximation of R_ψ for existential or universal ψ of
// any arity (Corollary 5.5). Fails if ψ is neither.
StatusOr<ApproxResult> ReliabilityAbsoluteApprox(const FormulaPtr& query,
                                                 const UnreliableDatabase& db,
                                                 const ApproxOptions& options);

// Absolute-error approximation of R_ψ for any first-order ψ
// (Theorem 5.12). The estimator never grounds the query; it samples worlds
// and evaluates ψ directly, so it applies to every polynomial-time
// evaluable query. PaddedEstimate under kind "core.padded.v2".
StatusOr<ApproxResult> PaddedReliabilityApprox(const FormulaPtr& query,
                                               const UnreliableDatabase& db,
                                               const ApproxOptions& options);

// What a Theorem 5.12 caller supplies: the arity k, its snapshot kind,
// the query or program text (fingerprinted), its per-sample fault site,
// and `holds`, which sets (*holds)[j] to whether tuples[j] holds in
// `world` (an error fails the sample).
struct PaddedQuery {
  int arity = 0;
  std::string_view kind;
  std::string_view text;
  const char* fault_site = nullptr;
  std::function<Status(const AtomOracle& world,
                       const std::vector<const Tuple*>& tuples,
                       std::vector<uint8_t>* holds)>
      holds;
};

// The one Theorem 5.12 estimator of R for a k-ary query: t governed
// samples (util/governed_loop.h), each shared by all n^k tuple counters.
// Per sample each tuple, in odometer order, draws Rd, then Rc only if Rd;
// one world is drawn, and `holds` asked, only for the tuples with Rd ∧ ¬Rc,
// and the sample's hits are committed once that succeeds. Each tuple's
// estimate is Lemma 5.11's at (ε/n^k, δ/n^k); the union bound does not
// care that tuples share samples, and because they do, a prefix of the
// samples is a valid smaller sample: allow_truncation applies at any k.
// `holds` also evaluates the observed database, after the loop claims the
// checkpointer. kInvalidArgument on bad ε, δ, ξ or fixed_samples = 0.
StatusOr<ApproxResult> PaddedEstimate(const UnreliableDatabase& db,
                                      const PaddedQuery& query,
                                      const ApproxOptions& options);

// Theorem 5.12's sample bound t(ξ, ε, δ) = ⌈9/(2 ξ ε²) ln(1/δ)⌉ (the ε
// here is the one handed to Lemma 5.11, i.e. half the user's ε).
uint64_t PaddedSampleBound(double xi, double epsilon, double delta);

// Inverts the sample bound: the per-estimate absolute error actually
// guaranteed (at failure probability δ) by `samples` padded samples — the
// error bar of a truncated or fixed-budget run. Includes the ×2 from the
// proof's final step, so it is directly comparable to the user's ε.
double PaddedAchievedEpsilon(double xi, uint64_t samples, double delta);

}  // namespace qrel

#endif  // QREL_CORE_APPROX_H_
