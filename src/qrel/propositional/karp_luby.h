// The Karp-Luby FPTRAS for DNF (Theorem 5.2) in its weighted form: a fully
// polynomial-time randomized approximation scheme for the probability of a
// DNF formula under independent per-variable probabilities, and the
// classical unweighted #DNF counting instance as a special case.
//
// Importance sampling over the union of the terms' satisfying sets:
//
//   S = Σ_i Pr[T_i]                     (total term weight)
//   sample i with probability Pr[T_i]/S, then an assignment w ~ (· | T_i);
//   canonical estimator  X = 1{ i == min{ j : w ⊨ T_j } }
//   coverage estimator   X = 1 / |{ j : w ⊨ T_j }|
//
// Both satisfy E[S·X] = Pr[φ] and S·X ≤ S ≤ m·Pr[φ], so by the
// Karp-Luby-Madras zero-one estimator theorem t = ⌈4 m ln(2/δ) / ε²⌉
// samples give relative error ε with probability ≥ 1-δ. The coverage
// estimator has no larger variance and is the default.

#ifndef QREL_PROPOSITIONAL_KARP_LUBY_H_
#define QREL_PROPOSITIONAL_KARP_LUBY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "qrel/propositional/dnf.h"
#include "qrel/util/bigint.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

struct KarpLubyOptions {
  // Target relative error and failure probability; both must be in (0, 1).
  double epsilon = 0.05;
  double delta = 0.05;
  uint64_t seed = 1;

  enum class Estimator { kCoverage, kCanonical };
  Estimator estimator = Estimator::kCoverage;

  // Overrides the Karp-Luby-Madras sample count when set (used by the
  // benchmark harness for equal-budget comparisons).
  std::optional<uint64_t> fixed_samples;

  // Execution envelope (non-owning, nullable): one work unit is charged
  // per sample drawn.
  RunContext* run_context = nullptr;

  // When the envelope trips mid-loop and at least one sample completed,
  // return the running estimate (marked `truncated`) instead of the budget
  // error. Sound because each zero-one sample is independent and the
  // estimator stays unbiased at any prefix of the sample sequence; only
  // the (ε, δ) guarantee weakens — see KarpLubyAchievedEpsilon.
  // Cancellation is never converted into a truncated result.
  bool allow_truncation = false;
};

struct KarpLubyResult {
  // The estimate of Pr[φ] (or of the model count for KarpLubyCount).
  double estimate = 0.0;
  uint64_t samples = 0;
  // S = Σ_i Pr[T_i], the importance-sampling normalizer.
  double total_term_weight = 0.0;
  // The sampling loop stopped early on a tripped budget; `samples` is the
  // number actually incorporated into `estimate`.
  bool truncated = false;
};

// Estimates Pr[φ] for `dnf` under `prob_true`. Exact corner cases (no
// terms, an empty term, zero total weight) return without sampling. A
// sample draws only the variables some term mentions (zero-weight terms
// included), in ascending order, from thresholds precomputed once, so its
// cost does not grow with variable_count(), and the same terms over a
// larger, order-preserving variable numbering give the same estimate.
StatusOr<KarpLubyResult> KarpLubyProbability(
    const Dnf& dnf, const std::vector<Rational>& prob_true,
    const KarpLubyOptions& options);

// Estimates the number of satisfying assignments of `dnf` (#DNF): the
// uniform-probability instance scaled by 2^variable_count.
StatusOr<KarpLubyResult> KarpLubyCount(const Dnf& dnf,
                                       const KarpLubyOptions& options);

// The Karp-Luby-Madras sample bound t(m, ε, δ) = ⌈4 m ln(2/δ) / ε²⌉.
uint64_t KarpLubySampleBound(int term_count, double epsilon, double delta);

// Inverts the sample bound: the relative error ε actually guaranteed (at
// failure probability δ) by `samples` zero-one samples over `term_count`
// terms — the error bar of a truncated run.
double KarpLubyAchievedEpsilon(int term_count, uint64_t samples,
                               double delta);

}  // namespace qrel

#endif  // QREL_PROPOSITIONAL_KARP_LUBY_H_
