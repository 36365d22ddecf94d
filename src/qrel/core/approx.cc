#include "qrel/core/approx.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qrel/logic/classify.h"
#include "qrel/logic/eval.h"
#include "qrel/logic/grounding.h"
#include "qrel/logic/normal_form.h"
#include "qrel/propositional/dnf.h"
#include "qrel/propositional/karp_luby.h"
#include "qrel/util/check.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/snapshot.h"

namespace qrel {

namespace {

Status ValidateCommonOptions(const ApproxOptions& options) {
  if (options.epsilon <= 0.0 || options.epsilon >= 1.0 ||
      options.delta <= 0.0 || options.delta >= 1.0) {
    return Status::InvalidArgument("epsilon and delta must lie in (0, 1)");
  }
  return Status::Ok();
}

// Number of tuples n^k, with an overflow/feasibility guard.
StatusOr<uint64_t> TupleCount(int n, int k) {
  uint64_t count = 1;
  for (int i = 0; i < k; ++i) {
    count *= static_cast<uint64_t>(n);
    if (count > (uint64_t{1} << 22)) {
      return Status::OutOfRange(
          "query arity times universe size yields too many tuples");
    }
  }
  return count;
}

// One FPTRAS estimate of ν(ψ(ā)) from an already-computed prenex form.
StatusOr<ApproxResult> FptrasFromPrenex(const PrenexExistential& prenex,
                                        const UnreliableDatabase& db,
                                        const Tuple& assignment,
                                        const ApproxOptions& options) {
  StatusOr<GroundDnf> ground = GroundExistential(
      prenex, db, assignment, size_t{1} << 22, options.run_context);
  if (!ground.ok()) {
    return ground.status();
  }
  ApproxResult result;
  if (ground->certainly_true) {
    result.estimate = 1.0;
    result.method = "Thm 5.4 grounding: certainly true";
    return result;
  }
  if (ground->terms.empty()) {
    result.estimate = 0.0;
    result.method = "Thm 5.4 grounding: certainly false";
    return result;
  }

  // Renumber the lineage, the entries ψ'' mentions, onto dense variables
  // in ascending entry order, so the DNF and the sampler scale with the
  // query's support rather than the database. Karp-Luby draws variables in
  // ascending order, so the estimate equals that of the same DNF over all
  // entry ids.
  std::vector<int> lineage;
  for (const std::vector<GroundLiteral>& term : ground->terms) {
    for (const GroundLiteral& literal : term) {
      lineage.push_back(literal.entry);
    }
  }
  std::sort(lineage.begin(), lineage.end());
  lineage.erase(std::unique(lineage.begin(), lineage.end()), lineage.end());
  auto variable_of = [&lineage](int entry) {
    return static_cast<int>(
        std::lower_bound(lineage.begin(), lineage.end(), entry) -
        lineage.begin());
  };
  Dnf dnf(static_cast<int>(lineage.size()));
  for (const std::vector<GroundLiteral>& term : ground->terms) {
    std::vector<PropLiteral> literals;
    literals.reserve(term.size());
    for (const GroundLiteral& literal : term) {
      literals.push_back({variable_of(literal.entry), literal.positive});
    }
    dnf.AddTerm(std::move(literals));
  }
  // Subsumption pruning shrinks m and with it the Karp-Luby sample bound,
  // without changing Pr[ψ''].
  dnf.RemoveSubsumedTerms();
  std::vector<Rational> prob_true;
  prob_true.reserve(lineage.size());
  for (int entry : lineage) {
    prob_true.push_back(db.EntryNuTrue(entry));
  }

  KarpLubyOptions kl;
  kl.epsilon = options.epsilon;
  kl.delta = options.delta;
  kl.seed = options.seed;
  kl.fixed_samples = options.fixed_samples;
  kl.run_context = options.run_context;
  kl.allow_truncation = options.allow_truncation;
  StatusOr<KarpLubyResult> estimate = KarpLubyProbability(dnf, prob_true, kl);
  if (!estimate.ok()) {
    return estimate.status();
  }
  result.estimate = estimate->estimate;
  result.samples = estimate->samples;
  result.truncated = estimate->truncated;
  if (estimate->samples > 0 &&
      estimate->samples < KarpLubySampleBound(dnf.term_count(),
                                              options.epsilon,
                                              options.delta)) {
    result.achieved_epsilon = KarpLubyAchievedEpsilon(
        dnf.term_count(), estimate->samples, options.delta);
  }
  result.method = "Thm 5.4 grounding (" + std::to_string(dnf.term_count()) +
                  " terms, width " + std::to_string(dnf.Width()) +
                  ") + Karp-Luby";
  return result;
}

}  // namespace

uint64_t PaddedSampleBound(double xi, double epsilon, double delta) {
  double t = 9.0 / (2.0 * xi * epsilon * epsilon) * std::log(1.0 / delta);
  QREL_CHECK(std::isfinite(t));
  return static_cast<uint64_t>(std::ceil(t));
}

double PaddedAchievedEpsilon(double xi, uint64_t samples, double delta) {
  QREL_CHECK(samples > 0);
  // Solve t = 9/(2ξε²)·ln(1/δ) for ε, then double it to undo the proof's
  // ε/2 instantiation of Lemma 5.11.
  return 2.0 * std::sqrt(9.0 * std::log(1.0 / delta) /
                         (2.0 * xi * static_cast<double>(samples)));
}

StatusOr<ApproxResult> ExistentialProbabilityFptras(
    const FormulaPtr& query, const UnreliableDatabase& db,
    const Tuple& assignment, const ApproxOptions& options) {
  QREL_RETURN_IF_ERROR(ValidateCommonOptions(options));
  StatusOr<PrenexExistential> prenex = ToPrenexExistential(query);
  if (!prenex.ok()) {
    return prenex.status();
  }
  if (assignment.size() != prenex->free_variables.size()) {
    return Status::InvalidArgument("assignment arity mismatch");
  }
  return FptrasFromPrenex(*prenex, db, assignment, options);
}

StatusOr<ApproxResult> ReliabilityAbsoluteApprox(
    const FormulaPtr& query, const UnreliableDatabase& db,
    const ApproxOptions& options) {
  QREL_RETURN_IF_ERROR(ValidateCommonOptions(options));

  // Work with an existential formula: ψ itself, or ¬ψ for universal ψ.
  bool universal = false;
  FormulaPtr target = query;
  if (!IsExistential(query)) {
    if (!IsUniversal(query)) {
      return Status::InvalidArgument(
          "Corollary 5.5 applies to existential or universal queries only; "
          "use PaddedReliabilityApprox for general queries");
    }
    universal = true;
    target = Not(query);
  }
  StatusOr<PrenexExistential> prenex = ToPrenexExistential(target);
  if (!prenex.ok()) {
    return prenex.status();
  }

  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  int n = db.universe_size();
  int k = compiled->arity();
  StatusOr<uint64_t> tuple_count = TupleCount(n, k);
  if (!tuple_count.ok()) {
    return tuple_count.status();
  }

  // Per-tuple budgets from the proof of Corollary 5.5: error ε/n^k with
  // failure probability δ/n^k for each of the n^k Boolean estimates.
  ApproxOptions per_tuple = options;
  per_tuple.epsilon = options.epsilon / static_cast<double>(*tuple_count);
  per_tuple.delta = options.delta / static_cast<double>(*tuple_count);
  if (per_tuple.epsilon >= 1.0) per_tuple.epsilon = 0.999;
  // A truncated sub-estimate is only usable when it is the whole answer;
  // with several tuples a partially covered tuple space is not.
  per_tuple.allow_truncation = options.allow_truncation && *tuple_count == 1;

  // Claimed before the tuple loop so the Karp-Luby scope inside
  // FptrasFromPrenex stays inert: checkpoint granularity is one finished
  // tuple, whose state (plus the seeder) determines everything after it.
  Fingerprint fingerprint;
  fingerprint.Mix("core.absolute_approx")
      .Mix(options.seed)
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(k))
      .MixDouble(options.epsilon)
      .MixDouble(options.delta)
      .Mix(options.fixed_samples.value_or(0))
      .Mix(static_cast<uint64_t>(db.model().entry_count()))
      .Mix(query->ToString())
      .Mix(db.ContentFingerprint());
  // A Boolean query has exactly one tuple, so this loop carries no state
  // worth snapshotting; leaving the checkpointer unclaimed lets the
  // Karp-Luby sampling rung below claim it and checkpoint per sample —
  // that is where a long run spends its time, and the only place a drain
  // cancellation or SIGINT can flush usable progress. With more than one
  // tuple the per-tuple accumulators must own the snapshot.
  CheckpointScope checkpoint(*tuple_count > 1 ? options.run_context : nullptr,
                             "core.absolute_approx.v2", fingerprint.value());

  Rng seeder(options.seed);
  double expected_error = 0.0;
  uint64_t samples = 0;
  bool truncated = false;
  double worst_sub_epsilon = 0.0;  // worst per-tuple achieved (relative) ε
  Tuple assignment(static_cast<size_t>(k), 0);
  {
    std::optional<SnapshotReader> resume;
    QREL_RETURN_IF_ERROR(checkpoint.TakeResume(&resume));
    if (resume.has_value()) {
      Tuple saved;
      QREL_RETURN_IF_ERROR(resume->TupleVal(&saved));
      if (saved.size() != assignment.size()) {
        return Status::DataLoss("snapshot tuple arity mismatch");
      }
      for (Element element : saved) {
        if (element < 0 || element >= n) {
          return Status::DataLoss("snapshot tuple element out of range");
        }
      }
      QREL_RETURN_IF_ERROR(resume->Double(&expected_error));
      QREL_RETURN_IF_ERROR(resume->U64(&samples));
      uint8_t truncated_byte = 0;
      QREL_RETURN_IF_ERROR(resume->U8(&truncated_byte));
      truncated = truncated_byte != 0;
      QREL_RETURN_IF_ERROR(resume->Double(&worst_sub_epsilon));
      QREL_RETURN_IF_ERROR(resume->RngState(&seeder));
      QREL_RETURN_IF_ERROR(resume->ExpectEnd());
      assignment = std::move(saved);
    }
  }
  do {
    // Checkpoint before charging so the resumed run re-charges this tuple
    // and the work counter continues exactly.
    QREL_RETURN_IF_ERROR(checkpoint.MaybeCheckpoint([&](SnapshotWriter& w) {
      w.TupleVal(assignment);
      w.Double(expected_error);
      w.U64(samples);
      w.U8(truncated ? 1 : 0);
      w.Double(worst_sub_epsilon);
      w.RngState(seeder);
    }));
    QREL_RETURN_IF_ERROR(ChargeWork(options.run_context));
    QREL_FAULT_SITE("core.approx.tuple");
    per_tuple.seed = seeder.NextUint64();
    StatusOr<ApproxResult> nu =
        FptrasFromPrenex(*prenex, db, assignment, per_tuple);
    if (!nu.ok()) {
      return nu.status();
    }
    samples += nu->samples;
    truncated = truncated || nu->truncated;
    if (nu->achieved_epsilon.has_value()) {
      worst_sub_epsilon = std::max(worst_sub_epsilon, *nu->achieved_epsilon);
    }
    bool observed = compiled->Eval(db.observed(), assignment);
    // nu estimates Pr[target(ā)]; translate into Pr[ψ(ā) wrong].
    double prob_true =
        universal ? 1.0 - nu->estimate : nu->estimate;  // Pr[𝔅 ⊨ ψ(ā)]
    expected_error += observed ? 1.0 - prob_true : prob_true;
  } while (AdvanceTuple(&assignment, n));

  ApproxResult result;
  result.samples = samples;
  result.truncated = truncated;
  if (worst_sub_epsilon > 0.0) {
    // Invert the Corollary 5.5 budget split (ε' = ε/n^k per tuple): the
    // guarantee actually delivered on R is n^k times the worst per-tuple
    // achieved error.
    result.achieved_epsilon =
        worst_sub_epsilon * static_cast<double>(*tuple_count);
  }
  result.estimate =
      1.0 - expected_error / static_cast<double>(*tuple_count);
  result.estimate = std::clamp(result.estimate, 0.0, 1.0);
  result.method = universal
                      ? "Cor 5.5 (universal via FPTRAS on negation)"
                      : "Cor 5.5 (existential via Thm 5.4 FPTRAS)";
  return result;
}

StatusOr<ApproxResult> PaddedReliabilityApprox(const FormulaPtr& query,
                                               const UnreliableDatabase& db,
                                               const ApproxOptions& options) {
  QREL_RETURN_IF_ERROR(ValidateCommonOptions(options));
  if (options.xi <= 0.0 || options.xi >= 0.5) {
    return Status::InvalidArgument("xi must lie in (0, 1/2)");
  }
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  int n = db.universe_size();
  int k = compiled->arity();
  StatusOr<uint64_t> tuple_count = TupleCount(n, k);
  if (!tuple_count.ok()) {
    return tuple_count.status();
  }

  double per_epsilon = options.epsilon / static_cast<double>(*tuple_count);
  double per_delta = options.delta / static_cast<double>(*tuple_count);
  // Lemma 5.11 is applied with ε/2 (the proof's final step).
  uint64_t per_samples =
      options.fixed_samples.has_value()
          ? *options.fixed_samples
          : PaddedSampleBound(options.xi, per_epsilon / 2.0, per_delta);

  Fingerprint fingerprint;
  fingerprint.Mix("core.padded")
      .Mix(options.seed)
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(k))
      .MixDouble(options.xi)
      .Mix(per_samples)
      .Mix(static_cast<uint64_t>(db.model().entry_count()))
      .Mix(query->ToString())
      .Mix(db.ContentFingerprint());
  CheckpointScope checkpoint(options.run_context, "core.padded.v1",
                             fingerprint.value());

  const double xi = options.xi;
  Rng rng(options.seed);
  WorldIndex index(db);
  double expected_error = 0.0;
  uint64_t samples = 0;
  Tuple assignment(static_cast<size_t>(k), 0);
  // Mid-tuple resume state: the inner sample loop restarts at resume_s
  // with resume_hits already accumulated (both zero after the first tuple).
  uint64_t resume_s = 0;
  uint64_t resume_hits = 0;
  {
    std::optional<SnapshotReader> resume;
    QREL_RETURN_IF_ERROR(checkpoint.TakeResume(&resume));
    if (resume.has_value()) {
      Tuple saved;
      QREL_RETURN_IF_ERROR(resume->TupleVal(&saved));
      if (saved.size() != assignment.size()) {
        return Status::DataLoss("snapshot tuple arity mismatch");
      }
      for (Element element : saved) {
        if (element < 0 || element >= n) {
          return Status::DataLoss("snapshot tuple element out of range");
        }
      }
      QREL_RETURN_IF_ERROR(resume->U64(&resume_s));
      QREL_RETURN_IF_ERROR(resume->U64(&resume_hits));
      QREL_RETURN_IF_ERROR(resume->U64(&samples));
      QREL_RETURN_IF_ERROR(resume->Double(&expected_error));
      QREL_RETURN_IF_ERROR(resume->RngState(&rng));
      QREL_RETURN_IF_ERROR(resume->ExpectEnd());
      assignment = std::move(saved);
    }
  }
  do {
    bool observed = compiled->Eval(db.observed(), assignment);
    // X_i = ψ'(𝔅') with ψ' = (ψ ∨ Rc) ∧ Rd over the padded database: the
    // two fresh atoms Rc, Rd are virtual — each is an independent
    // Bernoulli(ξ) draw, since R is empty in 𝔄' and μ'(Rc) = μ'(Rd) = ξ.
    uint64_t hits = resume_hits;
    for (uint64_t s = resume_s; s < per_samples; ++s) {
      QREL_RETURN_IF_ERROR(checkpoint.MaybeCheckpoint([&](SnapshotWriter& w) {
        w.TupleVal(assignment);
        w.U64(s);
        w.U64(hits);
        w.U64(samples);
        w.Double(expected_error);
        w.RngState(rng);
      }));
      QREL_RETURN_IF_ERROR(ChargeWork(options.run_context));
      QREL_FAULT_SITE("core.approx.padded_sample");
      bool rd = rng.NextBernoulli(xi);
      if (!rd) {
        continue;  // ψ' is false whatever ψ evaluates to
      }
      bool rc = rng.NextBernoulli(xi);
      bool psi_true = rc;
      if (!psi_true) {
        World world = db.SampleWorld(&rng);
        WorldView view(index, world);
        psi_true = compiled->Eval(view, assignment);
      }
      if (psi_true) {
        ++hits;
      }
    }
    resume_s = 0;
    resume_hits = 0;
    samples += per_samples;
    double x_bar = static_cast<double>(hits) / static_cast<double>(per_samples);
    // Invert p = ν(ψ)·(ξ-ξ²) + ξ² (equation (3) in the proof).
    double nu = (x_bar - xi * xi) / (xi - xi * xi);
    nu = std::clamp(nu, 0.0, 1.0);
    expected_error += observed ? 1.0 - nu : nu;
  } while (AdvanceTuple(&assignment, n));

  ApproxResult result;
  result.samples = samples;
  if (per_samples > 0 &&
      per_samples <
          PaddedSampleBound(options.xi, per_epsilon / 2.0, per_delta)) {
    // fixed_samples below the theorem bound: report the guarantee the
    // budget actually buys, scaled back up through the per-tuple split.
    result.achieved_epsilon =
        PaddedAchievedEpsilon(options.xi, per_samples, per_delta) *
        static_cast<double>(*tuple_count);
  }
  result.estimate =
      1.0 - expected_error / static_cast<double>(*tuple_count);
  result.estimate = std::clamp(result.estimate, 0.0, 1.0);
  result.method = "Thm 5.12 padded estimator (xi=" + std::to_string(xi) + ")";
  return result;
}

}  // namespace qrel
