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
#include "qrel/util/governed_loop.h"

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
  GovernedLoop loop(
      options.run_context,
      {.kind = "core.absolute_approx.v2",
       .fingerprint = fingerprint.value(),
       .fault_site = "core.approx.tuple",
       .claim = *tuple_count > 1});

  Rng seeder(options.seed);
  double expected_error = 0.0;
  uint64_t samples = 0;
  bool truncated = false;
  double worst_sub_epsilon = 0.0;  // worst per-tuple achieved (relative) ε
  Tuple assignment(static_cast<size_t>(k), 0);
  uint64_t done = 0;  // tuples finished: the odometer rank of `assignment`
  QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r) -> Status {
    QREL_RETURN_IF_ERROR(r.TupleVal(&assignment));
    if (assignment.size() != static_cast<size_t>(k)) {
      return Status::DataLoss("snapshot tuple arity mismatch");
    }
    for (Element element : assignment) {
      if (element < 0 || element >= n) {
        return Status::DataLoss("snapshot tuple element out of range");
      }
      done = done * static_cast<uint64_t>(n) + static_cast<uint64_t>(element);
    }
    QREL_RETURN_IF_ERROR(r.Double(&expected_error));
    QREL_RETURN_IF_ERROR(r.U64(&samples));
    uint8_t truncated_byte = 0;
    QREL_RETURN_IF_ERROR(r.U8(&truncated_byte));
    truncated = truncated_byte != 0;
    QREL_RETURN_IF_ERROR(r.Double(&worst_sub_epsilon));
    return r.RngState(&seeder);
  }));
  QREL_RETURN_IF_ERROR(loop.Run(
      &done, *tuple_count,
      [&]() -> Status {
        per_tuple.seed = seeder.NextUint64();
        StatusOr<ApproxResult> nu =
            FptrasFromPrenex(*prenex, db, assignment, per_tuple);
        if (!nu.ok()) {
          return nu.status();
        }
        samples += nu->samples;
        truncated = truncated || nu->truncated;
        if (nu->achieved_epsilon.has_value()) {
          worst_sub_epsilon =
              std::max(worst_sub_epsilon, *nu->achieved_epsilon);
        }
        bool observed = compiled->Eval(db.observed(), assignment);
        // nu estimates Pr[target(ā)]; translate into Pr[ψ(ā) wrong].
        double prob_true =
            universal ? 1.0 - nu->estimate : nu->estimate;  // Pr[𝔅 ⊨ ψ(ā)]
        expected_error += observed ? 1.0 - prob_true : prob_true;
        AdvanceTuple(&assignment, n);
        return Status::Ok();
      },
      [&](SnapshotWriter& w) {
        w.TupleVal(assignment);
        w.Double(expected_error);
        w.U64(samples);
        w.U8(truncated ? 1 : 0);
        w.Double(worst_sub_epsilon);
        w.RngState(seeder);
      }));

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

StatusOr<ApproxResult> PaddedEstimate(const UnreliableDatabase& db,
                                      const PaddedQuery& query,
                                      const ApproxOptions& options) {
  QREL_RETURN_IF_ERROR(ValidateCommonOptions(options));
  if (options.xi <= 0.0 || options.xi >= 0.5) {
    return Status::InvalidArgument("xi must lie in (0, 1/2)");
  }
  if (options.fixed_samples == uint64_t{0}) {
    return Status::InvalidArgument("padded estimator needs at least 1 sample");
  }
  int n = db.universe_size();
  StatusOr<uint64_t> tuple_count = TupleCount(n, query.arity);
  if (!tuple_count.ok()) {
    return tuple_count.status();
  }
  const double tuples_d = static_cast<double>(*tuple_count);
  const double xi = options.xi;
  double per_delta = options.delta / tuples_d;
  // Lemma 5.11 is applied with ε/2 (the proof's final step).
  uint64_t bound =
      PaddedSampleBound(xi, options.epsilon / tuples_d / 2.0, per_delta);
  uint64_t planned = options.fixed_samples.value_or(bound);

  Fingerprint fingerprint;
  fingerprint.Mix(query.kind)
      .Mix(query.text)
      .Mix(options.seed)
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(query.arity))
      .MixDouble(xi)
      .Mix(planned)
      .Mix(static_cast<uint64_t>(db.model().entry_count()))
      .Mix(db.ContentFingerprint());
  // Worlds are shared by every tuple's counter, so a prefix of the samples
  // is a valid smaller sample for all of them: truncation is sound.
  GovernedLoop loop(options.run_context,
                    {.kind = query.kind,
                     .fingerprint = fingerprint.value(),
                     .fault_site = query.fault_site,
                     .allow_truncation = options.allow_truncation});

  std::vector<Tuple> tuples = AllTuples(n, query.arity);
  std::vector<const Tuple*> asked;
  asked.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    asked.push_back(&t);
  }
  // ψ^𝔄, evaluated once the loop holds the checkpointer claim, so a
  // fixpoint inside `holds` stays inert.
  std::vector<uint8_t> holds(tuples.size(), 0);
  QREL_RETURN_IF_ERROR(query.holds(db.observed(), asked, &holds));
  const std::vector<uint8_t> observed = holds;

  Rng rng(options.seed);
  WorldIndex index(db);
  WorldSampler sampler(db);
  World world(db.model().entry_count());
  const WorldView view(index, world);
  std::vector<uint64_t> hits(tuples.size(), 0);
  std::vector<size_t> by_rc;  // this sample's tuples with Rd ∧ Rc
  by_rc.reserve(tuples.size());
  uint64_t drawn = 0;
  QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r) -> Status {
    QREL_RETURN_IF_ERROR(r.U64(&drawn));
    uint32_t hit_count = 0;
    QREL_RETURN_IF_ERROR(r.U32(&hit_count));
    if (hit_count != hits.size()) {
      return Status::DataLoss("snapshot hit-counter count mismatch");
    }
    for (uint64_t& h : hits) {
      QREL_RETURN_IF_ERROR(r.U64(&h));
    }
    return r.RngState(&rng);
  }));
  // X = ψ'(𝔅') with ψ' = (ψ ∨ Rc) ∧ Rd over the padded database: the two
  // fresh atoms Rc, Rd are virtual — each an independent Bernoulli(ξ)
  // draw, since R is empty in 𝔄' and μ'(Rc) = μ'(Rd) = ξ. Per sample each
  // tuple draws Rd, then Rc only when Rd, in odometer order; one world is
  // drawn, and ψ evaluated, only for the tuples with Rd ∧ ¬Rc.
  QREL_RETURN_IF_ERROR(loop.Run(
      &drawn, planned,
      [&]() -> Status {
        by_rc.clear();
        asked.clear();  // this sample's tuples with Rd ∧ ¬Rc
        for (size_t i = 0; i < tuples.size(); ++i) {
          if (!rng.NextBernoulli(xi)) {
            continue;  // ¬Rd: ψ' is false whatever ψ evaluates to
          }
          if (rng.NextBernoulli(xi)) {
            by_rc.push_back(i);
          } else {
            asked.push_back(&tuples[i]);
          }
        }
        if (!asked.empty()) {
          sampler.Sample(&rng, &world);
          QREL_RETURN_IF_ERROR(query.holds(view, asked, &holds));
        }
        // Committed only now that the sample's evaluation succeeded.
        for (size_t i : by_rc) {
          ++hits[i];
        }
        for (size_t j = 0; j < asked.size(); ++j) {
          hits[static_cast<size_t>(asked[j] - tuples.data())] += holds[j];
        }
        return Status::Ok();
      },
      [&](SnapshotWriter& w) {
        w.U64(drawn);
        w.U32(static_cast<uint32_t>(hits.size()));
        for (uint64_t h : hits) {
          w.U64(h);
        }
        w.RngState(rng);
      }));

  double expected_error = 0.0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    double x_bar = static_cast<double>(hits[i]) / static_cast<double>(drawn);
    // Invert p = ν(ψ)·(ξ-ξ²) + ξ² (equation (3) in the proof).
    double nu = std::clamp((x_bar - xi * xi) / (xi - xi * xi), 0.0, 1.0);
    expected_error += observed[i] != 0 ? 1.0 - nu : nu;
  }
  ApproxResult result;
  result.samples = drawn;
  result.truncated = loop.truncated();
  if (drawn < bound) {
    // Fewer samples than the theorem bound (fixed_samples or truncation):
    // report the guarantee they buy, scaled back up through the per-tuple
    // split.
    result.achieved_epsilon =
        PaddedAchievedEpsilon(xi, drawn, per_delta) * tuples_d;
  }
  result.estimate = std::clamp(1.0 - expected_error / tuples_d, 0.0, 1.0);
  return result;
}

StatusOr<ApproxResult> PaddedReliabilityApprox(const FormulaPtr& query,
                                               const UnreliableDatabase& db,
                                               const ApproxOptions& options) {
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  std::string text = query->ToString();
  CompiledQuery::Scratch scratch;
  StatusOr<ApproxResult> result = PaddedEstimate(
      db,
      {.arity = compiled->arity(),
       .kind = "core.padded.v2",
       .text = text,
       .fault_site = "core.approx.padded_sample",
       .holds =
           [&](const AtomOracle& world, const std::vector<const Tuple*>& asked,
               std::vector<uint8_t>* holds) {
             for (size_t j = 0; j < asked.size(); ++j) {
               (*holds)[j] =
                   compiled->Eval(world, *asked[j], &scratch) ? 1 : 0;
             }
             return Status::Ok();
           }},
      options);
  if (result.ok()) {
    result->method =
        "Thm 5.12 padded estimator (xi=" + std::to_string(options.xi) + ")";
  }
  return result;
}

}  // namespace qrel
