#include "qrel/datalog/reliability.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "qrel/prob/world_enumerator.h"
#include "qrel/util/check.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/snapshot.h"

namespace qrel {

namespace {

size_t SymmetricDifferenceSize(const std::set<Tuple>& a,
                               const std::set<Tuple>& b) {
  size_t common = 0;
  const std::set<Tuple>& smaller = a.size() <= b.size() ? a : b;
  const std::set<Tuple>& larger = a.size() <= b.size() ? b : a;
  for (const Tuple& tuple : smaller) {
    if (larger.find(tuple) != larger.end()) {
      ++common;
    }
  }
  return a.size() + b.size() - 2 * common;
}

}  // namespace

StatusOr<ReliabilityReport> ExactDatalogReliability(
    const CompiledDatalog& program, const std::string& predicate,
    const UnreliableDatabase& db, RunContext* ctx) {
  StatusOr<int> arity = program.PredicateArity(predicate);
  if (!arity.ok()) {
    return arity.status();
  }
  if (db.UncertainEntries().size() > WorldEnumerator::kMaxUncertain) {
    return Status::OutOfRange(
        "exact Datalog reliability would enumerate more than 2^62 worlds");
  }
  // Claimed before any EvalPredicate call: the fixpoint inside each world
  // carries its own (here inert) scope, and granularity must be one world.
  Fingerprint fingerprint;
  fingerprint.Mix("datalog.exact")
      .Mix(predicate)
      .Mix(static_cast<uint64_t>(db.universe_size()))
      .Mix(static_cast<uint64_t>(*arity))
      .Mix(static_cast<uint64_t>(db.UncertainEntries().size()))
      .Mix(program.program().ToString())
      .Mix(db.ContentFingerprint());
  CheckpointScope checkpoint(ctx, "datalog.exact.v2", fingerprint.value());

  StatusOr<std::set<Tuple>> observed =
      program.EvalPredicate(db.observed(), predicate, ctx);
  if (!observed.ok()) {
    return observed.status();
  }

  BigInt tuple_space =
      BigInt::Pow(BigInt(db.universe_size()), static_cast<uint32_t>(*arity));
  StatusOr<WorldSum> sum = SumOverWorlds(
      db, tuple_space, &checkpoint, ctx,
      [] { return QREL_FAULT_HIT("datalog.exact.world"); },
      [&](const AtomOracle& world) -> StatusOr<uint64_t> {
        // A failure is the envelope tripping mid-fixpoint, or a fault.
        StatusOr<std::set<Tuple>> actual =
            program.EvalPredicate(world, predicate, ctx);
        if (!actual.ok()) {
          return actual.status();
        }
        return SymmetricDifferenceSize(*observed, *actual);
      });
  if (!sum.ok()) {
    return sum.status();
  }
  ReliabilityReport report;
  report.arity = *arity;
  report.work_units = sum->worlds;
  report.expected_error = Rational(sum->weighted, sum->g);
  report.reliability =
      Rational(1) - report.expected_error / Rational(tuple_space, BigInt(1));
  return report;
}

StatusOr<ApproxResult> PaddedDatalogReliability(
    const CompiledDatalog& program, const std::string& predicate,
    const UnreliableDatabase& db, const ApproxOptions& options) {
  if (options.epsilon <= 0.0 || options.epsilon >= 1.0 ||
      options.delta <= 0.0 || options.delta >= 1.0) {
    return Status::InvalidArgument("epsilon and delta must lie in (0, 1)");
  }
  if (options.xi <= 0.0 || options.xi >= 0.5) {
    return Status::InvalidArgument("xi must lie in (0, 1/2)");
  }
  StatusOr<int> arity = program.PredicateArity(predicate);
  if (!arity.ok()) {
    return arity.status();
  }
  int n = db.universe_size();
  int k = *arity;
  double tuple_count = std::pow(static_cast<double>(n),
                                static_cast<double>(k));
  if (tuple_count > static_cast<double>(uint64_t{1} << 22)) {
    return Status::OutOfRange("answer space too large");
  }
  uint64_t tuples = static_cast<uint64_t>(tuple_count);

  // Claimed before any EvalPredicate call so the per-world fixpoint scope
  // is inert; granularity is one sampled world.
  Fingerprint fingerprint;
  fingerprint.Mix("datalog.padded")
      .Mix(predicate)
      .Mix(options.seed)
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(k))
      .MixDouble(options.xi)
      .Mix(options.fixed_samples.value_or(0))
      .Mix(static_cast<uint64_t>(db.model().entry_count()))
      .Mix(program.program().ToString())
      .Mix(db.ContentFingerprint());
  CheckpointScope checkpoint(options.run_context, "datalog.padded.v1",
                             fingerprint.value());

  StatusOr<std::set<Tuple>> observed =
      program.EvalPredicate(db.observed(), predicate, options.run_context);
  if (!observed.ok()) {
    return observed.status();
  }

  double per_epsilon = options.epsilon / tuple_count;
  double per_delta = options.delta / tuple_count;
  uint64_t samples =
      options.fixed_samples.has_value()
          ? *options.fixed_samples
          : PaddedSampleBound(options.xi, per_epsilon / 2.0, per_delta);

  // Enumerate the tuple space once; per-tuple hit counters.
  std::vector<Tuple> all_tuples;
  {
    Tuple tuple(static_cast<size_t>(k), 0);
    do {
      all_tuples.push_back(tuple);
    } while (AdvanceTuple(&tuple, n));
  }
  QREL_CHECK_EQ(all_tuples.size(), static_cast<size_t>(tuples));
  std::vector<uint64_t> hits(all_tuples.size(), 0);

  const double xi = options.xi;
  Rng rng(options.seed);
  WorldIndex index(db);
  bool truncated = false;
  uint64_t drawn = 0;
  {
    std::optional<SnapshotReader> resume;
    QREL_RETURN_IF_ERROR(checkpoint.TakeResume(&resume));
    if (resume.has_value()) {
      QREL_RETURN_IF_ERROR(resume->U64(&drawn));
      uint32_t hit_count = 0;
      QREL_RETURN_IF_ERROR(resume->U32(&hit_count));
      if (hit_count != hits.size()) {
        return Status::DataLoss("snapshot hit-counter count mismatch");
      }
      for (uint64_t& h : hits) {
        QREL_RETURN_IF_ERROR(resume->U64(&h));
      }
      QREL_RETURN_IF_ERROR(resume->RngState(&rng));
      QREL_RETURN_IF_ERROR(resume->ExpectEnd());
    }
  }
  for (uint64_t s = drawn; s < samples; ++s) {
    Status budget = checkpoint.MaybeCheckpoint([&](SnapshotWriter& w) {
      w.U64(drawn);
      w.U32(static_cast<uint32_t>(hits.size()));
      for (uint64_t h : hits) {
        w.U64(h);
      }
      w.RngState(rng);
    });
    if (budget.ok()) {
      budget = ChargeWork(options.run_context);
    }
    if (budget.ok()) {
      budget = QREL_FAULT_HIT("datalog.padded.world");
    }
    std::set<Tuple> actual;
    if (budget.ok()) {
      World world = db.SampleWorld(&rng);
      WorldView view(index, world);
      StatusOr<std::set<Tuple>> evaluated =
          program.EvalPredicate(view, predicate, options.run_context);
      if (evaluated.ok()) {
        actual = std::move(evaluated).value();
      } else {
        budget = evaluated.status();  // the fixpoint tripped mid-world
      }
    }
    if (!budget.ok()) {
      // A prefix of completed worlds is a valid (smaller) sample for every
      // tuple at once, so truncation is sound on an envelope trip — never
      // on cancellation, and never on a non-budget failure (e.g. an
      // injected fault), which must surface as-is.
      if (options.allow_truncation && drawn > 0 &&
          IsBudgetStatusCode(budget.code()) &&
          budget.code() != StatusCode::kCancelled) {
        truncated = true;
        break;
      }
      return budget;
    }
    for (size_t i = 0; i < all_tuples.size(); ++i) {
      bool rd = rng.NextBernoulli(xi);
      if (!rd) {
        continue;
      }
      bool rc = rng.NextBernoulli(xi);
      bool psi_true =
          rc || actual.find(all_tuples[i]) != actual.end();
      if (psi_true) {
        ++hits[i];
      }
    }
    ++drawn;
  }
  if (drawn == 0) {
    return Status::InvalidArgument("padded estimator needs at least 1 sample");
  }

  double expected_error = 0.0;
  for (size_t i = 0; i < all_tuples.size(); ++i) {
    double x_bar =
        static_cast<double>(hits[i]) / static_cast<double>(drawn);
    double nu = (x_bar - xi * xi) / (xi - xi * xi);
    nu = std::clamp(nu, 0.0, 1.0);
    bool was_observed = observed->find(all_tuples[i]) != observed->end();
    expected_error += was_observed ? 1.0 - nu : nu;
  }

  ApproxResult result;
  result.samples = drawn;
  result.truncated = truncated;
  if (drawn > 0 &&
      drawn < PaddedSampleBound(options.xi, per_epsilon / 2.0, per_delta)) {
    result.achieved_epsilon =
        PaddedAchievedEpsilon(options.xi, drawn, per_delta) * tuple_count;
  }
  result.estimate = std::clamp(1.0 - expected_error / tuple_count, 0.0, 1.0);
  result.method =
      "Thm 5.12 padded estimator on Datalog predicate '" + predicate + "'";
  return result;
}

}  // namespace qrel
