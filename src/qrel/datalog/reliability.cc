#include "qrel/datalog/reliability.h"

#include <vector>

#include "qrel/prob/world_enumerator.h"

namespace qrel {

namespace {

// |a △ b|, by membership of b's tuples in a.
uint64_t SymmetricDifferenceSize(const FlatTupleSet& a, const FlatTupleSet& b) {
  uint64_t common = 0;
  for (uint32_t id = 0; id < b.size(); ++id) {
    common += a.Contains(b.tuple(id)) ? 1 : 0;
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
  GovernedLoop loop(
      ctx, {.kind = "datalog.exact.v2",
            .fingerprint = fingerprint.value(),
            .fault_site = "datalog.exact.world"});

  // One workspace for every world's fixpoint; the observed answer is
  // copied out of it before the walk reuses it.
  DatalogWorkspace workspace;
  StatusOr<const FlatTupleSet*> observed_answer =
      program.EvalPredicateInto(db.observed(), predicate, &workspace, ctx);
  if (!observed_answer.ok()) {
    return observed_answer.status();
  }
  const FlatTupleSet observed = **observed_answer;

  BigInt tuple_space =
      BigInt::Pow(BigInt(db.universe_size()), static_cast<uint32_t>(*arity));
  StatusOr<WorldSum> sum = SumOverWorlds(
      db, tuple_space, &loop,
      [&](const AtomOracle& world) -> StatusOr<uint64_t> {
        // A failure is the envelope tripping mid-fixpoint, or a fault.
        StatusOr<const FlatTupleSet*> actual =
            program.EvalPredicateInto(world, predicate, &workspace, ctx);
        if (!actual.ok()) {
          return actual.status();
        }
        return SymmetricDifferenceSize(observed, **actual);
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
  StatusOr<int> arity = program.PredicateArity(predicate);
  if (!arity.ok()) {
    return arity.status();
  }
  std::string text = predicate + "\n" + program.program().ToString();
  DatalogWorkspace workspace;
  StatusOr<ApproxResult> result = PaddedEstimate(
      db,
      {.arity = *arity,
       .kind = "datalog.padded.v2",
       .text = text,
       .fault_site = "datalog.padded.world",
       .holds =
           [&](const AtomOracle& world, const std::vector<const Tuple*>& asked,
               std::vector<uint8_t>* holds) -> Status {
             StatusOr<const FlatTupleSet*> answer = program.EvalPredicateInto(
                 world, predicate, &workspace, options.run_context);
             if (!answer.ok()) {
               return answer.status();
             }
             for (size_t j = 0; j < asked.size(); ++j) {
               (*holds)[j] = (*answer)->Contains(asked[j]->data()) ? 1 : 0;
             }
             return Status::Ok();
           }},
      options);
  if (result.ok()) {
    result->method =
        "Thm 5.12 padded estimator on Datalog predicate '" + predicate + "'";
  }
  return result;
}

}  // namespace qrel
