#include "qrel/core/absolute.h"

#include "qrel/core/reliability.h"
#include "qrel/logic/classify.h"
#include "qrel/logic/eval.h"
#include "qrel/prob/world_enumerator.h"
#include "qrel/util/check.h"
#include "qrel/util/snapshot.h"

namespace qrel {

StatusOr<bool> AbsolutelyReliableQuantifierFree(const FormulaPtr& query,
                                                const UnreliableDatabase& db) {
  StatusOr<ReliabilityReport> report = QuantifierFreeReliability(query, db);
  if (!report.ok()) {
    return report.status();
  }
  return report->expected_error.IsZero();
}

StatusOr<AbsoluteReliabilityResult> AbsoluteReliabilityByWitness(
    const FormulaPtr& query, const UnreliableDatabase& db) {
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  if (db.UncertainEntries().size() > WorldEnumerator::kMaxUncertain) {
    return Status::OutOfRange(
        "witness search over more than 2^62 worlds");
  }

  int n = db.universe_size();
  int k = compiled->arity();

  // ψ^𝔄 once.
  std::vector<Tuple> tuples;
  std::vector<uint8_t> observed_truth;
  {
    Tuple assignment(static_cast<size_t>(k), 0);
    do {
      tuples.push_back(assignment);
      observed_truth.push_back(
          compiled->Eval(db.observed(), assignment) ? 1 : 0);
    } while (AdvanceTuple(&assignment, n));
  }

  AbsoluteReliabilityResult result;
  WorldEnumerator walk(db);
  WorldView view(walk.index(), walk.world());
  for (; !walk.done(); walk.Next()) {
    ++result.worlds_checked;
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (compiled->Eval(view, tuples[i]) != (observed_truth[i] != 0)) {
        result.absolutely_reliable = false;
        result.witness = walk.world();
        return result;
      }
    }
  }
  result.absolutely_reliable = true;
  return result;
}

StatusOr<AbsoluteReliabilityResult> AbsoluteReliabilityMonteCarlo(
    const FormulaPtr& query, const UnreliableDatabase& db, uint64_t samples,
    uint64_t seed, RunContext* ctx) {
  if (samples == 0) {
    return Status::InvalidArgument("sample count must be positive");
  }
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  int n = db.universe_size();
  int k = compiled->arity();

  std::vector<Tuple> tuples;
  std::vector<uint8_t> observed_truth;
  {
    Tuple assignment(static_cast<size_t>(k), 0);
    do {
      tuples.push_back(assignment);
      observed_truth.push_back(
          compiled->Eval(db.observed(), assignment) ? 1 : 0);
    } while (AdvanceTuple(&assignment, n));
  }

  Fingerprint fingerprint;
  fingerprint.Mix("core.absolute_mc")
      .Mix(seed)
      .Mix(samples)
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(k))
      .Mix(static_cast<uint64_t>(db.model().entry_count()))
      .Mix(query->ToString())
      .Mix(db.ContentFingerprint());
  CheckpointScope checkpoint(ctx, "core.absolute_mc.v1", fingerprint.value());

  Rng rng(seed);
  WorldIndex index(db);
  AbsoluteReliabilityResult result;
  uint64_t start = 0;
  {
    std::optional<SnapshotReader> resume;
    QREL_RETURN_IF_ERROR(checkpoint.TakeResume(&resume));
    if (resume.has_value()) {
      QREL_RETURN_IF_ERROR(resume->U64(&start));
      QREL_RETURN_IF_ERROR(resume->U64(&result.worlds_checked));
      QREL_RETURN_IF_ERROR(resume->RngState(&rng));
      QREL_RETURN_IF_ERROR(resume->ExpectEnd());
    }
  }
  for (uint64_t s = start; s < samples; ++s) {
    QREL_RETURN_IF_ERROR(checkpoint.MaybeCheckpoint([&](SnapshotWriter& w) {
      w.U64(s);
      w.U64(result.worlds_checked);
      w.RngState(rng);
    }));
    QREL_RETURN_IF_ERROR(ChargeWork(ctx));
    World world = db.SampleWorld(&rng);
    ++result.worlds_checked;
    WorldView view(index, world);
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (compiled->Eval(view, tuples[i]) != (observed_truth[i] != 0)) {
        result.absolutely_reliable = false;
        result.witness = std::move(world);
        return result;
      }
    }
  }
  // No counterexample sampled; inconclusive but reported as "reliable so
  // far" (see the header comment and Lemma 5.10).
  result.absolutely_reliable = true;
  return result;
}

}  // namespace qrel
