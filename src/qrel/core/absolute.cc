#include "qrel/core/absolute.h"

#include "qrel/core/reliability.h"
#include "qrel/logic/classify.h"
#include "qrel/logic/eval.h"
#include "qrel/prob/world_enumerator.h"
#include "qrel/util/check.h"
#include "qrel/util/governed_loop.h"

namespace qrel {

namespace {

// ψ^𝔄 on every answer tuple, fixed once, and the Lemma 5.8 certificate
// check against it.
class ObservedAnswer {
 public:
  ObservedAnswer(const CompiledQuery& query, const UnreliableDatabase& db)
      : query_(query), tuples_(AllTuples(db.universe_size(), query.arity())) {
    for (const Tuple& tuple : tuples_) {
      truth_.push_back(query.Eval(db.observed(), tuple) ? 1 : 0);
    }
  }

  // Whether ψ(ā) in `world` differs from ψ^𝔄(ā) for some tuple ā.
  bool DiffersIn(const AtomOracle& world) {
    for (size_t i = 0; i < tuples_.size(); ++i) {
      if (query_.Eval(world, tuples_[i], &scratch_) != (truth_[i] != 0)) {
        return true;
      }
    }
    return false;
  }

 private:
  const CompiledQuery& query_;
  std::vector<Tuple> tuples_;
  std::vector<uint8_t> truth_;
  CompiledQuery::Scratch scratch_;
};

}  // namespace

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

  ObservedAnswer observed(*compiled, db);
  AbsoluteReliabilityResult result;
  WorldEnumerator walk(db);
  WorldView view(walk.index(), walk.world());
  for (; !walk.done(); walk.Next()) {
    ++result.worlds_checked;
    if (observed.DiffersIn(view)) {
      result.witness = walk.world();
      return result;
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

  ObservedAnswer observed(*compiled, db);
  Fingerprint fingerprint;
  fingerprint.Mix("core.absolute_mc")
      .Mix(seed)
      .Mix(samples)
      .Mix(static_cast<uint64_t>(n))
      .Mix(static_cast<uint64_t>(k))
      .Mix(static_cast<uint64_t>(db.model().entry_count()))
      .Mix(query->ToString())
      .Mix(db.ContentFingerprint());
  GovernedLoop loop(ctx, {.kind = "core.absolute_mc.v1",
                          .fingerprint = fingerprint.value()});

  Rng rng(seed);
  WorldIndex index(db);
  WorldSampler sampler(db);
  World world(db.model().entry_count());
  const WorldView view(index, world);
  AbsoluteReliabilityResult result;
  uint64_t drawn = 0;
  QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r) -> Status {
    QREL_RETURN_IF_ERROR(r.U64(&drawn));
    QREL_RETURN_IF_ERROR(r.U64(&result.worlds_checked));
    return r.RngState(&rng);
  }));
  QREL_RETURN_IF_ERROR(loop.Run(
      &drawn, samples,
      [&]() -> Status {
        sampler.Sample(&rng, &world);
        ++result.worlds_checked;
        if (observed.DiffersIn(view)) {
          result.witness = world;
          loop.Stop();
        }
        return Status::Ok();
      },
      [&](SnapshotWriter& w) {
        w.U64(drawn);
        w.U64(result.worlds_checked);
        w.RngState(rng);
      }));
  // No counterexample sampled: inconclusive, but reported as "reliable so
  // far" (see the header comment and Lemma 5.10).
  result.absolutely_reliable = !result.witness.has_value();
  return result;
}

}  // namespace qrel
