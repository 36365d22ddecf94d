#include "world_enumeration_oracle.h"

#include <memory>
#include <set>
#include <utility>

#include "qrel/util/check.h"
#include "qrel/util/rng.h"

namespace qrel {

void ForEachWorld(
    const UnreliableDatabase& db,
    const std::function<void(const World&, const Rational&)>& fn) {
  ForEachWorldWhile(db, [&fn](const World& world, const Rational& probability) {
    fn(world, probability);
    return true;
  });
}

bool ForEachWorldWhile(
    const UnreliableDatabase& db,
    const std::function<bool(const World&, const Rational&)>& fn,
    uint64_t first_code) {
  const std::vector<int>& uncertain = db.UncertainEntries();
  size_t u = uncertain.size();
  QREL_CHECK_MSG(u <= 62, "world enumeration over more than 62 atoms");

  // Probability contributions of the uncertain entries, reused per world.
  std::vector<Rational> mu(u);
  std::vector<Rational> one_minus_mu(u);
  for (size_t i = 0; i < u; ++i) {
    mu[i] = db.model().error(uncertain[i]);
    one_minus_mu[i] = mu[i].Complement();
  }

  World world(db.model().entry_count());
  for (int id : db.model().CertainFlipEntries()) {
    world.SetFlipped(id, true);
  }

  uint64_t world_count = uint64_t{1} << u;
  for (uint64_t code = first_code; code < world_count; ++code) {
    Rational probability = Rational::One();
    for (size_t i = 0; i < u; ++i) {
      bool flipped = (code >> i) & 1u;
      world.SetFlipped(uncertain[i], flipped);
      probability *= flipped ? mu[i] : one_minus_mu[i];
    }
    if (!fn(world, probability)) {
      return false;
    }
  }
  return true;
}

bool LookupWorldView::AtomTrue(int relation_id, const Tuple& tuple) const {
  bool observed = db_.observed().AtomTrue(relation_id, tuple);
  std::optional<int> entry = db_.model().Find(GroundAtom{relation_id, tuple});
  if (entry.has_value() && world_.Flipped(*entry)) {
    return !observed;
  }
  return observed;
}

Rational OracleExpectedError(const CompiledQuery& query,
                             const UnreliableDatabase& db) {
  std::vector<Tuple> answer = query.AnswerSet(db.observed());
  std::set<Tuple> observed(answer.begin(), answer.end());
  Rational error;
  ForEachWorld(db, [&](const World& world, const Rational& probability) {
    LookupWorldView view(db, world);
    int64_t differing = 0;
    Tuple tuple(static_cast<size_t>(query.arity()), 0);
    do {
      if (query.Eval(view, tuple) != (observed.count(tuple) > 0)) {
        ++differing;
      }
    } while (AdvanceTuple(&tuple, db.universe_size()));
    error += probability * Rational(differing);
  });
  return error;
}

Rational OracleQueryProbability(const CompiledQuery& query,
                                const UnreliableDatabase& db,
                                const Tuple& assignment) {
  Rational probability;
  ForEachWorld(db, [&](const World& world, const Rational& world_probability) {
    if (query.Eval(LookupWorldView(db, world), assignment)) {
      probability += world_probability;
    }
  });
  return probability;
}

Rational OracleDatalogExpectedError(const CompiledDatalog& program,
                                    const std::string& predicate,
                                    const UnreliableDatabase& db) {
  std::set<Tuple> observed =
      std::move(program.EvalPredicate(db.observed(), predicate)).value();
  Rational error;
  ForEachWorld(db, [&](const World& world, const Rational& probability) {
    std::set<Tuple> actual =
        std::move(program.EvalPredicate(LookupWorldView(db, world), predicate))
            .value();
    int64_t differing = 0;
    for (const Tuple& tuple : observed) {
      differing += actual.count(tuple) == 0 ? 1 : 0;
    }
    for (const Tuple& tuple : actual) {
      differing += observed.count(tuple) == 0 ? 1 : 0;
    }
    error += probability * Rational(differing);
  });
  return error;
}

UnreliableDatabase RandomEnumerationDatabase(
    uint64_t seed, int universe_size, int uncertain,
    const std::vector<BigInt>& denominators) {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("S", 1);
  vocabulary->AddRelation("E", 2);
  std::vector<GroundAtom> atoms;
  for (Element a = 0; a < universe_size; ++a) {
    atoms.push_back(GroundAtom{0, {a}});
    for (Element b = 0; b < universe_size; ++b) {
      atoms.push_back(GroundAtom{1, {a, b}});
    }
  }
  QREL_CHECK_LE(static_cast<size_t>(uncertain), atoms.size());
  Rng rng(seed);
  for (size_t i = atoms.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(atoms[i - 1], atoms[rng.NextBelow(i)]);
  }
  Structure observed(vocabulary, universe_size);
  std::vector<std::pair<GroundAtom, Rational>> errors;
  for (size_t i = 0; i < atoms.size(); ++i) {
    bool fact = rng.NextBelow(2) == 0;
    if (fact) {
      observed.AddFact(atoms[i].relation, atoms[i].args);
    }
    if (i < static_cast<size_t>(uncertain)) {
      const BigInt& den = denominators[rng.NextBelow(denominators.size())];
      QREL_CHECK(den > BigInt(1));
      BigInt draw = BigInt::FromUint64(rng.NextUint64()).ShiftLeft(64) +
                    BigInt::FromUint64(rng.NextUint64());
      errors.push_back(
          {atoms[i], Rational(draw % (den - BigInt(1)) + BigInt(1), den)});
    } else if (rng.NextBelow(3) == 0) {
      // A certain entry: never wrong, or always wrong.
      errors.push_back({atoms[i], Rational(rng.NextBelow(2) == 0 ? 0 : 1)});
    }
  }
  UnreliableDatabase db(std::move(observed));
  for (const auto& [atom, error] : errors) {
    db.SetErrorProbability(atom, error);
  }
  QREL_CHECK_EQ(db.UncertainEntries().size(), static_cast<size_t>(uncertain));
  return db;
}

}  // namespace qrel
