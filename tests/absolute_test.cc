#include "qrel/core/absolute.h"

#include <memory>

#include <gtest/gtest.h>

#include "qrel/core/reliability.h"
#include "qrel/logic/parser.h"

namespace qrel {
namespace {

FormulaPtr MustParse(const std::string& text) {
  StatusOr<FormulaPtr> result = ParseFormula(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

UnreliableDatabase SmallDatabase() {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("S", 1);
  Structure observed(vocabulary, 3);
  observed.AddFact(0, {0, 1});
  observed.AddFact(0, {1, 2});
  observed.AddFact(1, {0});
  return UnreliableDatabase(std::move(observed));
}

TEST(AbsoluteQfTest, CertainDatabaseIsAbsolutelyReliable) {
  UnreliableDatabase db = SmallDatabase();
  EXPECT_TRUE(*AbsolutelyReliableQuantifierFree(MustParse("S(x)"), db));
}

TEST(AbsoluteQfTest, UncertainRelevantAtomBreaksReliability) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  EXPECT_FALSE(*AbsolutelyReliableQuantifierFree(MustParse("S(x)"), db));
}

TEST(AbsoluteQfTest, IrrelevantUncertaintyKeepsReliability) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  // ψ only reads E; the S-noise does not matter.
  EXPECT_TRUE(*AbsolutelyReliableQuantifierFree(MustParse("E(x, y)"), db));
}

TEST(AbsoluteQfTest, TautologyAlwaysReliable) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 2));
  EXPECT_TRUE(
      *AbsolutelyReliableQuantifierFree(MustParse("S(x) | !S(x)"), db));
}

TEST(AbsoluteQfTest, RejectsQuantifiedQueries) {
  UnreliableDatabase db = SmallDatabase();
  EXPECT_FALSE(
      AbsolutelyReliableQuantifierFree(MustParse("exists x . S(x)"), db)
          .ok());
}

TEST(WitnessSearchTest, AgreesWithQfDecider) {
  for (bool add_noise : {false, true}) {
    UnreliableDatabase db = SmallDatabase();
    if (add_noise) {
      db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 3));
    }
    for (const char* text :
         {"S(x)", "E(x, y)", "S(x) | !S(x)", "S(x) & E(x, x)"}) {
      FormulaPtr query = MustParse(text);
      bool qf = *AbsolutelyReliableQuantifierFree(query, db);
      AbsoluteReliabilityResult witness =
          *AbsoluteReliabilityByWitness(query, db);
      EXPECT_EQ(qf, witness.absolutely_reliable) << text;
    }
  }
}

TEST(WitnessSearchTest, WitnessActuallyChangesTheAnswer) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 4));
  FormulaPtr query = MustParse("exists x . S(x)");
  AbsoluteReliabilityResult result =
      *AbsoluteReliabilityByWitness(query, db);
  ASSERT_FALSE(result.absolutely_reliable);
  ASSERT_TRUE(result.witness.has_value());
  // Verify the certificate: in the witness world the Boolean answer flips.
  WorldIndex index(db);
  WorldView view(index, *result.witness);
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  EXPECT_NE(compiled->Eval(view, {}),
            compiled->Eval(db.observed(), {}));
}

TEST(WitnessSearchTest, ExistentialRobustToIrrelevantFlips) {
  // ∃x S(x) stays true as long as S(0) is certain, whatever happens to
  // other atoms that only *add* S-elements.
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  db.SetErrorProbability(GroundAtom{1, {2}}, Rational(1, 2));
  FormulaPtr query = MustParse("exists x . S(x)");
  // Boolean query: flipping S(1)/S(2) to true never falsifies ∃x S(x),
  // but it *does* change the unary answer set of S(x).
  AbsoluteReliabilityResult boolean_result =
      *AbsoluteReliabilityByWitness(query, db);
  EXPECT_TRUE(boolean_result.absolutely_reliable);
  AbsoluteReliabilityResult unary_result =
      *AbsoluteReliabilityByWitness(MustParse("S(x)"), db);
  EXPECT_FALSE(unary_result.absolutely_reliable);
}

TEST(WitnessSearchTest, EarlyExitChecksFewWorlds) {
  UnreliableDatabase db = SmallDatabase();
  for (Element i = 0; i < 3; ++i) {
    db.SetErrorProbability(GroundAtom{1, {i}}, Rational(1, 2));
  }
  AbsoluteReliabilityResult result =
      *AbsoluteReliabilityByWitness(MustParse("S(x)"), db);
  EXPECT_FALSE(result.absolutely_reliable);
  EXPECT_LE(result.worlds_checked, 2u);
}

TEST(WitnessSearchTest, MatchesExactReliabilityBeingOne) {
  // AR_ψ ⟺ R_ψ = 1, cross-validated on several queries and noise levels.
  for (int noise = 0; noise < 3; ++noise) {
    UnreliableDatabase db = SmallDatabase();
    if (noise >= 1) {
      db.SetErrorProbability(GroundAtom{0, {1, 2}}, Rational(1, 5));
    }
    if (noise >= 2) {
      db.SetErrorProbability(GroundAtom{1, {2}}, Rational(1, 7));
    }
    for (const char* text :
         {"exists x . S(x)", "forall x . exists y . E(x, y) | S(x)",
          "E(x, y)"}) {
      FormulaPtr query = MustParse(text);
      ReliabilityReport exact = *ExactReliability(query, db);
      AbsoluteReliabilityResult witness =
          *AbsoluteReliabilityByWitness(query, db);
      EXPECT_EQ(exact.reliability.IsOne(), witness.absolutely_reliable)
          << text << " noise " << noise;
    }
  }
}

}  // namespace
}  // namespace qrel

namespace qrel {
namespace {

TEST(MonteCarloWitnessTest, FindsObviousCounterexample) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 2));
  AbsoluteReliabilityResult result =
      *AbsoluteReliabilityMonteCarlo(MustParse("S(x)"), db, 200, 9);
  EXPECT_FALSE(result.absolutely_reliable);
  ASSERT_TRUE(result.witness.has_value());
  // Verify the sampled certificate.
  WorldIndex index(db);
  WorldView view(index, *result.witness);
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(MustParse("S(x)"), db.vocabulary());
  bool differs = false;
  for (Element i = 0; i < 3; ++i) {
    differs = differs || compiled->Eval(view, {i}) !=
                             compiled->Eval(db.observed(), {i});
  }
  EXPECT_TRUE(differs);
}

TEST(MonteCarloWitnessTest, ReliableQueryStaysClean) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 2));
  // The tautology never changes its answer set.
  AbsoluteReliabilityResult result = *AbsoluteReliabilityMonteCarlo(
      MustParse("S(x) | !S(x)"), db, 500, 10);
  EXPECT_TRUE(result.absolutely_reliable);
  EXPECT_EQ(result.worlds_checked, 500u);
}

TEST(MonteCarloWitnessTest, WorksBeyondExhaustiveLimits) {
  // 100 uncertain atoms: exhaustive search refuses, sampling does not.
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("T", 1);
  Structure observed(vocabulary, 100);
  UnreliableDatabase db(std::move(observed));
  for (Element i = 0; i < 100; ++i) {
    db.SetErrorProbability(GroundAtom{0, {i}}, Rational(1, 2));
  }
  FormulaPtr query = *ParseFormula("exists x . T(x)");
  EXPECT_FALSE(AbsoluteReliabilityByWitness(query, db).ok());
  AbsoluteReliabilityResult result =
      *AbsoluteReliabilityMonteCarlo(query, db, 50, 11);
  EXPECT_FALSE(result.absolutely_reliable);  // some T(x) flips to true
}

TEST(MonteCarloWitnessTest, RejectsZeroSamples) {
  UnreliableDatabase db = SmallDatabase();
  EXPECT_FALSE(
      AbsoluteReliabilityMonteCarlo(MustParse("S(x)"), db, 0, 1).ok());
}

}  // namespace
}  // namespace qrel
