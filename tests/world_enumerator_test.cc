// WorldEnumerator (prob/world_enumerator.h) against the Rational-product
// oracle in world_enumeration_oracle.h: the Gray walk visits every world
// once, its integer weights are g·ν(𝔅) exactly, and every exact rung built
// on it returns the oracle's Rational bit for bit — with μ = 0 and μ = 1
// entries, no uncertain entries at all, arities 0 to 2, denominators above
// 2^64, and weighted sums on both sides of the 127-bit budget.

#include "qrel/prob/world_enumerator.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/core/absolute.h"
#include "qrel/core/reliability.h"
#include "qrel/datalog/program.h"
#include "qrel/datalog/reliability.h"
#include "qrel/logic/parser.h"
#include "world_enumeration_oracle.h"

namespace qrel {
namespace {

BigInt TwoPowPlusOne(uint32_t exponent) {
  return BigInt::TwoPow(exponent) + BigInt(1);
}

const std::vector<BigInt>& SmallDenominators() {
  static const std::vector<BigInt> denominators = {2, 3, 4, 5, 7, 16};
  return denominators;
}

// Above 2^64, so no weight fits a machine word.
const std::vector<BigInt>& HugeDenominators() {
  static const std::vector<BigInt> denominators = {TwoPowPlusOne(65),
                                                   TwoPowPlusOne(70) * 3};
  return denominators;
}

CompiledQuery MustCompile(const std::string& text,
                          const UnreliableDatabase& db) {
  StatusOr<FormulaPtr> formula = ParseFormula(text);
  EXPECT_TRUE(formula.ok()) << text;
  return std::move(CompiledQuery::Compile(*formula, db.vocabulary())).value();
}

TEST(WorldEnumeratorTest, GrayOrderVisitsEveryWorldOnceFlippingOneEntry) {
  UnreliableDatabase db =
      RandomEnumerationDatabase(3, 3, 5, SmallDenominators());
  std::vector<int> certain_flips = db.model().CertainFlipEntries();
  WorldEnumerator walk(db);
  ASSERT_EQ(walk.world_count(), 32u);
  std::set<std::vector<bool>> seen;
  std::vector<bool> previous;
  for (; !walk.done(); walk.Next()) {
    std::vector<bool> flips;
    for (int id : db.UncertainEntries()) {
      flips.push_back(walk.world().Flipped(id));
    }
    for (int id : certain_flips) {
      EXPECT_TRUE(walk.world().Flipped(id));
    }
    if (!previous.empty()) {
      int changed = 0;
      for (size_t i = 0; i < flips.size(); ++i) {
        changed += flips[i] != previous[i] ? 1 : 0;
      }
      EXPECT_EQ(changed, 1) << "step " << walk.step();
    }
    EXPECT_TRUE(seen.insert(flips).second) << "step " << walk.step();
    previous = flips;
  }
  EXPECT_EQ(seen.size(), 32u);
}

TEST(WorldEnumeratorTest, WeightOverGIsTheWorldProbability) {
  for (const std::vector<BigInt>* denominators :
       {&SmallDenominators(), &HugeDenominators()}) {
    UnreliableDatabase db = RandomEnumerationDatabase(5, 2, 4, *denominators);
    WorldEnumerator walk(db);
    EXPECT_EQ(walk.g(), db.ComputeG());
    BigInt total;
    for (; !walk.done(); walk.Next()) {
      total += walk.Weight();
      EXPECT_EQ(Rational(walk.Weight(), walk.g()),
                db.WorldProbability(walk.world()));
    }
    EXPECT_EQ(total, walk.g());
  }
}

TEST(WorldEnumeratorTest, SeekLandsOnTheWalkedWorld) {
  for (const std::vector<BigInt>* denominators :
       {&SmallDenominators(), &HugeDenominators()}) {
    UnreliableDatabase db = RandomEnumerationDatabase(8, 2, 4, *denominators);
    WorldEnumerator walk(db);
    for (; !walk.done(); walk.Next()) {
      WorldEnumerator jumped(db);
      jumped.Seek(walk.step());
      EXPECT_TRUE(jumped.world() == walk.world()) << walk.step();
      EXPECT_EQ(jumped.Weight(), walk.Weight()) << walk.step();
    }
    WorldEnumerator end(db);
    end.Seek(end.world_count());
    EXPECT_TRUE(end.done());
  }
}

TEST(WorldEnumeratorTest, NoUncertainEntriesIsOneWorldOfWeightOne) {
  UnreliableDatabase db = RandomEnumerationDatabase(2, 2, 0, {});
  WorldEnumerator walk(db);
  ASSERT_EQ(walk.world_count(), 1u);
  EXPECT_TRUE(walk.g().IsOne());
  EXPECT_TRUE(walk.Weight().IsOne());
  for (int id : db.model().CertainFlipEntries()) {
    EXPECT_TRUE(walk.world().Flipped(id));
  }
  walk.Next();
  EXPECT_TRUE(walk.done());
}

TEST(WorldEnumeratorTest, WorldViewReadsObservedXorFlip) {
  UnreliableDatabase db =
      RandomEnumerationDatabase(13, 3, 6, SmallDenominators());
  WorldEnumerator walk(db);
  WorldView view(walk.index(), walk.world());
  for (; !walk.done(); walk.Next()) {
    LookupWorldView lookup(db, walk.world());
    for (Element a = 0; a < 3; ++a) {
      ASSERT_EQ(view.AtomTrue(0, {a}), lookup.AtomTrue(0, {a}));
      for (Element b = 0; b < 3; ++b) {
        ASSERT_EQ(view.AtomTrue(1, {a, b}), lookup.AtomTrue(1, {a, b}));
      }
    }
  }
}

// Two uncertain entries with denominator 2^62 + 1: bits(g) = 125. With
// n = 2, a Boolean or unary query's sum fits 127 bits (n^k has at most 2
// bits) and a binary query's does not (n^2 = 4 has 3).
UnreliableDatabase BudgetEdgeDatabase(uint64_t seed) {
  return RandomEnumerationDatabase(seed, 2, 2, {TwoPowPlusOne(62)});
}

TEST(WorldEnumeratorTest, SumWidthFollowsTheBitBudget) {
  UnreliableDatabase db = BudgetEdgeDatabase(1);
  WorldEnumerator walk(db);
  ASSERT_EQ(walk.g().BitLength(), 125u);
  EXPECT_TRUE(walk.NewSum(BigInt(2)).narrow());   // 125 + 2 = 127
  EXPECT_FALSE(walk.NewSum(BigInt(4)).narrow());  // 125 + 3 = 128
}

// Every exact rung against the oracle, exact Rational equality.
void ExpectRungsMatchOracle(const UnreliableDatabase& db,
                            const std::string& text) {
  SCOPED_TRACE(text);
  CompiledQuery query = MustCompile(text, db);
  FormulaPtr formula = query.formula();
  Rational expected_error = OracleExpectedError(query, db);

  StatusOr<ReliabilityReport> exact = ExactReliability(formula, db);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->expected_error, expected_error);
  EXPECT_EQ(exact->work_units, uint64_t{1} << db.UncertainEntries().size());

  StatusOr<std::vector<TupleError>> per_tuple =
      PerTupleExpectedError(formula, db);
  ASSERT_TRUE(per_tuple.ok()) << per_tuple.status().ToString();
  Rational per_tuple_total;
  for (const TupleError& row : *per_tuple) {
    per_tuple_total += row.error;
    // H_ψ(ā) = Pr[ψ(ā) wrong].
    Rational holds = OracleQueryProbability(query, db, row.tuple);
    EXPECT_EQ(row.error, row.observed ? holds.Complement() : holds);
    StatusOr<Rational> probability =
        ExactQueryProbability(formula, db, row.tuple);
    ASSERT_TRUE(probability.ok());
    EXPECT_EQ(*probability, holds);
    StatusOr<ScaledProbability> scaled =
        ExactScaledProbability(formula, db, row.tuple);
    ASSERT_TRUE(scaled.ok());
    EXPECT_EQ(scaled->g, db.ComputeG());
    EXPECT_EQ(Rational(scaled->g_times_probability, scaled->g), holds);
  }
  EXPECT_EQ(per_tuple_total, expected_error);

  StatusOr<AbsoluteReliabilityResult> witness =
      AbsoluteReliabilityByWitness(formula, db);
  ASSERT_TRUE(witness.ok());
  EXPECT_EQ(witness->absolutely_reliable, expected_error.IsZero());
}

TEST(WorldEnumerationDiffTest, ExactRungsMatchTheRationalOracle) {
  const std::vector<std::string> queries = {
      "exists x y . E(x, y) & E(y, x)",
      "forall x . S(x) | exists y . E(x, y)",
      "S(x) & !E(x, x)",
      "exists y . E(x, y) & S(y)",
      "E(x, y) | (S(x) & x = y)",
      "forall z . E(x, z) -> E(z, y)",
  };
  uint64_t seed = 100;
  size_t never_wrong = 0;   // μ = 0 entries seen
  size_t always_wrong = 0;  // μ = 1 entries seen
  for (const std::vector<BigInt>* denominators :
       {&SmallDenominators(), &HugeDenominators()}) {
    for (int n = 1; n <= 3; ++n) {
      for (int u : {0, 1, 3, 6}) {
        if (u > n + n * n) {
          continue;
        }
        UnreliableDatabase db =
            RandomEnumerationDatabase(++seed, n, u, *denominators);
        always_wrong += db.model().CertainFlipEntries().size();
        never_wrong += static_cast<size_t>(db.model().entry_count()) -
                       db.UncertainEntries().size() -
                       db.model().CertainFlipEntries().size();
        for (const std::string& text : queries) {
          ExpectRungsMatchOracle(db, text);
        }
      }
    }
  }
  EXPECT_GT(never_wrong, 0u);
  EXPECT_GT(always_wrong, 0u);
}

TEST(WorldEnumerationDiffTest, BothSidesOfTheBitBudgetMatchTheOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    UnreliableDatabase db = BudgetEdgeDatabase(seed);
    ExpectRungsMatchOracle(db, "exists x . S(x) & E(x, x)");  // n^0: narrow
    ExpectRungsMatchOracle(db, "S(x) | E(x, x)");             // n^1: narrow
    ExpectRungsMatchOracle(db, "E(x, y) & !S(y)");            // n^2: BigInt
  }
  // bits(g) > 127: the weights themselves are BigInt.
  UnreliableDatabase wide =
      RandomEnumerationDatabase(9, 2, 3, {TwoPowPlusOne(62)});
  ASSERT_GT(wide.ComputeG().BitLength(), 127u);
  ExpectRungsMatchOracle(wide, "E(x, y) | S(x)");
}

TEST(WorldEnumerationDiffTest, DatalogExactMatchesTheOracle) {
  // Every random database has the same relations, in the same order.
  UnreliableDatabase schema = RandomEnumerationDatabase(1, 1, 0, {});
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(
                    std::move(ParseDatalogProgram(
                                  "Path(x, y) :- E(x, y).\n"
                                  "Path(x, z) :- Path(x, y), E(y, z).")
                                  .value()),
                    schema.vocabulary()))
          .value();
  uint64_t seed = 500;
  for (const std::vector<BigInt>* denominators :
       {&SmallDenominators(), &HugeDenominators()}) {
    for (int n : {1, 2, 3}) {
      for (int u : {0, 2, 5}) {
        if (u > n + n * n) {
          continue;
        }
        UnreliableDatabase db =
            RandomEnumerationDatabase(++seed, n, u, *denominators);
        StatusOr<ReliabilityReport> exact =
            ExactDatalogReliability(program, "Path", db);
        ASSERT_TRUE(exact.ok()) << exact.status().ToString();
        EXPECT_EQ(exact->expected_error,
                  OracleDatalogExpectedError(program, "Path", db))
            << "n=" << n << " u=" << u;
      }
    }
  }
  // Budget edge: bits(g) = 125 and n^2 = 4, so the sum is a BigInt.
  UnreliableDatabase edge = BudgetEdgeDatabase(7);
  EXPECT_EQ(ExactDatalogReliability(program, "Path", edge)->expected_error,
            OracleDatalogExpectedError(program, "Path", edge));
}

}  // namespace
}  // namespace qrel
