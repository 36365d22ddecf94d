// Cross-check suite for the extensional (lifted) evaluator: on every safe
// query it must agree bit-for-bit — exact rationals, not within-epsilon —
// with the Theorem 4.2 possible-world enumeration, including at the
// boundary marginals 0 and 1.

#include "qrel/lifted/extensional.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "extensional_oracle.h"
#include "qrel/core/reliability.h"
#include "qrel/logic/parser.h"
#include "qrel/logic/safe_plan.h"
#include "qrel/util/rng.h"

namespace qrel {
namespace {

FormulaPtr MustParse(const std::string& text) {
  StatusOr<FormulaPtr> result = ParseFormula(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

// E = {(0,1), (1,2)}, S = {0}, T = {2} over universe {0, 1, 2}.
UnreliableDatabase SmallDatabase() {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("S", 1);
  vocabulary->AddRelation("T", 1);
  Structure observed(vocabulary, 3);
  observed.AddFact(0, {0, 1});
  observed.AddFact(0, {1, 2});
  observed.AddFact(1, {0});
  observed.AddFact(2, {2});
  return UnreliableDatabase(std::move(observed));
}

UnreliableDatabase SmallUncertainDatabase() {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{0, {2, 0}}, Rational(1, 5));  // absent
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));  // absent
  db.SetErrorProbability(GroundAtom{2, {2}}, Rational(2, 7));
  return db;
}

// Safe queries exercising every plan shape: single atom, hierarchy,
// disjoint components, free variables, repeated variables, equality
// substitution, and a residual equality leaf.
const char* const kSafeQueries[] = {
    "exists x . S(x)",
    "exists x . S(x) & T(x)",
    "exists x . exists y . E(x, y) & S(y)",
    "exists x . exists y . S(x) & T(y)",
    "exists x . S(x) & E(x, y)",
    "exists y . E(x, y)",
    "exists x . E(x, x)",
    "exists x . x = #1 & S(x)",
    "exists x . x = y & E(x, y)",
};

// Every free-variable assignment over db's universe, in tuple-space order.
std::vector<Tuple> AllAssignments(const FormulaPtr& query,
                                  const UnreliableDatabase& db) {
  size_t arity = query->FreeVariables().size();
  std::vector<Tuple> tuples;
  Tuple tuple(arity, 0);
  do {
    tuples.push_back(tuple);
  } while (AdvanceTuple(&tuple, db.universe_size()));
  return tuples;
}

void ExpectBitIdentical(const FormulaPtr& query, const UnreliableDatabase& db,
                        const std::string& label) {
  StatusOr<ReliabilityReport> lifted = ExtensionalReliability(query, db);
  ASSERT_TRUE(lifted.ok()) << label << ": " << lifted.status().ToString();
  StatusOr<ReliabilityReport> enumerated = ExactReliability(query, db);
  ASSERT_TRUE(enumerated.ok())
      << label << ": " << enumerated.status().ToString();
  EXPECT_EQ(lifted->arity, enumerated->arity) << label;
  EXPECT_EQ(lifted->expected_error, enumerated->expected_error) << label;
  EXPECT_EQ(lifted->reliability, enumerated->reliability) << label;

  for (const Tuple& tuple : AllAssignments(query, db)) {
    StatusOr<Rational> p = ExtensionalQueryProbability(query, db, tuple);
    ASSERT_TRUE(p.ok()) << label << ": " << p.status().ToString();
    StatusOr<Rational> q = ExactQueryProbability(query, db, tuple);
    ASSERT_TRUE(q.ok()) << label << ": " << q.status().ToString();
    EXPECT_EQ(*p, *q) << label;
  }
}

TEST(ExtensionalTest, MatchesWorldEnumerationOnHandBuiltDatabase) {
  UnreliableDatabase db = SmallUncertainDatabase();
  for (const char* query : kSafeQueries) {
    ExpectBitIdentical(MustParse(query), db, query);
  }
}

TEST(ExtensionalTest, CertainDatabaseIsPerfectlyReliable) {
  UnreliableDatabase db = SmallDatabase();
  ReliabilityReport report =
      *ExtensionalReliability(MustParse("exists x . S(x) & T(x)"), db);
  EXPECT_TRUE(report.expected_error.IsZero());
  EXPECT_TRUE(report.reliability.IsOne());
}

TEST(ExtensionalTest, HandComputedExistential) {
  // ψ = ∃x S(x); μ(S(0)) = 1/3 (observed true), μ(S(1)) = 1/2 (observed
  // false). ψ^𝔄 = true; ψ^𝔅 false iff S(0) flips and S(1) does not:
  // H = 1/3 · 1/2 = 1/6.
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  ReliabilityReport report =
      *ExtensionalReliability(MustParse("exists x . S(x)"), db);
  EXPECT_EQ(report.arity, 0);
  EXPECT_EQ(report.expected_error, Rational(1, 6));
  EXPECT_EQ(report.reliability, Rational(5, 6));
}

TEST(ExtensionalTest, RandomizedDatabasesMatchBitForBit) {
  // Fuzz the marginals: random small databases whose error probabilities
  // are drawn from {0, 1/4, 1/2, 3/4, 1} — deliberately including both
  // boundary values, where an off-by-one in the complement arithmetic or
  // a dropped certain atom would show up.
  Rng rng(20260807);
  for (int round = 0; round < 40; ++round) {
    auto vocabulary = std::make_shared<Vocabulary>();
    vocabulary->AddRelation("E", 2);
    vocabulary->AddRelation("S", 1);
    vocabulary->AddRelation("T", 1);
    int n = 2 + static_cast<int>(rng.NextBelow(2));  // universe 2 or 3
    Structure observed(vocabulary, n);
    for (int a = 0; a < n; ++a) {
      if (rng.NextBelow(2) == 0) observed.AddFact(1, {a});
      if (rng.NextBelow(2) == 0) observed.AddFact(2, {a});
      for (int b = 0; b < n; ++b) {
        if (rng.NextBelow(3) == 0) observed.AddFact(0, {a, b});
      }
    }
    UnreliableDatabase db(std::move(observed));
    // Perturb a handful of atoms (present or absent alike), keeping the
    // uncertain count far below the 2^u enumeration ceiling.
    for (int i = 0; i < 6; ++i) {
      GroundAtom atom;
      atom.relation = static_cast<int>(rng.NextBelow(3));
      int arity = atom.relation == 0 ? 2 : 1;
      for (int j = 0; j < arity; ++j) {
        atom.args.push_back(static_cast<int>(rng.NextBelow(n)));
      }
      db.SetErrorProbability(atom,
                             Rational(static_cast<int>(rng.NextBelow(5)), 4));
    }
    for (const char* query : kSafeQueries) {
      ExpectBitIdentical(MustParse(query), db,
                         "round " + std::to_string(round) + ": " + query);
    }
  }
}

TEST(ExtensionalTest, UnsafeQueryIsRefused) {
  UnreliableDatabase db = SmallUncertainDatabase();
  for (const char* query :
       {"exists x . exists y . E(x, y) & E(y, x)",       // self-join
        "exists x . exists y . S(x) & E(x, y) & T(y)",   // not hierarchical
        "S(x) & T(x)",                                   // quantifier-free
        "exists x . S(x) | T(x)"}) {                     // not conjunctive
    StatusOr<ReliabilityReport> result =
        ExtensionalReliability(MustParse(query), db);
    ASSERT_FALSE(result.ok()) << query;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << query;
  }
}

TEST(ExtensionalTest, UnknownRelationIsRefused) {
  UnreliableDatabase db = SmallUncertainDatabase();
  StatusOr<ReliabilityReport> result =
      ExtensionalReliability(MustParse("exists x . Zap(x)"), db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExtensionalTest, WorkBudgetTripsTheRun) {
  UnreliableDatabase db = SmallUncertainDatabase();
  RunContext ctx = RunContext::WithWorkBudget(2);
  StatusOr<ReliabilityReport> result = ExtensionalReliability(
      MustParse("exists x . exists y . E(x, y) & S(y)"), db, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(ctx.work_spent(), 0u);
}

TEST(ExtensionalTest, ChargesWorkProportionalToPlanSize) {
  UnreliableDatabase db = SmallUncertainDatabase();
  RunContext ctx;
  ReliabilityReport report = *ExtensionalReliability(
      MustParse("exists x . exists y . E(x, y) & S(y)"), db, &ctx);
  EXPECT_GT(report.work_units, 0u);
  EXPECT_EQ(ctx.work_spent(), report.work_units);
}

// Safe queries over RandomSparseDatabase's relations: constants,
// repeated variables, nested projections, disjoint components and free
// variables (k = 1, 2).
const char* const kSupportQueries[] = {
    "exists x . S(x) & E(x, #1)",
    "exists x . E(x, x) & S(x)",
    "exists x y z . S(x) & E(x, y) & R(x, y, z)",
    "exists x y z . R(x, y, z) & E(x, y) & S(x)",
    "exists x y . E(x, y) & F(y, x)",
    "exists x y . S(x) & T(y) & F(#0, y)",
    "exists y . E(x, y) & F(y, #2)",
    "exists y z . R(x, y, z) & T(x)",
    "exists z . R(x, y, z) & E(x, y)",
    "exists z . R(z, x, z) & F(x, y)",
};

TEST(ExtensionalDifferentialTest, SupportMatchesUniverseWalkOnRandomDatabases) {
  int compared = 0;
  for (const char* text : kSupportQueries) {
    FormulaPtr query = MustParse(text);
    ASSERT_TRUE(HasSafePlan(query)) << text;
    for (int n = 3; n <= 5; ++n) {  // constants go up to #2
      for (uint64_t seed = 1; seed <= 8; ++seed) {
        UnreliableDatabase db = RandomSparseDatabase(seed * 131 + n, n);
        std::string label = std::string(text) + " n=" + std::to_string(n) +
                            " seed=" + std::to_string(seed);
        StatusOr<ReliabilityReport> support = ExtensionalReliability(query, db);
        StatusOr<ReliabilityReport> walk =
            UniverseWalkExtensionalReliability(query, db);
        ASSERT_TRUE(support.ok())
            << label << ": " << support.status().ToString();
        ASSERT_TRUE(walk.ok()) << label << ": " << walk.status().ToString();
        EXPECT_EQ(support->expected_error, walk->expected_error) << label;
        EXPECT_EQ(support->reliability, walk->reliability) << label;
        for (const Tuple& tuple : AllAssignments(query, db)) {
          StatusOr<Rational> p = ExtensionalQueryProbability(query, db, tuple);
          StatusOr<Rational> q = UniverseWalkQueryProbability(query, db, tuple);
          ASSERT_TRUE(p.ok() && q.ok()) << label;
          EXPECT_EQ(*p, *q) << label;
          compared += !q->IsZero() && !q->IsOne() ? 1 : 0;
        }
      }
    }
  }
  // Many comparisons are of genuinely uncertain probabilities.
  EXPECT_GT(compared, 200);
}

TEST(ExtensionalTest, ProjectionsVisitOnlyTheSupport) {
  // Two possible E tuples and one possible S tuple in a universe of 200:
  // the universe walk evaluates 1 + 200 + 200·2 plan nodes, the support
  // a handful.
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("S", 1);
  Structure observed(vocabulary, 200);
  observed.AddFact(0, {3, 7});
  observed.AddFact(0, {5, 9});
  observed.AddFact(1, {3});
  UnreliableDatabase db(std::move(observed));
  db.SetErrorProbability(GroundAtom{0, {3, 7}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{1, {3}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {4}}, Rational(1, 5));  // absent
  FormulaPtr query = MustParse("exists x y . S(x) & E(x, y)");
  StatusOr<ReliabilityReport> report = ExtensionalReliability(query, db);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  StatusOr<ReliabilityReport> walk =
      UniverseWalkExtensionalReliability(query, db);
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  EXPECT_EQ(report->expected_error, walk->expected_error);
  // One tuple; x ranges over S's two possible values {3, 4}, y over the
  // possible E tuples with that x: 4 plan operations.
  EXPECT_LE(report->work_units, 10u);
}

}  // namespace
}  // namespace qrel
