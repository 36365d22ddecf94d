#include "qrel/logic/grounding.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "grounding_oracle.h"
#include "qrel/logic/eval.h"
#include "qrel/logic/parser.h"
#include "qrel/prob/world_enumerator.h"

namespace qrel {
namespace {

// Builds the database of unreliable_database_test with configurable errors.
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

PrenexExistential MustPrenex(const std::string& text) {
  StatusOr<FormulaPtr> formula = ParseFormula(text);
  EXPECT_TRUE(formula.ok()) << formula.status().ToString();
  StatusOr<PrenexExistential> prenex = ToPrenexExistential(*formula);
  EXPECT_TRUE(prenex.ok()) << prenex.status().ToString();
  return std::move(prenex).value();
}

// Evaluates the ground DNF in a world (flips bitset over entry ids).
bool EvalGroundDnf(const GroundDnf& dnf, const UnreliableDatabase& db,
                   const World& world) {
  if (dnf.certainly_true) return true;
  for (const std::vector<GroundLiteral>& term : dnf.terms) {
    bool all = true;
    for (const GroundLiteral& literal : term) {
      const GroundAtom& atom = db.model().atom(literal.entry);
      bool observed = db.observed().AtomTrue(atom.relation, atom.args);
      bool actual = world.Flipped(literal.entry) ? !observed : observed;
      if (actual != literal.positive) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

TEST(GroundingTest, CertainDatabaseYieldsConstantFormula) {
  UnreliableDatabase db = SmallDatabase();
  // ∃x∃y E(x,y) holds in the (certain) observed database.
  GroundDnf dnf =
      *GroundExistential(MustPrenex("exists x y . E(x, y)"), db, {});
  EXPECT_TRUE(dnf.certainly_true);

  // ∃x S(x) & E(x, x): no witness and nothing uncertain -> empty DNF.
  GroundDnf none =
      *GroundExistential(MustPrenex("exists x . S(x) & E(x, x)"), db, {});
  EXPECT_FALSE(none.certainly_true);
  EXPECT_TRUE(none.terms.empty());
}

TEST(GroundingTest, UncertainAtomsBecomeVariables) {
  UnreliableDatabase db = SmallDatabase();
  int s1 = db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  int s2 = db.SetErrorProbability(GroundAtom{1, {2}}, Rational(1, 3));

  // ∃x S(x) — S(0) is certainly true, so the query is certainly true.
  GroundDnf always = *GroundExistential(MustPrenex("exists x . S(x)"), db, {});
  EXPECT_TRUE(always.certainly_true);

  // ∃x (S(x) & x != #0): only the uncertain S(1), S(2) matter.
  GroundDnf dnf = *GroundExistential(
      MustPrenex("exists x . S(x) & x != #0"), db, {});
  EXPECT_FALSE(dnf.certainly_true);
  ASSERT_EQ(dnf.terms.size(), 2u);
  EXPECT_EQ(dnf.Width(), 1);
  EXPECT_EQ(dnf.terms[0][0].entry, s1);
  EXPECT_TRUE(dnf.terms[0][0].positive);
  EXPECT_EQ(dnf.terms[1][0].entry, s2);
}

TEST(GroundingTest, NegativeLiteralsSupported) {
  UnreliableDatabase db = SmallDatabase();
  int s0 = db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  GroundDnf dnf =
      *GroundExistential(MustPrenex("exists x . !S(x) & x = #0"), db, {});
  ASSERT_EQ(dnf.terms.size(), 1u);
  EXPECT_EQ(dnf.terms[0][0].entry, s0);
  EXPECT_FALSE(dnf.terms[0][0].positive);
}

TEST(GroundingTest, WidthIsIndependentOfDatabaseSize) {
  // ψ = ∃x∃y (E(x,y) & S(x) & S(y)) has width ≤ 3 whatever the database.
  PrenexExistential prenex =
      MustPrenex("exists x y . E(x, y) & S(x) & S(y)");
  for (int n : {3, 5, 8}) {
    auto vocabulary = std::make_shared<Vocabulary>();
    vocabulary->AddRelation("E", 2);
    vocabulary->AddRelation("S", 1);
    Structure observed(vocabulary, n);
    UnreliableDatabase db(std::move(observed));
    for (Element i = 0; i < n; ++i) {
      db.SetErrorProbability(GroundAtom{1, {i}}, Rational(1, 2));
      for (Element j = 0; j < n; ++j) {
        db.SetErrorProbability(GroundAtom{0, {i, j}}, Rational(1, 3));
      }
    }
    GroundDnf dnf = *GroundExistential(prenex, db, {});
    EXPECT_LE(dnf.Width(), 3) << n;
    // n^2 assignments, one term each (atoms all uncertain and distinct,
    // except x == y merging S(x), S(y)).
    EXPECT_EQ(dnf.terms.size(), static_cast<size_t>(n) * n);
  }
}

TEST(GroundingTest, FreeVariablesGroundedThroughAssignment) {
  UnreliableDatabase db = SmallDatabase();
  int s1 = db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  PrenexExistential prenex = MustPrenex("exists y . E(x, y) & S(y)");
  // x = 0: E(0,1) certain true, S(1) uncertain -> one unit term.
  GroundDnf dnf0 = *GroundExistential(prenex, db, {0});
  ASSERT_EQ(dnf0.terms.size(), 1u);
  EXPECT_EQ(dnf0.terms[0][0].entry, s1);
  // x = 2: no certain E(2,·) and no uncertain E -> false.
  GroundDnf dnf2 = *GroundExistential(prenex, db, {2});
  EXPECT_TRUE(dnf2.terms.empty());
  EXPECT_FALSE(dnf2.certainly_true);
}

TEST(GroundingTest, RejectsWrongAssignmentLength) {
  UnreliableDatabase db = SmallDatabase();
  PrenexExistential prenex = MustPrenex("exists y . E(x, y)");
  EXPECT_FALSE(GroundExistential(prenex, db, {}).ok());
  EXPECT_FALSE(GroundExistential(prenex, db, {0, 1}).ok());
}

TEST(GroundingTest, RejectsOneRelationAtTwoArities) {
  UnreliableDatabase db = SmallDatabase();
  StatusOr<GroundDnf> dnf = GroundExistential(
      MustPrenex("exists x y . E(x, y) | E(x)"), db, {});
  ASSERT_FALSE(dnf.ok());
  EXPECT_EQ(dnf.status().code(), StatusCode::kInvalidArgument);
}

TEST(GroundingTest, RejectsConstantOutsideUniverse) {
  UnreliableDatabase db = SmallDatabase();
  PrenexExistential prenex = MustPrenex("exists x . E(x, #7)");
  EXPECT_FALSE(GroundExistential(prenex, db, {}).ok());
  // Checked before any binding, even where no binding reaches the atom.
  EXPECT_FALSE(GroundExistential(
                   MustPrenex("exists x . x = #0 & x = #1 & E(x, #7)"), db, {})
                   .ok());
  // Free values feeding an atom are checked the same way.
  EXPECT_FALSE(GroundExistential(MustPrenex("exists y . E(x, y)"), db, {5})
                   .ok());
}

TEST(GroundingTest, GroundDnfAgreesWithQueryOnEveryWorld) {
  // The grounded formula ψ'' must hold in a world iff ψ does (the
  // correctness claim inside Theorem 5.4), exhaustively over all worlds.
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{0, {2, 0}}, Rational(1, 2));
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {2}}, Rational(2, 5));

  for (const std::string text : {
           "exists x y . E(x, y) & S(y)",
           "exists x . S(x)",
           "exists x . !S(x)",
           "exists x y . E(x, y) & !S(x) & x != y",
           "exists x . (S(x) | !E(x, x)) & x = #2",
       }) {
    StatusOr<FormulaPtr> formula = ParseFormula(text);
    ASSERT_TRUE(formula.ok());
    PrenexExistential prenex = *ToPrenexExistential(*formula);
    GroundDnf dnf = *GroundExistential(prenex, db, {});
    CompiledQuery query =
        std::move(CompiledQuery::Compile(*formula, db.vocabulary())).value();
    WorldEnumerator walk(db);
    WorldView view(walk.index(), walk.world());
    for (; !walk.done(); walk.Next()) {
      EXPECT_EQ(EvalGroundDnf(dnf, db, walk.world()), query.Eval(view, {}))
          << text;
    }
  }
}

// Differential check against the universe walk: the join must return the
// identical GroundDnf — same terms, same order — for every free assignment.
// Returns how many of the compared DNFs had at least two terms.
int ExpectSameAsUniverseWalk(const std::string& text,
                             const UnreliableDatabase& db,
                             const std::string& context) {
  int multi_term = 0;
  PrenexExistential prenex = MustPrenex(text);
  Tuple free_assignment(prenex.free_variables.size(), 0);
  do {
    StatusOr<GroundDnf> walk =
        UniverseWalkGrounding(prenex, db, free_assignment);
    StatusOr<GroundDnf> join = GroundExistential(prenex, db, free_assignment);
    EXPECT_TRUE(walk.ok()) << text << context << walk.status().ToString();
    EXPECT_TRUE(join.ok()) << text << context << join.status().ToString();
    if (!walk.ok() || !join.ok()) break;
    EXPECT_EQ(join->certainly_true, walk->certainly_true) << text << context;
    EXPECT_EQ(join->terms, walk->terms) << text << context;
    multi_term += walk->terms.size() >= 2 ? 1 : 0;
  } while (AdvanceTuple(&free_assignment, db.universe_size()));
  return multi_term;
}

TEST(GroundingDifferentialTest, JoinMatchesUniverseWalkOnRandomDatabases) {
  const std::vector<std::string> queries = {
      "exists x y . E(x, y) & E(y, x)",
      "exists x y . E(x, y) & !S(x) & x != y",
      "exists x . !S(x)",
      "exists x y . S(x) | T(y)",
      "exists x y z . R(x, y, z) & E(z, x) & !F(y, y)",
      "exists x . E(x, x) & S(#1)",
      "exists x y . (E(x, y) | F(y, x)) & (S(x) | !T(y))",
      "exists x y . x = y & !E(x, y)",
      "exists x y . E(x, #0) & F(#1, y) & x = y",
      "exists x y z . E(x, y) & E(y, z) & E(z, x)",
      "exists x y . !E(x, y) & !F(y, x) & S(x)",
      "exists x y z . R(x, x, y) & !R(y, z, z) & (T(z) | z = #0)",
      "exists y . E(x, y) & !T(y)",
      "exists z . R(x, z, y) | (S(z) & x = y)",
      "E(x, y) & !S(x) & x != y",
      "S(#0) | !T(#1)",
  };
  int multi_term = 0;
  for (int n : {1, 2, 3, 4}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      UnreliableDatabase db = RandomGroundingDatabase(seed, n);
      for (const std::string& text : queries) {
        if (n < 2 && text.find("#1") != std::string::npos) continue;
        multi_term += ExpectSameAsUniverseWalk(
            text, db,
            " (n=" + std::to_string(n) + ", seed=" + std::to_string(seed) +
                ") ");
      }
    }
  }
  // The databases are not so certain that every answer is trivial.
  EXPECT_GT(multi_term, 500);
}

TEST(GroundingDifferentialTest, JoinCostFollowsTheFactsNotTheUniverse) {
  // The two-atom probe over two uncertain facts at n = 1000: the universe
  // walk visits n^2 = 10^6 assignments, the join a handful of bindings.
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("E", 2);
  Structure observed(vocabulary, 1000);
  observed.AddFact(0, {3, 7});
  observed.AddFact(0, {7, 3});
  UnreliableDatabase db(std::move(observed));
  int e37 = db.SetErrorProbability(GroundAtom{0, {3, 7}}, Rational(1, 3));
  int e73 = db.SetErrorProbability(GroundAtom{0, {7, 3}}, Rational(1, 5));
  RunContext ctx;
  StatusOr<GroundDnf> dnf = GroundExistential(
      MustPrenex("exists x y . E(x, y) & E(y, x)"), db, {}, size_t{1} << 22,
      &ctx);
  ASSERT_TRUE(dnf.ok()) << dnf.status().ToString();
  ASSERT_EQ(dnf->terms.size(), 1u);
  EXPECT_EQ(dnf->terms[0],
            (std::vector<GroundLiteral>{{e37, true}, {e73, true}}));
  EXPECT_LT(ctx.work_spent(), 10u);
}

}  // namespace
}  // namespace qrel
