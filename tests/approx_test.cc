#include "qrel/core/approx.h"

#include <cmath>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "qrel/core/reliability.h"
#include "qrel/logic/grounding.h"
#include "qrel/logic/normal_form.h"
#include "qrel/logic/parser.h"
#include "qrel/propositional/karp_luby.h"

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
  UnreliableDatabase db(std::move(observed));
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{0, {2, 2}}, Rational(1, 5));
  return db;
}

TEST(FptrasTest, RejectsNonExistentialQueries) {
  UnreliableDatabase db = SmallDatabase();
  ApproxOptions options;
  EXPECT_FALSE(ExistentialProbabilityFptras(
                   MustParse("forall x . S(x)"), db, {}, options)
                   .ok());
}

TEST(FptrasTest, RejectsBadParameters) {
  UnreliableDatabase db = SmallDatabase();
  ApproxOptions options;
  options.epsilon = 0.0;
  EXPECT_FALSE(ExistentialProbabilityFptras(MustParse("exists x . S(x)"),
                                            db, {}, options)
                   .ok());
  options.epsilon = 0.1;
  EXPECT_FALSE(ExistentialProbabilityFptras(MustParse("exists x . S(x)"),
                                            db, {0}, options)
                   .ok());
}

TEST(FptrasTest, CertainQueriesNeedNoSamples) {
  UnreliableDatabase db = SmallDatabase();
  ApproxOptions options;
  // ∃x∃y E(x,y): E(1,2) is certainly true.
  ApproxResult result = *ExistentialProbabilityFptras(
      MustParse("exists x y . E(x, y)"), db, {}, options);
  EXPECT_EQ(result.estimate, 1.0);
  EXPECT_EQ(result.samples, 0u);
  // ∃x E(x,x) & S(#2)... E(2,2) uncertain but S(2) certainly false makes
  // a conjunct false; here choose a certainly-false query instead.
  result = *ExistentialProbabilityFptras(
      MustParse("exists x . E(x, x) & S(#2)"), db, {}, options);
  EXPECT_EQ(result.estimate, 0.0);
  EXPECT_EQ(result.samples, 0u);
}

TEST(FptrasTest, MatchesExactProbabilityWithinRelativeError) {
  UnreliableDatabase db = SmallDatabase();
  for (const std::string text : {
           "exists x . S(x)",
           "exists x . !S(x)",
           "exists x y . E(x, y) & S(y)",
           "exists x . E(x, x)",
           "exists x . S(x) & x != #0",
       }) {
    FormulaPtr query = MustParse(text);
    double exact = ExactQueryProbability(query, db, {})->ToDouble();
    ApproxOptions options;
    options.epsilon = 0.04;
    options.delta = 0.01;
    options.seed = 31337;
    ApproxResult result =
        *ExistentialProbabilityFptras(query, db, {}, options);
    if (exact == 0.0) {
      EXPECT_EQ(result.estimate, 0.0) << text;
    } else {
      EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon * exact)
          << text;
    }
  }
}

TEST(FptrasTest, FreeVariableInstantiation) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("exists y . E(x, y) & S(y)");
  ApproxOptions options;
  options.epsilon = 0.04;
  options.delta = 0.01;
  options.seed = 99;
  for (Element a = 0; a < 3; ++a) {
    double exact = ExactQueryProbability(query, db, {a})->ToDouble();
    ApproxResult result =
        *ExistentialProbabilityFptras(query, db, {a}, options);
    EXPECT_NEAR(result.estimate, exact,
                3 * options.epsilon * std::max(exact, 0.01))
        << "x = " << a;
  }
}

TEST(FptrasTest, LineageEstimateEqualsTheFullEntryEstimate) {
  // The FPTRAS samples a DNF over the lineage only (here 6 of the 10
  // entries); Karp-Luby over the same ground DNF with every entry id as a
  // variable must give the bit-identical estimate.
  UnreliableDatabase db = SmallDatabase();
  for (Element a = 0; a < 3; ++a) {
    for (Element b = 0; b < 3; ++b) {
      if (db.StatusOf(GroundAtom{0, {a, b}}, nullptr) ==
          UnreliableDatabase::AtomStatus::kCertainFalse) {
        db.SetErrorProbability(GroundAtom{0, {a, b}}, Rational(1, 7));
      }
    }
  }
  FormulaPtr query = MustParse("exists x y . E(x, y) & S(y) & x != y");
  ApproxOptions options;
  options.seed = 4242;
  options.fixed_samples = 3000;
  ApproxResult lineage = *ExistentialProbabilityFptras(query, db, {}, options);

  GroundDnf ground =
      *GroundExistential(*ToPrenexExistential(query), db, {});
  Dnf full(db.model().entry_count());
  for (const std::vector<GroundLiteral>& term : ground.terms) {
    std::vector<PropLiteral> literals;
    for (const GroundLiteral& literal : term) {
      literals.push_back({literal.entry, literal.positive});
    }
    full.AddTerm(std::move(literals));
  }
  full.RemoveSubsumedTerms();
  std::vector<Rational> prob_true;
  for (int e = 0; e < db.model().entry_count(); ++e) {
    prob_true.push_back(db.EntryNuTrue(e));
  }
  KarpLubyOptions kl;
  kl.seed = options.seed;
  kl.fixed_samples = options.fixed_samples;
  KarpLubyResult reference = *KarpLubyProbability(full, prob_true, kl);
  ASSERT_GT(full.term_count(), 1);
  EXPECT_EQ(lineage.estimate, reference.estimate);
  EXPECT_EQ(lineage.samples, reference.samples);
}

TEST(Cor55Test, RejectsGeneralQueries) {
  UnreliableDatabase db = SmallDatabase();
  ApproxOptions options;
  EXPECT_FALSE(ReliabilityAbsoluteApprox(
                   MustParse("forall x . exists y . E(x, y)"), db, options)
                   .ok());
}

TEST(Cor55Test, ExistentialBooleanMatchesExactReliability) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("exists x . S(x)");
  double exact = ExactReliability(query, db)->reliability.ToDouble();
  ApproxOptions options;
  options.epsilon = 0.02;
  options.delta = 0.01;
  options.seed = 2718;
  ApproxResult result = *ReliabilityAbsoluteApprox(query, db, options);
  EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon);
}

TEST(Cor55Test, UniversalBooleanMatchesExactReliability) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("forall x . S(x) -> (exists y . E(x, y))");
  // Universal? NNF: ∀x (!S(x) | ∃y E(x,y)) — contains ∃, not universal!
  // Use a genuinely universal query instead.
  query = MustParse("forall x . S(x) | !E(x, x)");
  double exact = ExactReliability(query, db)->reliability.ToDouble();
  ApproxOptions options;
  options.epsilon = 0.02;
  options.delta = 0.01;
  options.seed = 1414;
  ApproxResult result = *ReliabilityAbsoluteApprox(query, db, options);
  EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon);
}

TEST(Cor55Test, UnaryQueryMatchesExactReliability) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("exists y . E(x, y)");
  double exact = ExactReliability(query, db)->reliability.ToDouble();
  ApproxOptions options;
  options.epsilon = 0.06;
  options.delta = 0.05;
  options.seed = 5;
  ApproxResult result = *ReliabilityAbsoluteApprox(query, db, options);
  EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon);
}

TEST(PaddedTest, SampleBoundFormula) {
  // t = ceil(9/(2 ξ ε²) ln(1/δ)).
  EXPECT_EQ(PaddedSampleBound(0.25, 1.0, 1.0 / std::exp(1.0)), 18u);
}

TEST(PaddedTest, RejectsBadXi) {
  UnreliableDatabase db = SmallDatabase();
  ApproxOptions options;
  options.xi = 0.5;
  EXPECT_FALSE(
      PaddedReliabilityApprox(MustParse("S(#0)"), db, options).ok());
  options.xi = 0.0;
  EXPECT_FALSE(
      PaddedReliabilityApprox(MustParse("S(#0)"), db, options).ok());
}

TEST(PaddedTest, BooleanQueriesMatchExactReliability) {
  UnreliableDatabase db = SmallDatabase();
  for (const std::string text : {
           "exists x . S(x)",
           "forall x . S(x) | !E(x, x)",
           // General first-order (neither existential nor universal):
           "forall x . S(x) -> (exists y . E(x, y))",
       }) {
    FormulaPtr query = MustParse(text);
    double exact = ExactReliability(query, db)->reliability.ToDouble();
    ApproxOptions options;
    options.epsilon = 0.05;
    options.delta = 0.02;
    options.seed = 808;
    ApproxResult result = *PaddedReliabilityApprox(query, db, options);
    EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon) << text;
  }
}

TEST(PaddedTest, UnaryGeneralQueryMatchesExactReliability) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("forall y . E(x, y) -> (exists z . E(y, z))");
  double exact = ExactReliability(query, db)->reliability.ToDouble();
  ApproxOptions options;
  options.epsilon = 0.15;
  options.delta = 0.1;
  options.seed = 99;
  options.fixed_samples = 40000;  // keep the per-tuple budget tractable
  ApproxResult result = *PaddedReliabilityApprox(query, db, options);
  EXPECT_NEAR(result.estimate, exact, 0.05);
}

TEST(PaddedTest, XiAblationAllValuesConverge) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("exists x . S(x)");
  double exact = ExactReliability(query, db)->reliability.ToDouble();
  for (double xi : {0.05, 0.15, 0.25, 0.35, 0.45}) {
    ApproxOptions options;
    options.xi = xi;
    options.epsilon = 0.2;
    options.delta = 0.1;
    options.seed = 4242;
    options.fixed_samples = 200000;
    ApproxResult result = *PaddedReliabilityApprox(query, db, options);
    EXPECT_NEAR(result.estimate, exact, 0.03) << "xi = " << xi;
  }
}

TEST(PaddedTest, ZeroFixedSamplesIsInvalidArgument) {
  // Zero samples used to divide 0 by 0 and report a NaN reliability.
  UnreliableDatabase db = SmallDatabase();
  ApproxOptions options;
  options.fixed_samples = 0;
  for (const std::string text :
       {"forall x . exists y . E(x,y) | S(x)", "forall y . E(x, y)"}) {
    StatusOr<ApproxResult> result =
        PaddedReliabilityApprox(MustParse(text), db, options);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(PaddedTest, BooleanEstimatesArePinned) {
  // The padded estimator's Boolean sample stream (Rd, then Rc if Rd, then
  // one world if Rd ∧ ¬Rc) is fixed: these are the estimates of the
  // earlier per-tuple estimator, bit for bit.
  struct Golden {
    const char* query;
    uint64_t seed;
    double estimate;
  };
  const Golden kGolden[] = {
      {"exists x . S(x)", 3, 0x1.89374bc6a7ef9p-1},
      {"exists x . S(x)", 808, 0x1.b4e81b4e81b4fp-1},
      {"forall x . S(x) -> (exists y . E(x, y))", 3, 0x1.645a1cac08313p-1},
      {"forall x . S(x) -> (exists y . E(x, y))", 808, 0x1.7619f0fb38a95p-1},
      {"forall x . exists y . E(x,y) | S(x)", 3, 0x1.c131d5acb6f46p-1},
      {"forall x . exists y . E(x,y) | S(x)", 808, 0x1.b38a94d242e6cp-1},
  };
  UnreliableDatabase db = SmallDatabase();
  for (const Golden& golden : kGolden) {
    ApproxOptions options;
    options.seed = golden.seed;
    options.epsilon = 0.1;
    options.fixed_samples = 2000;
    StatusOr<ApproxResult> result =
        PaddedReliabilityApprox(MustParse(golden.query), db, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->estimate, golden.estimate)
        << golden.query << " seed " << golden.seed;
    EXPECT_EQ(result->samples, 2000u);
  }
}

TEST(PaddedTest, WorkBudgetTruncatesAnOpenQuery) {
  // Every sample serves all n^k tuples, so a prefix of samples is a usable
  // estimate at any arity.
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("forall y . E(x, y) -> (exists z . E(y, z))");
  RunContext ctx = RunContext::WithWorkBudget(500);
  ApproxOptions options;
  options.epsilon = 0.2;
  options.delta = 0.1;
  options.run_context = &ctx;
  options.allow_truncation = true;
  uint64_t planned = PaddedSampleBound(options.xi, options.epsilon / 3 / 2.0,
                                       options.delta / 3);
  StatusOr<ApproxResult> result = PaddedReliabilityApprox(query, db, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
  EXPECT_EQ(result->samples, 500u);
  EXPECT_LT(result->samples, planned);
  ASSERT_TRUE(result->achieved_epsilon.has_value());
  EXPECT_EQ(*result->achieved_epsilon,
            PaddedAchievedEpsilon(options.xi, 500, options.delta / 3) * 3);
  EXPECT_GE(result->estimate, 0.0);
  EXPECT_LE(result->estimate, 1.0);

  RunContext strict = RunContext::WithWorkBudget(500);
  options.run_context = &strict;
  options.allow_truncation = false;
  result = PaddedReliabilityApprox(query, db, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(PaddedTest, CancellationNeverTruncates) {
  UnreliableDatabase db = SmallDatabase();
  RunContext ctx;  // unlimited: only cancellation can stop it
  ApproxOptions options;
  options.run_context = &ctx;
  options.allow_truncation = true;
  options.fixed_samples = uint64_t{1} << 40;
  std::thread canceller([&ctx] {
    while (ctx.work_spent() < 1000) {
      std::this_thread::yield();
    }
    ctx.RequestCancellation();
  });
  StatusOr<ApproxResult> result =
      PaddedReliabilityApprox(MustParse("forall y . E(x, y)"), db, options);
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(ApproxTest, DeterministicForFixedSeed) {
  UnreliableDatabase db = SmallDatabase();
  FormulaPtr query = MustParse("exists x . S(x)");
  ApproxOptions options;
  options.seed = 11;
  ApproxResult a = *ExistentialProbabilityFptras(query, db, {}, options);
  ApproxResult b = *ExistentialProbabilityFptras(query, db, {}, options);
  EXPECT_EQ(a.estimate, b.estimate);
  ApproxResult c = *PaddedReliabilityApprox(query, db, options);
  ApproxResult d = *PaddedReliabilityApprox(query, db, options);
  EXPECT_EQ(c.estimate, d.estimate);
}

}  // namespace
}  // namespace qrel
