#include "qrel/propositional/dnf.h"

#include <gtest/gtest.h>

namespace qrel {
namespace {

TEST(DnfTest, EmptyFormulaIsFalse) {
  Dnf dnf(3);
  EXPECT_EQ(dnf.term_count(), 0);
  EXPECT_EQ(dnf.Width(), 0);
  EXPECT_FALSE(dnf.Eval({0, 0, 0}));
}

TEST(DnfTest, EmptyTermIsTrue) {
  Dnf dnf(2);
  EXPECT_TRUE(dnf.AddTerm({}));
  EXPECT_TRUE(dnf.Eval({0, 0}));
  EXPECT_TRUE(dnf.Eval({1, 1}));
}

TEST(DnfTest, AddTermNormalizes) {
  Dnf dnf(3);
  EXPECT_TRUE(dnf.AddTerm({{2, true}, {0, false}, {2, true}}));
  // Sorted by variable, duplicate merged.
  ASSERT_EQ(dnf.term(0).size(), 2u);
  EXPECT_EQ(dnf.term(0)[0].variable, 0);
  EXPECT_FALSE(dnf.term(0)[0].positive);
  EXPECT_EQ(dnf.term(0)[1].variable, 2);
}

TEST(DnfTest, AddTermRejectsContradiction) {
  Dnf dnf(2);
  EXPECT_FALSE(dnf.AddTerm({{0, true}, {0, false}}));
  EXPECT_EQ(dnf.term_count(), 0);
}

TEST(DnfTest, EvalAndSatisfiedCounts) {
  Dnf dnf(3);
  dnf.AddTerm({{0, true}, {1, true}});   // x0 & x1
  dnf.AddTerm({{1, false}});             // !x1
  dnf.AddTerm({{0, true}, {2, false}});  // x0 & !x2

  EXPECT_TRUE(dnf.Eval({1, 1, 1}));   // first term
  EXPECT_EQ(dnf.FirstSatisfiedTerm({1, 1, 1}), 0);
  EXPECT_EQ(dnf.SatisfiedTermCount({1, 1, 1}), 1);

  EXPECT_TRUE(dnf.Eval({1, 0, 0}));   // second and third
  EXPECT_EQ(dnf.FirstSatisfiedTerm({1, 0, 0}), 1);
  EXPECT_EQ(dnf.SatisfiedTermCount({1, 0, 0}), 2);

  EXPECT_FALSE(dnf.Eval({0, 1, 0}));
  EXPECT_EQ(dnf.FirstSatisfiedTerm({0, 1, 0}), -1);
  EXPECT_EQ(dnf.Width(), 2);
}

TEST(DnfTest, TermProbabilityIsProductOfLiteralProbabilities) {
  Dnf dnf(3);
  dnf.AddTerm({{0, true}, {2, false}});
  std::vector<Rational> prob = {Rational(1, 2), Rational(1, 3),
                                Rational(1, 5)};
  // Pr[x0] * Pr[!x2] = 1/2 * 4/5 = 2/5.
  EXPECT_EQ(dnf.TermProbability(0, prob), Rational(2, 5));
  dnf.AddTerm({});
  EXPECT_EQ(dnf.TermProbability(1, prob), Rational(1));
}

TEST(DnfTest, SampleAssignmentMatchesProbabilities) {
  // One BernoulliThreshold draw per variable in index order, the way the
  // naive Monte Carlo sampler draws its assignments.
  std::vector<Rational> prob = {Rational(1, 4), Rational(1), Rational(0)};
  std::vector<BernoulliThreshold> thresholds(prob.begin(), prob.end());
  Rng rng(99);
  int hits0 = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    PropAssignment a(prob.size(), 0);
    for (size_t v = 0; v < prob.size(); ++v) {
      a[v] = thresholds[v].Draw(&rng) ? 1 : 0;
    }
    hits0 += a[0];
    EXPECT_EQ(a[1], 1);
    EXPECT_EQ(a[2], 0);
  }
  EXPECT_NEAR(hits0 / static_cast<double>(trials), 0.25, 0.02);
}

}  // namespace
}  // namespace qrel

namespace qrel {
namespace {

TEST(SubsumptionTest, RemovesSupersets) {
  Dnf dnf(3);
  dnf.AddTerm({{0, true}});                        // x0
  dnf.AddTerm({{0, true}, {1, true}});             // x0 & x1 (subsumed)
  dnf.AddTerm({{1, false}, {2, true}});            // !x1 & x2
  dnf.AddTerm({{0, true}, {1, false}, {2, true}}); // subsumed by both
  EXPECT_EQ(dnf.RemoveSubsumedTerms(), 2);
  EXPECT_EQ(dnf.term_count(), 2);
}

TEST(SubsumptionTest, EqualTermsKeepOne) {
  Dnf dnf(2);
  dnf.AddTerm({{0, true}, {1, false}});
  dnf.AddTerm({{1, false}, {0, true}});  // same after normalization
  EXPECT_EQ(dnf.RemoveSubsumedTerms(), 1);
  EXPECT_EQ(dnf.term_count(), 1);
}

TEST(SubsumptionTest, EmptyTermSubsumesEverything) {
  Dnf dnf(2);
  dnf.AddTerm({{0, true}});
  dnf.AddTerm({});
  dnf.AddTerm({{1, false}});
  EXPECT_EQ(dnf.RemoveSubsumedTerms(), 2);
  ASSERT_EQ(dnf.term_count(), 1);
  EXPECT_TRUE(dnf.term(0).empty());
}

TEST(SubsumptionTest, IncomparableTermsUntouched) {
  Dnf dnf(3);
  dnf.AddTerm({{0, true}, {1, true}});
  dnf.AddTerm({{0, true}, {2, true}});
  dnf.AddTerm({{1, false}});
  EXPECT_EQ(dnf.RemoveSubsumedTerms(), 0);
  EXPECT_EQ(dnf.term_count(), 3);
}

}  // namespace
}  // namespace qrel
