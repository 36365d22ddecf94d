#include "qrel/propositional/karp_luby.h"

#include <cmath>

#include <gtest/gtest.h>

#include "qrel/propositional/exact.h"
#include "qrel/propositional/naive_mc.h"

namespace qrel {
namespace {

std::vector<Rational> Uniform(int n) {
  return std::vector<Rational>(static_cast<size_t>(n), Rational::Half());
}

// Random kDNF generator shared by the agreement tests.
Dnf RandomDnf(Rng* rng, int variables, int terms, int max_width) {
  Dnf dnf(variables);
  for (int t = 0; t < terms; ++t) {
    std::vector<PropLiteral> term;
    int width = 1 + static_cast<int>(rng->NextBelow(
                        static_cast<uint64_t>(max_width)));
    for (int l = 0; l < width; ++l) {
      term.push_back({static_cast<int>(
                          rng->NextBelow(static_cast<uint64_t>(variables))),
                      rng->NextBernoulli(0.5)});
    }
    dnf.AddTerm(std::move(term));
  }
  return dnf;
}

TEST(KarpLubyTest, DegenerateCases) {
  KarpLubyOptions options;
  // No terms: probability 0, no sampling.
  Dnf empty(3);
  KarpLubyResult result = *KarpLubyProbability(empty, Uniform(3), options);
  EXPECT_EQ(result.estimate, 0.0);
  EXPECT_EQ(result.samples, 0u);

  // Constant-true term: probability 1, no sampling.
  Dnf tautology(2);
  tautology.AddTerm({});
  result = *KarpLubyProbability(tautology, Uniform(2), options);
  EXPECT_EQ(result.estimate, 1.0);

  // All terms impossible (variable probability 0).
  Dnf dead(1);
  dead.AddTerm({{0, true}});
  result = *KarpLubyProbability(dead, {Rational(0)}, options);
  EXPECT_EQ(result.estimate, 0.0);
}

TEST(KarpLubyTest, RejectsBadArguments) {
  Dnf dnf(2);
  dnf.AddTerm({{0, true}});
  KarpLubyOptions options;
  EXPECT_FALSE(KarpLubyProbability(dnf, Uniform(3), options).ok());
  options.epsilon = 0.0;
  EXPECT_FALSE(KarpLubyProbability(dnf, Uniform(2), options).ok());
  options.epsilon = 0.1;
  options.delta = 1.5;
  EXPECT_FALSE(KarpLubyProbability(dnf, Uniform(2), options).ok());
  options.delta = 0.1;
  EXPECT_FALSE(
      KarpLubyProbability(dnf, {Rational(3, 2), Rational(1, 2)}, options)
          .ok());
}

TEST(KarpLubyTest, SampleBoundFormula) {
  // t = ceil(4 m ln(2/δ) / ε²).
  EXPECT_EQ(KarpLubySampleBound(1, 1.0, 2.0 / std::exp(1.0)), 4u);
  EXPECT_GE(KarpLubySampleBound(10, 0.1, 0.05), 10u * 400u);
}

TEST(KarpLubyTest, SingleTermIsExactUpToSampling) {
  // One term: every sample satisfies exactly that term, so the estimate is
  // exactly S = Pr[T].
  Dnf dnf(3);
  dnf.AddTerm({{0, true}, {1, false}});
  std::vector<Rational> prob = {Rational(1, 3), Rational(1, 4),
                                Rational(1, 2)};
  KarpLubyOptions options;
  options.fixed_samples = 50;
  KarpLubyResult result = *KarpLubyProbability(dnf, prob, options);
  EXPECT_DOUBLE_EQ(result.estimate, (Rational(1, 3) * Rational(3, 4))
                                        .ToDouble());
}

class KarpLubyAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KarpLubyAgreementTest, WithinRelativeErrorOfExact) {
  Rng rng(GetParam());
  for (int round = 0; round < 5; ++round) {
    int variables = 4 + static_cast<int>(rng.NextBelow(8));
    Dnf dnf = RandomDnf(&rng, variables,
                        2 + static_cast<int>(rng.NextBelow(10)), 3);
    std::vector<Rational> prob;
    for (int v = 0; v < variables; ++v) {
      int64_t den = 2 + static_cast<int64_t>(rng.NextBelow(8));
      int64_t num = 1 + static_cast<int64_t>(rng.NextBelow(
                            static_cast<uint64_t>(den) - 1));
      prob.push_back(Rational(num, den));
    }
    double exact = ShannonDnfProbability(dnf, prob).ToDouble();

    for (auto estimator : {KarpLubyOptions::Estimator::kCoverage,
                           KarpLubyOptions::Estimator::kCanonical}) {
      KarpLubyOptions options;
      options.epsilon = 0.05;
      options.delta = 0.01;
      options.seed = rng.NextUint64();
      options.estimator = estimator;
      KarpLubyResult result = *KarpLubyProbability(dnf, prob, options);
      if (exact == 0.0) {
        EXPECT_EQ(result.estimate, 0.0);
      } else {
        // Allow 3x the requested ε to keep the test deterministic-safe.
        EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon * exact);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KarpLubyAgreementTest,
                         ::testing::Values(101u, 202u, 303u, 404u));

TEST(KarpLubyTest, CountMatchesExactCount) {
  Rng rng(77);
  Dnf dnf = RandomDnf(&rng, 10, 8, 3);
  double exact = CountDnfModels(dnf).ToDouble();
  KarpLubyOptions options;
  options.epsilon = 0.05;
  options.delta = 0.01;
  options.seed = 7;
  KarpLubyResult result = *KarpLubyCount(dnf, options);
  if (exact == 0.0) {
    EXPECT_EQ(result.estimate, 0.0);
  } else {
    EXPECT_NEAR(result.estimate, exact, 3 * options.epsilon * exact);
  }
}

TEST(KarpLubyTest, RareEventBeatsNaiveMonteCarloAtEqualBudget) {
  // A conjunction of 18 positive literals at p = 1/2: Pr = 2^-18 ≈ 4e-6.
  // With 20k samples, naive MC almost surely sees zero hits; Karp-Luby is
  // exact here (single term) whatever the budget.
  Dnf dnf(18);
  std::vector<PropLiteral> term;
  for (int v = 0; v < 18; ++v) {
    term.push_back({v, true});
  }
  dnf.AddTerm(std::move(term));
  double exact = std::ldexp(1.0, -18);

  KarpLubyOptions kl;
  kl.fixed_samples = 20000;
  kl.seed = 5;
  KarpLubyResult kl_result = *KarpLubyProbability(dnf, Uniform(18), kl);
  EXPECT_NEAR(kl_result.estimate, exact, 1e-12);

  NaiveMcResult mc_result =
      *NaiveMcProbability(dnf, Uniform(18), 20000, 5);
  EXPECT_EQ(mc_result.hits, 0u);  // the strawman misses the event entirely
}

TEST(KarpLubyTest, DeterministicForFixedSeed) {
  Rng rng(123);
  Dnf dnf = RandomDnf(&rng, 8, 6, 3);
  KarpLubyOptions options;
  options.seed = 42;
  options.fixed_samples = 1000;
  KarpLubyResult a = *KarpLubyProbability(dnf, Uniform(8), options);
  KarpLubyResult b = *KarpLubyProbability(dnf, Uniform(8), options);
  EXPECT_EQ(a.estimate, b.estimate);
}

// Embeds `dnf` into `variables` >= dnf.variable_count() variables, variable
// v going to 3v + 1, and pads the new variables with probabilities of
// their own. Ascending variable order is preserved.
Dnf Padded(const Dnf& dnf, int variables) {
  Dnf padded(variables);
  for (const std::vector<PropLiteral>& term : dnf.terms()) {
    std::vector<PropLiteral> literals;
    for (const PropLiteral& literal : term) {
      literals.push_back({3 * literal.variable + 1, literal.positive});
    }
    padded.AddTerm(std::move(literals));
  }
  return padded;
}

std::vector<Rational> PaddedProbabilities(const std::vector<Rational>& probs,
                                          int variables) {
  std::vector<Rational> padded(static_cast<size_t>(variables),
                               Rational(2, 7));
  for (size_t v = 0; v < probs.size(); ++v) {
    padded[3 * v + 1] = probs[v];
  }
  return padded;
}

void ExpectBitIdentical(const KarpLubyResult& a, const KarpLubyResult& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.total_term_weight, b.total_term_weight);
}

TEST(KarpLubyRenumberingTest, UnusedVariablesLeaveTheEstimateBitIdentical) {
  // The sampler draws only variables some term mentions, in ascending
  // order, so a DNF over the lineage alone and the same DNF over a larger
  // variable space give the same sample stream.
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    Dnf compact = RandomDnf(&rng, 7, 5, 3);
    std::vector<Rational> probs;
    for (int v = 0; v < 7; ++v) {
      probs.push_back(Rational(1 + static_cast<int64_t>(rng.NextBelow(8)), 9));
    }
    probs[3] = Rational(1);  // deterministic variables draw nothing
    int variables = 3 * 7 + 5;
    Dnf padded = Padded(compact, variables);
    for (KarpLubyOptions::Estimator estimator :
         {KarpLubyOptions::Estimator::kCoverage,
          KarpLubyOptions::Estimator::kCanonical}) {
      KarpLubyOptions options;
      options.seed = 1000 + static_cast<uint64_t>(trial);
      options.fixed_samples = 2000;
      options.estimator = estimator;
      StatusOr<KarpLubyResult> a = KarpLubyProbability(compact, probs, options);
      StatusOr<KarpLubyResult> b = KarpLubyProbability(
          padded, PaddedProbabilities(probs, variables), options);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectBitIdentical(*a, *b);
    }
  }
}

TEST(KarpLubyRenumberingTest, DeadTermVariablesAreStillDrawn) {
  // Term 2 has weight 2^-1200, which is 0.0 as a double, so it is never
  // picked; its 30 variables appear in no live term. They are still drawn
  // on every sample, so the DNF with the dead term and the same DNF padded
  // with unused variables agree bit for bit, while dropping the dead term
  // changes the stream.
  Dnf with_dead(33);
  with_dead.AddTerm({{0, true}, {1, false}});
  with_dead.AddTerm({{0, true}, {2, true}});
  std::vector<PropLiteral> dead;
  for (int v = 3; v < 33; ++v) {
    dead.push_back({v, true});
  }
  with_dead.AddTerm(dead);
  std::vector<Rational> probs(33, Rational(1, int64_t{1} << 40));
  probs[0] = Rational(1, 3);
  probs[1] = Rational(1, 4);
  probs[2] = Rational(1, 2);
  KarpLubyOptions options;
  options.seed = 5;
  options.fixed_samples = 4000;
  KarpLubyResult a = *KarpLubyProbability(with_dead, probs, options);
  KarpLubyResult b = *KarpLubyProbability(
      Padded(with_dead, 3 * 33 + 2), PaddedProbabilities(probs, 3 * 33 + 2),
      options);
  ExpectBitIdentical(a, b);
  // (1/3)(3/4) + (1/3)(1/2); the dead term adds nothing.
  EXPECT_DOUBLE_EQ(a.total_term_weight, 5.0 / 12.0);
  // Pr = (1/3)(1 - (1/4)(1/2)) = 7/24.
  EXPECT_NEAR(a.estimate, 7.0 / 24.0, 0.03);

  Dnf live(3);
  live.AddTerm({{0, true}, {1, false}});
  live.AddTerm({{0, true}, {2, true}});
  KarpLubyResult c = *KarpLubyProbability(
      live, {probs[0], probs[1], probs[2]}, options);
  EXPECT_EQ(c.total_term_weight, a.total_term_weight);
  EXPECT_NE(c.estimate, a.estimate);
  EXPECT_NEAR(c.estimate, 7.0 / 24.0, 0.03);
}

}  // namespace
}  // namespace qrel
