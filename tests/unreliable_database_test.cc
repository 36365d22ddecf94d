#include "qrel/prob/unreliable_database.h"
#include "qrel/prob/world_enumerator.h"

#include <map>
#include <memory>

#include <gtest/gtest.h>

namespace qrel {
namespace {

// A 3-element database with one binary relation E = {(0,1), (1,2)} and a
// unary relation S = {0}.
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

TEST(UnreliableDatabaseTest, NuOfReliableAtomsIsObservedTruth) {
  UnreliableDatabase db = SmallDatabase();
  EXPECT_TRUE(db.NuTrue(GroundAtom{0, {0, 1}}).IsOne());
  EXPECT_TRUE(db.NuTrue(GroundAtom{0, {2, 2}}).IsZero());
}

TEST(UnreliableDatabaseTest, NuFlipsWithObservedTruth) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 4));  // observed true
  db.SetErrorProbability(GroundAtom{0, {2, 0}}, Rational(1, 4));  // observed false
  EXPECT_EQ(db.NuTrue(GroundAtom{0, {0, 1}}), Rational(3, 4));
  EXPECT_EQ(db.NuTrue(GroundAtom{0, {2, 0}}), Rational(1, 4));
}

TEST(UnreliableDatabaseTest, StatusOfClassifiesAtoms) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(0));

  int entry = -1;
  EXPECT_EQ(db.StatusOf(GroundAtom{0, {0, 1}}, &entry),
            UnreliableDatabase::AtomStatus::kUncertain);
  EXPECT_EQ(entry, 0);
  // Observed true with error 1: certainly false in the actual database.
  EXPECT_EQ(db.StatusOf(GroundAtom{1, {0}}, nullptr),
            UnreliableDatabase::AtomStatus::kCertainFalse);
  // Observed false with error 0.
  EXPECT_EQ(db.StatusOf(GroundAtom{1, {1}}, nullptr),
            UnreliableDatabase::AtomStatus::kCertainFalse);
  // Reliable atoms keep their observed truth.
  EXPECT_EQ(db.StatusOf(GroundAtom{0, {1, 2}}, nullptr),
            UnreliableDatabase::AtomStatus::kCertainTrue);
  EXPECT_EQ(db.StatusOf(GroundAtom{0, {2, 2}}, nullptr),
            UnreliableDatabase::AtomStatus::kCertainFalse);
}

TEST(UnreliableDatabaseTest, WorldProbabilitiesSumToOne) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 7));
  db.SetErrorProbability(GroundAtom{1, {2}}, Rational(2, 5));

  // The integer weights g·ν(𝔅) sum to g, and weight/g is ν(𝔅).
  BigInt total;
  int worlds = 0;
  for (WorldEnumerator walk(db); !walk.done(); walk.Next()) {
    ++worlds;
    total += walk.Weight();
    EXPECT_EQ(Rational(walk.Weight(), walk.g()),
              db.WorldProbability(walk.world()));
  }
  EXPECT_EQ(worlds, 8);
  EXPECT_EQ(total, db.ComputeG());
}

TEST(UnreliableDatabaseTest, CertainFlipsAppearInEveryWorld) {
  UnreliableDatabase db = SmallDatabase();
  int flip_id = db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));

  for (WorldEnumerator walk(db); !walk.done(); walk.Next()) {
    EXPECT_TRUE(walk.world().Flipped(flip_id));
    EXPECT_EQ(Rational(walk.Weight(), walk.g()), Rational(1, 2));
  }
}

TEST(UnreliableDatabaseTest, ComputeGIsProductOfDenominators) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 6));
  db.SetErrorProbability(GroundAtom{1, {2}}, Rational(2, 5));
  EXPECT_EQ(db.ComputeG().ToInt64(), 4 * 6 * 5);
  // The paper's gcd loop computes lcm(4, 6, 5) = 60.
  EXPECT_EQ(db.ComputeGPaperLcm().ToInt64(), 60);
}

TEST(UnreliableDatabaseTest, PaperGcdLoopIsInsufficientErratum) {
  // Erratum witness: with μ-values 1/4, 3/7, 1/6 the paper's g = lcm = 84
  // does not scale the all-flipped world's probability (1/4)(3/7)(1/6) =
  // 1/56 to an integer, while the product-of-denominators g does.
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{0, {1, 2}}, Rational(3, 7));
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 6));

  BigInt paper_g = db.ComputeGPaperLcm();
  EXPECT_EQ(paper_g.ToInt64(), 84);
  bool paper_g_sufficient = true;
  for (WorldEnumerator walk(db); !walk.done(); walk.Next()) {
    Rational scaled = db.WorldProbability(walk.world()) *
                      Rational(paper_g, BigInt(1));
    if (!scaled.denominator().IsOne()) {
      paper_g_sufficient = false;
    }
  }
  EXPECT_FALSE(paper_g_sufficient);
}

TEST(UnreliableDatabaseTest, GScalesEveryWorldProbabilityToAnInteger) {
  // The defining property of g in Theorem 4.2: ν(𝔅)·g ∈ ℕ for all 𝔅.
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{0, {1, 2}}, Rational(3, 7));
  db.SetErrorProbability(GroundAtom{1, {0}}, Rational(1, 6));
  BigInt g = db.ComputeG();
  for (WorldEnumerator walk(db); !walk.done(); walk.Next()) {
    Rational scaled =
        db.WorldProbability(walk.world()) * Rational(g, BigInt(1));
    EXPECT_TRUE(scaled.denominator().IsOne()) << scaled.ToString();
    EXPECT_EQ(scaled, Rational(walk.Weight(), BigInt(1)));
  }
}

TEST(UnreliableDatabaseTest, ComputeGWithNoEntriesIsOne) {
  UnreliableDatabase db = SmallDatabase();
  EXPECT_TRUE(db.ComputeG().IsOne());
}

TEST(UnreliableDatabaseTest, MaterializeWorldAppliesFlips) {
  UnreliableDatabase db = SmallDatabase();
  int e01 = db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 2));
  int s1 = db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));

  World world(db.model().entry_count());
  world.SetFlipped(e01, true);  // observed true -> false
  world.SetFlipped(s1, true);   // observed false -> true
  Structure actual = db.MaterializeWorld(world);
  EXPECT_FALSE(actual.AtomTrue(0, {0, 1}));
  EXPECT_TRUE(actual.AtomTrue(0, {1, 2}));
  EXPECT_TRUE(actual.AtomTrue(1, {1}));

  // WorldView agrees with the materialized structure on every atom.
  WorldIndex index(db);
  WorldView view(index, world);
  for (Element i = 0; i < 3; ++i) {
    EXPECT_EQ(view.AtomTrue(1, {i}), actual.AtomTrue(1, {i}));
    for (Element j = 0; j < 3; ++j) {
      EXPECT_EQ(view.AtomTrue(0, {i, j}), actual.AtomTrue(0, {i, j}));
    }
  }
}

TEST(UnreliableDatabaseTest, SampleWorldFrequencyMatchesMu) {
  UnreliableDatabase db = SmallDatabase();
  int id = db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 4));
  int sure = db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1));

  Rng rng(2024);
  const int trials = 20000;
  int flips = 0;
  for (int i = 0; i < trials; ++i) {
    World world = db.SampleWorld(&rng);
    EXPECT_TRUE(world.Flipped(sure));
    flips += world.Flipped(id) ? 1 : 0;
  }
  double freq = static_cast<double>(flips) / trials;
  EXPECT_NEAR(freq, 0.25, 0.02);
}

TEST(UnreliableDatabaseTest, SampledWorldDistributionMatchesEnumeration) {
  UnreliableDatabase db = SmallDatabase();
  db.SetErrorProbability(GroundAtom{0, {0, 1}}, Rational(1, 3));
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 5));

  // Empirical distribution over the four worlds.
  Rng rng(7);
  std::map<std::pair<bool, bool>, int> counts;
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) {
    World world = db.SampleWorld(&rng);
    counts[{world.Flipped(0), world.Flipped(1)}]++;
  }
  for (WorldEnumerator walk(db); !walk.done(); walk.Next()) {
    double expected = Rational(walk.Weight(), walk.g()).ToDouble();
    const World& world = walk.world();
    double actual =
        counts[{world.Flipped(0), world.Flipped(1)}] / double{trials};
    EXPECT_NEAR(actual, expected, 0.015);
  }
}

TEST(WorldTest, FlipCountAndEquality) {
  World a(130);
  World b(130);
  EXPECT_TRUE(a == b);
  a.SetFlipped(0, true);
  a.SetFlipped(64, true);
  a.SetFlipped(129, true);
  EXPECT_EQ(a.FlipCount(), 3);
  EXPECT_FALSE(a == b);
  a.SetFlipped(64, false);
  EXPECT_EQ(a.FlipCount(), 2);
  EXPECT_TRUE(a.Flipped(0));
  EXPECT_FALSE(a.Flipped(64));
  EXPECT_TRUE(a.Flipped(129));
}

}  // namespace
}  // namespace qrel

namespace qrel {
namespace {

std::shared_ptr<Vocabulary> MarginalVocabulary() {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("R", 1);
  return vocabulary;
}

TEST(FromMarginalsTest, MostLikelyWorldBecomesObserved) {
  auto vocabulary = MarginalVocabulary();
  UnreliableDatabase db = UnreliableDatabase::FromMarginals(
      vocabulary, 4,
      {{GroundAtom{0, {0}}, Rational(3, 4)},   // likely true
       {GroundAtom{0, {1}}, Rational(1, 4)},   // likely false
       {GroundAtom{0, {2}}, Rational(1, 2)},   // tie -> observed true
       {GroundAtom{0, {3}}, Rational(1)}});    // certainly true
  EXPECT_TRUE(db.observed().AtomTrue(0, {0}));
  EXPECT_FALSE(db.observed().AtomTrue(0, {1}));
  EXPECT_TRUE(db.observed().AtomTrue(0, {2}));
  EXPECT_TRUE(db.observed().AtomTrue(0, {3}));
  // The marginals are reproduced exactly.
  EXPECT_EQ(db.NuTrue(GroundAtom{0, {0}}), Rational(3, 4));
  EXPECT_EQ(db.NuTrue(GroundAtom{0, {1}}), Rational(1, 4));
  EXPECT_EQ(db.NuTrue(GroundAtom{0, {2}}), Rational(1, 2));
  EXPECT_TRUE(db.NuTrue(GroundAtom{0, {3}}).IsOne());
  // Certain atoms carry no error entry with positive probability.
  EXPECT_TRUE(db.model().ErrorOf(GroundAtom{0, {3}}).IsZero());
}

TEST(FromMarginalsTest, ErrorsAreMinimized) {
  // μ = min(ν, 1-ν) ≤ 1/2 always: the observed database is the maximum
  // likelihood world.
  auto vocabulary = MarginalVocabulary();
  UnreliableDatabase db = UnreliableDatabase::FromMarginals(
      vocabulary, 2,
      {{GroundAtom{0, {0}}, Rational(9, 10)},
       {GroundAtom{0, {1}}, Rational(2, 5)}});
  EXPECT_EQ(db.model().ErrorOf(GroundAtom{0, {0}}), Rational(1, 10));
  EXPECT_EQ(db.model().ErrorOf(GroundAtom{0, {1}}), Rational(2, 5));
}

TEST(PositiveOnlyModelTest, DetectsRestrictedModel) {
  auto vocabulary = MarginalVocabulary();
  Structure observed(vocabulary, 3);
  observed.AddFact(0, {0});
  UnreliableDatabase db(std::move(observed));
  EXPECT_TRUE(db.IsPositiveOnlyModel());  // no errors at all
  db.SetErrorProbability(GroundAtom{0, {0}}, Rational(1, 4));
  EXPECT_TRUE(db.IsPositiveOnlyModel());  // error on a positive fact
  db.SetErrorProbability(GroundAtom{0, {1}}, Rational(0));
  EXPECT_TRUE(db.IsPositiveOnlyModel());  // zero error on negative is fine
  db.SetErrorProbability(GroundAtom{0, {2}}, Rational(1, 3));
  EXPECT_FALSE(db.IsPositiveOnlyModel());  // unreliable negative data
}

}  // namespace
}  // namespace qrel
