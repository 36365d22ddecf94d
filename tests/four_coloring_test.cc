#include "qrel/reductions/four_coloring.h"

#include <gtest/gtest.h>

#include "qrel/core/absolute.h"

namespace qrel {
namespace {

TEST(FourColoringTest, SmallGraphsByHand) {
  EXPECT_TRUE(IsFourColorable(CompleteGraph(2)));
  EXPECT_TRUE(IsFourColorable(CompleteGraph(3)));
  EXPECT_TRUE(IsFourColorable(CompleteGraph(4)));
  EXPECT_FALSE(IsFourColorable(CompleteGraph(5)));
  EXPECT_FALSE(IsFourColorable(CompleteGraph(6)));
  EXPECT_TRUE(IsFourColorable(CycleGraph(4)));
  EXPECT_TRUE(IsFourColorable(CycleGraph(5)));
  EXPECT_TRUE(IsFourColorable(SubdividedK5()));
}

TEST(FourColoringTest, SelfLoopNeverColorable) {
  Graph graph;
  graph.vertex_count = 2;
  graph.edges = {{0, 0}};
  EXPECT_FALSE(IsFourColorable(graph));
}

TEST(FourColoringTest, GeneratorsShape) {
  Graph k4 = CompleteGraph(4);
  EXPECT_EQ(k4.edges.size(), 6u);
  Graph c5 = CycleGraph(5);
  EXPECT_EQ(c5.edges.size(), 5u);
  Graph sk5 = SubdividedK5();
  EXPECT_EQ(sk5.vertex_count, 15);
  EXPECT_EQ(sk5.edges.size(), 20u);

  Rng rng(3);
  Graph random = RandomGraph(6, 0.5, &rng);
  EXPECT_EQ(random.vertex_count, 6);
  for (const auto& [u, v] : random.edges) {
    EXPECT_LT(u, v);
  }
}

TEST(Lemma59ReductionTest, DatabaseShape) {
  Graph triangle = CompleteGraph(3);
  Lemma59Instance instance = BuildLemma59Instance(triangle);
  const UnreliableDatabase& db = instance.database;
  EXPECT_EQ(db.universe_size(), 3);
  int e = *db.vocabulary().FindRelation("E");
  EXPECT_TRUE(db.observed().AtomTrue(e, {0, 1}));
  EXPECT_TRUE(db.observed().AtomTrue(e, {1, 0}));  // symmetric closure
  // 2 colour bits per vertex, all uncertain with probability 1/2.
  EXPECT_EQ(db.UncertainEntries().size(), 6u);
}

// The reduction's defining equivalence, cross-validated against the
// brute-force colouring search: G 4-colourable ⟺ 𝔇 ∉ AR_ψ.
void ExpectReductionMatches(const Graph& graph) {
  Lemma59Instance instance = BuildLemma59Instance(graph);
  AbsoluteReliabilityResult result =
      *AbsoluteReliabilityByWitness(instance.query, instance.database);
  EXPECT_EQ(IsFourColorable(graph), !result.absolutely_reliable)
      << "V=" << graph.vertex_count << " E=" << graph.edges.size();
}

TEST(Lemma59ReductionTest, ColorableGraphsAreNotAbsolutelyReliable) {
  ExpectReductionMatches(CompleteGraph(2));
  ExpectReductionMatches(CompleteGraph(4));
  ExpectReductionMatches(CycleGraph(5));
}

TEST(Lemma59ReductionTest, NonColorableGraphsAreAbsolutelyReliable) {
  ExpectReductionMatches(CompleteGraph(5));
}

TEST(Lemma59ReductionTest, RandomGraphsMatch) {
  Rng rng(20240102);
  for (int round = 0; round < 4; ++round) {
    Graph graph = RandomGraph(5, 0.6, &rng);
    if (graph.edges.empty()) {
      continue;  // the lemma's footnote excludes edgeless graphs
    }
    ExpectReductionMatches(graph);
  }
}

TEST(Lemma59ReductionTest, WitnessIsAProperColoring) {
  // For a 4-colourable graph, the witness world encodes a proper
  // 4-colouring: decode it and check every edge.
  Graph graph = CompleteGraph(4);
  Lemma59Instance instance = BuildLemma59Instance(graph);
  AbsoluteReliabilityResult result =
      *AbsoluteReliabilityByWitness(instance.query, instance.database);
  ASSERT_FALSE(result.absolutely_reliable);
  ASSERT_TRUE(result.witness.has_value());

  const UnreliableDatabase& db = instance.database;
  int r1 = *db.vocabulary().FindRelation("R1");
  int r2 = *db.vocabulary().FindRelation("R2");
  WorldIndex index(db);
  WorldView view(index, *result.witness);
  auto color = [&](int v) {
    Tuple t{static_cast<Element>(v)};
    return (view.AtomTrue(r1, t) ? 1 : 0) + (view.AtomTrue(r2, t) ? 2 : 0);
  };
  for (const auto& [u, v] : graph.edges) {
    EXPECT_NE(color(u), color(v)) << u << "-" << v;
  }
}

}  // namespace
}  // namespace qrel

#include "qrel/core/approx.h"
#include "qrel/core/reliability.h"

namespace qrel {
namespace {

TEST(Lemma510Test, AbsoluteErrorCannotResolveTinyExpectedErrors) {
  // Lemma 5.10's moral: an absolute-error approximation of H_ψ cannot
  // decide AR_ψ, because on Lemma 5.9 instances H is either 0 (graph not
  // 4-colourable) or positive-but-tiny (#colourings/4^V). An FPTRAS for H
  // would decide 4-colourability — hence NP ⊆ BPP. We exhibit the gap:
  // the two instances below have H = 0 and H = 744/1024, respectively;
  // scaled instances push the positive H below any fixed absolute ε while
  // the exact (exponential) computation still separates them.
  Lemma59Instance yes = BuildLemma59Instance(CompleteGraph(4));   // 4-col
  Lemma59Instance no = BuildLemma59Instance(CompleteGraph(5));    // not

  Rational h_yes = ExactReliability(yes.query, yes.database)->expected_error;
  Rational h_no = ExactReliability(no.query, no.database)->expected_error;
  EXPECT_GT(h_yes, Rational(0));  // some proper colouring exists
  EXPECT_TRUE(h_no.IsZero());     // every colouring is improper

  // The absolute-error estimator (legitimate per Cor. 5.5) sees both
  // instances as "H ≈ 0" at ε = 0.4: it cannot implement the decision.
  ApproxOptions options;
  options.epsilon = 0.4;
  options.delta = 0.1;
  options.seed = 3;
  double r_yes =
      ReliabilityAbsoluteApprox(yes.query, yes.database, options)->estimate;
  double r_no =
      ReliabilityAbsoluteApprox(no.query, no.database, options)->estimate;
  // Both reliabilities are within ε of 1 - H; the *absolute* gap between
  // the instances is |h_yes| which shrinks as 4^{-V}: for larger graphs it
  // drops under any fixed ε. Here we just document that both estimates are
  // legal under the absolute guarantee.
  EXPECT_NEAR(r_yes, 1.0 - h_yes.ToDouble(), 3 * options.epsilon);
  EXPECT_NEAR(r_no, 1.0, 3 * options.epsilon);
}

}  // namespace
}  // namespace qrel
