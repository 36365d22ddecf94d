// The benchmark's own exact answers, computed without qrel's algorithms.
//
// For the first-order queries the benchmark grounds the query itself into
// a lineage DNF over the database's uncertain facts and computes its
// probability by splitting the lineage into independent components (no
// shared fact) and enumerating each component's assignments in integer
// arithmetic (every error probability is k/16). ∀x∃y queries whose rows
// share no fact are the product of their rows' lineage probabilities. The
// Datalog transitive closure is checked by enumerating every world of the
// queried relation. Only qrel's Rational/BigInt types carry the results.

#ifndef QREL_PERFBENCH_ORACLE_H_
#define QREL_PERFBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "dbgen.h"
#include "qrel/util/rational.h"

namespace perfbench {

struct Lit {
  int fact = 0;
  bool positive = true;
};

// A DNF over uncertain facts. `certain` marks a term whose every literal
// holds in all worlds.
struct Lineage {
  std::vector<std::vector<Lit>> terms;
  bool certain = false;
};

// Builds one term from atoms: a positive atom that is no fact kills the
// term, a certain one drops out; dually for negated atoms.
class TermBuilder {
 public:
  explicit TermBuilder(const DbSpec& db) : db_(db) {}
  TermBuilder& Pos(const std::string& relation, std::vector<int> args);
  TermBuilder& Neg(const std::string& relation, std::vector<int> args);
  void AddTo(Lineage* lineage) const;

 private:
  const DbSpec& db_;
  std::vector<Lit> lits_;
  bool dead_ = false;
};

// Pr[lineage] exactly, and its truth in the observed database. Fails
// (returns false) when a component has more than 22 facts.
struct Exact {
  qrel::Rational prob_true;
  bool observed = false;
  // R of a Boolean query: Pr[its answer equals the observed one].
  qrel::Rational Reliability() const {
    return observed ? prob_true : qrel::Rational::One() - prob_true;
  }
};
bool LineageProbability(const DbSpec& db, const Lineage& lineage, Exact* out);

// The Boolean query shapes the workloads use (see workloads.cc).
// ∃xy R(x,y) ∧ R(y,x) [∧ (¬)U(x)].
Lineage TwoCycleLineage(const DbSpec& db, const std::string& rel,
                        const std::string& unary = "", bool negated = false);
// ∃xy E(x,y) ∧ S(x) ∧ S(y).
Lineage SelfJoinPathLineage(const DbSpec& db);
// ∃xy R(x,y) ∧ ¬R(y,x): the negation of ∀xy R(x,y) → R(y,x).
Lineage AsymmetricLineage(const DbSpec& db, const std::string& rel);
// ∃xy U(x) ∧ B(x,y) (unary_first) or ∃xy B(x,y) ∧ U(y).
Lineage UnaryBinaryLineage(const DbSpec& db, const std::string& unary,
                           const std::string& binary, bool unary_first);
// ∃xyz A(x,y) ∧ B(y,z) (chain) or ∃xy A(x,y) ∧ B(y,x) (!chain).
Lineage BinaryJoinLineage(const DbSpec& db, const std::string& a,
                          const std::string& b, bool chain);
// ∀x [U(x) ∨] ∃y E(x,y), as the product of its rows.
bool ForallExistsExact(const DbSpec& db, const std::string& unary,
                       Exact* out);
// R of the binary Datalog predicate Path = transitive closure of `rel`,
// by enumerating the worlds of `rel` (at most 2^16).
bool TransitiveClosureReliability(const DbSpec& db, const std::string& rel,
                                  qrel::Rational* out);

}  // namespace perfbench

#endif  // QREL_PERFBENCH_ORACLE_H_
