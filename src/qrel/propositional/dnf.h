// Propositional formulas in disjunctive normal form over dense integer
// variables, with per-variable truth probabilities.
//
// This is the target language of the Theorem 5.4 grounding (variables are
// error-model entry ids there) and the input language of the Karp-Luby
// estimators (Theorem 5.2), the exact baselines, and the Theorem 5.3
// reduction.

#ifndef QREL_PROPOSITIONAL_DNF_H_
#define QREL_PROPOSITIONAL_DNF_H_

#include <cstdint>
#include <vector>

#include "qrel/util/rational.h"
#include "qrel/util/rng.h"

namespace qrel {

struct PropLiteral {
  int variable = 0;
  bool positive = true;

  bool operator==(const PropLiteral& other) const {
    return variable == other.variable && positive == other.positive;
  }
  bool operator<(const PropLiteral& other) const {
    if (variable != other.variable) return variable < other.variable;
    return positive < other.positive;
  }
};

// One truth assignment; index i holds the value of variable i.
using PropAssignment = std::vector<uint8_t>;

// A DNF formula: a disjunction of consistent conjunctive terms.
class Dnf {
 public:
  explicit Dnf(int variable_count);

  int variable_count() const { return variable_count_; }
  int term_count() const { return static_cast<int>(terms_.size()); }
  const std::vector<PropLiteral>& term(int index) const {
    return terms_[static_cast<size_t>(index)];
  }
  const std::vector<std::vector<PropLiteral>>& terms() const {
    return terms_;
  }

  // Normalizes the term (sorts by variable, merges duplicates) and appends
  // it. Returns false — and adds nothing — if the term contains a
  // complementary pair of literals (an inconsistent term contributes
  // nothing to a disjunction). The empty term is the constant true and is
  // allowed. Variables must be in [0, variable_count).
  bool AddTerm(std::vector<PropLiteral> literals);

  // The k of kDNF: maximum number of literals in any term (0 if no terms).
  int Width() const;

  // Whether `term(index)` is satisfied by `assignment`.
  bool TermSatisfied(int index, const PropAssignment& assignment) const;
  // Whether any term is satisfied.
  bool Eval(const PropAssignment& assignment) const;
  // Index of the first satisfied term, or -1.
  int FirstSatisfiedTerm(const PropAssignment& assignment) const;
  // Number of satisfied terms.
  int SatisfiedTermCount(const PropAssignment& assignment) const;

  // Pr[term] under independent per-variable probabilities `prob_true`
  // (which must have variable_count() entries): the product over the
  // term's literals. The empty term has probability 1.
  Rational TermProbability(int index,
                           const std::vector<Rational>& prob_true) const;

  // Removes terms subsumed by another term (T ⊆ T' as literal sets makes
  // T' redundant: T' ⟹ T). Preserves Pr[φ] exactly while shrinking the
  // term count m — and with it the Karp-Luby sample bound 4m·ln(2/δ)/ε².
  // Returns the number of removed terms. O(m²·width).
  int RemoveSubsumedTerms();

 private:
  int variable_count_;
  std::vector<std::vector<PropLiteral>> terms_;
};

class Fingerprint;

// Mixes the full instance content — every term's literals and every
// variable's probability, not just the counts — into `fp`, so two DNF
// instances with the same shape but different formulas or probabilities
// get different resume fingerprints. `prob_true` must have
// dnf.variable_count() entries.
void MixDnfContent(const Dnf& dnf, const std::vector<Rational>& prob_true,
                   Fingerprint* fp);

}  // namespace qrel

#endif  // QREL_PROPOSITIONAL_DNF_H_
