#include "qrel/propositional/dnf.h"

#include <algorithm>

#include "qrel/util/check.h"
#include "qrel/util/snapshot.h"

namespace qrel {

Dnf::Dnf(int variable_count) : variable_count_(variable_count) {
  QREL_CHECK_GE(variable_count, 0);
}

bool Dnf::AddTerm(std::vector<PropLiteral> literals) {
  std::sort(literals.begin(), literals.end());
  std::vector<PropLiteral> normalized;
  normalized.reserve(literals.size());
  for (const PropLiteral& literal : literals) {
    QREL_CHECK_GE(literal.variable, 0);
    QREL_CHECK_LT(literal.variable, variable_count_);
    if (!normalized.empty() &&
        normalized.back().variable == literal.variable) {
      if (normalized.back().positive != literal.positive) {
        return false;  // complementary pair: inconsistent term
      }
      continue;  // duplicate
    }
    normalized.push_back(literal);
  }
  terms_.push_back(std::move(normalized));
  return true;
}

int Dnf::Width() const {
  size_t width = 0;
  for (const std::vector<PropLiteral>& term : terms_) {
    width = std::max(width, term.size());
  }
  return static_cast<int>(width);
}

bool Dnf::TermSatisfied(int index, const PropAssignment& assignment) const {
  for (const PropLiteral& literal : terms_[static_cast<size_t>(index)]) {
    bool value = assignment[static_cast<size_t>(literal.variable)] != 0;
    if (value != literal.positive) {
      return false;
    }
  }
  return true;
}

bool Dnf::Eval(const PropAssignment& assignment) const {
  return FirstSatisfiedTerm(assignment) >= 0;
}

int Dnf::FirstSatisfiedTerm(const PropAssignment& assignment) const {
  for (int i = 0; i < term_count(); ++i) {
    if (TermSatisfied(i, assignment)) {
      return i;
    }
  }
  return -1;
}

int Dnf::SatisfiedTermCount(const PropAssignment& assignment) const {
  int count = 0;
  for (int i = 0; i < term_count(); ++i) {
    if (TermSatisfied(i, assignment)) {
      ++count;
    }
  }
  return count;
}

Rational Dnf::TermProbability(int index,
                              const std::vector<Rational>& prob_true) const {
  QREL_CHECK_EQ(static_cast<int>(prob_true.size()), variable_count_);
  Rational probability = Rational::One();
  for (const PropLiteral& literal : terms_[static_cast<size_t>(index)]) {
    const Rational& p = prob_true[static_cast<size_t>(literal.variable)];
    probability *= literal.positive ? p : p.Complement();
    if (probability.IsZero()) {
      break;
    }
  }
  return probability;
}

int Dnf::RemoveSubsumedTerms() {
  // Terms are normalized (sorted, duplicate-free), so subset testing is a
  // linear merge. Keep the shorter (more general) term of any comparable
  // pair; among equal terms keep the first.
  auto subset_of = [](const std::vector<PropLiteral>& small,
                      const std::vector<PropLiteral>& large) {
    size_t j = 0;
    for (const PropLiteral& literal : small) {
      while (j < large.size() && large[j] < literal) {
        ++j;
      }
      if (j == large.size() || !(large[j] == literal)) {
        return false;
      }
      ++j;
    }
    return true;
  };

  std::vector<bool> dead(terms_.size(), false);
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (dead[i]) continue;
    for (size_t j = 0; j < terms_.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (terms_[i].size() <= terms_[j].size() &&
          subset_of(terms_[i], terms_[j])) {
        dead[j] = true;
      }
    }
  }
  int removed = 0;
  std::vector<std::vector<PropLiteral>> kept;
  kept.reserve(terms_.size());
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (dead[i]) {
      ++removed;
    } else {
      kept.push_back(std::move(terms_[i]));
    }
  }
  terms_ = std::move(kept);
  return removed;
}

void MixDnfContent(const Dnf& dnf, const std::vector<Rational>& prob_true,
                   Fingerprint* fp) {
  QREL_CHECK(fp != nullptr);
  QREL_CHECK_EQ(prob_true.size(),
                static_cast<size_t>(dnf.variable_count()));
  fp->Mix(static_cast<uint64_t>(dnf.variable_count()));
  fp->Mix(static_cast<uint64_t>(dnf.term_count()));
  for (const std::vector<PropLiteral>& term : dnf.terms()) {
    fp->Mix(static_cast<uint64_t>(term.size()));
    for (const PropLiteral& literal : term) {
      fp->Mix((static_cast<uint64_t>(static_cast<uint32_t>(literal.variable))
               << 1) |
              (literal.positive ? 1u : 0u));
    }
  }
  for (const Rational& p : prob_true) {
    fp->MixRational(p);
  }
}

}  // namespace qrel
