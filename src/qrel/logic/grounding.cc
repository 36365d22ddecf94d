#include "qrel/logic/grounding.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qrel/relational/atom_table.h"
#include "qrel/util/check.h"
#include "qrel/util/fault_injection.h"

namespace qrel {

int GroundDnf::Width() const {
  size_t width = 0;
  for (const std::vector<GroundLiteral>& term : terms) {
    width = std::max(width, term.size());
  }
  return static_cast<int>(width);
}

std::vector<Tuple> PossibleTuples(const UnreliableDatabase& db,
                                  int relation) {
  const ErrorModel& model = db.model();
  std::vector<Tuple> tuples;
  for (const Tuple& fact : db.observed().Facts(relation)) {
    std::optional<int> entry = model.Find(GroundAtom{relation, fact});
    if (!entry.has_value() || !model.error(*entry).IsOne()) {
      tuples.push_back(fact);
    }
  }
  for (int id = 0; id < model.entry_count(); ++id) {
    const GroundAtom& atom = model.atom(id);
    if (atom.relation == relation && !model.error(id).IsZero() &&
        !db.observed().AtomTrue(relation, atom.args)) {
      tuples.push_back(atom.args);
    }
  }
  return tuples;
}

namespace {

// A matrix term with its variable resolved to a slot of the valuation
// (free variables first, then bound ones); slot -1 is a constant.
struct Arg {
  int slot = -1;
  Element constant = 0;
};

// A literal of a matrix conjunct with relation and variables resolved.
struct Literal {
  bool positive = true;
  bool equality = false;
  int relation = -1;
  std::vector<Arg> args;
};

using Conjunct = std::vector<Literal>;

// The Theorem 5.4 instantiation of one conjunct under a complete
// valuation: equalities fold to their truth value, certain atoms to
// theirs, and uncertain atoms become the term's literals. Returns false if
// the conjunct is false (a false literal or a complementary pair);
// otherwise `term` holds its literals sorted by entry id.
bool InstantiateConjunct(const Conjunct& conjunct,
                         const std::vector<Element>& valuation,
                         const UnreliableDatabase& db,
                         std::vector<GroundLiteral>* term) {
  auto value = [&valuation](const Arg& arg) {
    return arg.slot < 0 ? arg.constant
                        : valuation[static_cast<size_t>(arg.slot)];
  };
  term->clear();
  GroundAtom atom;
  for (const Literal& literal : conjunct) {
    if (literal.equality) {
      bool holds = value(literal.args[0]) == value(literal.args[1]);
      if (holds != literal.positive) {
        return false;
      }
      continue;  // true equality: contributes nothing
    }
    atom.relation = literal.relation;
    atom.args.clear();
    for (const Arg& arg : literal.args) {
      atom.args.push_back(value(arg));
    }
    int entry = -1;
    switch (db.StatusOf(atom, &entry)) {
      case UnreliableDatabase::AtomStatus::kCertainTrue:
        if (!literal.positive) return false;
        continue;
      case UnreliableDatabase::AtomStatus::kCertainFalse:
        if (literal.positive) return false;
        continue;
      case UnreliableDatabase::AtomStatus::kUncertain:
        break;
    }
    // Uncertain atom: a propositional variable of ψ''.
    GroundLiteral ground{entry, literal.positive};
    auto same = std::find_if(
        term->begin(), term->end(),
        [&](const GroundLiteral& other) { return other.entry == entry; });
    if (same == term->end()) {
      term->push_back(ground);
    } else if (same->positive != ground.positive) {
      return false;  // complementary pair within the term
    }
  }
  std::sort(term->begin(), term->end());
  return true;
}

// One positive atom of a conjunct's join.
struct JoinStep {
  const Literal* atom = nullptr;
  // Argument positions whose value is known when the step runs: constants
  // and variables bound by the free assignment or an earlier step.
  std::vector<size_t> key_positions;
  // The remaining positions, each with whether it is the first occurrence
  // of its variable in this atom (it binds) or a repeat (it must agree).
  std::vector<std::pair<size_t, bool>> open_positions;
  // The atom's possible tuples by their values at key_positions (as the
  // arguments of a partial atom of the same relation).
  std::unordered_map<GroundAtom, std::vector<const Tuple*>, GroundAtomHash>
      index;
};

// Grounds the matrix one conjunct at a time. The conjunct's positive atoms
// drive a depth-first join over their possible tuples; variables that
// occur in no positive atom range over the universe; bound variables the
// conjunct does not mention stay 0. Each complete binding is instantiated,
// and every distinct term keeps the smallest (bound assignment, conjunct
// index) key that produced it — its position in the universe walk
// ∃ȳ ⋁_b̄, which visits b̄ in odometer order and the conjuncts in order.
class JoinGrounder {
 public:
  JoinGrounder(const UnreliableDatabase& db, std::vector<Element> valuation,
               size_t free_count, size_t max_terms, RunContext* ctx)
      : db_(db),
        valuation_(std::move(valuation)),
        free_count_(free_count),
        max_terms_(max_terms),
        ctx_(ctx) {}

  Status Ground(const Conjunct& conjunct, int index) {
    conjunct_ = &conjunct;
    conjunct_index_ = index;
    std::fill(valuation_.begin() + static_cast<std::ptrdiff_t>(free_count_),
              valuation_.end(), 0);
    Plan(conjunct);
    return Search(0);
  }

  bool certainly_true() const { return certainly_true_; }

  // The distinct terms in the order the universe walk first emits them.
  std::vector<std::vector<GroundLiteral>> Terms() const {
    std::vector<std::pair<const std::vector<Element>*,
                          const std::vector<GroundLiteral>*>>
        order;
    order.reserve(first_seen_.size());
    for (const auto& [term, key] : first_seen_) {
      order.emplace_back(&key, &term);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return *a.first < *b.first; });
    std::vector<std::vector<GroundLiteral>> terms;
    terms.reserve(order.size());
    for (const auto& [key, term] : order) {
      terms.push_back(*term);
    }
    return terms;
  }

 private:
  const std::vector<Tuple>& Possible(int relation) {
    auto it = possible_.find(relation);
    if (it == possible_.end()) {
      it = possible_.emplace(relation, PossibleTuples(db_, relation)).first;
    }
    return it->second;
  }

  // Orders the positive atoms greedily — most known positions first, then
  // fewest possible tuples — and indexes each on its known positions.
  void Plan(const Conjunct& conjunct) {
    std::vector<bool> known(valuation_.size(), false);
    std::fill(known.begin(),
              known.begin() + static_cast<std::ptrdiff_t>(free_count_), true);
    auto is_known = [&known](const Arg& arg) {
      return arg.slot < 0 || known[static_cast<size_t>(arg.slot)];
    };
    std::vector<const Literal*> pending;
    for (const Literal& literal : conjunct) {
      if (literal.positive && !literal.equality) {
        pending.push_back(&literal);
      }
    }
    steps_.clear();
    while (!pending.empty()) {
      size_t best = 0;
      size_t best_known = 0;
      for (size_t i = 0; i < pending.size(); ++i) {
        size_t count = static_cast<size_t>(std::count_if(
            pending[i]->args.begin(), pending[i]->args.end(), is_known));
        if (i == 0 || count > best_known ||
            (count == best_known && Possible(pending[i]->relation).size() <
                                        Possible(pending[best]->relation)
                                            .size())) {
          best = i;
          best_known = count;
        }
      }
      JoinStep step;
      step.atom = pending[best];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
      const std::vector<Arg>& args = step.atom->args;
      for (size_t p = 0; p < args.size(); ++p) {
        if (is_known(args[p])) {
          step.key_positions.push_back(p);
          continue;
        }
        bool first = std::none_of(
            args.begin(), args.begin() + static_cast<std::ptrdiff_t>(p),
            [&](const Arg& earlier) { return earlier.slot == args[p].slot; });
        step.open_positions.emplace_back(p, first);
      }
      for (const Arg& arg : args) {
        if (arg.slot >= 0) known[static_cast<size_t>(arg.slot)] = true;
      }
      for (const Tuple& tuple : Possible(step.atom->relation)) {
        GroundAtom key{step.atom->relation, {}};
        for (size_t p : step.key_positions) key.args.push_back(tuple[p]);
        step.index[std::move(key)].push_back(&tuple);
      }
      steps_.push_back(std::move(step));
    }
    leftover_.clear();
    for (const Literal& literal : conjunct) {
      for (const Arg& arg : literal.args) {
        if (arg.slot >= 0 && !known[static_cast<size_t>(arg.slot)]) {
          known[static_cast<size_t>(arg.slot)] = true;
          leftover_.push_back(arg.slot);
        }
      }
    }
  }

  // Levels [0, steps) extend the binding by one possible tuple of an atom,
  // the levels after them by one universe value of a leftover variable.
  Status Search(size_t level) {
    QREL_RETURN_IF_ERROR(ChargeWork(ctx_));
    QREL_FAULT_SITE("logic.grounding.assignment");
    if (level < steps_.size()) {
      const JoinStep& step = steps_[level];
      GroundAtom key{step.atom->relation, {}};
      for (size_t p : step.key_positions) {
        const Arg& arg = step.atom->args[p];
        key.args.push_back(arg.slot < 0
                               ? arg.constant
                               : valuation_[static_cast<size_t>(arg.slot)]);
      }
      auto bucket = step.index.find(key);
      if (bucket == step.index.end()) {
        return Status::Ok();
      }
      for (const Tuple* tuple : bucket->second) {
        if (!Bind(step, *tuple)) continue;
        QREL_RETURN_IF_ERROR(Search(level + 1));
        if (certainly_true_) break;
      }
      return Status::Ok();
    }
    size_t leftover = level - steps_.size();
    if (leftover < leftover_.size()) {
      Element& slot = valuation_[static_cast<size_t>(leftover_[leftover])];
      for (Element e = 0; e < db_.universe_size() && !certainly_true_; ++e) {
        slot = e;
        QREL_RETURN_IF_ERROR(Search(level + 1));
      }
      return Status::Ok();
    }
    return Emit();
  }

  // Writes the tuple's open positions into the valuation; false if a
  // repeated variable disagrees.
  bool Bind(const JoinStep& step, const Tuple& tuple) {
    for (const auto& [p, first] : step.open_positions) {
      Element& slot =
          valuation_[static_cast<size_t>(step.atom->args[p].slot)];
      if (first) {
        slot = tuple[p];
      } else if (slot != tuple[p]) {
        return false;
      }
    }
    return true;
  }

  Status Emit() {
    if (!InstantiateConjunct(*conjunct_, valuation_, db_, &term_)) {
      return Status::Ok();
    }
    if (term_.empty()) {
      // A certainly-true disjunct: ψ holds in every world.
      certainly_true_ = true;
      return Status::Ok();
    }
    std::vector<Element> key(
        valuation_.begin() + static_cast<std::ptrdiff_t>(free_count_),
        valuation_.end());
    key.push_back(conjunct_index_);
    auto [it, inserted] = first_seen_.try_emplace(term_, key);
    if (!inserted) {
      if (key < it->second) it->second = std::move(key);
      return Status::Ok();
    }
    QREL_RETURN_IF_ERROR(ChargeWork(ctx_));
    if (first_seen_.size() > max_terms_) {
      return Status::OutOfRange("grounded DNF exceeds term limit");
    }
    return Status::Ok();
  }

  const UnreliableDatabase& db_;
  std::vector<Element> valuation_;
  const size_t free_count_;
  const size_t max_terms_;
  RunContext* const ctx_;

  const Conjunct* conjunct_ = nullptr;
  int conjunct_index_ = 0;
  std::vector<JoinStep> steps_;
  std::vector<int> leftover_;
  std::unordered_map<int, std::vector<Tuple>> possible_;
  std::vector<GroundLiteral> term_;
  std::map<std::vector<GroundLiteral>, std::vector<Element>> first_seen_;
  bool certainly_true_ = false;
};

}  // namespace

StatusOr<GroundDnf> GroundExistential(const PrenexExistential& prenex,
                                      const UnreliableDatabase& database,
                                      const Tuple& free_assignment,
                                      size_t max_terms, RunContext* ctx) {
  if (free_assignment.size() != prenex.free_variables.size()) {
    return Status::InvalidArgument(
        "free assignment has " + std::to_string(free_assignment.size()) +
        " values but the query has " +
        std::to_string(prenex.free_variables.size()) + " free variables");
  }

  // The symbolic DNF of the matrix; computed once, instantiated per
  // binding of the bound variables.
  StatusOr<std::vector<SymbolicConjunct>> matrix_dnf =
      QfNnfToDnf(prenex.matrix);
  if (!matrix_dnf.ok()) {
    return matrix_dnf.status();
  }

  // Variable name -> slot of the combined (free ++ bound) valuation.
  std::unordered_map<std::string, int> variable_slot;
  for (size_t i = 0; i < prenex.free_variables.size(); ++i) {
    variable_slot.emplace(prenex.free_variables[i], static_cast<int>(i));
  }
  for (size_t i = 0; i < prenex.bound_variables.size(); ++i) {
    variable_slot.emplace(
        prenex.bound_variables[i],
        static_cast<int>(prenex.free_variables.size() + i));
  }

  // Resolve relations and variables once, and reject an atom argument
  // outside the universe before any binding is visited.
  const Vocabulary& vocabulary = database.vocabulary();
  const int n = database.universe_size();
  std::vector<Conjunct> conjuncts;
  conjuncts.reserve(matrix_dnf->size());
  for (const SymbolicConjunct& symbolic : *matrix_dnf) {
    Conjunct conjunct;
    for (const SymbolicLiteral& symbolic_literal : symbolic) {
      const Formula& atom = *symbolic_literal.atom;
      Literal literal;
      literal.positive = symbolic_literal.positive;
      literal.equality = atom.kind == FormulaKind::kEquals;
      if (!literal.equality) {
        std::optional<int> id = vocabulary.FindRelation(atom.relation);
        if (!id.has_value()) {
          return Status::InvalidArgument("unknown relation '" +
                                         atom.relation + "'");
        }
        if (vocabulary.relation(*id).arity !=
            static_cast<int>(atom.args.size())) {
          return Status::InvalidArgument("arity mismatch for relation '" +
                                         atom.relation + "'");
        }
        literal.relation = *id;
      }
      for (const Term& term : atom.args) {
        Arg arg;
        if (term.is_variable()) {
          auto it = variable_slot.find(term.variable);
          QREL_CHECK_MSG(it != variable_slot.end(),
                         "unbound variable in matrix");
          arg.slot = it->second;
        } else {
          arg.constant = term.constant;
        }
        bool free = arg.slot >= 0 &&
                    static_cast<size_t>(arg.slot) < free_assignment.size();
        Element value =
            free ? free_assignment[static_cast<size_t>(arg.slot)]
                 : arg.constant;
        if (!literal.equality && (arg.slot < 0 || free) &&
            (value < 0 || value >= n)) {
          return Status::InvalidArgument(
              "constant " + std::to_string(value) +
              " outside the universe of size " + std::to_string(n));
        }
        literal.args.push_back(arg);
      }
      conjunct.push_back(std::move(literal));
    }
    conjuncts.push_back(std::move(conjunct));
  }

  std::vector<Element> valuation(
      prenex.free_variables.size() + prenex.bound_variables.size(), 0);
  std::copy(free_assignment.begin(), free_assignment.end(), valuation.begin());
  JoinGrounder grounder(database, std::move(valuation),
                        prenex.free_variables.size(), max_terms, ctx);
  GroundDnf result;
  for (size_t c = 0; c < conjuncts.size(); ++c) {
    QREL_RETURN_IF_ERROR(grounder.Ground(conjuncts[c], static_cast<int>(c)));
    if (grounder.certainly_true()) {
      result.certainly_true = true;
      return result;
    }
  }
  result.terms = grounder.Terms();
  return result;
}

}  // namespace qrel
