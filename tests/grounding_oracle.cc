#include "grounding_oracle.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qrel/util/check.h"
#include "qrel/util/rng.h"

namespace qrel {

StatusOr<GroundDnf> UniverseWalkGrounding(const PrenexExistential& prenex,
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
  // assignment of the bound variables.
  StatusOr<std::vector<SymbolicConjunct>> matrix_dnf =
      QfNnfToDnf(prenex.matrix);
  if (!matrix_dnf.ok()) {
    return matrix_dnf.status();
  }

  // Variable name -> index into the combined (free ++ bound) valuation.
  std::unordered_map<std::string, size_t> variable_index;
  for (size_t i = 0; i < prenex.free_variables.size(); ++i) {
    variable_index.emplace(prenex.free_variables[i], i);
  }
  for (size_t i = 0; i < prenex.bound_variables.size(); ++i) {
    variable_index.emplace(prenex.bound_variables[i],
                           prenex.free_variables.size() + i);
  }

  const Vocabulary& vocabulary = database.vocabulary();
  // Relation name -> id, resolved once.
  std::unordered_map<std::string, int> relation_ids;
  for (const SymbolicConjunct& conjunct : *matrix_dnf) {
    for (const SymbolicLiteral& literal : conjunct) {
      if (literal.atom->kind != FormulaKind::kAtom) {
        continue;
      }
      const std::string& name = literal.atom->relation;
      std::optional<int> id = vocabulary.FindRelation(name);
      if (!id.has_value()) {
        return Status::InvalidArgument("unknown relation '" + name + "'");
      }
      // Checked for every literal: one relation used at two arities must
      // fail here, not abort in the structure's tuple check.
      if (vocabulary.relation(*id).arity !=
          static_cast<int>(literal.atom->args.size())) {
        return Status::InvalidArgument("arity mismatch for relation '" +
                                       name + "'");
      }
      relation_ids.emplace(name, *id);
    }
  }

  std::vector<Element> valuation(
      prenex.free_variables.size() + prenex.bound_variables.size(), 0);
  for (size_t i = 0; i < free_assignment.size(); ++i) {
    valuation[i] = free_assignment[i];
  }

  auto term_value = [&](const Term& term) -> Element {
    if (!term.is_variable()) {
      return term.constant;
    }
    auto it = variable_index.find(term.variable);
    QREL_CHECK_MSG(it != variable_index.end(), "unbound variable in matrix");
    return valuation[it->second];
  };

  GroundDnf result;
  std::set<std::vector<GroundLiteral>> seen_terms;

  Tuple bound_assignment(prenex.bound_variables.size(), 0);
  bool more_assignments = true;
  while (more_assignments) {
    QREL_RETURN_IF_ERROR(ChargeWork(ctx));
    for (size_t i = 0; i < bound_assignment.size(); ++i) {
      valuation[prenex.free_variables.size() + i] = bound_assignment[i];
    }

    for (const SymbolicConjunct& conjunct : *matrix_dnf) {
      std::vector<GroundLiteral> ground_term;
      bool term_alive = true;
      for (const SymbolicLiteral& literal : conjunct) {
        if (literal.atom->kind == FormulaKind::kEquals) {
          bool holds = term_value(literal.atom->args[0]) ==
                       term_value(literal.atom->args[1]);
          if (holds != literal.positive) {
            term_alive = false;  // equality literal is false: drop the term
            break;
          }
          continue;  // true equality: contributes nothing
        }
        GroundAtom atom;
        atom.relation = relation_ids.at(literal.atom->relation);
        atom.args.reserve(literal.atom->args.size());
        for (const Term& term : literal.atom->args) {
          Element value = term_value(term);
          if (value < 0 || value >= database.universe_size()) {
            return Status::InvalidArgument(
                "constant " + std::to_string(value) +
                " outside the universe of size " +
                std::to_string(database.universe_size()));
          }
          atom.args.push_back(value);
        }
        int entry = -1;
        UnreliableDatabase::AtomStatus status = database.StatusOf(atom, &entry);
        if (status == UnreliableDatabase::AtomStatus::kCertainTrue) {
          if (!literal.positive) {
            term_alive = false;
            break;
          }
          continue;
        }
        if (status == UnreliableDatabase::AtomStatus::kCertainFalse) {
          if (literal.positive) {
            term_alive = false;
            break;
          }
          continue;
        }
        // Uncertain atom: a propositional variable of ψ''.
        GroundLiteral ground{entry, literal.positive};
        bool duplicate = false;
        for (const GroundLiteral& existing : ground_term) {
          if (existing.entry == ground.entry) {
            if (existing.positive != ground.positive) {
              term_alive = false;  // complementary pair within the term
            }
            duplicate = true;
            break;
          }
        }
        if (!term_alive) {
          break;
        }
        if (!duplicate) {
          ground_term.push_back(ground);
        }
      }
      if (!term_alive) {
        continue;
      }
      if (ground_term.empty()) {
        // A certainly-true disjunct: ψ holds in every world.
        result.certainly_true = true;
        result.terms.clear();
        return result;
      }
      std::sort(ground_term.begin(), ground_term.end());
      if (seen_terms.insert(ground_term).second) {
        QREL_RETURN_IF_ERROR(ChargeWork(ctx));
        result.terms.push_back(std::move(ground_term));
        if (result.terms.size() > max_terms) {
          return Status::OutOfRange("grounded DNF exceeds term limit");
        }
      }
    }

    more_assignments =
        !bound_assignment.empty() &&
        AdvanceTuple(&bound_assignment, database.universe_size());
    if (bound_assignment.empty()) {
      more_assignments = false;
    }
  }

  return result;
}

UnreliableDatabase RandomGroundingDatabase(uint64_t seed, int universe_size) {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("S", 1);
  vocabulary->AddRelation("T", 1);
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("F", 2);
  vocabulary->AddRelation("R", 3);
  Rng rng(seed);
  struct Choice {
    bool observed;
    int error_numerator;  // -1: no error-model entry
    int error_denominator;
  };
  // Mostly uncertain atoms, so that few answers are trivially certain.
  static constexpr Choice kCertain[] = {
      {false, -1, 1}, {true, -1, 1}, {true, 0, 1},
      {true, 1, 1},   {false, 0, 1}, {false, 1, 1},
  };
  static constexpr Choice kUncertain[] = {
      {true, 1, 3}, {true, 1, 2}, {false, 1, 4}};
  std::vector<std::pair<GroundAtom, Rational>> errors;
  Structure observed(vocabulary, universe_size);
  for (int relation = 0; relation < vocabulary->relation_count(); ++relation) {
    Tuple tuple(static_cast<size_t>(vocabulary->relation(relation).arity), 0);
    do {
      const Choice& choice =
          rng.NextBelow(6) == 0 ? kCertain[rng.NextBelow(std::size(kCertain))]
                                : kUncertain[rng.NextBelow(
                                      std::size(kUncertain))];
      if (choice.observed) {
        observed.AddFact(relation, tuple);
      }
      if (choice.error_numerator >= 0) {
        errors.push_back({GroundAtom{relation, tuple},
                          Rational(choice.error_numerator,
                                   choice.error_denominator)});
      }
    } while (AdvanceTuple(&tuple, universe_size));
  }
  UnreliableDatabase database(std::move(observed));
  for (const auto& [atom, error] : errors) {
    database.SetErrorProbability(atom, error);
  }
  return database;
}

}  // namespace qrel
