#include "datalog_oracle.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace qrel {

namespace {

constexpr Element kUnbound = -1;

struct OracleLiteral {
  bool positive = true;
  bool is_idb = false;
  int edb_relation = -1;     // when !is_idb
  std::string idb_relation;  // when is_idb
  // One entry per argument: variable slot (>= 0) or -1 with a constant.
  std::vector<int> slots;
  std::vector<Element> constants;
};

struct OracleRule {
  std::string head;
  std::vector<int> head_slots;  // -1 entries use head_constants
  std::vector<Element> head_constants;
  int variable_count = 0;
  std::vector<OracleLiteral> body;  // positive literals first
  int stratum = 0;
};

// Resolves the (already validated) program's rules against `vocabulary`.
std::vector<OracleRule> ResolveRules(const CompiledDatalog& program,
                                     const Vocabulary& vocabulary) {
  std::vector<OracleRule> rules;
  for (const DatalogRule& rule : program.program().rules) {
    OracleRule resolved;
    resolved.head = rule.head.relation;
    resolved.stratum = *program.PredicateStratum(rule.head.relation);
    std::vector<std::string> variables;
    auto compile_args = [&variables](const std::vector<Term>& args,
                                     std::vector<int>* slots,
                                     std::vector<Element>* constants) {
      for (const Term& term : args) {
        if (!term.is_variable()) {
          slots->push_back(-1);
          constants->push_back(term.constant);
          continue;
        }
        auto it =
            std::find(variables.begin(), variables.end(), term.variable);
        if (it == variables.end()) {
          variables.push_back(term.variable);
          it = variables.end() - 1;
        }
        slots->push_back(static_cast<int>(it - variables.begin()));
        constants->push_back(0);
      }
    };
    for (bool positive : {true, false}) {
      for (const DatalogLiteral& literal : rule.body) {
        if (literal.positive != positive) {
          continue;
        }
        OracleLiteral resolved_literal;
        resolved_literal.positive = positive;
        resolved_literal.is_idb =
            program.PredicateStratum(literal.atom.relation).ok();
        if (resolved_literal.is_idb) {
          resolved_literal.idb_relation = literal.atom.relation;
        } else {
          resolved_literal.edb_relation =
              *vocabulary.FindRelation(literal.atom.relation);
        }
        compile_args(literal.atom.args, &resolved_literal.slots,
                     &resolved_literal.constants);
        resolved.body.push_back(std::move(resolved_literal));
      }
    }
    compile_args(rule.head.args, &resolved.head_slots,
                 &resolved.head_constants);
    resolved.variable_count = static_cast<int>(variables.size());
    rules.push_back(std::move(resolved));
  }
  return rules;
}

// Enumerates body bindings and collects head tuples not yet in
// `head_set`. Charges one unit of `ctx` per invocation and unwinds as soon
// as `*budget` goes non-OK.
void BodySatisfied(const OracleRule& rule, size_t literal_index,
                   std::vector<Element>* binding, const AtomOracle& edb,
                   const DatalogResult& idb, const std::set<Tuple>& head_set,
                   std::set<Tuple>* additions, RunContext* ctx,
                   Status* budget) {
  if (!budget->ok()) {
    return;
  }
  *budget = ChargeWork(ctx);
  if (!budget->ok()) {
    return;
  }
  if (literal_index == rule.body.size()) {
    Tuple head_tuple;
    for (size_t i = 0; i < rule.head_slots.size(); ++i) {
      int slot = rule.head_slots[i];
      head_tuple.push_back(slot < 0 ? rule.head_constants[i]
                                    : (*binding)[static_cast<size_t>(slot)]);
    }
    if (head_set.find(head_tuple) == head_set.end()) {
      additions->insert(std::move(head_tuple));
    }
    return;
  }

  const OracleLiteral& literal = rule.body[literal_index];
  size_t arity = literal.slots.size();
  auto recurse = [&] {
    BodySatisfied(rule, literal_index + 1, binding, edb, idb, head_set,
                  additions, ctx, budget);
  };

  // Instantiate what is already bound; record unbound slots.
  Tuple args(arity, 0);
  std::vector<int> free_slots;
  for (size_t i = 0; i < arity; ++i) {
    int slot = literal.slots[i];
    if (slot < 0) {
      args[i] = literal.constants[i];
    } else if ((*binding)[static_cast<size_t>(slot)] != kUnbound) {
      args[i] = (*binding)[static_cast<size_t>(slot)];
    } else if (std::find(free_slots.begin(), free_slots.end(), slot) ==
               free_slots.end()) {
      free_slots.push_back(slot);
    }
  }

  if (!literal.positive) {
    // All arguments bound (compile-time safety): a membership test.
    bool holds = literal.is_idb
                     ? idb.at(literal.idb_relation).count(args) != 0
                     : edb.AtomTrue(literal.edb_relation, args);
    if (!holds) {
      recurse();
    }
    return;
  }

  if (literal.is_idb) {
    // Iterate the materialized relation, filtered by the bound positions.
    for (const Tuple& candidate : idb.at(literal.idb_relation)) {
      std::vector<int> newly_bound;
      bool matched = true;
      for (size_t i = 0; i < arity && matched; ++i) {
        int slot = literal.slots[i];
        if (slot < 0) {
          matched = candidate[i] == literal.constants[i];
          continue;
        }
        Element& value = (*binding)[static_cast<size_t>(slot)];
        if (value == kUnbound) {
          value = candidate[i];
          newly_bound.push_back(slot);
        } else {
          matched = value == candidate[i];
        }
      }
      if (matched) {
        recurse();
      }
      for (int slot : newly_bound) {
        (*binding)[static_cast<size_t>(slot)] = kUnbound;
      }
      if (!budget->ok()) {
        return;
      }
    }
    return;
  }

  // Extensional literal: every value of the unbound variables, probed
  // through the oracle. Positions sharing one variable move together.
  int n = edb.universe_size();
  Tuple values(free_slots.size(), 0);
  do {
    for (size_t i = 0; i < free_slots.size(); ++i) {
      (*binding)[static_cast<size_t>(free_slots[i])] = values[i];
    }
    for (size_t i = 0; i < arity; ++i) {
      int slot = literal.slots[i];
      if (slot >= 0) {
        args[i] = (*binding)[static_cast<size_t>(slot)];
      }
    }
    if (edb.AtomTrue(literal.edb_relation, args)) {
      recurse();
      if (!budget->ok()) {
        break;
      }
    }
  } while (!values.empty() && AdvanceTuple(&values, n));
  for (int slot : free_slots) {
    (*binding)[static_cast<size_t>(slot)] = kUnbound;
  }
}

}  // namespace

StatusOr<DatalogResult> NaiveDatalogEval(const CompiledDatalog& program,
                                         const AtomOracle& edb,
                                         RunContext* ctx) {
  std::vector<OracleRule> rules = ResolveRules(program, edb.vocabulary());
  DatalogResult idb;
  int stratum_count = 1;
  for (const std::string& predicate : program.idb_predicates()) {
    idb[predicate] = {};
    stratum_count =
        std::max(stratum_count, *program.PredicateStratum(predicate) + 1);
  }
  Status budget = Status::Ok();
  for (int stratum = 0; stratum < stratum_count; ++stratum) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const OracleRule& rule : rules) {
        if (rule.stratum != stratum) {
          continue;
        }
        std::set<Tuple> additions;
        std::vector<Element> binding(
            static_cast<size_t>(rule.variable_count), kUnbound);
        BodySatisfied(rule, 0, &binding, edb, idb, idb.at(rule.head),
                      &additions, ctx, &budget);
        QREL_RETURN_IF_ERROR(budget);
        if (!additions.empty()) {
          idb[rule.head].insert(additions.begin(), additions.end());
          changed = true;
        }
      }
    }
  }
  return idb;
}

}  // namespace qrel
