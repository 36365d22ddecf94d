#include "qrel/logic/eval.h"

#include <algorithm>
#include <utility>

#include "qrel/util/check.h"

namespace qrel {

StatusOr<CompiledQuery> CompiledQuery::Compile(FormulaPtr formula,
                                               const Vocabulary& vocabulary) {
  QREL_CHECK(formula != nullptr);
  CompiledQuery query;
  query.formula_ = formula;
  query.free_variables_ = formula->FreeVariables();

  // Free variables occupy the first slots, in answer-column order.
  std::vector<std::pair<std::string, int>> scope;
  int next_slot = 0;
  for (const std::string& name : query.free_variables_) {
    scope.emplace_back(name, next_slot++);
  }
  StatusOr<std::unique_ptr<Node>> root =
      CompileNode(*formula, vocabulary, &scope, &next_slot);
  if (!root.ok()) {
    return root.status();
  }
  query.root_ = std::move(root).value();
  query.slot_count_ = next_slot;
  for (int r = 0; r < vocabulary.relation_count(); ++r) {
    query.max_arity_ = std::max(query.max_arity_, vocabulary.relation(r).arity);
  }
  return query;
}

StatusOr<std::unique_ptr<CompiledQuery::Node>> CompiledQuery::CompileNode(
    const Formula& formula, const Vocabulary& vocabulary,
    std::vector<std::pair<std::string, int>>* scope, int* next_slot) {
  auto node = std::make_unique<Node>();
  node->kind = formula.kind;

  auto compile_term = [&](const Term& term) -> StatusOr<CompiledTerm> {
    CompiledTerm compiled;
    if (term.is_variable()) {
      // Innermost binding wins (quantifiers may shadow outer variables).
      for (size_t i = scope->size(); i-- > 0;) {
        if ((*scope)[i].first == term.variable) {
          compiled.is_slot = true;
          compiled.slot = (*scope)[i].second;
          return compiled;
        }
      }
      return Status::Internal("unbound variable '" + term.variable + "'");
    }
    compiled.constant = term.constant;
    return compiled;
  };

  switch (formula.kind) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return node;
    case FormulaKind::kAtom: {
      std::optional<int> relation = vocabulary.FindRelation(formula.relation);
      if (!relation.has_value()) {
        return Status::InvalidArgument("unknown relation '" +
                                       formula.relation + "'");
      }
      int arity = vocabulary.relation(*relation).arity;
      if (arity != static_cast<int>(formula.args.size())) {
        return Status::InvalidArgument(
            "relation '" + formula.relation + "' has arity " +
            std::to_string(arity) + " but is used with " +
            std::to_string(formula.args.size()) + " arguments");
      }
      node->relation = *relation;
      for (const Term& term : formula.args) {
        StatusOr<CompiledTerm> compiled = compile_term(term);
        if (!compiled.ok()) return compiled.status();
        node->terms.push_back(*compiled);
      }
      return node;
    }
    case FormulaKind::kEquals: {
      for (const Term& term : formula.args) {
        StatusOr<CompiledTerm> compiled = compile_term(term);
        if (!compiled.ok()) return compiled.status();
        node->terms.push_back(*compiled);
      }
      return node;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll: {
      node->slot = (*next_slot)++;
      scope->emplace_back(formula.bound_variable, node->slot);
      StatusOr<std::unique_ptr<Node>> body =
          CompileNode(*formula.children[0], vocabulary, scope, next_slot);
      scope->pop_back();
      if (!body.ok()) return body.status();
      node->children.push_back(std::move(body).value());
      return node;
    }
    default: {
      for (const FormulaPtr& child : formula.children) {
        StatusOr<std::unique_ptr<Node>> compiled =
            CompileNode(*child, vocabulary, scope, next_slot);
        if (!compiled.ok()) return compiled.status();
        node->children.push_back(std::move(compiled).value());
      }
      return node;
    }
  }
}

bool CompiledQuery::Eval(const AtomOracle& oracle,
                         const Tuple& assignment) const {
  Scratch scratch;
  return Eval(oracle, assignment, &scratch);
}

bool CompiledQuery::Eval(const AtomOracle& oracle, const Tuple& assignment,
                         Scratch* scratch) const {
  QREL_CHECK_EQ(static_cast<int>(assignment.size()), arity());
  scratch->env.assign(static_cast<size_t>(slot_count_), 0);
  for (size_t i = 0; i < assignment.size(); ++i) {
    QREL_CHECK_GE(assignment[i], 0);
    QREL_CHECK_LT(assignment[i], oracle.universe_size());
    scratch->env[i] = assignment[i];
  }
  // One argument buffer for every atom this evaluation reads.
  scratch->args.reserve(static_cast<size_t>(max_arity_));
  return EvalNode(*root_, oracle, &scratch->env, &scratch->args);
}

bool CompiledQuery::EvalNode(const Node& node, const AtomOracle& oracle,
                             std::vector<Element>* env, Tuple* args) const {
  auto term_value = [&](const CompiledTerm& term) {
    return term.is_slot ? (*env)[static_cast<size_t>(term.slot)]
                        : term.constant;
  };
  switch (node.kind) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kAtom: {
      args->clear();
      for (const CompiledTerm& term : node.terms) {
        args->push_back(term_value(term));
      }
      return oracle.AtomTrue(node.relation, *args);
    }
    case FormulaKind::kEquals:
      return term_value(node.terms[0]) == term_value(node.terms[1]);
    case FormulaKind::kNot:
      return !EvalNode(*node.children[0], oracle, env, args);
    case FormulaKind::kAnd:
      for (const std::unique_ptr<Node>& child : node.children) {
        if (!EvalNode(*child, oracle, env, args)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const std::unique_ptr<Node>& child : node.children) {
        if (EvalNode(*child, oracle, env, args)) return true;
      }
      return false;
    case FormulaKind::kImplies:
      return !EvalNode(*node.children[0], oracle, env, args) ||
             EvalNode(*node.children[1], oracle, env, args);
    case FormulaKind::kIff:
      return EvalNode(*node.children[0], oracle, env, args) ==
             EvalNode(*node.children[1], oracle, env, args);
    case FormulaKind::kExists:
      for (Element value = 0; value < oracle.universe_size(); ++value) {
        (*env)[static_cast<size_t>(node.slot)] = value;
        if (EvalNode(*node.children[0], oracle, env, args)) return true;
      }
      return false;
    case FormulaKind::kForAll:
      for (Element value = 0; value < oracle.universe_size(); ++value) {
        (*env)[static_cast<size_t>(node.slot)] = value;
        if (!EvalNode(*node.children[0], oracle, env, args)) return false;
      }
      return true;
  }
  QREL_CHECK_MSG(false, "corrupt compiled query");
  return false;
}

std::vector<Tuple> CompiledQuery::AnswerSet(const AtomOracle& oracle) const {
  std::vector<Tuple> result;
  Tuple assignment(static_cast<size_t>(arity()), 0);
  do {
    if (Eval(oracle, assignment)) {
      result.push_back(assignment);
    }
  } while (AdvanceTuple(&assignment, oracle.universe_size()));
  return result;
}

}  // namespace qrel
