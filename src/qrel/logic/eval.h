// Query evaluation (data complexity): evaluating a fixed compiled query on
// a database or possible world.
//
// CompiledQuery resolves relation names against a vocabulary once and maps
// variables to dense environment slots, so repeated evaluation (the inner
// loop of every Monte Carlo estimator) does no string work. Evaluation
// reads atom truth through the AtomOracle interface, so it runs unchanged
// on the observed database (Structure) and on possible worlds (WorldView).

#ifndef QREL_LOGIC_EVAL_H_
#define QREL_LOGIC_EVAL_H_

#include <memory>
#include <string>
#include <vector>

#include "qrel/logic/ast.h"
#include "qrel/relational/structure.h"
#include "qrel/util/status.h"

namespace qrel {

class CompiledQuery {
 public:
  // Validates `formula` against `vocabulary` (all relations exist with
  // matching arities) and prepares it for evaluation. The query's free
  // variables, in first-appearance order, become the answer-tuple columns.
  static StatusOr<CompiledQuery> Compile(FormulaPtr formula,
                                         const Vocabulary& vocabulary);

  CompiledQuery(CompiledQuery&&) = default;
  CompiledQuery& operator=(CompiledQuery&&) = default;

  const FormulaPtr& formula() const { return formula_; }
  const std::vector<std::string>& free_variables() const {
    return free_variables_;
  }
  // Number of free variables (the k of a k-ary query).
  int arity() const { return static_cast<int>(free_variables_.size()); }

  // Truth of ψ(ā) on the database `oracle`, where `assignment` supplies the
  // values of the free variables in free_variables() order. Must have
  // exactly arity() entries (empty for Boolean queries).
  bool Eval(const AtomOracle& oracle, const Tuple& assignment) const;

  // Buffers one evaluation works in; a loop that evaluates many times
  // passes the same Scratch, so its evaluations allocate nothing after the
  // first.
  struct Scratch {
    std::vector<Element> env;
    Tuple args;
  };
  bool Eval(const AtomOracle& oracle, const Tuple& assignment,
            Scratch* scratch) const;

  // ψ^𝔄 = { ā : 𝔄 ⊨ ψ(ā) } in lexicographic tuple order. Enumerates all
  // n^arity assignments.
  std::vector<Tuple> AnswerSet(const AtomOracle& oracle) const;

 private:
  struct CompiledTerm {
    bool is_slot = false;
    int slot = 0;        // environment index if is_slot
    Element constant = 0;  // otherwise
  };
  struct Node {
    FormulaKind kind;
    int relation = -1;                 // kAtom
    std::vector<CompiledTerm> terms;   // kAtom / kEquals
    std::vector<std::unique_ptr<Node>> children;
    int slot = -1;  // kExists / kForAll: environment index of bound variable
  };

  CompiledQuery() = default;

  static StatusOr<std::unique_ptr<Node>> CompileNode(
      const Formula& formula, const Vocabulary& vocabulary,
      std::vector<std::pair<std::string, int>>* scope, int* next_slot);

  // `args` is the caller's scratch buffer for atom arguments.
  bool EvalNode(const Node& node, const AtomOracle& oracle,
                std::vector<Element>* env, Tuple* args) const;

  FormulaPtr formula_;
  std::vector<std::string> free_variables_;
  std::unique_ptr<Node> root_;
  int slot_count_ = 0;
  int max_arity_ = 0;  // largest relation arity: the scratch tuple's size
};

}  // namespace qrel

#endif  // QREL_LOGIC_EVAL_H_
