#include "qrel/lifted/extensional.h"

#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "qrel/logic/eval.h"
#include "qrel/logic/grounding.h"
#include "qrel/logic/safe_plan.h"
#include "qrel/relational/atom_table.h"
#include "qrel/relational/flat_tuples.h"
#include "qrel/util/check.h"

namespace qrel {

namespace {

Rational TupleSpaceSize(int n, int k) {
  return Rational(BigInt::Pow(BigInt(n), static_cast<uint32_t>(k)),
                  BigInt(1));
}

// A safe plan with relation names resolved to ids and variables mapped to
// dense environment slots, so the per-tuple inner loop does no string
// work (mirroring logic/eval.h's CompiledQuery).
struct CompiledPlanTerm {
  bool is_slot = false;
  int slot = 0;          // environment index if is_slot
  Element constant = 0;  // otherwise
};

struct CompiledPlanNode {
  SafePlanKind kind = SafePlanKind::kJoin;
  int relation = -1;                    // kAtom
  std::vector<CompiledPlanTerm> terms;  // kAtom / kEquality
  int slot = -1;                        // kProject: projected variable
  std::vector<CompiledPlanNode> children;

  // kProject: the values `slot` can take with Pr[child] > 0. Every atom
  // below a projection mentions its variable, and a value none of one
  // atom's possible tuples carries makes that atom — and so the child —
  // certainly false. `values` holds, for the atom with the fewest possible
  // tuples, (key..., value) per possible tuple that agrees with the
  // atom's constants, where the key is the tuple's elements at the
  // positions of variables bound above; `index` groups them by key (one
  // group when nothing is bound above). `over_universe` (no atom mentions
  // the slot) walks all n values.
  bool over_universe = true;
  std::vector<int> key_slots;  // env slots of the key, in key order
  FlatTupleSet values;
  TupleIndex index;
  mutable std::vector<Element> key;  // EvalPlan's key buffer
};

// Finds, below `node`, the atom mentioning `slot` whose relation has the
// fewest possible tuples.
const CompiledPlanNode* SupportAtom(
    const CompiledPlanNode& node, int slot, const UnreliableDatabase& db,
    std::map<int, std::vector<Tuple>>* possible) {
  const CompiledPlanNode* best = nullptr;
  if (node.kind == SafePlanKind::kAtom) {
    for (const CompiledPlanTerm& term : node.terms) {
      if (term.is_slot && term.slot == slot) {
        if (possible->count(node.relation) == 0) {
          (*possible)[node.relation] = PossibleTuples(db, node.relation);
        }
        return &node;
      }
    }
    return nullptr;
  }
  for (const CompiledPlanNode& child : node.children) {
    const CompiledPlanNode* atom = SupportAtom(child, slot, db, possible);
    if (atom != nullptr &&
        (best == nullptr || possible->at(atom->relation).size() <
                                possible->at(best->relation).size())) {
      best = atom;
    }
  }
  return best;
}

// Fills in every projection's support; `bound[s]` says whether env slot
// s is bound above `node` (the free variables and enclosing projections).
void BuildSupport(CompiledPlanNode* node, const UnreliableDatabase& db,
                  std::vector<bool>* bound,
                  std::map<int, std::vector<Tuple>>* possible) {
  if (node->kind == SafePlanKind::kProject) {
    const CompiledPlanNode* atom =
        SupportAtom(node->children[0], node->slot, db, possible);
    node->over_universe = atom == nullptr;
    if (atom != nullptr) {
      std::vector<size_t> key_positions;
      size_t value_position = 0;
      for (size_t i = atom->terms.size(); i-- > 0;) {
        const CompiledPlanTerm& term = atom->terms[i];
        if (term.is_slot && term.slot == node->slot) {
          value_position = i;
        }
      }
      for (size_t i = 0; i < atom->terms.size(); ++i) {
        const CompiledPlanTerm& term = atom->terms[i];
        if (term.is_slot && (*bound)[static_cast<size_t>(term.slot)]) {
          key_positions.push_back(i);
          node->key_slots.push_back(term.slot);
        }
      }
      const size_t width = key_positions.size() + 1;
      node->values.Reset(static_cast<int>(width));
      std::vector<Element> entry(width);
      for (const Tuple& tuple : possible->at(atom->relation)) {
        bool agrees = true;
        for (size_t i = 0; i < atom->terms.size() && agrees; ++i) {
          const CompiledPlanTerm& term = atom->terms[i];
          agrees = term.is_slot ? term.slot != node->slot ||
                                      tuple[i] == tuple[value_position]
                                : tuple[i] == term.constant;
        }
        if (!agrees) {
          continue;
        }
        for (size_t k = 0; k < key_positions.size(); ++k) {
          entry[k] = tuple[key_positions[k]];
        }
        entry[width - 1] = tuple[value_position];
        node->values.Insert(entry.data());
      }
      std::vector<int> index_positions(key_positions.size());
      std::iota(index_positions.begin(), index_positions.end(), 0);
      node->index.Reset(index_positions);
      node->index.CatchUp(node->values);
      node->key.resize(key_positions.size());
    }
    (*bound)[static_cast<size_t>(node->slot)] = true;
    BuildSupport(&node->children[0], db, bound, possible);
    (*bound)[static_cast<size_t>(node->slot)] = false;
    return;
  }
  for (CompiledPlanNode& child : node->children) {
    BuildSupport(&child, db, bound, possible);
  }
}

class PlanCompiler {
 public:
  explicit PlanCompiler(const Vocabulary& vocabulary)
      : vocabulary_(vocabulary) {}

  // `slots` maps the free variables (and, during recursion, the projected
  // variables) to environment indices; the builder guarantees variable
  // names are unique across a plan.
  StatusOr<CompiledPlanNode> Compile(const SafePlanNode& node,
                                     std::map<std::string, int>* slots,
                                     int* slot_count) {
    CompiledPlanNode compiled;
    compiled.kind = node.kind;
    switch (node.kind) {
      case SafePlanKind::kAtom: {
        std::optional<int> relation =
            vocabulary_.FindRelation(node.relation);
        if (!relation.has_value()) {
          return Status::InvalidArgument("unknown relation '" +
                                         node.relation + "' in safe plan");
        }
        compiled.relation = *relation;
        QREL_RETURN_IF_ERROR(CompileTerms(node, *slots, &compiled));
        return compiled;
      }
      case SafePlanKind::kEquality:
        QREL_RETURN_IF_ERROR(CompileTerms(node, *slots, &compiled));
        return compiled;
      case SafePlanKind::kJoin:
        for (const SafePlanPtr& child : node.children) {
          StatusOr<CompiledPlanNode> compiled_child =
              Compile(*child, slots, slot_count);
          if (!compiled_child.ok()) {
            return compiled_child.status();
          }
          compiled.children.push_back(std::move(compiled_child).value());
        }
        return compiled;
      case SafePlanKind::kProject: {
        QREL_CHECK(node.children.size() == 1);
        compiled.slot = (*slot_count)++;
        slots->emplace(node.variable, compiled.slot);
        StatusOr<CompiledPlanNode> compiled_child =
            Compile(*node.children[0], slots, slot_count);
        if (!compiled_child.ok()) {
          return compiled_child.status();
        }
        compiled.children.push_back(std::move(compiled_child).value());
        return compiled;
      }
    }
    QREL_CHECK_MSG(false, "corrupt safe-plan node");
    return Status::Internal("corrupt safe-plan node");
  }

 private:
  static Status CompileTerms(const SafePlanNode& node,
                             const std::map<std::string, int>& slots,
                             CompiledPlanNode* compiled) {
    for (const Term& term : node.args) {
      CompiledPlanTerm out;
      if (term.is_variable()) {
        auto it = slots.find(term.variable);
        if (it == slots.end()) {
          return Status::Internal("safe-plan variable '" + term.variable +
                                  "' has no environment slot");
        }
        out.is_slot = true;
        out.slot = it->second;
      } else {
        out.constant = term.constant;
      }
      compiled->terms.push_back(out);
    }
    return Status::Ok();
  }

  const Vocabulary& vocabulary_;
};

// Pr[subplan true] under the environment `env`; charges `ctx` per leaf.
StatusOr<Rational> EvalPlan(const CompiledPlanNode& node,
                            const UnreliableDatabase& db,
                            std::vector<Element>* env, RunContext* ctx,
                            uint64_t* ops) {
  switch (node.kind) {
    case SafePlanKind::kAtom: {
      QREL_RETURN_IF_ERROR(ChargeWork(ctx));
      ++*ops;
      GroundAtom atom;
      atom.relation = node.relation;
      atom.args.reserve(node.terms.size());
      for (const CompiledPlanTerm& term : node.terms) {
        atom.args.push_back(term.is_slot ? (*env)[term.slot]
                                         : term.constant);
      }
      return db.NuTrue(atom);
    }
    case SafePlanKind::kEquality: {
      QREL_RETURN_IF_ERROR(ChargeWork(ctx));
      ++*ops;
      QREL_CHECK(node.terms.size() == 2);
      Element left = node.terms[0].is_slot ? (*env)[node.terms[0].slot]
                                           : node.terms[0].constant;
      Element right = node.terms[1].is_slot ? (*env)[node.terms[1].slot]
                                            : node.terms[1].constant;
      return left == right ? Rational::One() : Rational::Zero();
    }
    case SafePlanKind::kJoin: {
      // Independent factors: the product of the children; a zero factor
      // ends it.
      Rational product = Rational::One();
      for (const CompiledPlanNode& child : node.children) {
        StatusOr<Rational> p = EvalPlan(child, db, env, ctx, ops);
        if (!p.ok()) {
          return p.status();
        }
        if (p->IsZero()) {
          return Rational::Zero();
        }
        product *= *p;
      }
      return product;
    }
    case SafePlanKind::kProject: {
      // Independent instantiations: Pr[∃x φ] = 1 − Π_c (1 − Pr[φ[x:=c]]),
      // over the values c the support allows; the others have
      // Pr[φ[x:=c]] = 0 and factor 1, as do zeros the support lets in.
      Rational none_true = Rational::One();
      auto instantiate = [&](Element value) -> Status {
        (*env)[static_cast<size_t>(node.slot)] = value;
        StatusOr<Rational> p = EvalPlan(node.children[0], db, env, ctx, ops);
        if (!p.ok()) {
          return p.status();
        }
        if (!p->IsZero()) {
          none_true *= p->Complement();
        }
        return Status::Ok();
      };
      const auto width = static_cast<size_t>(node.values.arity());
      if (node.over_universe) {
        for (Element value = 0; value < db.universe_size(); ++value) {
          QREL_RETURN_IF_ERROR(instantiate(value));
        }
      } else {
        for (size_t k = 0; k < node.key_slots.size(); ++k) {
          node.key[k] = (*env)[static_cast<size_t>(node.key_slots[k])];
        }
        for (uint32_t id = node.index.First(node.values, node.key.data());
             id != TupleIndex::kNone; id = node.index.Next(id)) {
          QREL_RETURN_IF_ERROR(
              instantiate(node.values.tuple(id)[width - 1]));
        }
      }
      return none_true.Complement();
    }
  }
  QREL_CHECK_MSG(false, "corrupt safe-plan node");
  return Status::Internal("corrupt safe-plan node");
}

struct CompiledExtensional {
  CompiledQuery query;
  CompiledPlanNode plan;
  int slot_count = 0;

  explicit CompiledExtensional(CompiledQuery q) : query(std::move(q)) {}
};

StatusOr<CompiledExtensional> CompileExtensional(
    const FormulaPtr& query, const UnreliableDatabase& db) {
  SafePlanAnalysis analysis = AnalyzeSafePlan(query);
  if (!analysis.applicable || !analysis.safe) {
    return Status::InvalidArgument(
        "query admits no safe plan; use the exact or sampling rungs");
  }
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  CompiledExtensional result(std::move(compiled).value());
  std::map<std::string, int> slots;
  int slot_count = 0;
  for (const std::string& variable : result.query.free_variables()) {
    slots.emplace(variable, slot_count++);
  }
  PlanCompiler plan_compiler(db.vocabulary());
  StatusOr<CompiledPlanNode> plan =
      plan_compiler.Compile(*analysis.plan, &slots, &slot_count);
  if (!plan.ok()) {
    return plan.status();
  }
  result.plan = std::move(plan).value();
  result.slot_count = slot_count;
  std::vector<bool> bound(static_cast<size_t>(slot_count), false);
  for (int i = 0; i < result.query.arity(); ++i) {
    bound[static_cast<size_t>(i)] = true;
  }
  std::map<int, std::vector<Tuple>> possible;  // the plan's relations only
  BuildSupport(&result.plan, db, &bound, &possible);
  return result;
}

}  // namespace

StatusOr<ReliabilityReport> ExtensionalReliability(
    const FormulaPtr& query, const UnreliableDatabase& db, RunContext* ctx) {
  StatusOr<CompiledExtensional> compiled = CompileExtensional(query, db);
  if (!compiled.ok()) {
    return compiled.status();
  }
  const int n = db.universe_size();
  const int k = compiled->query.arity();

  ReliabilityReport report;
  report.arity = k;
  uint64_t ops = 0;
  Tuple tuple(static_cast<size_t>(k), 0);
  std::vector<Element> env(static_cast<size_t>(compiled->slot_count), 0);
  while (true) {
    QREL_RETURN_IF_ERROR(ChargeWork(ctx));
    ++ops;
    for (int i = 0; i < k; ++i) {
      env[static_cast<size_t>(i)] = tuple[static_cast<size_t>(i)];
    }
    StatusOr<Rational> p = EvalPlan(compiled->plan, db, &env, ctx, &ops);
    if (!p.ok()) {
      return p.status();
    }
    // Pr[ψ(ā) wrong]: the observed database answers ā or it does not.
    bool observed = compiled->query.Eval(db.observed(), tuple);
    report.expected_error += observed ? p->Complement() : *p;
    if (!AdvanceTuple(&tuple, n)) {
      break;
    }
  }
  report.reliability =
      Rational(1) - report.expected_error / TupleSpaceSize(n, k);
  report.work_units = ops;
  return report;
}

StatusOr<Rational> ExtensionalQueryProbability(const FormulaPtr& query,
                                               const UnreliableDatabase& db,
                                               const Tuple& assignment) {
  StatusOr<CompiledExtensional> compiled = CompileExtensional(query, db);
  if (!compiled.ok()) {
    return compiled.status();
  }
  if (assignment.size() != static_cast<size_t>(compiled->query.arity())) {
    return Status::InvalidArgument(
        "assignment size does not match the query arity");
  }
  std::vector<Element> env(static_cast<size_t>(compiled->slot_count), 0);
  for (size_t i = 0; i < assignment.size(); ++i) {
    env[i] = assignment[i];
  }
  uint64_t ops = 0;
  return EvalPlan(compiled->plan, db, &env, nullptr, &ops);
}

}  // namespace qrel
