#include "extensional_oracle.h"

#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qrel/logic/eval.h"
#include "qrel/logic/safe_plan.h"
#include "qrel/util/check.h"
#include "qrel/util/rng.h"

namespace qrel {

namespace {

using Env = std::map<std::string, Element>;

Element TermValue(const Term& term, const Env& env) {
  return term.is_variable() ? env.at(term.variable) : term.constant;
}

Rational WalkPlan(const SafePlanNode& node, const UnreliableDatabase& db,
                  Env* env) {
  switch (node.kind) {
    case SafePlanKind::kAtom: {
      GroundAtom atom;
      atom.relation = *db.vocabulary().FindRelation(node.relation);
      for (const Term& term : node.args) {
        atom.args.push_back(TermValue(term, *env));
      }
      return db.NuTrue(atom);
    }
    case SafePlanKind::kEquality:
      return TermValue(node.args[0], *env) == TermValue(node.args[1], *env)
                 ? Rational::One()
                 : Rational::Zero();
    case SafePlanKind::kJoin: {
      Rational product = Rational::One();
      for (const SafePlanPtr& child : node.children) {
        product *= WalkPlan(*child, db, env);
      }
      return product;
    }
    case SafePlanKind::kProject: {
      Rational none_true = Rational::One();
      for (Element value = 0; value < db.universe_size(); ++value) {
        (*env)[node.variable] = value;
        none_true *= WalkPlan(*node.children[0], db, env).Complement();
      }
      env->erase(node.variable);
      return none_true.Complement();
    }
  }
  QREL_CHECK_MSG(false, "corrupt safe-plan node");
  return Rational::Zero();
}

}  // namespace

StatusOr<Rational> UniverseWalkQueryProbability(const FormulaPtr& query,
                                                const UnreliableDatabase& db,
                                                const Tuple& assignment) {
  SafePlanAnalysis analysis = AnalyzeSafePlan(query);
  if (!analysis.applicable || !analysis.safe) {
    return Status::InvalidArgument("query admits no safe plan");
  }
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  Env env;
  for (size_t i = 0; i < assignment.size(); ++i) {
    env[compiled->free_variables()[i]] = assignment[i];
  }
  return WalkPlan(*analysis.plan, db, &env);
}

StatusOr<ReliabilityReport> UniverseWalkExtensionalReliability(
    const FormulaPtr& query, const UnreliableDatabase& db) {
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(query, db.vocabulary());
  if (!compiled.ok()) {
    return compiled.status();
  }
  ReliabilityReport report;
  report.arity = compiled->arity();
  for (const Tuple& tuple : AllTuples(db.universe_size(), report.arity)) {
    StatusOr<Rational> p = UniverseWalkQueryProbability(query, db, tuple);
    if (!p.ok()) {
      return p.status();
    }
    bool observed = compiled->Eval(db.observed(), tuple);
    report.expected_error += observed ? p->Complement() : *p;
  }
  BigInt tuple_space = BigInt::Pow(BigInt(db.universe_size()),
                                   static_cast<uint32_t>(report.arity));
  report.reliability =
      Rational(1) - report.expected_error / Rational(tuple_space, BigInt(1));
  return report;
}

UnreliableDatabase RandomSparseDatabase(uint64_t seed, int universe_size) {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("S", 1);
  vocabulary->AddRelation("T", 1);
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("F", 2);
  vocabulary->AddRelation("R", 3);
  struct Choice {
    bool observed;
    int error_numerator;  // -1: no error-model entry
    int error_denominator;
  };
  static constexpr Choice kPresent[] = {
      {true, -1, 1}, {true, 0, 1},  {true, 1, 1},  {true, 1, 3},
      {true, 1, 2},  {false, 0, 1}, {false, 1, 1}, {false, 1, 4},
  };
  Rng rng(seed);
  std::vector<std::pair<GroundAtom, Rational>> errors;
  Structure observed(vocabulary, universe_size);
  for (int relation = 0; relation < vocabulary->relation_count(); ++relation) {
    Tuple tuple(static_cast<size_t>(vocabulary->relation(relation).arity), 0);
    do {
      if (rng.NextBelow(2) == 0) {
        continue;  // absent, no entry: ν = 0
      }
      const Choice& choice = kPresent[rng.NextBelow(std::size(kPresent))];
      if (choice.observed) {
        observed.AddFact(relation, tuple);
      }
      if (choice.error_numerator >= 0) {
        errors.push_back(
            {GroundAtom{relation, tuple},
             Rational(choice.error_numerator, choice.error_denominator)});
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
