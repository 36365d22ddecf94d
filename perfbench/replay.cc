#include "replay.h"

#include <algorithm>
#include <optional>
#include <set>

#include "qrel/core/approx.h"
#include "qrel/core/reliability.h"
#include "qrel/datalog/analyze.h"
#include "qrel/datalog/eval.h"
#include "qrel/datalog/program.h"
#include "qrel/datalog/reliability.h"
#include "qrel/lifted/extensional.h"
#include "qrel/logic/analyze.h"
#include "qrel/logic/grounding.h"
#include "qrel/logic/normal_form.h"
#include "qrel/logic/parser.h"
#include "qrel/propositional/dnf.h"
#include "qrel/propositional/karp_luby.h"
#include "qrel/util/rng.h"

namespace perfbench {

namespace {

// The ApproxOptions ReliabilityEngine::Run passes to the sampling rungs.
qrel::ApproxOptions ApproxFor(const qrel::EngineOptions& o) {
  qrel::ApproxOptions approx;
  approx.epsilon = o.epsilon;
  approx.delta = o.delta;
  approx.seed = o.seed;
  approx.fixed_samples = o.fixed_samples;
  approx.allow_truncation = o.degrade_on_budget;
  return approx;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Replays Cor 5.5 on a Boolean query the way ReliabilityAbsoluteApprox
// does: ground (Thm 5.4), build and prune the DNF, run Karp-Luby with the
// first seed of Rng(seed), then turn ν into R. Returns R.
std::optional<double> ReplayCor55(const qrel::FormulaPtr& effective,
                                  bool universal,
                                  const qrel::UnreliableDatabase& db,
                                  const qrel::EngineOptions& o, int id,
                                  SpanRecorder* spans, Counts* counts) {
  qrel::FormulaPtr target = universal ? qrel::Not(effective) : effective;
  int grounding = spans->Begin("logic.grounding", id);
  qrel::StatusOr<qrel::PrenexExistential> prenex =
      qrel::ToPrenexExistential(target);
  qrel::RunContext ground_ctx;  // counts assignments + emitted terms
  qrel::StatusOr<qrel::GroundDnf> ground =
      prenex.ok() && prenex->free_variables.empty()
          ? qrel::GroundExistential(*prenex, db, {}, size_t{1} << 22,
                                    &ground_ctx)
          : qrel::StatusOr<qrel::GroundDnf>(
                qrel::Status::InvalidArgument("not a Boolean query"));
  spans->End(grounding);
  if (!ground.ok()) {
    return std::nullopt;
  }
  uint64_t terms = ground->certainly_true ? 0 : ground->terms.size();
  counts->terms += terms;
  counts->assignments += ground_ctx.work_spent() - terms;
  double nu = 0.0;
  if (ground->certainly_true) {
    nu = 1.0;
  } else if (!ground->terms.empty()) {
    int sampling = spans->Begin("propositional.karp_luby", id);
    int entries = db.model().entry_count();
    qrel::Dnf dnf(entries);
    for (const std::vector<qrel::GroundLiteral>& term : ground->terms) {
      std::vector<qrel::PropLiteral> literals;
      for (const qrel::GroundLiteral& literal : term) {
        literals.push_back({literal.entry, literal.positive});
      }
      dnf.AddTerm(std::move(literals));
    }
    dnf.RemoveSubsumedTerms();
    std::vector<qrel::Rational> prob_true;
    for (int e = 0; e < entries; ++e) {
      prob_true.push_back(db.EntryNuTrue(e));
    }
    qrel::KarpLubyOptions kl;
    kl.epsilon = o.epsilon;
    kl.delta = o.delta;
    kl.seed = qrel::Rng(o.seed).NextUint64();
    kl.fixed_samples = o.fixed_samples;
    qrel::StatusOr<qrel::KarpLubyResult> estimate =
        qrel::KarpLubyProbability(dnf, prob_true, kl);
    spans->End(sampling);
    if (!estimate.ok()) {
      return std::nullopt;
    }
    nu = estimate->estimate;
    counts->kl_samples += estimate->samples;
    std::set<int> variables;
    for (const std::vector<qrel::PropLiteral>& term : dnf.terms()) {
      for (const qrel::PropLiteral& literal : term) {
        variables.insert(literal.variable);
      }
    }
    counts->lineage_variables += variables.size();
    counts->lineage_db_entries += db.UncertainEntries().size();
  }
  qrel::StatusOr<qrel::CompiledQuery> compiled =
      qrel::CompiledQuery::Compile(effective, db.vocabulary());
  if (!compiled.ok()) {
    return std::nullopt;
  }
  double prob = universal ? 1.0 - nu : nu;
  bool observed = compiled->Eval(db.observed(), {});
  return std::clamp(1.0 - (observed ? 1.0 - prob : prob), 0.0, 1.0);
}

}  // namespace

bool ReplayQuery(const qrel::ReliabilityEngine& engine,
                 const std::string& text, const std::string& predicate,
                 const qrel::EngineOptions& o,
                 const qrel::EngineReport& report, int id,
                 SpanRecorder* spans, Counts* counts) {
  const qrel::UnreliableDatabase& db = engine.database();
  const std::string& method = report.method;
  std::optional<double> estimate;
  std::optional<qrel::Rational> exact;
  if (!predicate.empty()) {
    int parse = spans->Begin("logic.parse", id);
    qrel::StatusOr<qrel::DatalogProgram> program =
        qrel::ParseDatalogProgram(text);
    spans->End(parse);
    if (!program.ok()) {
      return false;
    }
    int analyze = spans->Begin("logic.analyze", id);
    qrel::DatalogAnalysis analysis =
        qrel::AnalyzeDatalogProgram(*program, &db.vocabulary(), predicate);
    spans->End(analyze);
    spans->Timed("engine.plan", id, [&] {
      return engine.ExplainDatalog(*program, predicate, o);
    });
    qrel::StatusOr<qrel::CompiledDatalog> compiled =
        qrel::CompiledDatalog::Compile(std::move(program).value(),
                                       db.vocabulary());
    if (analysis.has_errors() || !compiled.ok()) {
      return false;
    }
    if (StartsWith(method, "Thm 4.2")) {
      auto r = spans->Timed("datalog.exact", id, [&] {
        return qrel::ExactDatalogReliability(*compiled, predicate, db);
      });
      if (r.ok()) {
        exact = r->reliability;
        counts->datalog_worlds += r->work_units;
      }
    } else {
      auto r = spans->Timed("datalog.padded", id, [&] {
        return qrel::PaddedDatalogReliability(*compiled, predicate, db,
                                              ApproxFor(o));
      });
      if (r.ok()) {
        estimate = r->estimate;
        counts->datalog_samples += r->samples;
      }
    }
  } else {
    qrel::StatusOr<qrel::FormulaPtr> query = spans->Timed(
        "logic.parse", id, [&] { return qrel::ParseFormula(text); });
    if (!query.ok()) {
      return false;
    }
    qrel::FormulaAnalysis analysis = spans->Timed("logic.analyze", id, [&] {
      return qrel::AnalyzeFormula(*query, &db.vocabulary());
    });
    spans->Timed("engine.plan", id, [&] { return engine.Explain(*query, o); });
    const qrel::FormulaPtr& effective =
        analysis.arity_preserved ? analysis.simplified : *query;
    if (StartsWith(method, "Cor 5.5")) {
      estimate = ReplayCor55(effective,
                             method.find("universal") != std::string::npos,
                             db, o, id, spans, counts);
    } else if (StartsWith(method, "Thm 5.12")) {
      auto r = spans->Timed("core.padded", id, [&] {
        return qrel::PaddedReliabilityApprox(effective, db,
                                             ApproxFor(o));
      });
      if (r.ok()) {
        estimate = r->estimate;
        counts->padded_samples += r->samples;
      }
    } else if (StartsWith(method, "Thm 4.2")) {
      auto r = spans->Timed("core.exact", id, [&] {
        return qrel::ExactReliability(effective, db);
      });
      if (r.ok()) {
        exact = r->reliability;
        counts->worlds += r->work_units;
      }
    } else if (StartsWith(method, "safe-plan extensional")) {
      auto r = spans->Timed("lifted.extensional", id, [&] {
        return qrel::ExtensionalReliability(effective, db);
      });
      if (r.ok()) {
        exact = r->reliability;
      }
    } else if (StartsWith(method, "Prop 3.1")) {
      auto r = spans->Timed("core.quantifier_free", id, [&] {
        return qrel::QuantifierFreeReliability(effective, db);
      });
      if (r.ok()) {
        exact = r->reliability;
      }
    }
  }
  if (report.is_exact) {
    return exact.has_value() && report.exact_reliability.has_value() &&
           *exact == *report.exact_reliability;
  }
  return estimate.has_value() && *estimate == report.reliability;
}

}  // namespace perfbench
