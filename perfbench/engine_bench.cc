// approx_sparse and exact_small: one closed-loop analyst calling
// ReliabilityEngine::Run (RunDatalog for the Datalog query) on a fixed list
// of queries, round after round, for the measured duration.
//
// The traced run repeats each query's chosen rung (EngineReport::method) as
// calls into that rung's public functions, with a span around each call.

#include <algorithm>
#include <cmath>
#include <memory>

#include "dbgen.h"
#include "oracle.h"
#include "qrel/engine/engine.h"
#include "qrel/prob/text_format.h"
#include "qrel/util/snapshot.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr char kTransitiveClosure[] =
    "Path(x, y) :- E(x, y).\nPath(x, z) :- Path(x, y), E(y, z).\n";

struct Case {
  std::string label;
  int db = 0;
  std::string text;
  std::string predicate;  // Datalog predicate; empty for first-order
  std::vector<std::string> relations;
  double epsilon = 0.1;
  double delta = 0.1;
  uint64_t seed = 1;
  qrel::Rational expected;  // R by the oracle
};

struct Workload {
  std::vector<DbSpec> dbs;
  std::vector<Case> cases;
  size_t min_rounds = 10;  // so that each query repeats enough
  bool oracle_ok = true;
};

Exact Negated(const Exact& exact) {
  return {qrel::Rational::One() - exact.prob_true, !exact.observed};
}

void AddCase(Workload* w, const std::string& label, int db,
             const std::string& text, std::vector<std::string> relations,
             double epsilon, double delta, bool oracle_ok,
             const Exact& exact) {
  Case c;
  c.label = label;
  c.db = db;
  c.text = text;
  c.relations = std::move(relations);
  c.epsilon = epsilon;
  c.delta = delta;
  c.seed = 1000003 * (w->cases.size() + 1);
  c.expected = exact.Reliability();
  w->oracle_ok = w->oracle_ok && oracle_ok;
  w->cases.push_back(std::move(c));
}

void AddLineageCase(Workload* w, const std::string& label, int db,
                    const std::string& text,
                    std::vector<std::string> relations, double epsilon,
                    double delta, const Lineage& lineage, bool negate) {
  Exact exact;
  bool ok = LineageProbability(w->dbs[static_cast<size_t>(db)], lineage,
                               &exact);
  AddCase(w, label, db, text, std::move(relations), epsilon, delta, ok,
          negate ? Negated(exact) : exact);
}

void AddForallExistsCase(Workload* w, const std::string& label, int db,
                         const std::string& unary, double epsilon,
                         double delta) {
  Exact exact;
  bool ok = ForallExistsExact(w->dbs[static_cast<size_t>(db)], unary, &exact);
  std::string text = unary.empty()
                         ? "forall x . exists y . E(x,y)"
                         : "forall x . " + unary + "(x) | exists y . E(x,y)";
  std::vector<std::string> relations = {"E"};
  if (!unary.empty()) {
    relations.push_back(unary);
  }
  AddCase(w, label, db, text, relations, epsilon, delta, ok, exact);
}

Workload MakeApproxSparse(uint64_t seed) {
  Workload w;
  // Shapes from fixed seeds, instances from the workload seed (dbgen.h).
  // Grounding visits every assignment whatever the names, so the sparse
  // graph is also renamed; ∀x∃y evaluation stops at the first vertex
  // without an out-edge, so that graph keeps its names.
  w.dbs.push_back(Variant(SparseGraphDb(0x5a), seed, true));
  w.dbs.push_back(
      Variant(ForallExistsDb(0xfe, 64, 20, 10, 8, 16, true), seed, false));
  const DbSpec& g = w.dbs[0];
  AddLineageCase(&w, "cq_2cycle", 0, "exists x y . E(x,y) & E(y,x)", {"E"},
                 0.15, 0.1, TwoCycleLineage(g, "E"), false);
  AddLineageCase(&w, "cq_2cycle_s", 0,
                 "exists x y . E(x,y) & E(y,x) & S(x)", {"E", "S"}, 0.15,
                 0.1, TwoCycleLineage(g, "E", "S", false), false);
  AddLineageCase(&w, "cq_selfjoin_path", 0,
                 "exists x y . E(x,y) & S(x) & S(y)", {"E", "S"}, 0.2, 0.1,
                 SelfJoinPathLineage(g), false);
  AddLineageCase(&w, "univ_cycle_s", 0,
                 "forall x y . E(x,y) & E(y,x) -> S(x)", {"E", "S"}, 0.15,
                 0.1, TwoCycleLineage(g, "E", "S", true), true);
  AddLineageCase(&w, "small_t_2cycle", 0, "exists x y . T(x,y) & T(y,x)",
                 {"T"}, 0.1, 0.1, TwoCycleLineage(g, "T"), false);
  AddLineageCase(&w, "small_t_sym", 0, "forall x y . T(x,y) -> T(y,x)",
                 {"T"}, 0.2, 0.1, AsymmetricLineage(g, "T"), true);
  AddLineageCase(&w, "safe_t_s", 0, "exists x y . T(x,y) & S(y)",
                 {"T", "S"}, 0.1, 0.1,
                 UnaryBinaryLineage(g, "S", "T", false), false);
  AddForallExistsCase(&w, "fe_out", 1, "", 0.15, 0.1);
  AddForallExistsCase(&w, "fe_out_or_s", 1, "S", 0.15, 0.1);
  return w;
}

Workload MakeExactSmall(uint64_t seed) {
  Workload w;
  // Shapes from fixed seeds, instances from the workload seed (dbgen.h).
  // World enumeration evaluates each world in element order and stops at
  // the first witness, so the first two keep their names; the fixpoint and
  // the safe plans cost the same under any names.
  w.dbs.push_back(Variant(SmallCycleDb(0xc1, 20, 3, 26, 11, 8), seed, false));
  w.dbs.push_back(
      Variant(ForallExistsDb(0xfe, 16, 5, 6, 6, 6, false), seed, false));
  w.dbs.push_back(Variant(SmallCycleDb(0x7c, 16, 2, 21, 10, 4), seed, true));
  w.dbs.push_back(Variant(SafeCqDb(0x5afe), seed, true));
  const DbSpec& c = w.dbs[0];
  const DbSpec& s = w.dbs[3];
  AddLineageCase(&w, "cq_2cycle", 0, "exists x y . E(x,y) & E(y,x)", {"E"},
                 0.1, 0.1, TwoCycleLineage(c, "E"), false);
  AddLineageCase(&w, "cq_selfjoin_path", 0,
                 "exists x y . E(x,y) & S(x) & S(y)", {"E", "S"}, 0.1, 0.1,
                 SelfJoinPathLineage(c), false);
  AddLineageCase(&w, "univ_cycle_s", 0,
                 "forall x y . E(x,y) & E(y,x) -> S(x)", {"E", "S"}, 0.1,
                 0.1, TwoCycleLineage(c, "E", "S", true), true);
  AddForallExistsCase(&w, "fe_out", 1, "", 0.1, 0.1);
  AddForallExistsCase(&w, "fe_out_or_s", 1, "S", 0.1, 0.1);
  {
    qrel::Rational tc;
    bool ok = TransitiveClosureReliability(w.dbs[2], "E", &tc);
    Exact exact{tc, true};
    AddCase(&w, "datalog_tc", 2, kTransitiveClosure, {"E"}, 0.1, 0.1, ok,
            exact);
    w.cases.back().predicate = "Path";
  }
  AddLineageCase(&w, "safe_s_e", 3, "exists x y . S(x) & E(x,y)",
                 {"S", "E"}, 0.1, 0.1, UnaryBinaryLineage(s, "S", "E", true),
                 false);
  AddLineageCase(&w, "safe_chain", 3, "exists x y z . E(x,y) & F(y,z)",
                 {"E", "F"}, 0.1, 0.1, BinaryJoinLineage(s, "E", "F", true),
                 false);
  AddLineageCase(&w, "safe_reverse", 3, "exists x y . E(x,y) & F(y,x)",
                 {"E", "F"}, 0.1, 0.1, BinaryJoinLineage(s, "E", "F", false),
                 false);
  return w;
}

using Engines = std::vector<std::unique_ptr<qrel::ReliabilityEngine>>;

// The measured set-up: parse every database and build its engine.
bool SetUp(const std::vector<std::string>& texts, Engines* engines) {
  engines->clear();
  for (const std::string& text : texts) {
    qrel::StatusOr<qrel::UnreliableDatabase> db = qrel::ParseUdb(text);
    if (!db.ok()) {
      std::fprintf(stderr, "ParseUdb: %s\n", db.status().ToString().c_str());
      return false;
    }
    engines->push_back(
        std::make_unique<qrel::ReliabilityEngine>(std::move(db).value()));
  }
  return true;
}

qrel::EngineOptions OptionsFor(const Case& c) {
  qrel::EngineOptions options;
  options.epsilon = c.epsilon;
  options.delta = c.delta;
  options.seed = c.seed;
  return options;
}

qrel::StatusOr<qrel::EngineReport> RunCase(const qrel::ReliabilityEngine& e,
                                           const Case& c,
                                           const qrel::EngineOptions& o) {
  return c.predicate.empty() ? e.Run(c.text, o)
                             : e.RunDatalog(c.text, c.predicate, o);
}

struct Answer {
  int case_index = 0;
  double ms = 0.0;
  qrel::StatusOr<qrel::EngineReport> report =
      qrel::Status::Internal("not run");
};

// Checks one answer against the oracle: exact answers bit for bit,
// estimates within the requested ε.
bool AnswerRight(const Case& c, const Answer& a, std::string* why) {
  if (!a.report.ok()) {
    *why = a.report.status().ToString();
    return false;
  }
  const qrel::EngineReport& r = *a.report;
  if (r.is_exact) {
    if (!r.exact_reliability.has_value() ||
        *r.exact_reliability != c.expected) {
      *why = "exact " + (r.exact_reliability.has_value()
                             ? r.exact_reliability->ToString()
                             : std::string("<none>")) +
             " != oracle " + c.expected.ToString();
      return false;
    }
    return true;
  }
  double error = std::fabs(r.reliability - c.expected.ToDouble());
  if (!(error <= c.epsilon)) {
    *why = "estimate " + std::to_string(r.reliability) + " vs oracle " +
           std::to_string(c.expected.ToDouble()) + " (eps " +
           std::to_string(c.epsilon) + ", method " + r.method + ")";
    return false;
  }
  return true;
}

// ---- traced run ---------------------------------------------------------

struct TracedPass {
  SpanRecorder spans;
  Counts counts;
  double run_ms = 0.0;      // Σ Run wall time (ungoverned RunContext)
  double self_ms = 0.0;     // Σ Run − its replayed child spans
  double traced_ms = 0.0;   // Σ replayed child spans (engine.plan excluded)
  int reproduced = 0;       // queries whose replay matched Run's answer
  std::vector<std::string> answers;  // per query, for the repeat check
  std::vector<std::string> wrong;    // answers the oracle refutes
};

// One traced pass over every case: Run (with an ungoverned RunContext, for
// work units), then the replay under spans.
TracedPass TracePass(const Workload& w, const Engines& engines) {
  TracedPass pass;
  for (size_t i = 0; i < w.cases.size(); ++i) {
    const Case& c = w.cases[i];
    const qrel::ReliabilityEngine& engine =
        *engines[static_cast<size_t>(c.db)];
    qrel::RunContext ctx;
    qrel::EngineOptions o = OptionsFor(c);
    o.run_context = &ctx;
    Clock::time_point start = Clock::now();
    Answer answer;
    answer.report = RunCase(engine, c, o);
    double run_ms = MillisBetween(start, Clock::now());
    std::string why;
    if (!AnswerRight(c, answer, &why)) {
      pass.wrong.push_back(c.label + ": " + why);
    }
    const qrel::StatusOr<qrel::EngineReport>& report = answer.report;
    if (!report.ok()) {
      pass.answers.push_back(report.status().ToString());
      continue;
    }
    pass.run_ms += run_ms;
    pass.counts.work_units += report->budget_spent;
    pass.answers.push_back(report->method + " " +
                           std::to_string(report->reliability));
    qrel::EngineOptions replay = OptionsFor(c);
    int id = static_cast<int>(i);
    int root = pass.spans.Begin("replay", id);
    pass.reproduced += ReplayQuery(engine, c.text, c.predicate, replay,
                                   *report, id, &pass.spans, &pass.counts);
    pass.spans.End(root);
    double plan_ms = 0.0;
    for (const Span& span : pass.spans.spans()) {
      if (span.parent == root && span.name == "engine.plan") {
        plan_ms += span.ms();
      }
    }
    pass.traced_ms += pass.spans.ChildMs(root) - plan_ms;
    pass.self_ms += run_ms - (pass.spans.ChildMs(root) - plan_ms);
  }
  return pass;
}

// trace.overhead_ms is the recorder's own cost: one Begin/End pair, timed
// over many pairs, times the spans a query records. (Comparing whole passes
// with and without spans cannot resolve it: passes minutes apart differ by
// more than that.)
double SpanCostMs() {
  constexpr int kPairs = 1 << 16;
  SpanRecorder recorder;
  Clock::time_point start = Clock::now();
  for (int i = 0; i < kPairs; ++i) {
    recorder.End(recorder.Begin("logic.grounding", i));
  }
  return MillisBetween(start, Clock::now()) / kPairs;
}

// util.checkpoint.gate_ns_per_sample: what every sample of a checkpointed
// sampling loop pays for the gate, CheckpointScope::MaybeCheckpoint with an
// attached Checkpointer whose interval never elapses, minus the same call on
// an inert scope (no Checkpointer): per call over 2^20 calls, the median of
// five pairs. The gate is timed on its own because its cost is far below the
// run-to-run noise of a whole sampled query on this workload, where one
// Karp-Luby sample redraws every uncertain entry.
double CheckpointGateNs(const std::string& workdir) {
  constexpr int kCalls = 1 << 20;
  auto ns_per_call = [&](bool attached) {
    qrel::Checkpointer checkpointer(workdir + "/gate.ckpt",
                                    std::chrono::hours(24));
    qrel::RunContext ctx;
    if (attached) {
      ctx.SetCheckpointer(&checkpointer);
    }
    qrel::CheckpointScope scope(&ctx, "perfbench.gate", 0);
    uint64_t filled = 0;
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      qrel::Status status =
          scope.MaybeCheckpoint([&](qrel::SnapshotWriter&) { ++filled; });
      filled += status.ok() ? 0 : 1;
    }
    return MillisBetween(start, Clock::now()) * 1e6 / kCalls;
  };
  std::vector<double> difference;
  for (int pair = 0; pair < 5; ++pair) {
    difference.push_back(ns_per_call(true) - ns_per_call(false));
  }
  return Median(difference);
}

void AddTraceMetrics(const Workload& w, const Engines& engines,
                     const RunConfig& config, bool approx_sparse,
                     Result* result) {
  TracedPass first = TracePass(w, engines);
  TracedPass second = TracePass(w, engines);
  int cases = static_cast<int>(w.cases.size());
  result->attempted += 2 * static_cast<uint64_t>(cases);
  for (const TracedPass* pass : {&first, &second}) {
    for (const std::string& why : pass->wrong) {
      ++result->failed;
      result->Mismatch(why);
    }
  }
  if (!(first.counts == second.counts) || first.answers != second.answers) {
    result->failed += 1;
    result->Mismatch("two traced passes with one seed gave different counts");
  }
  if (first.reproduced != cases || second.reproduced != cases) {
    std::fprintf(stderr,
                 "trace: the replay reproduced %d of %d answers; the "
                 "per-layer split is not trusted\n",
                 first.reproduced, cases);
  }
  first.spans.WriteJsonLines(config.workdir + "/spans.jsonl");

  std::map<std::string, double> ms = first.spans.TotalsMs();
  const Counts& k = first.counts;
  auto per = [](double total, uint64_t count) {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  };
  result->Add("logic.parse.ms", ms["logic.parse"], "ms");
  result->Add("logic.analyze.ms", ms["logic.analyze"], "ms");
  result->Add("engine.plan.ms", ms["engine.plan"], "ms");
  result->Add("logic.grounding.ms", ms["logic.grounding"], "ms");
  result->Add("logic.grounding.assignments", k.assignments, "count");
  result->Add("logic.grounding.terms", k.terms, "count");
  result->Add("logic.grounding.terms_per_assignment",
              per(k.terms, k.assignments), "ratio");
  result->Add("propositional.karp_luby.ms", ms["propositional.karp_luby"],
              "ms");
  result->Add("propositional.karp_luby.samples", k.kl_samples, "count");
  result->Add("propositional.karp_luby.ns_per_sample",
              per(ms["propositional.karp_luby"] * 1e6, k.kl_samples), "ns");
  result->Add("propositional.karp_luby.lineage_share",
              per(k.lineage_variables, k.lineage_db_entries), "ratio");
  result->Add("core.padded.ms", ms["core.padded"], "ms");
  result->Add("core.padded.samples", k.padded_samples, "count");
  result->Add("core.padded.ns_per_sample",
              per(ms["core.padded"] * 1e6, k.padded_samples), "ns");
  result->Add("core.exact.ms", ms["core.exact"], "ms");
  result->Add("core.exact.worlds", k.worlds, "count");
  result->Add("core.exact.ns_per_world", per(ms["core.exact"] * 1e6, k.worlds),
              "ns");
  std::vector<double> share;
  for (const Case& c : w.cases) {
    const DbSpec& db = w.dbs[static_cast<size_t>(c.db)];
    share.push_back(std::exp2(db.Uncertain(c.relations) - db.Uncertain()));
  }
  result->Add("core.exact.relevant_world_share", Median(share), "ratio");
  result->Add("datalog.exact.ms", ms["datalog.exact"], "ms");
  result->Add("datalog.exact.worlds", k.datalog_worlds, "count");
  result->Add("datalog.padded.ms", ms["datalog.padded"], "ms");
  result->Add("datalog.padded.samples", k.datalog_samples, "count");
  result->Add("lifted.extensional.ms", ms["lifted.extensional"], "ms");
  result->Add("util.run_context.work_units", k.work_units, "count");
  result->Add("engine.run.ms", first.run_ms, "ms");
  result->Add("engine.run.self_ms", first.self_ms, "ms");
  double sampling = ms["logic.grounding"] + ms["propositional.karp_luby"] +
                    ms["core.padded"] + ms["datalog.padded"];
  double enumeration = ms["core.exact"] + ms["datalog.exact"];
  result->Add("trace.share.grounding_sampling", sampling / first.traced_ms,
              "ratio");
  result->Add("trace.share.exact", enumeration / first.traced_ms, "ratio");
  result->Add("trace.overhead_ms",
              SpanCostMs() * static_cast<double>(first.spans.spans().size()) /
                  cases,
              "ms");
  result->Add("trace.fidelity",
              static_cast<double>(first.reproduced) / cases, "ratio");
  if (approx_sparse) {
    double gate_ns = CheckpointGateNs(config.workdir);
    result->Add("util.checkpoint.gate_ns_per_sample", gate_ns, "ns");
    std::fprintf(stderr,
                 "trace: checkpoint gate %.1f ns per sample, %.2f%% of a "
                 "Karp-Luby sample here\n",
                 gate_ns,
                 100.0 * gate_ns / per(ms["propositional.karp_luby"] * 1e6,
                                       k.kl_samples));
  }
  std::fprintf(stderr,
               "trace: %.1f ms traced over %d queries; grounding+sampling "
               "%.1f%%, world enumeration %.1f%% of it\n",
               first.traced_ms, cases, 100.0 * sampling / first.traced_ms,
               100.0 * enumeration / first.traced_ms);
}

void RunEngineWorkload(const Workload& w, const RunConfig& config,
                       bool approx_sparse, Result* result) {
  if (!w.oracle_ok) {
    result->Mismatch("the oracle could not compute an expected answer");
    return;
  }
  std::vector<std::string> texts;
  for (const DbSpec& db : w.dbs) {
    texts.push_back(db.ToUdb());
    std::fprintf(stderr, "db %s u=%d\n", db.Describe().c_str(),
                 db.Uncertain());
  }
  // The engines the rounds query; their set-up is timed below with the rest.
  Engines engines;
  if (!SetUp(texts, &engines)) {
    result->Mismatch("database set-up failed");
    return;
  }

  if (config.trace) {
    AddTraceMetrics(w, engines, config, approx_sparse, result);
    if (!approx_sparse) {
      AddServeTraceMetrics(config, result);
    }
    AddMissingLayerMetrics(result);
    return;
  }

  // Rounds of every query, each round preceded by one timed set-up of a
  // fresh set of engines, so that set-ups and queries sample the same
  // stretch of the host's time. Round k runs on the k-th allowed CPU in
  // turn, so that every query repeats on every CPU (see README.md,
  // "Timing").
  std::vector<Answer> answers;
  std::vector<double> setup;
  size_t rounds = 0;
  const std::vector<int> cpus = AllowedCpus();
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < config.seconds ||
         rounds < w.min_rounds) {
    RunOn({cpus[rounds % cpus.size()]});
    {
      Engines fresh;
      Clock::time_point t0 = Clock::now();
      if (!SetUp(texts, &fresh)) {
        result->Mismatch("database set-up failed");
        return;
      }
      setup.push_back(SecondsSince(t0));
    }
    for (size_t i = 0; i < w.cases.size(); ++i) {
      const Case& c = w.cases[i];
      Answer a;
      a.case_index = static_cast<int>(i);
      Clock::time_point t0 = Clock::now();
      a.report = RunCase(*engines[static_cast<size_t>(c.db)], c,
                         OptionsFor(c));
      a.ms = MillisBetween(t0, Clock::now());
      answers.push_back(std::move(a));
    }
    ++rounds;
  }
  RunOn(cpus);

  // Outside the timed region: check every answer.
  uint64_t exact = 0;
  std::vector<std::vector<double>> per_case(w.cases.size());
  for (const Answer& a : answers) {
    const Case& c = w.cases[static_cast<size_t>(a.case_index)];
    per_case[static_cast<size_t>(a.case_index)].push_back(a.ms);
    ++result->attempted;
    std::string why;
    if (!AnswerRight(c, a, &why)) {
      ++result->failed;
      result->Mismatch(c.label + ": " + why);
      continue;
    }
    exact += a.report->is_exact;
  }
  // A query repeats the same work in every round (same input, same sampler
  // seed), so its repetitions differ only by what else the host ran: its
  // latency is the fastest repetition (see README.md, "Timing").
  std::vector<double> latency;
  for (size_t i = 0; i < w.cases.size(); ++i) {
    const Case& c = w.cases[i];
    latency.push_back(
        *std::min_element(per_case[i].begin(), per_case[i].end()));
    std::fprintf(stderr, "query %-18s best %9.3f ms  median %9.3f ms  %s\n",
                 c.label.c_str(), latency.back(), Median(per_case[i]),
                 answers[i].report.ok() ? answers[i].report->method.c_str()
                                        : "error");
  }
  std::fprintf(stderr, "%zu rounds\n", rounds);
  double n = static_cast<double>(answers.size());
  // One closed-loop client completes one query per query latency.
  double sum_ms = 0.0;
  for (double ms : latency) {
    sum_ms += ms;
  }
  double throughput = 1e3 * static_cast<double>(latency.size()) / sum_ms;
  result->Add("p50_ms", Median(latency), "ms");
  result->Add("tail_ms", *std::max_element(latency.begin(), latency.end()),
              "ms");
  result->Add("throughput_qps", throughput, "1/s");
  // One closed-loop analyst has no open-loop ladder: the highest rate
  // without a growing backlog is the closed-loop throughput.
  result->Add("max_qps_at_slo", throughput, "1/s");
  result->Add("ok_frac", (n - static_cast<double>(result->failed)) / n,
              "ratio");
  result->Add("exact_frac", static_cast<double>(exact) / n, "ratio");
  result->Add("setup_s", Median(setup), "s");
  result->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace

void RunApproxSparse(const RunConfig& config, Result* result) {
  RunEngineWorkload(MakeApproxSparse(config.seed), config, true, result);
}

void RunExactSmall(const RunConfig& config, Result* result) {
  RunEngineWorkload(MakeExactSmall(config.seed), config, false, result);
}

}  // namespace perfbench
