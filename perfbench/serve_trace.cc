// The serving path's traced replay: tenants' requests to an in-process
// QrelServer (default ServerOptions: 2 workers, no state_dir) over loopback
// TCP, replayed on one connection. It runs in exact_small's traced run and
// reports the net.* layer metrics; serve_mixed is not an end-to-end workload
// (perfbench/README.md says why).
//
// The request mix, per block of 100: 68 repeats of an 8-query set (cache
// hits), 14 cache misses that compute in about a millisecond (unique-seed
// sampled queries with fixed_samples = 32, a safe CQ and a quantifier-free
// query), 16 EXPLAINs and 2 RELOADs that alternate the "alt" database
// between two versions.

#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <memory>

#include "dbgen.h"
#include "oracle.h"
#include "qrel/net/client.h"
#include "qrel/net/server.h"
#include "qrel/prob/text_format.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kMissSamples = 32;
constexpr size_t kRequests = 2000;

enum class Kind { kHit, kMiss, kExplain, kReload };

// A query of the mix and its oracle.
struct MixQuery {
  std::string text;
  std::string db;
  std::function<bool(const DbSpec&, Exact*)> oracle;
};

bool FromLineage(Lineage (*make)(const DbSpec&), bool negate,
                 const DbSpec& db, Exact* out) {
  if (!LineageProbability(db, make(db), out)) {
    return false;
  }
  if (negate) {
    *out = {qrel::Rational::One() - out->prob_true, !out->observed};
  }
  return true;
}

Lineage CycleLineage(const DbSpec& db) { return TwoCycleLineage(db, "E"); }
Lineage CycleNotSLineage(const DbSpec& db) {
  return TwoCycleLineage(db, "E", "S", true);
}
Lineage PathLineage(const DbSpec& db) { return SelfJoinPathLineage(db); }
Lineage SafeLineage(const DbSpec& db) {
  return UnaryBinaryLineage(db, "S", "E", true);
}
Lineage QuantifierFreeLineage(const DbSpec& db) {
  Lineage lineage;
  TermBuilder(db).Pos("E", {0, 1}).AddTo(&lineage);
  TermBuilder(db).Pos("S", {2}).AddTo(&lineage);
  return lineage;
}

std::function<bool(const DbSpec&, Exact*)> Oracle(
    Lineage (*make)(const DbSpec&), bool negate = false) {
  return [make, negate](const DbSpec& db, Exact* out) {
    return FromLineage(make, negate, db, out);
  };
}

// Hit set (0–7), then the miss shapes (8–10).
std::vector<MixQuery> MixQueries() {
  const std::string cycle = "exists x y . E(x,y) & E(y,x)";
  const std::string safe = "exists x y . S(x) & E(x,y)";
  const std::string qf = "E(0,1) | S(2)";
  std::vector<MixQuery> q;
  q.push_back({cycle, "default", Oracle(CycleLineage)});
  q.push_back({"exists x y . E(x,y) & S(x) & S(y)", "default",
               Oracle(PathLineage)});
  q.push_back({"forall x y . E(x,y) & E(y,x) -> S(x)", "default",
               Oracle(CycleNotSLineage, true)});
  q.push_back({safe, "default", Oracle(SafeLineage)});
  q.push_back({qf, "default", Oracle(QuantifierFreeLineage)});
  q.push_back({"forall x . exists y . E(x,y)", "default",
               [](const DbSpec& db, Exact* out) {
                 return ForallExistsExact(db, "", out);
               }});
  q.push_back({"exists x y . E(x,y) & E(y,x) & S(x)", "default",
               [](const DbSpec& db, Exact* out) {
                 return LineageProbability(
                     db, TwoCycleLineage(db, "E", "S", false), out);
               }});
  q.push_back({cycle, "alt", Oracle(CycleLineage)});
  q.push_back({cycle, "big", Oracle(CycleLineage)});  // sampled miss
  q.push_back({safe, "default", Oracle(SafeLineage)});
  q.push_back({qf, "big", Oracle(QuantifierFreeLineage)});
  return q;
}
constexpr int kHitQueries = 8;

struct Item {
  Kind kind = Kind::kHit;
  int query = -1;  // index into MixQueries(), -1 for RELOAD
  qrel::Request request;
};

// The request sequence. RELOADs alternate alt_b, alt_a, ...
std::vector<Item> MakeSequence(uint64_t seed, size_t count,
                               const std::vector<MixQuery>& queries,
                               const std::string& workdir) {
  SeededGen gen(seed);
  std::vector<Item> items;
  uint64_t unique_seed = seed * 1000003 + 17;
  int reloads = 0;
  while (items.size() < count) {
    std::vector<Kind> block;
    block.insert(block.end(), 68, Kind::kHit);
    block.insert(block.end(), 14, Kind::kMiss);
    block.insert(block.end(), 16, Kind::kExplain);
    gen.Shuffle(&block);
    block.insert(block.begin(), Kind::kReload);
    block.insert(block.begin() + 48, Kind::kReload);
    for (Kind kind : block) {
      Item item;
      item.kind = kind;
      qrel::Request& r = item.request;
      if (kind == Kind::kReload) {
        r.verb = qrel::RequestVerb::kReload;
        r.target = "alt";
        r.path = workdir + (reloads++ % 2 == 0 ? "/alt_b.udb" : "/alt_a.udb");
      } else {
        item.query = kind == Kind::kMiss
                         ? kHitQueries + gen.Below(3)
                         : gen.Below(kind == Kind::kHit ? kHitQueries
                                                        : kHitQueries + 1);
        const MixQuery& q = queries[static_cast<size_t>(item.query)];
        r.verb = kind == Kind::kExplain ? qrel::RequestVerb::kExplain
                                        : qrel::RequestVerb::kQuery;
        r.query = q.text;
        r.options.db = q.db;
        if (kind == Kind::kMiss) {
          r.options.seed = unique_seed++;
          if (item.query == kHitQueries) {
            r.options.fixed_samples = kMissSamples;
          }
        }
      }
      items.push_back(std::move(item));
    }
  }
  items.resize(count);
  return items;
}

// What the benchmark keeps of a response to check it after the run.
struct Outcome {
  double sent_ms = 0.0;
  double done_ms = 0.0;
  bool ok = false;
  std::string error;
  bool exact = false;
  std::string exact_value;
  double reliability = 0.0;
  double achieved_epsilon = 0.0;
  uint64_t fingerprint = 0;
  std::string cache;
  bool changed = false;
  bool admitted = false;
};

void Keep(const qrel::StatusOr<qrel::Response>& response, Outcome* out) {
  if (!response.ok() || !response->ok()) {
    out->error = response.ok() ? response->status.ToString()
                               : response.status().ToString();
    return;
  }
  out->ok = true;
  const qrel::Response& r = *response;
  out->exact = r.Field("exact").value_or("") == "1";
  out->exact_value = r.Field("exact_value").value_or("");
  out->reliability = std::strtod(r.Field("reliability").value_or("").c_str(),
                                 nullptr);
  out->achieved_epsilon = std::strtod(
      r.Field("achieved_epsilon").value_or("0").c_str(), nullptr);
  out->fingerprint = std::strtoull(
      r.Field("db_fingerprint").value_or("0").c_str(), nullptr, 10);
  out->cache = r.Field("cache").value_or("");
  out->changed = r.Field("changed").value_or("") == "1";
  out->admitted = r.Field("admitted").value_or("") == "1";
}

struct Version {
  std::string name;  // catalog name
  DbSpec spec;
  std::string text;
  uint64_t fingerprint = 0;
  std::unique_ptr<qrel::ReliabilityEngine> engine;  // for in-process checks
};

struct Setting {
  std::vector<Version> versions;  // default, big, alt_a, alt_b
  std::vector<MixQuery> queries;
  // (query, fingerprint) → exact R.
  std::map<std::pair<int, uint64_t>, qrel::Rational> expected;
  std::string workdir;
  bool ok = true;
};

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

Setting MakeSetting(uint64_t seed, const std::string& workdir) {
  Setting s;
  s.workdir = workdir;
  s.queries = MixQueries();
  auto add = [&](const std::string& name, DbSpec spec) {
    Version v;
    v.name = name;
    v.text = spec.ToUdb();
    v.spec = std::move(spec);
    qrel::StatusOr<qrel::UnreliableDatabase> db = qrel::ParseUdb(v.text);
    s.ok = s.ok && db.ok();
    if (db.ok()) {
      v.fingerprint = db->ContentFingerprint();
      v.engine =
          std::make_unique<qrel::ReliabilityEngine>(std::move(db).value());
    }
    std::fprintf(stderr, "db %s u=%d\n", v.spec.Describe().c_str(),
                 v.spec.Uncertain());
    s.versions.push_back(std::move(v));
  };
  // Shapes from fixed seeds, renamed instances from the workload seed; the
  // two versions of "alt" are two instances of one shape.
  add("default", Variant(SmallCycleDb(0xde, 12, 2, 16, 5, 4), seed, true));
  add("big", Variant(SmallCycleDb(0xb16, 24, 3, 31, 20, 6), seed, true));
  add("alt", Variant(SmallCycleDb(0xa1, 12, 2, 16, 5, 4), seed * 2, true));
  add("alt",
      Variant(SmallCycleDb(0xa1, 12, 2, 16, 5, 4), seed * 2 + 1, true));
  s.ok = s.ok && WriteFile(workdir + "/alt_a.udb", s.versions[2].text) &&
         WriteFile(workdir + "/alt_b.udb", s.versions[3].text);
  for (size_t q = 0; q < s.queries.size(); ++q) {
    for (const Version& v : s.versions) {
      if (v.name != s.queries[q].db) {
        continue;
      }
      Exact exact;
      s.ok = s.ok && s.queries[q].oracle(v.spec, &exact);
      s.expected[{static_cast<int>(q), v.fingerprint}] = exact.Reliability();
    }
  }
  return s;
}

const Version* VersionOf(const Setting& s, uint64_t fingerprint) {
  for (const Version& v : s.versions) {
    if (v.fingerprint == fingerprint) {
      return &v;
    }
  }
  return nullptr;
}

// Parses "default", builds and starts the server, parses and attaches
// "big", attaches "alt" from its file.
std::unique_ptr<qrel::QrelServer> StartServer(const Setting& s) {
  qrel::StatusOr<qrel::UnreliableDatabase> main_db =
      qrel::ParseUdb(s.versions[0].text);
  if (!main_db.ok()) {
    return nullptr;
  }
  auto server = std::make_unique<qrel::QrelServer>(
      qrel::ReliabilityEngine(std::move(main_db).value()),
      qrel::ServerOptions());
  if (!server->ServeInBackground(0).ok()) {
    return nullptr;
  }
  qrel::StatusOr<qrel::UnreliableDatabase> big =
      qrel::ParseUdb(s.versions[1].text);
  if (!big.ok() ||
      !server->catalog().AttachDatabase("big", std::move(big).value()).ok() ||
      !server->catalog().Attach("alt", s.workdir + "/alt_a.udb").ok()) {
    server->Shutdown();
    return nullptr;
  }
  return server;
}

// Checks every outcome; wrong answers and errors count as failed.
void CheckOutcomes(const Setting& s, const std::vector<Item>& items,
                   const std::vector<Outcome>& outcomes,
                   const std::string& phase, Result* result) {
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Item& item = items[i];
    const Outcome& o = outcomes[i];
    ++result->attempted;
    std::string why;
    if (!o.ok) {
      why = o.error;
    } else if (item.kind == Kind::kReload) {
      why = o.changed ? "" : "RELOAD did not swap the version";
    } else if (item.kind == Kind::kExplain) {
      why = o.admitted ? "" : "EXPLAIN did not admit the query";
    } else {
      auto it = s.expected.find({item.query, o.fingerprint});
      if (it == s.expected.end()) {
        why = "answer from an unknown database version";
      } else if (o.exact) {
        if (o.exact_value != it->second.ToString()) {
          why = "exact " + o.exact_value + " != oracle " +
                it->second.ToString();
        }
      } else {
        // The requests leave ε at the server default, 0.02.
        double tolerance = std::max(0.02, o.achieved_epsilon);
        if (std::fabs(o.reliability - it->second.ToDouble()) > tolerance) {
          why = "estimate off by more than its epsilon";
        }
        // The same request in process must give the same estimate.
        const Version* v = VersionOf(s, o.fingerprint);
        qrel::EngineOptions opts;
        opts.seed = item.request.options.seed.value_or(1);
        opts.fixed_samples = item.request.options.fixed_samples;
        opts.include_observed_answers = false;
        qrel::StatusOr<qrel::EngineReport> local =
            v->engine->Run(item.request.query, opts);
        if (!local.ok() || local->reliability != o.reliability) {
          why = "estimate differs from the in-process engine's";
        }
      }
    }
    if (!why.empty()) {
      ++result->failed;
      result->Mismatch(phase + " request " + std::to_string(i) + ": " + why);
    }
  }
}

// Closed loop on one connection: each request is sent when the previous
// one's response has arrived.
std::vector<Outcome> ClosedLoop(int port, const std::vector<Item>& items) {
  std::vector<Outcome> outcomes(items.size());
  qrel::QrelClient client;
  if (!client.Connect(port).ok()) {
    for (Outcome& o : outcomes) {
      o.error = "connect failed";
    }
    return outcomes;
  }
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < items.size(); ++i) {
    Clock::time_point sent = Clock::now();
    qrel::StatusOr<qrel::Response> response = client.Call(items[i].request);
    Clock::time_point done = Clock::now();
    outcomes[i].sent_ms = MillisBetween(start, sent);
    outcomes[i].done_ms = MillisBetween(start, done);
    Keep(response, &outcomes[i]);
  }
  return outcomes;
}

struct ReplayRecord {
  std::vector<std::string> cache;  // per request
  qrel::ServerStatsSnapshot stats;
  std::vector<double> rtt_us;
};

ReplayRecord TcpReplay(const Setting& s, const std::vector<Item>& items,
                       Result* result) {
  ReplayRecord record;
  std::unique_ptr<qrel::QrelServer> server = StartServer(s);
  if (server == nullptr) {
    result->Mismatch("server start failed");
    return record;
  }
  std::vector<Outcome> outcomes = ClosedLoop(server->port(), items);
  record.stats = server->stats_snapshot();
  server->Shutdown();
  CheckOutcomes(s, items, outcomes, "replay", result);
  for (const Outcome& o : outcomes) {
    record.cache.push_back(o.cache);
    record.rtt_us.push_back(1000.0 * (o.done_ms - o.sent_ms));
  }
  return record;
}

// Replays one request sequence twice over TCP on fresh servers (their cache
// behaviour must match) and once in process, and reports the net layers.
void TraceServe(const Setting& s, uint64_t seed, Result* result) {
  std::vector<Item> items = MakeSequence(seed, kRequests, s.queries,
                                         s.workdir);
  ReplayRecord first = TcpReplay(s, items, result);
  ReplayRecord second = TcpReplay(s, items, result);
  if (first.cache != second.cache ||
      first.stats.cache_hits != second.stats.cache_hits ||
      first.stats.cache_misses != second.stats.cache_misses) {
    ++result->failed;
    result->Mismatch("two single-connection replays hit the cache differently");
  }

  // The same sequence in process: Handle() and the codec per request; then,
  // for each cache miss, the engine compute of the same query.
  std::unique_ptr<qrel::QrelServer> server = StartServer(s);
  if (server == nullptr) {
    result->Mismatch("server start failed");
    return;
  }
  std::vector<double> handle_us(items.size());
  std::vector<Outcome> outcomes(items.size());
  double codec_us = 0.0;
  for (size_t i = 0; i < items.size(); ++i) {
    Clock::time_point t0 = Clock::now();
    qrel::StatusOr<qrel::Request> parsed =
        qrel::ParseRequest(qrel::SerializeRequest(items[i].request));
    Clock::time_point t1 = Clock::now();
    qrel::Response response =
        server->Handle(parsed.ok() ? *parsed : items[i].request);
    Clock::time_point t2 = Clock::now();
    qrel::StatusOr<qrel::Response> back =
        qrel::ParseResponse(qrel::SerializeResponse(response));
    Clock::time_point t3 = Clock::now();
    codec_us += 1000.0 * (MillisBetween(t0, t1) + MillisBetween(t2, t3));
    handle_us[i] = 1000.0 * MillisBetween(t1, t2);
    if (!parsed.ok() || !back.ok()) {
      result->Mismatch("a frame failed to round-trip the codec");
    }
    Keep(back, &outcomes[i]);
  }
  qrel::ServerStatsSnapshot stats = server->stats_snapshot();
  server->Shutdown();
  CheckOutcomes(s, items, outcomes, "in-process", result);

  double compute_us = 0.0, query_overhead_us = 0.0, reload_ms = 0.0;
  int queries = 0, reloads = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    if (item.kind == Kind::kReload) {
      reload_ms += handle_us[i] / 1000.0;
      ++reloads;
      continue;
    }
    if (item.kind == Kind::kExplain) {
      continue;
    }
    ++queries;
    double compute = 0.0;
    const Version* v = VersionOf(s, outcomes[i].fingerprint);
    if (outcomes[i].cache == "miss" && v != nullptr) {
      qrel::EngineOptions opts;
      opts.seed = item.request.options.seed.value_or(1);
      opts.fixed_samples = item.request.options.fixed_samples;
      opts.include_observed_answers = false;
      Clock::time_point start = Clock::now();
      qrel::StatusOr<qrel::EngineReport> report =
          v->engine->Run(item.request.query, opts);
      compute = 1000.0 * MillisBetween(start, Clock::now());
      if (!report.ok()) {
        result->Mismatch("in-process Run failed: " +
                         report.status().ToString());
      }
    }
    compute_us += compute;
    query_overhead_us += handle_us[i] - compute;
  }

  double n = static_cast<double>(items.size());
  double rtt_us = 0.0, all_handle_us = 0.0;
  for (size_t i = 0; i < items.size(); ++i) {
    rtt_us += first.rtt_us[i];
    all_handle_us += handle_us[i];
  }
  result->Add("net.codec.us_per_request", codec_us / n, "us");
  result->Add("net.transport.us", (rtt_us - all_handle_us) / n, "us");
  result->Add("net.server.handle_overhead_us",
              queries == 0 ? 0.0 : query_overhead_us / queries, "us");
  uint64_t lookups = stats.cache_hits + stats.cache_misses + stats.cache_shared;
  result->Add("net.server.cache_hit_ratio",
              lookups == 0 ? 0.0 : static_cast<double>(stats.cache_hits) /
                                       static_cast<double>(lookups),
              "ratio");
  result->Add("net.server.single_flight_shared", stats.cache_shared, "count");
  result->Add("net.server.shed",
              stats.shed_queue_full + stats.shed_quota + stats.shed_draining +
                  stats.shed_tenant_rate + stats.shed_tenant_quota +
                  stats.shed_displaced,
              "count");
  result->Add("net.catalog.reload_ms", reloads == 0 ? 0.0 : reload_ms / reloads,
              "ms");
  result->Add("trace.share.engine_compute", compute_us / rtt_us, "ratio");
  std::fprintf(stderr,
               "trace: serve replay of %zu requests, mean round trip %.1f "
               "us, in-process Handle %.1f us, engine compute %.1f%% of "
               "round-trip time\n",
               items.size(), rtt_us / n, all_handle_us / n,
               100.0 * compute_us / rtt_us);
}

}  // namespace

void AddServeTraceMetrics(const RunConfig& config, Result* result) {
  Setting s = MakeSetting(config.seed, config.workdir);
  if (!s.ok) {
    result->Mismatch("serve replay: set-up of inputs failed");
    return;
  }
  TraceServe(s, config.seed, result);
}

}  // namespace perfbench
