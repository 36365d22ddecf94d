// The traced run's replay: repeats the rung the engine chose for a query
// (EngineReport::method) as calls into that rung's public functions, with a
// span around each call and the rung's deterministic work counts.

#ifndef QREL_PERFBENCH_REPLAY_H_
#define QREL_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "qrel/engine/engine.h"

namespace perfbench {

// Deterministic work counts of one traced pass.
struct Counts {
  uint64_t assignments = 0;
  uint64_t terms = 0;
  uint64_t kl_samples = 0;
  uint64_t padded_samples = 0;
  uint64_t worlds = 0;
  uint64_t datalog_worlds = 0;
  uint64_t datalog_samples = 0;
  uint64_t work_units = 0;
  uint64_t lineage_variables = 0;
  uint64_t lineage_db_entries = 0;
  bool operator==(const Counts& o) const {
    return assignments == o.assignments && terms == o.terms &&
           kl_samples == o.kl_samples && padded_samples == o.padded_samples &&
           worlds == o.worlds && datalog_worlds == o.datalog_worlds &&
           datalog_samples == o.datalog_samples &&
           work_units == o.work_units;
  }
};

// Replays the rung `report` names for `text` (a Datalog program when
// `predicate` is non-empty) under spans tagged `id`: logic.parse,
// logic.analyze, engine.plan, then the rung's own calls. Returns whether the
// replay reproduced the report's answer exactly (the same rational, or the
// same estimate for the same seed).
bool ReplayQuery(const qrel::ReliabilityEngine& engine,
                 const std::string& text, const std::string& predicate,
                 const qrel::EngineOptions& options,
                 const qrel::EngineReport& report, int id,
                 SpanRecorder* spans, Counts* counts);

}  // namespace perfbench

#endif  // QREL_PERFBENCH_REPLAY_H_
