// The textbook naive Datalog fixpoint, kept as the differential oracle of
// CompiledDatalog's semi-naive join (tests, fuzzers and the E11 ablation
// only). Every round re-derives everything from scratch, and a positive
// extensional literal probes all n^free values of its unbound positions
// through AtomOracle::AtomTrue — no candidates, no indexes, no deltas.

#ifndef QREL_TESTS_DATALOG_ORACLE_H_
#define QREL_TESTS_DATALOG_ORACLE_H_

#include "qrel/datalog/eval.h"
#include "qrel/relational/structure.h"
#include "qrel/util/run_context.h"
#include "qrel/util/status.h"

namespace qrel {

// The least stratified model of `program` over `edb`, stratum by stratum,
// by naive iteration to the fixpoint. `ctx` (nullable) is charged one
// work unit per body-enumeration node.
StatusOr<DatalogResult> NaiveDatalogEval(const CompiledDatalog& program,
                                         const AtomOracle& edb,
                                         RunContext* ctx);
inline DatalogResult NaiveDatalogEval(const CompiledDatalog& program,
                                      const AtomOracle& edb) {
  return std::move(NaiveDatalogEval(program, edb, nullptr)).value();
}

}  // namespace qrel

#endif  // QREL_TESTS_DATALOG_ORACLE_H_
