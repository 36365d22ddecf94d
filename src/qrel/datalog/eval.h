// Compilation and bottom-up fixpoint evaluation of stratified Datalog.
//
// CompiledDatalog validates a program against an EDB vocabulary: EDB
// predicates must exist with matching arities, IDB arities must be
// consistent, rules must be safe (every variable occurs in a positive body
// literal) and negation stratified. Evaluation runs stratum by stratum to
// the fixpoint, reading extensional atoms through the AtomOracle
// interface — so a program evaluates on the observed database and on any
// possible world alike, which is what the reliability algorithms need.
//
// Rule bodies are joins over the support: a positive extensional literal
// iterates its relation's true tuples — the oracle's candidates
// (AtomOracle::AppendCandidates) that AtomTrue confirms — through an index
// on the positions bound before it, never the n^arity tuples of the
// universe. Derived relations live in flat arity-packed arrays
// (relational/flat_tuples.h) in a DatalogWorkspace, which a caller that
// evaluates once per world keeps across worlds.
#ifndef QREL_DATALOG_EVAL_H_
#define QREL_DATALOG_EVAL_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "qrel/datalog/program.h"
#include "qrel/relational/flat_tuples.h"
#include "qrel/relational/structure.h"
#include "qrel/util/run_context.h"
#include "qrel/util/snapshot.h"
#include "qrel/util/status.h"

namespace qrel {

// Materialized IDB contents after a fixpoint evaluation.
using DatalogResult = std::map<std::string, std::set<Tuple>>;

class CompiledDatalog;

// The fixpoint's working state: each IDB relation as a FlatTupleSet, the
// extensional relations the rules scan (their true tuples), the indexes
// on bound positions, and the join's buffers. One workspace serves one
// program; every evaluation overwrites it, keeping its memory, so after
// the first few evaluations an evaluation allocates nothing.
class DatalogWorkspace {
 public:
  DatalogWorkspace() = default;
  DatalogWorkspace(const DatalogWorkspace&) = delete;
  DatalogWorkspace& operator=(const DatalogWorkspace&) = delete;

 private:
  friend class CompiledDatalog;

  struct Relation {
    FlatTupleSet tuples;
    int stratum = 0;
    // Rules of the running round see ids below `limit` (what the round
    // started with); a literal restricted to the delta sees
    // [delta_begin, limit), the previous round's derivations. Tuples
    // derived in the running round get ids from `limit` up.
    uint32_t delta_begin = 0;
    uint32_t limit = 0;
  };

  uint64_t program_id_ = 0;  // CompiledDatalog::id_ it is sized for
  std::vector<Relation> idb_;      // by IDB id (stratum order)
  std::vector<FlatTupleSet> edb_;  // by EDB relation id; scanned ones only
  std::vector<TupleIndex> indexes_;
  FlatTupleSet answer_;  // an extensional predicate's atoms
  std::vector<Element> binding_;
  std::vector<Element> key_;
  std::vector<Element> candidates_;
  Tuple probe_;
};

class CompiledDatalog {
 public:
  static StatusOr<CompiledDatalog> Compile(DatalogProgram program,
                                           const Vocabulary& edb_vocabulary);

  // Evaluates the program over the given extensional database to the
  // least fixpoint (per stratum) and returns all IDB relations. Uses
  // semi-naive evaluation: after the first round, a rule only re-fires
  // with one of its same-stratum positive IDB literals restricted to the
  // previous round's delta, so unchanged derivations are not recomputed.
  // `ctx` (nullable) is charged one work unit per join node (each rule
  // firing's root and each tuple a literal accepts); a tripped envelope
  // aborts the fixpoint with the budget status.
  StatusOr<DatalogResult> Eval(const AtomOracle& edb, RunContext* ctx) const;
  DatalogResult Eval(const AtomOracle& edb) const {
    return std::move(Eval(edb, nullptr)).value();
  }

  // Convenience: the contents of one predicate after evaluation. The
  // predicate may be intensional or extensional; an extensional one is
  // read by probing its n^arity atoms, one work unit each.
  StatusOr<std::set<Tuple>> EvalPredicate(const AtomOracle& edb,
                                          const std::string& predicate,
                                          RunContext* ctx = nullptr) const;

  // EvalPredicate into `workspace`: the returned set is owned by the
  // workspace and valid until its next use. The per-world loops of
  // datalog/reliability.h keep one workspace across all their worlds.
  StatusOr<const FlatTupleSet*> EvalPredicateInto(
      const AtomOracle& edb, const std::string& predicate,
      DatalogWorkspace* workspace, RunContext* ctx) const;

  // Declared IDB predicates in stratum order.
  const std::vector<std::string>& idb_predicates() const {
    return idb_predicates_;
  }
  // The source program (rule bodies and all); its ToString() is mixed into
  // checkpoint resume fingerprints so an edited program refuses to resume.
  const DatalogProgram& program() const { return program_; }
  // Arity of an IDB or EDB predicate.
  StatusOr<int> PredicateArity(const std::string& predicate) const;
  // Stratum of an IDB predicate (0 for the lowest); NotFound otherwise.
  StatusOr<int> PredicateStratum(const std::string& predicate) const;

 private:
  struct CompiledLiteral {
    bool positive = true;
    bool is_idb = false;
    // Positive IDB literal whose predicate lives in the same stratum as
    // the rule head (the literals semi-naive evaluation restricts).
    bool same_stratum_idb = false;
    int edb_relation = -1;  // when !is_idb
    int idb = -1;           // IDB id, when is_idb
    // One entry per argument: variable slot (>= 0) or -1 with a constant.
    std::vector<int> slots;
    std::vector<Element> constants;
    // The join plan, fixed by the body order. Key positions hold a
    // constant or a variable bound by an earlier literal; when every
    // position is a key position the literal is a membership test.
    std::vector<int> key_positions;
    bool all_bound = false;
    // Other positions: (position, slot) binds the slot's variable at its
    // first occurrence in this literal; (position, earlier position) is a
    // repeat that must carry the same value.
    std::vector<std::pair<int, int>> binds;
    std::vector<std::pair<int, int>> repeats;
    int index = -1;  // workspace index on key_positions; -1: scan all
  };
  struct CompiledRule {
    int head = -1;                      // IDB id
    std::vector<int> head_slots;        // -1 entries use head_constants
    std::vector<Element> head_constants;
    int variable_count = 0;
    std::vector<CompiledLiteral> body;
    int stratum = 0;
  };
  // An index the join needs: a relation's tuples by key positions.
  struct IndexSpec {
    bool is_idb = false;
    int relation = -1;  // IDB id or EDB relation id
    std::vector<int> key_positions;
  };

  // Fills in the join plan of `rule`'s literals (key positions, binds,
  // repeats, indexes), registering the indexes and scanned relations.
  void PlanJoin(CompiledRule* rule);
  // Sizes `workspace` for this program (once per workspace) and empties
  // its relations and indexes.
  void ResetWorkspace(DatalogWorkspace* workspace) const;
  // Fills the scanned extensional relations from `edb` and indexes them.
  void LoadExtensional(const AtomOracle& edb,
                       DatalogWorkspace* workspace) const;
  // Runs the fixpoint into `workspace`.
  Status Run(const AtomOracle& edb, DatalogWorkspace* workspace,
             RunContext* ctx) const;
  // Starts a round of `stratum`: the previous round's derivations become
  // the delta and everything derived so far becomes visible and indexed.
  // Returns whether the delta is nonempty.
  bool AdvanceRound(int stratum, DatalogWorkspace* workspace) const;
  // Enumerates the bindings of `rule`'s body from literal `literal_index`
  // on and inserts each satisfied head tuple. When `delta_index` is a
  // body-literal index, that (positive, same-stratum IDB) literal sees
  // only its relation's delta — the semi-naive restriction; -1 for full
  // evaluation. Charges one unit of `ctx` per call (= per join node).
  Status Join(const CompiledRule& rule, size_t literal_index,
              int delta_index, const AtomOracle& edb,
              DatalogWorkspace* workspace, RunContext* ctx) const;
  // Checkpoint payload: every IDB relation (or only its delta), by
  // predicate name, each in lexicographic tuple order.
  void WriteRelations(SnapshotWriter& w, const DatalogWorkspace& workspace,
                      bool delta_only) const;
  Status LoadRelations(const DatalogResult& idb, const DatalogResult* delta,
                       DatalogWorkspace* workspace) const;

  DatalogProgram program_;
  std::vector<CompiledRule> rules_;
  std::vector<std::string> idb_predicates_;  // stratum order = IDB ids
  std::map<std::string, int> idb_arity_;
  std::map<std::string, int> idb_stratum_;
  std::map<std::string, int> idb_id_;
  std::vector<IndexSpec> index_specs_;
  std::vector<int> scanned_edb_;  // EDB relations some literal scans
  const Vocabulary* edb_vocabulary_ = nullptr;
  // Distinct per Compile (copies share it): whom a workspace is sized for.
  uint64_t id_ = 0;
  int stratum_count_ = 1;
  int max_variables_ = 0;
  int max_arity_ = 0;
};

}  // namespace qrel

#endif  // QREL_DATALOG_EVAL_H_
