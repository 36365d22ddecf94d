// Differential fuzz target for the Datalog fixpoint: CompiledDatalog's
// semi-naive join over the oracle's candidates must equal the naive,
// universe-probing fixpoint of tests/datalog_oracle.h on the observed
// structure and on every world view of the error model (μ ∈ {0, 1}
// entries included, flipped or not), with one workspace reused across the
// worlds; and ExactDatalogReliability must equal the Rational-product
// world enumeration of tests/world_enumeration_oracle.h bit for bit.
// An input is a .udb database, a line "%%", a program, a line "%%", then
// a predicate name. Inputs that would be slow (more than 6 error-model
// entries, a universe above 3, more than 8 rules, 6 body literals or 4
// variables per rule) or that name a constant outside the universe are
// skipped.

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "datalog_oracle.h"
#include "qrel/datalog/reliability.h"
#include "qrel/prob/text_format.h"
#include "qrel/prob/world.h"
#include "world_enumeration_oracle.h"

namespace {

// Whether `program` is small and every constant inside the universe.
bool CheapToEvaluate(const qrel::DatalogProgram& program, int universe_size) {
  if (program.rules.size() > 8) {
    return false;
  }
  for (const qrel::DatalogRule& rule : program.rules) {
    if (rule.body.size() > 6) {
      return false;
    }
    std::set<std::string> variables;
    std::vector<const qrel::DatalogAtom*> atoms = {&rule.head};
    for (const qrel::DatalogLiteral& literal : rule.body) {
      atoms.push_back(&literal.atom);
    }
    for (const qrel::DatalogAtom* atom : atoms) {
      for (const qrel::Term& term : atom->args) {
        if (term.is_variable()) {
          variables.insert(term.variable);
        } else if (term.constant < 0 || term.constant >= universe_size) {
          return false;
        }
      }
    }
    if (variables.size() > 4) {
      return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 1024) {
    return 0;
  }
  std::string_view text(reinterpret_cast<const char*>(data), size);
  size_t split = text.find("\n%%\n");
  if (split == std::string_view::npos) {
    return 0;
  }
  size_t second = text.find("\n%%\n", split + 4);
  if (second == std::string_view::npos) {
    return 0;
  }
  qrel::StatusOr<qrel::UnreliableDatabase> db =
      qrel::ParseUdb(text.substr(0, split));
  if (!db.ok() || db->model().entry_count() > 6 ||
      db->universe_size() > 3 || db->universe_size() < 1) {
    return 0;
  }
  qrel::StatusOr<qrel::DatalogProgram> parsed = qrel::ParseDatalogProgram(
      text.substr(split + 4, second - split - 4));
  if (!parsed.ok() || !CheapToEvaluate(*parsed, db->universe_size())) {
    return 0;
  }
  qrel::StatusOr<qrel::CompiledDatalog> program =
      qrel::CompiledDatalog::Compile(*parsed, db->vocabulary());
  if (!program.ok()) {
    return 0;
  }
  std::string predicate(text.substr(second + 4));
  while (!predicate.empty() &&
         (predicate.back() == '\n' || predicate.back() == ' ')) {
    predicate.pop_back();
  }
  if (!program->PredicateArity(predicate).ok()) {
    return 0;
  }
  bool intensional = program->PredicateStratum(predicate).ok();

  auto check = [&](const qrel::AtomOracle& edb,
                   qrel::DatalogWorkspace* workspace) {
    qrel::DatalogResult expected = qrel::NaiveDatalogEval(*program, edb);
    if (program->Eval(edb) != expected) {
      __builtin_trap();  // some IDB relation differs from the oracle's
    }
    qrel::StatusOr<const qrel::FlatTupleSet*> answer =
        program->EvalPredicateInto(edb, predicate, workspace, nullptr);
    if (!answer.ok()) {
      __builtin_trap();
    }
    if (intensional && (*answer)->ToSet() != expected.at(predicate)) {
      __builtin_trap();  // the reused workspace's answer differs
    }
  };

  qrel::DatalogWorkspace workspace;
  check(db->observed(), &workspace);
  qrel::WorldIndex index(*db);
  qrel::World world(db->model().entry_count());
  qrel::WorldView view(index, world);
  for (uint64_t mask = 0; mask < (uint64_t{1} << world.entry_count());
       ++mask) {
    for (int e = 0; e < world.entry_count(); ++e) {
      world.SetFlipped(e, ((mask >> e) & 1) != 0);
    }
    check(view, &workspace);
    check(qrel::LookupWorldView(*db, world), &workspace);
  }

  qrel::StatusOr<qrel::ReliabilityReport> exact =
      qrel::ExactDatalogReliability(*program, predicate, *db);
  if (!exact.ok() ||
      exact->expected_error !=
          qrel::OracleDatalogExpectedError(*program, predicate, *db)) {
    __builtin_trap();  // H differs from the world-enumeration oracle's
  }
  return 0;
}
