// Differential fuzz target for exact world enumeration: ExactReliability,
// ExactQueryProbability, ExactScaledProbability and the witness search, all
// built on WorldEnumerator's Gray walk with integer weights, must equal the
// Rational-product oracle of tests/world_enumeration_oracle.h bit for bit.
// An input is a .udb database, a line "%%", then a formula. Inputs whose
// enumeration would be slow (more than 6 uncertain entries, a universe
// above 3, more than 4 free and bound variables) or that name a constant
// outside the universe are skipped.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "qrel/core/absolute.h"
#include "qrel/core/reliability.h"
#include "qrel/logic/parser.h"
#include "qrel/prob/text_format.h"
#include "world_enumeration_oracle.h"

namespace {

// Whether `formula` has at most `max_quantifiers` quantifiers and every
// constant inside the universe.
bool CheapToEnumerate(const qrel::FormulaPtr& formula, int universe_size,
                      int max_quantifiers) {
  int quantifiers = 0;
  // Iterative walk; fuzz inputs can nest arbitrarily deep.
  std::vector<const qrel::Formula*> stack = {formula.get()};
  while (!stack.empty()) {
    const qrel::Formula* node = stack.back();
    stack.pop_back();
    for (const qrel::Term& term : node->args) {
      if (!term.is_variable() &&
          (term.constant < 0 || term.constant >= universe_size)) {
        return false;
      }
    }
    if (!node->bound_variable.empty() && ++quantifiers > max_quantifiers) {
      return false;
    }
    for (const qrel::FormulaPtr& child : node->children) {
      stack.push_back(child.get());
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
  qrel::StatusOr<qrel::UnreliableDatabase> db =
      qrel::ParseUdb(text.substr(0, split));
  if (!db.ok() || db->UncertainEntries().size() > 6 ||
      db->universe_size() > 3) {
    return 0;
  }
  qrel::StatusOr<qrel::FormulaPtr> formula =
      qrel::ParseFormula(text.substr(split + 4));
  if (!formula.ok()) {
    return 0;
  }
  qrel::StatusOr<qrel::CompiledQuery> query =
      qrel::CompiledQuery::Compile(*formula, db->vocabulary());
  if (!query.ok() || query->arity() > 2 ||
      !CheapToEnumerate(*formula, db->universe_size(), 4 - query->arity())) {
    return 0;
  }

  qrel::Rational expected_error = qrel::OracleExpectedError(*query, *db);
  qrel::StatusOr<qrel::ReliabilityReport> exact =
      qrel::ExactReliability(*formula, *db);
  if (!exact.ok() || exact->expected_error != expected_error) {
    __builtin_trap();  // H_ψ differs from the oracle's
  }
  qrel::StatusOr<qrel::AbsoluteReliabilityResult> witness =
      qrel::AbsoluteReliabilityByWitness(*formula, *db);
  if (!witness.ok() ||
      witness->absolutely_reliable != expected_error.IsZero()) {
    __builtin_trap();  // the witness search disagrees with H_ψ = 0
  }
  qrel::Tuple assignment(static_cast<size_t>(query->arity()), 0);
  do {
    qrel::Rational holds =
        qrel::OracleQueryProbability(*query, *db, assignment);
    qrel::StatusOr<qrel::Rational> probability =
        qrel::ExactQueryProbability(*formula, *db, assignment);
    qrel::StatusOr<qrel::ScaledProbability> scaled =
        qrel::ExactScaledProbability(*formula, *db, assignment);
    if (!probability.ok() || *probability != holds || !scaled.ok() ||
        scaled->g != db->ComputeG() ||
        qrel::Rational(scaled->g_times_probability, scaled->g) != holds) {
      __builtin_trap();  // Pr[𝔅 ⊨ ψ(ā)] or g·Pr differs from the oracle's
    }
  } while (qrel::AdvanceTuple(&assignment, db->universe_size()));
  return 0;
}
