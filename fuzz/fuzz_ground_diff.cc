// Differential fuzz target for the Theorem 5.4 grounding: for every free
// assignment, the join-driven GroundExistential must return exactly the
// GroundDnf of the universe walk in tests/grounding_oracle.h — the same
// terms in the same order, or the same failure. The database comes from a
// seed hashed from the input, so each input also picks its own universe
// size (1 to 3) and its own mix of certain atoms, uncertain atoms and
// ν ∈ {0, 1} entries over S/1, T/1, E/2, F/2 and R/3. Universal queries
// are grounded through their negation, as Corollary 5.5 does.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "grounding_oracle.h"
#include "qrel/logic/normal_form.h"
#include "qrel/logic/parser.h"

namespace {

// Whether `formula` is small enough that the walk stays cheap: at most six
// quantifiers (n^6 ≤ 729 assignments) and every constant inside the
// universe (the join rejects an out-of-range constant even where the walk
// never reaches it).
bool CheapToGround(const qrel::FormulaPtr& formula, int universe_size) {
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
    if (!node->bound_variable.empty() && ++quantifiers > 6) {
      return false;
    }
    for (const qrel::FormulaPtr& child : node->children) {
      stack.push_back(child.get());
    }
  }
  return true;
}

bool SameDnf(const qrel::GroundDnf& a, const qrel::GroundDnf& b) {
  return a.certainly_true == b.certainly_true && a.terms == b.terms;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 512) {
    return 0;
  }
  std::string_view text(reinterpret_cast<const char*>(data), size);
  qrel::StatusOr<qrel::FormulaPtr> formula = qrel::ParseFormula(text);
  if (!formula.ok()) {
    return 0;
  }
  uint64_t seed = 1469598103934665603ULL;  // FNV-1a of the input
  for (uint8_t byte : text) {
    seed = (seed ^ byte) * 1099511628211ULL;
  }
  int universe_size = 1 + static_cast<int>(seed % 3);
  if (!CheapToGround(*formula, universe_size)) {
    return 0;
  }
  qrel::StatusOr<qrel::PrenexExistential> prenex =
      qrel::ToPrenexExistential(*formula);
  if (!prenex.ok()) {
    prenex = qrel::ToPrenexExistential(qrel::Not(*formula));
  }
  if (!prenex.ok() || prenex->free_variables.size() > 2 ||
      !qrel::QfNnfToDnf(prenex->matrix, 64).ok()) {
    return 0;
  }

  qrel::UnreliableDatabase database =
      qrel::RandomGroundingDatabase(seed, universe_size);
  qrel::Tuple free_assignment(prenex->free_variables.size(), 0);
  do {
    qrel::StatusOr<qrel::GroundDnf> walk =
        qrel::UniverseWalkGrounding(*prenex, database, free_assignment);
    qrel::StatusOr<qrel::GroundDnf> join =
        qrel::GroundExistential(*prenex, database, free_assignment);
    if (walk.ok() != join.ok()) {
      __builtin_trap();  // one grounding failed where the other did not
    }
    if (walk.ok() && !SameDnf(*walk, *join)) {
      __builtin_trap();  // the join changed ψ''
    }
  } while (qrel::AdvanceTuple(&free_assignment, universe_size));
  return 0;
}
