#include "oracle.h"

#include <map>
#include <numeric>

#include "qrel/util/bigint.h"

namespace perfbench {

namespace {

using Wide = unsigned __int128;

qrel::BigInt ToBigInt(Wide value) {
  std::string digits;
  do {
    digits.insert(digits.begin(), static_cast<char>('0' + value % 10));
    value /= 10;
  } while (value != 0);
  return std::move(qrel::BigInt::FromDecimalString(digits)).value();
}

// value / 16^count as an exact rational.
qrel::Rational Over16Pow(Wide value, int count) {
  return qrel::Rational(ToBigInt(value),
                        qrel::BigInt::TwoPow(static_cast<uint32_t>(4 * count)));
}

int Find(std::vector<int>* parent, int x) {
  while ((*parent)[static_cast<size_t>(x)] != x) {
    x = (*parent)[static_cast<size_t>(x)] =
        (*parent)[static_cast<size_t>((*parent)[static_cast<size_t>(x)])];
  }
  return x;
}

std::vector<std::pair<int, int>> BinaryFacts(const DbSpec& db,
                                             const std::string& rel) {
  int r = db.Rel(rel);
  std::vector<std::pair<int, int>> out;
  for (const Fact& fact : db.facts) {
    if (fact.rel == r) {
      out.push_back({fact.args[0], fact.args[1]});
    }
  }
  return out;
}

}  // namespace

TermBuilder& TermBuilder::Pos(const std::string& relation,
                              std::vector<int> args) {
  int fact = db_.Find(db_.Rel(relation), args);
  if (fact < 0) {
    dead_ = true;
  } else if (db_.facts[static_cast<size_t>(fact)].uncertain()) {
    lits_.push_back({fact, true});
  }
  return *this;
}

TermBuilder& TermBuilder::Neg(const std::string& relation,
                              std::vector<int> args) {
  int fact = db_.Find(db_.Rel(relation), args);
  if (fact < 0) {
    return *this;
  }
  if (db_.facts[static_cast<size_t>(fact)].uncertain()) {
    lits_.push_back({fact, false});
  } else {
    dead_ = true;
  }
  return *this;
}

void TermBuilder::AddTo(Lineage* lineage) const {
  if (dead_) {
    return;
  }
  for (const Lit& a : lits_) {
    for (const Lit& b : lits_) {
      if (a.fact == b.fact && a.positive != b.positive) {
        return;  // complementary literals: the term is unsatisfiable
      }
    }
  }
  if (lits_.empty()) {
    lineage->certain = true;
  }
  lineage->terms.push_back(lits_);
}

bool LineageProbability(const DbSpec& db, const Lineage& lineage,
                        Exact* out) {
  out->observed = lineage.certain;
  for (const std::vector<Lit>& term : lineage.terms) {
    bool all_positive = true;
    for (const Lit& lit : term) {
      all_positive = all_positive && lit.positive;
    }
    out->observed = out->observed || all_positive;
  }
  if (lineage.certain) {
    out->prob_true = qrel::Rational::One();
    return true;
  }
  // Components: facts linked by sharing a term.
  std::vector<int> parent(db.facts.size());
  std::iota(parent.begin(), parent.end(), 0);
  for (const std::vector<Lit>& term : lineage.terms) {
    for (const Lit& lit : term) {
      parent[static_cast<size_t>(Find(&parent, lit.fact))] =
          Find(&parent, term.front().fact);
    }
  }
  std::map<int, std::vector<const std::vector<Lit>*>> components;
  for (const std::vector<Lit>& term : lineage.terms) {
    components[Find(&parent, term.front().fact)].push_back(&term);
  }
  qrel::Rational all_false = qrel::Rational::One();
  for (const auto& [root, terms] : components) {
    std::map<int, int> local;  // fact → bit
    for (const std::vector<Lit>* term : terms) {
      for (const Lit& lit : *term) {
        local.emplace(lit.fact, static_cast<int>(local.size()));
      }
    }
    int count = static_cast<int>(local.size());
    if (count > 22) {
      std::fprintf(stderr, "oracle: lineage component of %d facts\n", count);
      return false;
    }
    std::vector<std::pair<uint32_t, uint32_t>> masks;  // positive, negative
    for (const std::vector<Lit>* term : terms) {
      uint32_t pos = 0, neg = 0;
      for (const Lit& lit : *term) {
        (lit.positive ? pos : neg) |= uint32_t{1} << local[lit.fact];
      }
      masks.push_back({pos, neg});
    }
    std::vector<uint32_t> true_weight(static_cast<size_t>(count));
    for (const auto& [fact, bit] : local) {
      true_weight[static_cast<size_t>(bit)] =
          16 - static_cast<uint32_t>(db.facts[static_cast<size_t>(fact)].err16);
    }
    Wide none_satisfied = 0;
    for (uint32_t a = 0; a < (uint32_t{1} << count); ++a) {
      bool satisfied = false;
      for (const auto& [pos, neg] : masks) {
        if ((a & pos) == pos && (a & neg) == 0) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) {
        continue;
      }
      Wide weight = 1;
      for (int bit = 0; bit < count; ++bit) {
        uint32_t t = true_weight[static_cast<size_t>(bit)];
        weight *= (a >> bit) & 1u ? t : 16 - t;
      }
      none_satisfied += weight;
    }
    all_false *= Over16Pow(none_satisfied, count);
  }
  out->prob_true = qrel::Rational::One() - all_false;
  return true;
}

Lineage TwoCycleLineage(const DbSpec& db, const std::string& rel,
                        const std::string& unary, bool negated) {
  Lineage lineage;
  for (const auto& [x, y] : BinaryFacts(db, rel)) {
    TermBuilder term(db);
    term.Pos(rel, {x, y}).Pos(rel, {y, x});
    if (!unary.empty()) {
      negated ? term.Neg(unary, {x}) : term.Pos(unary, {x});
    }
    term.AddTo(&lineage);
  }
  return lineage;
}

Lineage SelfJoinPathLineage(const DbSpec& db) {
  Lineage lineage;
  for (const auto& [x, y] : BinaryFacts(db, "E")) {
    TermBuilder(db).Pos("E", {x, y}).Pos("S", {x}).Pos("S", {y}).AddTo(
        &lineage);
  }
  return lineage;
}

Lineage AsymmetricLineage(const DbSpec& db, const std::string& rel) {
  Lineage lineage;
  for (const auto& [x, y] : BinaryFacts(db, rel)) {
    TermBuilder(db).Pos(rel, {x, y}).Neg(rel, {y, x}).AddTo(&lineage);
  }
  return lineage;
}

Lineage UnaryBinaryLineage(const DbSpec& db, const std::string& unary,
                           const std::string& binary, bool unary_first) {
  Lineage lineage;
  for (const auto& [x, y] : BinaryFacts(db, binary)) {
    TermBuilder(db).Pos(unary, {unary_first ? x : y}).Pos(binary, {x, y})
        .AddTo(&lineage);
  }
  return lineage;
}

Lineage BinaryJoinLineage(const DbSpec& db, const std::string& a,
                          const std::string& b, bool chain) {
  Lineage lineage;
  std::vector<std::pair<int, int>> second = BinaryFacts(db, b);
  for (const auto& [x, y] : BinaryFacts(db, a)) {
    if (!chain) {
      TermBuilder(db).Pos(a, {x, y}).Pos(b, {y, x}).AddTo(&lineage);
      continue;
    }
    for (const auto& [y2, z] : second) {
      if (y2 == y) {
        TermBuilder(db).Pos(a, {x, y}).Pos(b, {y, z}).AddTo(&lineage);
      }
    }
  }
  return lineage;
}

bool ForallExistsExact(const DbSpec& db, const std::string& unary,
                       Exact* out) {
  std::vector<std::pair<int, int>> edges = BinaryFacts(db, "E");
  out->prob_true = qrel::Rational::One();
  out->observed = true;
  for (int x = 0; x < db.n; ++x) {
    // Row x mentions only E(x, ·) and U(x): rows share no fact.
    Lineage row;
    if (!unary.empty()) {
      TermBuilder(db).Pos(unary, {x}).AddTo(&row);
    }
    for (const auto& [from, to] : edges) {
      if (from == x) {
        TermBuilder(db).Pos("E", {x, to}).AddTo(&row);
      }
    }
    Exact row_exact;
    if (!LineageProbability(db, row, &row_exact)) {
      return false;
    }
    out->prob_true *= row_exact.prob_true;
    out->observed = out->observed && row_exact.observed;
  }
  return true;
}

bool TransitiveClosureReliability(const DbSpec& db, const std::string& rel,
                                  qrel::Rational* out) {
  int r = db.Rel(rel);
  int n = db.n;
  if (n > 64) {
    return false;
  }
  std::vector<uint64_t> certain(static_cast<size_t>(n), 0);
  std::vector<const Fact*> uncertain;
  for (const Fact& fact : db.facts) {
    if (fact.rel != r) {
      continue;
    }
    if (fact.uncertain()) {
      uncertain.push_back(&fact);
    } else {
      certain[static_cast<size_t>(fact.args[0])] |= uint64_t{1}
                                                    << fact.args[1];
    }
  }
  int u = static_cast<int>(uncertain.size());
  if (u > 16) {
    return false;
  }
  auto closure = [n](std::vector<uint64_t> reach) {
    for (int k = 0; k < n; ++k) {
      for (int i = 0; i < n; ++i) {
        if ((reach[static_cast<size_t>(i)] >> k) & 1u) {
          reach[static_cast<size_t>(i)] |= reach[static_cast<size_t>(k)];
        }
      }
    }
    return reach;
  };
  auto world = [&](uint32_t mask) {
    std::vector<uint64_t> adj = certain;
    for (int b = 0; b < u; ++b) {
      if ((mask >> b) & 1u) {
        const Fact* fact = uncertain[static_cast<size_t>(b)];
        adj[static_cast<size_t>(fact->args[0])] |= uint64_t{1}
                                                   << fact->args[1];
      }
    }
    return closure(adj);
  };
  std::vector<uint64_t> observed = world((uint32_t{1} << u) - 1);
  Wide error_weight = 0;  // Σ ν(world)·|Path^obs Δ Path^world| · 16^u
  for (uint32_t mask = 0; mask < (uint32_t{1} << u); ++mask) {
    std::vector<uint64_t> reach = world(mask);
    Wide mismatches = 0;
    for (int i = 0; i < n; ++i) {
      mismatches += static_cast<Wide>(__builtin_popcountll(
          reach[static_cast<size_t>(i)] ^ observed[static_cast<size_t>(i)]));
    }
    Wide weight = 1;
    for (int b = 0; b < u; ++b) {
      int err = uncertain[static_cast<size_t>(b)]->err16;
      weight *= static_cast<Wide>((mask >> b) & 1u ? 16 - err : err);
    }
    error_weight += weight * mismatches;
  }
  *out = qrel::Rational::One() -
         Over16Pow(error_weight, u) / qrel::Rational(int64_t{n} * n);
  return true;
}

}  // namespace perfbench
