#include "dbgen.h"

#include <cstdlib>
#include <numeric>
#include <set>

namespace perfbench {

namespace {

int RandomErr(SeededGen* gen) { return gen->Between(1, 7); }

std::vector<int> Permutation(int n, SeededGen* gen) {
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  gen->Shuffle(&perm);
  return perm;
}

// n−1, n−2, ..., 0: planted structures take the highest labels, so that a
// query evaluated in label order meets them last, whatever the seed.
std::vector<int> TopLabelsFirst(int n) {
  std::vector<int> labels(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = n - 1 - i;
  }
  return labels;
}

// Adds E edges while keeping at most one direction per vertex pair, so the
// filler never closes a 2-cycle.
class OneWayEdges {
 public:
  OneWayEdges(DbSpec* db, int rel) : db_(db), rel_(rel) {}
  bool Add(int x, int y, int err16) {
    if (x == y || !pairs_.insert({std::min(x, y), std::max(x, y)}).second) {
      return false;
    }
    db_->Add(rel_, {x, y}, err16);
    return true;
  }
  // A planted 2-cycle x→y→x with both edges uncertain.
  void AddCycle(int x, int y, SeededGen* gen) {
    pairs_.insert({std::min(x, y), std::max(x, y)});
    db_->Add(rel_, {x, y}, RandomErr(gen));
    db_->Add(rel_, {y, x}, RandomErr(gen));
  }

 private:
  DbSpec* db_;
  int rel_;
  std::set<std::pair<int, int>> pairs_;
};

}  // namespace

int DbSpec::AddRelation(const std::string& relation, int arity) {
  relations.push_back({relation, arity});
  return static_cast<int>(relations.size()) - 1;
}

int DbSpec::Rel(const std::string& relation) const {
  for (size_t i = 0; i < relations.size(); ++i) {
    if (relations[i].first == relation) {
      return static_cast<int>(i);
    }
  }
  std::fprintf(stderr, "unknown relation %s in %s\n", relation.c_str(),
               name.c_str());
  std::abort();
}

bool DbSpec::Add(int rel, std::vector<int> args, int err16) {
  if (!index_.emplace(std::make_pair(rel, args), static_cast<int>(facts.size()))
           .second) {
    return false;
  }
  facts.push_back({rel, std::move(args), err16});
  return true;
}

int DbSpec::Find(int rel, const std::vector<int>& args) const {
  auto it = index_.find({rel, args});
  return it == index_.end() ? -1 : it->second;
}

std::string DbSpec::ToUdb() const {
  std::string out = "universe " + std::to_string(n) + "\n";
  for (const auto& [relation, arity] : relations) {
    out += "relation " + relation + " " + std::to_string(arity) + "\n";
  }
  for (const Fact& fact : facts) {
    out += "fact ";
    out += relations[static_cast<size_t>(fact.rel)].first;
    for (int arg : fact.args) {
      out += ' ';
      out += std::to_string(arg);
    }
    if (fact.uncertain()) {
      out += " err=";
      out += std::to_string(fact.err16);
      out += "/16";
    }
    out += "\n";
  }
  return out;
}

int DbSpec::Uncertain(const std::vector<std::string>& names) const {
  std::vector<bool> counted(relations.size(), names.empty());
  for (const std::string& relation : names) {
    counted[static_cast<size_t>(Rel(relation))] = true;
  }
  int count = 0;
  for (const Fact& fact : facts) {
    count += fact.uncertain() && counted[static_cast<size_t>(fact.rel)];
  }
  return count;
}

int DbSpec::FactCount(const std::string& relation) const {
  int rel = Rel(relation);
  int count = 0;
  for (const Fact& fact : facts) {
    count += fact.rel == rel;
  }
  return count;
}

std::string DbSpec::Describe() const {
  std::string out = name + ": n=" + std::to_string(n);
  for (const auto& relation : relations) {
    out += " " + relation.first + ":" +
           std::to_string(FactCount(relation.first)) + "/" +
           std::to_string(Uncertain({relation.first})) + "u";
  }
  return out;
}

DbSpec SparseGraphDb(uint64_t seed) {
  DbSpec db;
  db.name = "sparse";
  db.n = 300;
  int e = db.AddRelation("E", 2);
  int s = db.AddRelation("S", 1);
  int t = db.AddRelation("T", 2);
  int z = db.AddRelation("Z", 2);
  SeededGen gen(seed);
  std::vector<int> v = Permutation(db.n, &gen);
  // v[0, 60) carry S: v[0, 12) six 2-cycles inside S, v[12, 18) the S ends
  // of six 2-cycles whose other ends are v[60, 66), v[18, 42) eight S-S
  // paths x→y→z, v[42, 60) S vertices with no S-S edge. v[66, 72) hold
  // three T 2-cycles.
  std::vector<bool> in_s(static_cast<size_t>(db.n), false);
  for (int i = 0; i < 60; ++i) {
    in_s[static_cast<size_t>(v[i])] = true;
    db.Add(s, {v[i]}, RandomErr(&gen));
  }
  OneWayEdges edges(&db, e);
  for (int i = 0; i < 6; ++i) {
    edges.AddCycle(v[2 * i], v[2 * i + 1], &gen);
    edges.AddCycle(v[12 + i], v[60 + i], &gen);
  }
  for (int j = 0; j < 8; ++j) {
    int x = v[18 + 3 * j], y = v[19 + 3 * j], w = v[20 + 3 * j];
    edges.Add(x, y, j < 4 ? RandomErr(&gen) : 0);
    edges.Add(y, w, j < 4 ? RandomErr(&gen) : 0);
  }
  // 350 filler edges with at most one end in S; the first 12 uncertain.
  for (int added = 0; added < 350;) {
    int x = gen.Below(db.n), y = gen.Below(db.n);
    if (in_s[static_cast<size_t>(x)] && in_s[static_cast<size_t>(y)]) {
      continue;
    }
    added += edges.Add(x, y, added < 12 ? RandomErr(&gen) : 0);
  }
  // T: 14 uncertain facts — three 2-cycles, four edges into distinct S
  // vertices v[42, 46), four edges between vertices outside S.
  OneWayEdges tedges(&db, t);
  for (int i = 0; i < 3; ++i) {
    tedges.AddCycle(v[66 + 2 * i], v[67 + 2 * i], &gen);
  }
  for (int i = 0; i < 4;) {
    i += tedges.Add(v[72 + gen.Below(db.n - 72)], v[42 + i],
                    RandomErr(&gen));
  }
  for (int i = 0; i < 4;) {
    i += tedges.Add(v[72 + gen.Below(db.n - 72)],
                    v[72 + gen.Below(db.n - 72)], RandomErr(&gen));
  }
  // Z: 1 000 uncertain entries no query mentions.
  for (int added = 0; added < 1000;) {
    added += db.Add(z, {gen.Below(db.n), gen.Below(db.n)}, RandomErr(&gen));
  }
  return db;
}

DbSpec ForallExistsDb(uint64_t seed, int n, int extra_edges,
                      int uncertain_rows, int extra_uncertain, int s_facts,
                      bool s_uncertain) {
  DbSpec db;
  db.name = "forall_exists_n" + std::to_string(n);
  db.n = n;
  int e = db.AddRelation("E", 2);
  int s = db.AddRelation("S", 1);
  SeededGen gen(seed);
  std::vector<int> v = TopLabelsFirst(n);
  // Every vertex gets one out-edge; the rows of v[0, uncertain_rows) hold
  // only that edge, and it is uncertain.
  for (int i = 0; i < n; ++i) {
    int target = gen.Below(n - 1);
    target += target >= v[i];
    db.Add(e, {v[i], target}, i < uncertain_rows ? RandomErr(&gen) : 0);
  }
  for (int added = 0; added < extra_edges;) {
    int x = v[uncertain_rows + gen.Below(n - uncertain_rows)];
    int y = gen.Below(n);
    if (x != y) {
      added += db.Add(e, {x, y}, added < extra_uncertain ? RandomErr(&gen) : 0);
    }
  }
  std::vector<int> w = Permutation(n, &gen);
  for (int i = 0; i < s_facts; ++i) {
    db.Add(s, {w[i]}, s_uncertain ? RandomErr(&gen) : 0);
  }
  return db;
}

DbSpec SmallCycleDb(uint64_t seed, int n, int cycles, int edge_count,
                    int uncertain, int s_facts) {
  DbSpec db;
  db.name = "cycles_n" + std::to_string(n) + "_u" + std::to_string(uncertain);
  db.n = n;
  int e = db.AddRelation("E", 2);
  int s = db.AddRelation("S", 1);
  SeededGen gen(seed);
  std::vector<int> v = TopLabelsFirst(n);
  OneWayEdges edges(&db, e);
  for (int i = 0; i < cycles; ++i) {
    edges.AddCycle(v[2 * i], v[2 * i + 1], &gen);
  }
  int filler_uncertain = uncertain - 2 * cycles;
  for (int added = 0; added < edge_count - 2 * cycles;) {
    added += edges.Add(gen.Below(n), gen.Below(n),
                       added < filler_uncertain ? RandomErr(&gen) : 0);
  }
  // S holds both ends of the first 2-cycle and vertices outside cycles.
  db.Add(s, {v[0]}, 0);
  db.Add(s, {v[1]}, 0);
  for (int i = 0; i < s_facts - 2; ++i) {
    db.Add(s, {v[2 * cycles + i]}, 0);
  }
  return db;
}

DbSpec SafeCqDb(uint64_t seed) {
  DbSpec db;
  db.name = "safe_cq";
  db.n = 24;
  int e = db.AddRelation("E", 2);
  int f = db.AddRelation("F", 2);
  int s = db.AddRelation("S", 1);
  SeededGen gen(seed);
  std::vector<int> p = Permutation(db.n, &gen);
  std::vector<int> q = Permutation(db.n, &gen);
  for (int i = 0; i < db.n; ++i) {
    // Circulant rows: out- and in-degree 8 for E, 5 for F; 6 of the 8 E
    // edges of a row are uncertain, every F and S fact is.
    std::vector<int> offsets = {1, 2, 3, 4, 5, 6, 7, 8};
    gen.Shuffle(&offsets);
    for (int k = 0; k < 8; ++k) {
      db.Add(e, {p[i], p[(i + offsets[k]) % db.n]},
             k < 6 ? RandomErr(&gen) : 0);
    }
    for (int k = 1; k <= 5; ++k) {
      db.Add(f, {q[i], q[(i + k) % db.n]}, RandomErr(&gen));
    }
    db.Add(s, {i}, RandomErr(&gen));
  }
  return db;
}

DbSpec Variant(const DbSpec& shape, uint64_t seed, bool rename) {
  SeededGen gen(seed);
  std::vector<int> label = Permutation(shape.n, &gen);
  // Per relation, the shape's error probabilities in a seeded order.
  std::vector<std::vector<int>> errs(shape.relations.size());
  for (const Fact& fact : shape.facts) {
    if (fact.uncertain()) {
      errs[static_cast<size_t>(fact.rel)].push_back(fact.err16);
    }
  }
  for (std::vector<int>& rel_errs : errs) {
    gen.Shuffle(&rel_errs);
  }
  DbSpec db;
  db.name = shape.name;
  db.n = shape.n;
  db.relations = shape.relations;
  for (const Fact& fact : shape.facts) {
    std::vector<int> args;
    for (int arg : fact.args) {
      args.push_back(rename ? label[static_cast<size_t>(arg)] : arg);
    }
    int err16 = 0;
    if (fact.uncertain()) {
      err16 = errs[static_cast<size_t>(fact.rel)].back();
      errs[static_cast<size_t>(fact.rel)].pop_back();
    }
    db.Add(fact.rel, std::move(args), err16);
  }
  return db;
}

}  // namespace perfbench
