// Seeded generators for the benchmark's unreliable databases.
//
// Every database is built from planted structures of fixed size plus random
// filler that cannot create further matches, so each shape has known sizes
// (universe, facts and uncertain entries per relation, lineage terms per
// query). Variant() turns a shape into the workload seed's instance. The
// program receives a database only as .udb text (DbSpec::ToUdb). The
// benchmark keeps the DbSpec to compute exact answers on its own (oracle.h).
//
// All facts are observed true (de Rougemont's positive-only model) with
// error probability err16/16, so ν(true) = (16 − err16)/16; err16 = 0 marks
// a certain fact.

#ifndef QREL_PERFBENCH_DBGEN_H_
#define QREL_PERFBENCH_DBGEN_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

struct Fact {
  int rel = 0;
  std::vector<int> args;
  int err16 = 0;
  bool uncertain() const { return err16 > 0; }
};

struct DbSpec {
  std::string name;
  int n = 0;
  std::vector<std::pair<std::string, int>> relations;  // name, arity
  std::vector<Fact> facts;

  int AddRelation(const std::string& relation, int arity);
  int Rel(const std::string& relation) const;  // aborts if unknown
  // Adds a fact; returns false if it already exists.
  bool Add(int rel, std::vector<int> args, int err16);
  // Index of the fact rel(args), or -1.
  int Find(int rel, const std::vector<int>& args) const;
  std::string ToUdb() const;
  // Uncertain entries in the named relations (all relations when empty).
  int Uncertain(const std::vector<std::string>& relations = {}) const;
  int FactCount(const std::string& relation) const;
  // "n=300 E:390/44u S:60/60u ..." for logs.
  std::string Describe() const;

 private:
  std::map<std::pair<int, std::vector<int>>, int> index_;
};

// approx_sparse: the n = 300 sparse graph with ~1.3n E facts, a few dozen
// uncertain E entries, a 14-entry relation T and 1 000 uncertain entries in
// Z, which no query mentions.
DbSpec SparseGraphDb(uint64_t seed);
// approx_sparse: the n = 64 graph for the ∀∃ queries (every vertex has an
// out-edge; 16 rows hold only uncertain edges).
DbSpec ForallExistsDb(uint64_t seed, int n, int extra_edges,
                      int uncertain_rows, int extra_uncertain,
                      int s_facts, bool s_uncertain);
// exact_small: a small graph with planted 2-cycles, `uncertain` of its
// `edges` E facts uncertain and `s_facts` certain S facts.
DbSpec SmallCycleDb(uint64_t seed, int n, int cycles, int edges,
                    int uncertain, int s_facts);
// exact_small: the safe-CQ database (n = 24; E rows and columns of degree
// 8, F rows of degree 5, all S and F facts uncertain; u = 288).
DbSpec SafeCqDb(uint64_t seed);

// The seed's instance of a shape: the shape's error probabilities dealt
// to its uncertain facts in a seeded order, within each relation, and, with
// `rename`, elements renamed by a seeded permutation (an isomorphic copy).
// Each workload draws its shapes from a fixed seed and its instances from
// the workload seed, so every seed has the same sizes, and the same
// multiset of probabilities per relation: world enumeration multiplies the
// same factors under every seed, whose exact-arithmetic cost depends on
// their values. Renaming is used only where a query's cost does not depend
// on the order of the elements.
DbSpec Variant(const DbSpec& shape, uint64_t seed, bool rename);

}  // namespace perfbench

#endif  // QREL_PERFBENCH_DBGEN_H_
