// Finite relational structures (databases) and the AtomOracle abstraction.
//
// The universe of a structure of size n is {0, ..., n-1}. Query evaluation
// (logic/eval.h) reads atom truth values through the AtomOracle interface,
// so the same evaluator runs against the observed database (a Structure)
// and against a possible world (prob/world.h) without materializing the
// world into a second structure.

#ifndef QREL_RELATIONAL_STRUCTURE_H_
#define QREL_RELATIONAL_STRUCTURE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "qrel/relational/vocabulary.h"

namespace qrel {

// An element of the universe.
using Element = int32_t;
// A tuple of universe elements; its length is the arity of the relation it
// belongs to. Arity-0 relations have the single empty tuple.
using Tuple = std::vector<Element>;

// Advances `tuple` to the lexicographically next tuple over {0..n-1}
// (odometer order). Returns false after the last tuple; the all-zero tuple
// is the first. The empty tuple (arity 0) has exactly one value: the first
// call returns false.
bool AdvanceTuple(Tuple* tuple, int universe_size);

// All tuples of arity `k` over {0..n-1}, in odometer order.
std::vector<Tuple> AllTuples(int n, int k);

// Read access to the ground-atom truth values of one database or world.
class AtomOracle {
 public:
  virtual ~AtomOracle() = default;

  virtual const Vocabulary& vocabulary() const = 0;
  virtual int universe_size() const = 0;
  // Truth of the ground atom R(tuple); `tuple` length must equal the arity
  // of `relation_id`.
  virtual bool AtomTrue(int relation_id, const Tuple& tuple) const = 0;

  // Appends to `*out`, arity-packed, a superset of the tuples of
  // `relation_id` (arity >= 1) that are true here: every true tuple once,
  // possibly some false ones, in no fixed order; callers test AtomTrue.
  // Join loops iterate these instead of all n^arity tuples. The default
  // lists all n^arity tuples; a Structure lists its facts, and a WorldView
  // (prob/world.h) its index's observed facts ∪ error-model atoms.
  virtual void AppendCandidates(int relation_id,
                                std::vector<Element>* out) const;
};

// A mutable finite relational structure over a shared vocabulary.
class Structure : public AtomOracle {
 public:
  Structure(std::shared_ptr<const Vocabulary> vocabulary, int universe_size);

  Structure(const Structure&) = default;
  Structure& operator=(const Structure&) = default;

  const Vocabulary& vocabulary() const override { return *vocabulary_; }
  const std::shared_ptr<const Vocabulary>& vocabulary_ptr() const {
    return vocabulary_;
  }
  int universe_size() const override { return universe_size_; }

  // Inserts R(tuple). Idempotent. Aborts on arity/range errors.
  void AddFact(int relation_id, const Tuple& tuple);
  // Sets the truth value of R(tuple).
  void SetFact(int relation_id, const Tuple& tuple, bool value);
  bool AtomTrue(int relation_id, const Tuple& tuple) const override;
  // The facts of the relation.
  void AppendCandidates(int relation_id,
                        std::vector<Element>* out) const override;

  // All tuples currently in relation `relation_id`, in lexicographic order.
  const std::set<Tuple>& Facts(int relation_id) const;

  // Total number of facts across all relations.
  size_t FactCount() const;

  bool operator==(const Structure& other) const;

 private:
  void CheckTuple(int relation_id, const Tuple& tuple) const;

  std::shared_ptr<const Vocabulary> vocabulary_;
  int universe_size_;
  std::vector<std::set<Tuple>> relations_;
};

}  // namespace qrel

#endif  // QREL_RELATIONAL_STRUCTURE_H_
