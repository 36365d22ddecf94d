// Possible worlds of an unreliable database.
//
// A world 𝔅 ∈ Ω(𝔇) differs from the observed database 𝔄 only on atoms
// mentioned by the error model, so it is represented as a bitset of *flips*
// over the model's entry ids: bit e set means the event Wrong(atom_e)
// occurred, i.e. the truth value of atom_e in 𝔅 is the opposite of its
// value in 𝔄. This keeps worlds O(#entries) regardless of how many ground
// atoms the database has.

#ifndef QREL_PROB_WORLD_H_
#define QREL_PROB_WORLD_H_

#include <cstdint>
#include <vector>

#include "qrel/prob/error_model.h"
#include "qrel/relational/structure.h"
#include "qrel/util/rng.h"

namespace qrel {

class World {
 public:
  // A world with no flips (the observed database itself).
  explicit World(int entry_count)
      : entry_count_(entry_count),
        bits_(static_cast<size_t>((entry_count + 63) / 64), 0) {}

  int entry_count() const { return entry_count_; }

  bool Flipped(int entry_id) const {
    return (bits_[static_cast<size_t>(entry_id) / 64] >>
            (static_cast<size_t>(entry_id) % 64)) &
           1u;
  }

  void SetFlipped(int entry_id, bool flipped) {
    uint64_t mask = uint64_t{1} << (static_cast<size_t>(entry_id) % 64);
    if (flipped) {
      bits_[static_cast<size_t>(entry_id) / 64] |= mask;
    } else {
      bits_[static_cast<size_t>(entry_id) / 64] &= ~mask;
    }
  }

  int FlipCount() const;

  bool operator==(const World& other) const {
    return entry_count_ == other.entry_count_ && bits_ == other.bits_;
  }

 private:
  int entry_count_;
  std::vector<uint64_t> bits_;
};

class UnreliableDatabase;

// The atoms that are true in at least one world: the observed facts ∪ the
// error model's atoms, each with its observed truth and entry id (-1 for a
// fact without an entry). Every other atom is false in every world. It is
// an open-addressing hash table keyed by (relation, elements), with the
// keys' elements in one flat array: memory O(facts + entries), whatever
// n^arity is, and a lookup allocates nothing. Built once per call of an
// exact or sampling rung; it holds a reference to the database, which must
// outlive it and stay unchanged.
class WorldIndex {
 public:
  explicit WorldIndex(const UnreliableDatabase& database);

  WorldIndex(const WorldIndex&) = delete;
  WorldIndex& operator=(const WorldIndex&) = delete;

  const UnreliableDatabase& database() const { return database_; }

  // Truth of R(tuple) in `world`: observed truth XOR the entry's flip.
  // Unlike Structure::AtomTrue it does not range-check `tuple`; an atom
  // outside the universe reads false.
  bool AtomTrue(int relation_id, const Tuple& tuple, const World& world) const;

  // Appends the indexed atoms of `relation_id` (observed facts ∪ error-model
  // atoms), arity-packed: a superset of R's true tuples in every world.
  void AppendSupport(int relation_id, std::vector<Element>* out) const;

 private:
  struct Slot {
    int32_t relation = -1;  // -1: empty slot
    int32_t entry = -1;     // error-model entry id, -1 if none
    uint32_t offset = 0;    // first key element in elements_
    uint32_t arity = 0;
    uint32_t hash = 0;      // high 32 bits of the key's hash
    bool observed = false;  // observed truth in 𝔄
  };

  static uint64_t Hash(int relation_id, const Tuple& tuple);
  // Index of the slot holding R(tuple), or of the empty slot where it
  // would go.
  size_t Find(int relation_id, const Tuple& tuple, uint64_t hash) const;
  void Insert(int relation_id, const Tuple& tuple, bool observed, int entry);

  const UnreliableDatabase& database_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::vector<Element> elements_;
  uint64_t mask_ = 0;
  // The indexed atoms' elements grouped by relation: relation r's are
  // support_[support_begin_[r], support_begin_[r + 1]).
  std::vector<Element> support_;
  std::vector<size_t> support_begin_;
};

// AtomOracle view of one world over an index: atom truth = observed truth
// XOR flip. Holds references; the index and world must outlive the view.
// Every exact and sampled world is read through this view.
class WorldView : public AtomOracle {
 public:
  WorldView(const WorldIndex& index, const World& world);

  const Vocabulary& vocabulary() const override;
  int universe_size() const override;
  bool AtomTrue(int relation_id, const Tuple& tuple) const override {
    return index_.AtomTrue(relation_id, tuple, world_);
  }
  void AppendCandidates(int relation_id,
                        std::vector<Element>* out) const override {
    index_.AppendSupport(relation_id, out);
  }

 private:
  const WorldIndex& index_;
  const World& world_;
};

// Draws worlds from Ω(𝔇) into a caller's World: each uncertain entry
// flips independently with probability μ through a BernoulliThreshold
// precomputed once, μ = 1 entries always flip. Built once per sampling
// call; UnreliableDatabase::SampleWorld draws through it too, so both make
// the same draws for one Rng state.
class WorldSampler {
 public:
  explicit WorldSampler(const UnreliableDatabase& database);

  // Overwrites `world` (of the database's entry count) with a fresh draw;
  // allocates nothing.
  void Sample(Rng* rng, World* world) const;

 private:
  std::vector<int> certain_flips_;
  std::vector<int> uncertain_;
  std::vector<BernoulliThreshold> thresholds_;  // parallel to uncertain_
};

}  // namespace qrel

#endif  // QREL_PROB_WORLD_H_
