// Flat tuple storage for the join loops.
//
// FlatTupleSet keeps the tuples of one arity in one arity-packed array
// (tuple i is elements [i·arity, (i+1)·arity)) with an open-addressing
// hash set over their ids; ids are dense and in insertion order.
// TupleIndex groups a set's tuples by their values at some key positions.
// Both keep their memory across Reset(), so a loop that fills them over
// and over (one Datalog fixpoint per possible world) allocates only while
// its tuples outgrow every earlier fill.

#ifndef QREL_RELATIONAL_FLAT_TUPLES_H_
#define QREL_RELATIONAL_FLAT_TUPLES_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "qrel/relational/structure.h"

namespace qrel {

class FlatTupleSet {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // An empty set of arity 0; Reset sets the arity.
  FlatTupleSet() = default;

  // Empties the set and sets its arity; keeps the memory.
  void Reset(int arity);

  int arity() const { return arity_; }
  uint32_t size() const { return size_; }
  // The arity() elements of tuple `id`; invalidated by Insert.
  const Element* tuple(uint32_t id) const {
    return data_.data() + static_cast<size_t>(id) * arity_;
  }

  // Id of the tuple whose arity() elements are `t`, or kNone.
  uint32_t Find(const Element* t) const;
  bool Contains(const Element* t) const { return Find(t) != kNone; }
  // Adds `t` unless present; returns whether it was new (its id is then
  // size() - 1). `t` must not point into this set.
  bool Insert(const Element* t);

  // The ids in [begin, end), ordered by lexicographic tuple order.
  void SortedIds(uint32_t begin, uint32_t end,
                 std::vector<uint32_t>* out) const;
  std::set<Tuple> ToSet() const;

 private:
  // Slot of `t`, or the empty slot where it would go.
  size_t SlotOf(const Element* t, uint64_t hash) const;
  void Grow();

  int arity_ = 0;
  uint32_t size_ = 0;
  std::vector<Element> data_;
  // (hash tag << 32) | (id + 1); 0 is an empty slot. Power-of-two size,
  // at most half full.
  std::vector<uint64_t> slots_;
};

// The tuples of one FlatTupleSet grouped by their values at the key
// positions: for a key, the ids whose tuples carry it, newest first.
// It covers the ids its CatchUp calls have added, so a set that only grows
// is indexed incrementally.
class TupleIndex {
 public:
  static constexpr uint32_t kNone = FlatTupleSet::kNone;

  // Empties the index and sets the key positions; keeps the memory.
  void Reset(const std::vector<int>& key_positions);
  // Empties the index, keeping its key positions and memory.
  void Clear();

  // Adds the ids of `set` that the previous calls did not; `set` is the
  // set every call on this index refers to.
  void CatchUp(const FlatTupleSet& set);

  // The largest id whose tuple carries `key` (one element per key
  // position), or kNone; Next walks the rest in descending order.
  uint32_t First(const FlatTupleSet& set, const Element* key) const;
  uint32_t Next(uint32_t id) const { return next_[id]; }

 private:
  uint64_t KeyHash(const Element* tuple_or_key, bool is_tuple) const;
  size_t SlotOf(const FlatTupleSet& set, const Element* key, bool is_tuple,
                uint64_t hash) const;
  void Grow(const FlatTupleSet& set);

  std::vector<int> positions_;
  uint32_t indexed_ = 0;
  uint32_t keys_ = 0;
  // (hash tag << 32) | (newest id + 1); 0 is an empty slot.
  std::vector<uint64_t> slots_;
  std::vector<uint32_t> next_;  // per id: the next older id with its key
};

}  // namespace qrel

#endif  // QREL_RELATIONAL_FLAT_TUPLES_H_
