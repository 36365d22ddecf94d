#include "qrel/relational/flat_tuples.h"

#include <algorithm>
#include <numeric>

#include "qrel/util/check.h"

namespace qrel {

namespace {

constexpr size_t kInitialSlots = 16;

uint64_t MixElement(uint64_t h, Element e) {
  h = (h ^ static_cast<uint32_t>(e)) * 0xff51afd7ed558ccdULL;
  return h ^ (h >> 32);
}

uint32_t Tag(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

uint64_t HashTuple(const Element* t, int arity) {
  uint64_t hash = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < arity; ++i) {
    hash = MixElement(hash, t[i]);
  }
  return hash;
}

}  // namespace

void FlatTupleSet::Reset(int arity) {
  QREL_CHECK_GE(arity, 0);
  arity_ = arity;
  size_ = 0;
  data_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
}

size_t FlatTupleSet::SlotOf(const Element* t, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const auto arity = static_cast<size_t>(arity_);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    uint64_t slot = slots_[i];
    if (slot == 0) {
      return i;
    }
    if (static_cast<uint32_t>(slot >> 32) == Tag(hash)) {
      const Element* other = tuple(static_cast<uint32_t>(slot) - 1);
      if (std::equal(t, t + arity, other)) {
        return i;
      }
    }
  }
}

uint32_t FlatTupleSet::Find(const Element* t) const {
  if (slots_.empty()) {
    return kNone;
  }
  uint64_t slot = slots_[SlotOf(t, HashTuple(t, arity_))];
  return slot == 0 ? kNone : static_cast<uint32_t>(slot) - 1;
}

bool FlatTupleSet::Insert(const Element* t) {
  if (2 * (static_cast<size_t>(size_) + 1) > slots_.size()) {
    Grow();
  }
  uint64_t hash = HashTuple(t, arity_);
  size_t at = SlotOf(t, hash);
  if (slots_[at] != 0) {
    return false;
  }
  QREL_CHECK_LT(size_, kNone - 1);
  data_.insert(data_.end(), t, t + arity_);
  ++size_;
  slots_[at] = (static_cast<uint64_t>(Tag(hash)) << 32) | size_;
  return true;
}

void FlatTupleSet::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), 0);
  const size_t mask = slots_.size() - 1;
  for (uint64_t slot : old) {
    if (slot == 0) {
      continue;
    }
    // The tag is the hash's high half; the low half is recomputed.
    size_t i = HashTuple(tuple(static_cast<uint32_t>(slot) - 1), arity_) & mask;
    while (slots_[i] != 0) {
      i = (i + 1) & mask;
    }
    slots_[i] = slot;
  }
}

void FlatTupleSet::SortedIds(uint32_t begin, uint32_t end,
                             std::vector<uint32_t>* out) const {
  QREL_CHECK(begin <= end && end <= size_);
  out->resize(end - begin);
  std::iota(out->begin(), out->end(), begin);
  const auto arity = static_cast<size_t>(arity_);
  std::sort(out->begin(), out->end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(tuple(a), tuple(a) + arity, tuple(b),
                                        tuple(b) + arity);
  });
}

std::set<Tuple> FlatTupleSet::ToSet() const {
  std::set<Tuple> result;
  for (uint32_t id = 0; id < size_; ++id) {
    result.emplace(tuple(id), tuple(id) + arity_);
  }
  return result;
}

void TupleIndex::Reset(const std::vector<int>& key_positions) {
  positions_ = key_positions;
  Clear();
}

void TupleIndex::Clear() {
  indexed_ = 0;
  keys_ = 0;
  std::fill(slots_.begin(), slots_.end(), 0);
}

uint64_t TupleIndex::KeyHash(const Element* tuple_or_key,
                             bool is_tuple) const {
  uint64_t hash = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < positions_.size(); ++i) {
    hash = MixElement(hash, tuple_or_key[is_tuple ? positions_[i] : i]);
  }
  return hash;
}

size_t TupleIndex::SlotOf(const FlatTupleSet& set, const Element* key,
                          bool is_tuple, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    uint64_t slot = slots_[i];
    if (slot == 0) {
      return i;
    }
    if (static_cast<uint32_t>(slot >> 32) != Tag(hash)) {
      continue;
    }
    const Element* head = set.tuple(static_cast<uint32_t>(slot) - 1);
    bool same = true;
    for (size_t k = 0; k < positions_.size() && same; ++k) {
      same = head[positions_[k]] == key[is_tuple ? positions_[k] : k];
    }
    if (same) {
      return i;
    }
  }
}

void TupleIndex::CatchUp(const FlatTupleSet& set) {
  if (next_.size() < set.size()) {
    next_.resize(set.size());
  }
  for (; indexed_ < set.size(); ++indexed_) {
    if (2 * (static_cast<size_t>(keys_) + 1) > slots_.size()) {
      Grow(set);
    }
    const Element* t = set.tuple(indexed_);
    uint64_t hash = KeyHash(t, /*is_tuple=*/true);
    uint64_t& slot = slots_[SlotOf(set, t, /*is_tuple=*/true, hash)];
    if (slot == 0) {
      ++keys_;
      next_[indexed_] = kNone;
    } else {
      next_[indexed_] = static_cast<uint32_t>(slot) - 1;
    }
    slot = (static_cast<uint64_t>(Tag(hash)) << 32) | (indexed_ + 1);
  }
}

void TupleIndex::Grow(const FlatTupleSet& set) {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), 0);
  const size_t mask = slots_.size() - 1;
  for (uint64_t slot : old) {
    if (slot == 0) {
      continue;
    }
    uint64_t hash =
        KeyHash(set.tuple(static_cast<uint32_t>(slot) - 1), /*is_tuple=*/true);
    size_t i = hash & mask;
    while (slots_[i] != 0) {
      i = (i + 1) & mask;
    }
    slots_[i] = slot;
  }
}

uint32_t TupleIndex::First(const FlatTupleSet& set, const Element* key) const {
  if (slots_.empty()) {
    return kNone;
  }
  uint64_t slot =
      slots_[SlotOf(set, key, /*is_tuple=*/false, KeyHash(key, false))];
  return slot == 0 ? kNone : static_cast<uint32_t>(slot) - 1;
}

}  // namespace qrel
