#include "qrel/prob/world.h"

#include <algorithm>
#include <bit>

#include "qrel/prob/unreliable_database.h"
#include "qrel/util/check.h"

namespace qrel {

int World::FlipCount() const {
  int count = 0;
  for (uint64_t word : bits_) {
    count += std::popcount(word);
  }
  return count;
}

WorldIndex::WorldIndex(const UnreliableDatabase& database)
    : database_(database) {
  const Structure& observed = database.observed();
  const ErrorModel& model = database.model();
  size_t atoms = observed.FactCount() + static_cast<size_t>(model.entry_count());
  size_t capacity = 4;
  while (capacity < 2 * atoms) {
    capacity *= 2;
  }
  slots_.resize(capacity);
  mask_ = capacity - 1;
  for (int r = 0; r < observed.vocabulary().relation_count(); ++r) {
    for (const Tuple& tuple : observed.Facts(r)) {
      Insert(r, tuple, /*observed=*/true, /*entry=*/-1);
    }
  }
  for (int e = 0; e < model.entry_count(); ++e) {
    const GroundAtom& atom = model.atom(e);
    Insert(atom.relation, atom.args, /*observed=*/false, e);
  }
  // Group the atoms' elements by relation (a counting sort over slots).
  support_begin_.assign(
      static_cast<size_t>(observed.vocabulary().relation_count()) + 1, 0);
  for (const Slot& slot : slots_) {
    if (slot.relation >= 0) {
      support_begin_[static_cast<size_t>(slot.relation) + 1] += slot.arity;
    }
  }
  for (size_t r = 1; r < support_begin_.size(); ++r) {
    support_begin_[r] += support_begin_[r - 1];
  }
  support_.resize(support_begin_.back());
  std::vector<size_t> fill(support_begin_.begin(), support_begin_.end() - 1);
  for (const Slot& slot : slots_) {
    if (slot.relation >= 0) {
      std::copy_n(elements_.begin() + slot.offset, slot.arity,
                  support_.begin() +
                      static_cast<ptrdiff_t>(
                          fill[static_cast<size_t>(slot.relation)]));
      fill[static_cast<size_t>(slot.relation)] += slot.arity;
    }
  }
}

void WorldIndex::AppendSupport(int relation_id,
                               std::vector<Element>* out) const {
  auto r = static_cast<size_t>(relation_id);
  out->insert(out->end(),
              support_.begin() + static_cast<ptrdiff_t>(support_begin_[r]),
              support_.begin() + static_cast<ptrdiff_t>(support_begin_[r + 1]));
}

uint64_t WorldIndex::Hash(int relation_id, const Tuple& tuple) {
  uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(relation_id)) *
               0x9e3779b97f4a7c15ULL;
  for (Element e : tuple) {
    h = (h ^ static_cast<uint32_t>(e)) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

size_t WorldIndex::Find(int relation_id, const Tuple& tuple,
                        uint64_t hash) const {
  uint32_t tag = static_cast<uint32_t>(hash >> 32);
  for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.relation < 0 ||
        (slot.hash == tag && slot.relation == relation_id &&
         slot.arity == tuple.size() &&
         std::equal(tuple.begin(), tuple.end(),
                    elements_.begin() + slot.offset))) {
      return i;
    }
  }
}

void WorldIndex::Insert(int relation_id, const Tuple& tuple, bool observed,
                        int entry) {
  uint64_t hash = Hash(relation_id, tuple);
  Slot& slot = slots_[Find(relation_id, tuple, hash)];
  if (slot.relation < 0) {
    slot.relation = relation_id;
    slot.hash = static_cast<uint32_t>(hash >> 32);
    slot.arity = static_cast<uint32_t>(tuple.size());
    slot.offset = static_cast<uint32_t>(elements_.size());
    slot.observed = observed;
    elements_.insert(elements_.end(), tuple.begin(), tuple.end());
  }
  if (entry >= 0) {
    slot.entry = entry;
  }
}

bool WorldIndex::AtomTrue(int relation_id, const Tuple& tuple,
                          const World& world) const {
  const Slot& slot = slots_[Find(relation_id, tuple, Hash(relation_id, tuple))];
  if (slot.relation < 0) {
    return false;  // neither observed nor in the error model
  }
  return slot.observed != (slot.entry >= 0 && world.Flipped(slot.entry));
}

WorldView::WorldView(const WorldIndex& index, const World& world)
    : index_(index), world_(world) {
  QREL_CHECK_EQ(world.entry_count(),
                index.database().model().entry_count());
}

const Vocabulary& WorldView::vocabulary() const {
  return index_.database().vocabulary();
}

int WorldView::universe_size() const {
  return index_.database().universe_size();
}

WorldSampler::WorldSampler(const UnreliableDatabase& database)
    : certain_flips_(database.model().CertainFlipEntries()),
      uncertain_(database.UncertainEntries()) {
  thresholds_.reserve(uncertain_.size());
  for (int id : uncertain_) {
    thresholds_.emplace_back(database.model().error(id));
  }
}

void WorldSampler::Sample(Rng* rng, World* world) const {
  QREL_CHECK(rng != nullptr);
  for (int id : certain_flips_) {
    world->SetFlipped(id, true);
  }
  for (size_t i = 0; i < uncertain_.size(); ++i) {
    world->SetFlipped(uncertain_[i], thresholds_[i].Draw(rng));
  }
}

}  // namespace qrel
