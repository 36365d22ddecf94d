#include "qrel/prob/world_enumerator.h"

#include <bit>

#include "qrel/util/check.h"

namespace qrel {

namespace {

// Bits of the narrow accumulator: products stay below 2^127, so a sum of
// them never wraps the 128-bit word.
constexpr size_t kNarrowBits = 127;

Uint128 NarrowOf(const BigInt& value) {
  Uint128 result = 0;
  QREL_CHECK(value.ToUint128(&result));
  return result;
}

}  // namespace

BigInt WeightSum::Value() const {
  return narrow_ ? BigInt::FromUint128(small_) : big_;
}

void WeightSum::Set(BigInt value) {
  if (narrow_) {
    small_ = NarrowOf(value);
  } else {
    big_ = std::move(value);
  }
}

WorldEnumerator::WorldEnumerator(const UnreliableDatabase& db)
    : index_(db),
      entries_(db.UncertainEntries()),
      world_(db.model().entry_count()),
      g_(1) {
  size_t u = entries_.size();
  QREL_CHECK_MSG(u <= kMaxUncertain,
                 "world enumeration over more than 62 atoms");
  world_count_ = uint64_t{1} << u;
  for (int id : db.model().CertainFlipEntries()) {
    world_.SetFlipped(id, true);
  }
  std::vector<BigInt> flip(u);
  std::vector<BigInt> keep(u);
  for (size_t i = 0; i < u; ++i) {
    const Rational& mu = db.model().error(entries_[i]);
    flip[i] = mu.numerator();
    keep[i] = mu.denominator() - mu.numerator();
    g_ *= mu.denominator();
  }
  narrow_ = g_.BitLength() <= kNarrowBits;
  if (narrow_) {
    for (size_t i = 0; i < u; ++i) {
      flip_.push_back(NarrowOf(flip[i]));
      keep_.push_back(NarrowOf(keep[i]));
    }
    suffix_.assign(u + 1, 1);
  } else {
    big_flip_ = std::move(flip);
    big_keep_ = std::move(keep);
    big_suffix_.assign(u + 1, BigInt(1));
  }
  if (u > 0) {
    RecomputeSuffix(u - 1);
  }
}

void WorldEnumerator::RecomputeSuffix(size_t top) {
  for (size_t i = top + 1; i-- > 0;) {
    bool flipped = (mask_ >> i) & 1u;
    if (narrow_) {
      suffix_[i] = (flipped ? flip_[i] : keep_[i]) * suffix_[i + 1];
    } else {
      big_suffix_[i] = (flipped ? big_flip_[i] : big_keep_[i]) *
                       big_suffix_[i + 1];
    }
  }
}

void WorldEnumerator::Next() {
  QREL_CHECK(!done());
  ++step_;
  if (done()) {
    return;
  }
  // Gray codes of s-1 and s differ in bit ctz(s).
  size_t bit = static_cast<size_t>(std::countr_zero(step_));
  mask_ ^= uint64_t{1} << bit;
  world_.SetFlipped(entries_[bit], (mask_ >> bit) & 1u);
  RecomputeSuffix(bit);
}

void WorldEnumerator::Seek(uint64_t step) {
  QREL_CHECK_LE(step, world_count_);
  step_ = step;
  if (done()) {
    return;
  }
  mask_ = step ^ (step >> 1);
  for (size_t i = 0; i < entries_.size(); ++i) {
    world_.SetFlipped(entries_[i], (mask_ >> i) & 1u);
  }
  if (!entries_.empty()) {
    RecomputeSuffix(entries_.size() - 1);
  }
}

BigInt WorldEnumerator::Weight() const {
  return narrow_ ? BigInt::FromUint128(suffix_[0]) : big_suffix_[0];
}

WeightSum WorldEnumerator::NewSum(const BigInt& max_count) const {
  return WeightSum(g_.BitLength() + max_count.BitLength() <= kNarrowBits);
}

void WorldEnumerator::Add(uint64_t count, WeightSum* sum) const {
  if (count == 0) {
    return;
  }
  if (sum->narrow_) {
    // A narrow sum implies narrow weights: bits(g) ≤ 127 − bits(max).
    sum->small_ += suffix_[0] * count;
  } else {
    sum->big_ += Weight() * BigInt::FromUint64(count);
  }
}

StatusOr<WorldSum> SumOverWorlds(const UnreliableDatabase& db,
                                 const BigInt& max_count, GovernedLoop* loop,
                                 const WorldCount& count) {
  GovernedLoop ungoverned(nullptr, {});
  if (loop == nullptr) {
    loop = &ungoverned;
  }
  WorldEnumerator walk(db);
  WeightSum sum = walk.NewSum(max_count);
  uint64_t step = 0;
  QREL_RETURN_IF_ERROR(loop->Resume([&](SnapshotReader& r) -> Status {
    BigInt weighted;
    uint64_t worlds = 0;
    QREL_RETURN_IF_ERROR(r.U64(&step));
    QREL_RETURN_IF_ERROR(r.BigIntVal(&weighted));
    QREL_RETURN_IF_ERROR(r.U64(&worlds));
    if (step > walk.world_count() || worlds != step ||
        weighted.IsNegative() || weighted > walk.g() * max_count) {
      return Status::DataLoss("snapshot world step or sum out of range");
    }
    walk.Seek(step);
    sum.Set(std::move(weighted));
    return Status::Ok();
  }));
  WorldView view(walk.index(), walk.world());
  QREL_RETURN_IF_ERROR(loop->Run(
      &step, walk.world_count(),
      [&]() -> Status {
        StatusOr<uint64_t> counted = count(view);
        if (!counted.ok()) {
          return counted.status();
        }
        walk.Add(*counted, &sum);
        walk.Next();
        return Status::Ok();
      },
      [&](SnapshotWriter& w) {
        w.U64(step);
        w.BigIntVal(sum.Value());
        w.U64(step);  // worlds visited: one per step
      }));
  return WorldSum{sum.Value(), walk.g(), step};
}

}  // namespace qrel
