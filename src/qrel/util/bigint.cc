#include "qrel/util/bigint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "qrel/util/check.h"

namespace qrel {

namespace {

constexpr uint64_t kLimbBase = uint64_t{1} << 32;

}  // namespace

BigInt::BigInt(int64_t value) {
  if (value == 0) {
    return;
  }
  uint64_t magnitude;
  if (value < 0) {
    negative_ = true;
    // Avoid UB on INT64_MIN: negate in unsigned arithmetic.
    magnitude = ~static_cast<uint64_t>(value) + 1;
  } else {
    magnitude = static_cast<uint64_t>(value);
  }
  limbs_.push_back(static_cast<uint32_t>(magnitude & 0xffffffffu));
  if (magnitude >> 32) {
    limbs_.push_back(static_cast<uint32_t>(magnitude >> 32));
  }
}

BigInt BigInt::FromUint64(uint64_t value) {
  BigInt result;
  if (value == 0) {
    return result;
  }
  result.limbs_.push_back(static_cast<uint32_t>(value & 0xffffffffu));
  if (value >> 32) {
    result.limbs_.push_back(static_cast<uint32_t>(value >> 32));
  }
  return result;
}

BigInt BigInt::FromUint128(Uint128 value) {
  BigInt result;
  for (; value != 0; value >>= 32) {
    result.limbs_.push_back(static_cast<uint32_t>(value & 0xffffffffu));
  }
  return result;
}

StatusOr<BigInt> BigInt::FromDecimalString(std::string_view text) {
  if (text.empty()) {
    return Status::InvalidArgument("empty integer literal");
  }
  bool negative = false;
  size_t pos = 0;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    pos = 1;
  }
  if (pos == text.size()) {
    return Status::InvalidArgument("integer literal has no digits");
  }
  BigInt result;
  for (; pos < text.size(); ++pos) {
    char c = text[pos];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(std::string("invalid digit '") + c +
                                     "' in integer literal");
    }
    // result = result * 10 + digit, with inlined small-scalar ops.
    uint64_t carry = static_cast<uint64_t>(c - '0');
    for (size_t i = 0; i < result.limbs_.size(); ++i) {
      uint64_t value = static_cast<uint64_t>(result.limbs_[i]) * 10 + carry;
      result.limbs_[i] = static_cast<uint32_t>(value & 0xffffffffu);
      carry = value >> 32;
    }
    if (carry != 0) {
      result.limbs_.push_back(static_cast<uint32_t>(carry));
    }
  }
  TrimMag(&result.limbs_);
  result.negative_ = negative && !result.limbs_.empty();
  return result;
}

BigInt BigInt::TwoPow(uint32_t exponent) {
  BigInt result;
  result.limbs_.assign(exponent / 32 + 1, 0);
  result.limbs_.back() = uint32_t{1} << (exponent % 32);
  return result;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  return (limbs_.size() - 1) * 32 +
         (32 - static_cast<size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::TestBit(size_t index) const {
  size_t limb = index / 32;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (index % 32)) & 1u;
}

BigInt BigInt::Abs() const {
  BigInt result = *this;
  result.negative_ = false;
  return result;
}

BigInt BigInt::Negated() const {
  BigInt result = *this;
  if (!result.limbs_.empty()) {
    result.negative_ = !result.negative_;
  }
  return result;
}

int BigInt::CompareMag(const std::vector<uint32_t>& a,
                       const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) {
    return a.size() < b.size() ? -1 : 1;
  }
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) {
      return a[i] < b[i] ? -1 : 1;
    }
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) {
    return negative_ ? -1 : 1;
  }
  int mag = CompareMag(limbs_, other.limbs_);
  return negative_ ? -mag : mag;
}

void BigInt::TrimMag(std::vector<uint32_t>* mag) {
  while (!mag->empty() && mag->back() == 0) {
    mag->pop_back();
  }
}

void BigInt::Canonicalize() {
  TrimMag(&limbs_);
  if (limbs_.empty()) {
    negative_ = false;
  }
}

std::vector<uint32_t> BigInt::AddMag(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  const std::vector<uint32_t>& longer = a.size() >= b.size() ? a : b;
  const std::vector<uint32_t>& shorter = a.size() >= b.size() ? b : a;
  std::vector<uint32_t> result;
  result.reserve(longer.size() + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < longer.size(); ++i) {
    uint64_t sum = carry + longer[i] + (i < shorter.size() ? shorter[i] : 0u);
    result.push_back(static_cast<uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry != 0) {
    result.push_back(static_cast<uint32_t>(carry));
  }
  return result;
}

std::vector<uint32_t> BigInt::SubMag(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  QREL_CHECK_GE(CompareMag(a, b), 0);
  std::vector<uint32_t> result;
  result.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0) - borrow;
    if (diff < 0) {
      diff += static_cast<int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    result.push_back(static_cast<uint32_t>(diff));
  }
  QREL_CHECK_EQ(borrow, 0);
  TrimMag(&result);
  return result;
}

std::vector<uint32_t> BigInt::MulMag(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) {
    return {};
  }
  std::vector<uint32_t> result(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a[i];
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t value = ai * b[j] + result[i + j] + carry;
      result[i + j] = static_cast<uint32_t>(value & 0xffffffffu);
      carry = value >> 32;
    }
    size_t k = i + b.size();
    while (carry != 0) {
      uint64_t value = result[k] + carry;
      result[k] = static_cast<uint32_t>(value & 0xffffffffu);
      carry = value >> 32;
      ++k;
    }
  }
  TrimMag(&result);
  return result;
}

// Knuth TAOCP vol. 2, algorithm 4.3.1 D, specialized to 32-bit limbs with
// 64-bit intermediates.
void BigInt::DivModMag(const std::vector<uint32_t>& u_in,
                       const std::vector<uint32_t>& v_in,
                       std::vector<uint32_t>* quotient,
                       std::vector<uint32_t>* remainder) {
  QREL_CHECK(!v_in.empty());
  quotient->clear();
  remainder->clear();
  if (CompareMag(u_in, v_in) < 0) {
    *remainder = u_in;
    return;
  }
  if (v_in.size() == 1) {
    // Short division by a single limb.
    uint64_t divisor = v_in[0];
    quotient->assign(u_in.size(), 0);
    uint64_t rem = 0;
    for (size_t i = u_in.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | u_in[i];
      (*quotient)[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    TrimMag(quotient);
    if (rem != 0) {
      remainder->push_back(static_cast<uint32_t>(rem));
    }
    return;
  }

  const size_t n = v_in.size();
  const size_t m = u_in.size() - n;

  // D1: normalize so the divisor's top limb has its high bit set.
  const int shift = std::countl_zero(v_in.back());
  std::vector<uint32_t> v(n);
  for (size_t i = n; i-- > 0;) {
    uint32_t high = v_in[i] << shift;
    uint32_t low =
        (shift != 0 && i > 0) ? (v_in[i - 1] >> (32 - shift)) : 0;
    v[i] = high | low;
  }
  std::vector<uint32_t> u(u_in.size() + 1, 0);
  for (size_t i = u_in.size(); i-- > 0;) {
    uint32_t high = u_in[i] << shift;
    uint32_t low =
        (shift != 0 && i > 0) ? (u_in[i - 1] >> (32 - shift)) : 0;
    u[i] = high | low;
  }
  if (shift != 0) {
    u[u_in.size()] = u_in.back() >> (32 - shift);
  }

  quotient->assign(m + 1, 0);
  const uint64_t v_top = v[n - 1];
  const uint64_t v_next = v[n - 2];

  // D2..D7: main loop over quotient digits.
  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate the quotient digit.
    uint64_t numerator = (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = numerator / v_top;
    uint64_t rhat = numerator % v_top;
    while (qhat >= kLimbBase ||
           qhat * v_next > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= kLimbBase) {
        break;
      }
    }

    // D4: multiply and subtract.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      int64_t diff = static_cast<int64_t>(u[i + j]) -
                     static_cast<int64_t>(product & 0xffffffffu) - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(kLimbBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<uint32_t>(diff);
    }
    int64_t top = static_cast<int64_t>(u[j + n]) -
                  static_cast<int64_t>(carry) - borrow;
    bool negative = top < 0;
    u[j + n] = static_cast<uint32_t>(top & 0xffffffff);

    // D5/D6: if we subtracted too much, add the divisor back.
    if (negative) {
      --qhat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<uint32_t>(sum & 0xffffffffu);
        add_carry = sum >> 32;
      }
      u[j + n] = static_cast<uint32_t>(u[j + n] + add_carry);
    }
    (*quotient)[j] = static_cast<uint32_t>(qhat);
  }
  TrimMag(quotient);

  // D8: de-normalize the remainder.
  remainder->assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    uint32_t high = (shift != 0 && i + 1 < u.size())
                        ? (u[i + 1] << (32 - shift))
                        : 0;
    (*remainder)[i] = shift == 0 ? u[i] : ((u[i] >> shift) | high);
  }
  TrimMag(remainder);
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt result;
  if (negative_ == other.negative_) {
    result.limbs_ = AddMag(limbs_, other.limbs_);
    result.negative_ = negative_;
  } else {
    int cmp = CompareMag(limbs_, other.limbs_);
    if (cmp == 0) {
      return BigInt();
    }
    if (cmp > 0) {
      result.limbs_ = SubMag(limbs_, other.limbs_);
      result.negative_ = negative_;
    } else {
      result.limbs_ = SubMag(other.limbs_, limbs_);
      result.negative_ = other.negative_;
    }
  }
  result.Canonicalize();
  return result;
}

BigInt BigInt::operator-(const BigInt& other) const {
  return *this + other.Negated();
}

BigInt BigInt::operator*(const BigInt& other) const {
  BigInt result;
  result.limbs_ = MulMag(limbs_, other.limbs_);
  result.negative_ = negative_ != other.negative_;
  result.Canonicalize();
  return result;
}

BigInt::DivModResult BigInt::DivMod(const BigInt& divisor) const {
  QREL_CHECK_MSG(!divisor.IsZero(), "BigInt division by zero");
  DivModResult result;
  DivModMag(limbs_, divisor.limbs_, &result.quotient.limbs_,
            &result.remainder.limbs_);
  result.quotient.negative_ = negative_ != divisor.negative_;
  result.remainder.negative_ = negative_;
  result.quotient.Canonicalize();
  result.remainder.Canonicalize();
  return result;
}

BigInt BigInt::operator/(const BigInt& other) const {
  return DivMod(other).quotient;
}

BigInt BigInt::operator%(const BigInt& other) const {
  return DivMod(other).remainder;
}

BigInt BigInt::ShiftLeft(size_t bits) const {
  if (IsZero() || bits == 0) {
    return *this;
  }
  BigInt result;
  result.negative_ = negative_;
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  result.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t value = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    result.limbs_[i + limb_shift] |= static_cast<uint32_t>(value & 0xffffffffu);
    result.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(value >> 32);
  }
  result.Canonicalize();
  return result;
}

BigInt BigInt::ShiftRight(size_t bits) const {
  size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) {
    return BigInt();
  }
  size_t bit_shift = bits % 32;
  BigInt result;
  result.negative_ = negative_;
  result.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < result.limbs_.size(); ++i) {
    uint64_t value = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      value |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
               << (32 - bit_shift);
    }
    result.limbs_[i] = static_cast<uint32_t>(value & 0xffffffffu);
  }
  result.Canonicalize();
  return result;
}

BigInt BigInt::Gcd(const BigInt& a_in, const BigInt& b_in) {
  BigInt a = a_in.Abs();
  BigInt b = b_in.Abs();
  // Euclid with full divisions: the operand sizes shrink quickly, and the
  // limb-based DivMod keeps each step O(n^2) at worst.
  while (!b.IsZero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::Lcm(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) {
    return BigInt();
  }
  BigInt g = Gcd(a, b);
  return (a.Abs() / g) * b.Abs();
}

BigInt BigInt::Pow(const BigInt& base, uint32_t exponent) {
  BigInt result(1);
  BigInt factor = base;
  while (exponent != 0) {
    if (exponent & 1u) {
      result *= factor;
    }
    exponent >>= 1;
    if (exponent != 0) {
      factor *= factor;
    }
  }
  return result;
}

std::string BigInt::ToDecimalString() const {
  if (IsZero()) {
    return "0";
  }
  // Repeatedly divide by 10^9 and emit 9-digit chunks.
  std::vector<uint32_t> mag = limbs_;
  std::string digits;
  while (!mag.empty()) {
    uint64_t rem = 0;
    for (size_t i = mag.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | mag[i];
      mag[i] = static_cast<uint32_t>(cur / 1000000000u);
      rem = cur % 1000000000u;
    }
    TrimMag(&mag);
    for (int i = 0; i < 9; ++i) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') {
    digits.pop_back();
  }
  if (negative_) {
    digits.push_back('-');
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

double BigInt::ToDouble() const {
  double result = 0.0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    result = result * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -result : result;
}

bool BigInt::FitsInt64() const {
  if (limbs_.size() > 2) {
    return false;
  }
  uint64_t magnitude = 0;
  if (!limbs_.empty()) {
    magnitude = limbs_[0];
  }
  if (limbs_.size() == 2) {
    magnitude |= static_cast<uint64_t>(limbs_[1]) << 32;
  }
  if (negative_) {
    return magnitude <= (uint64_t{1} << 63);
  }
  return magnitude <= static_cast<uint64_t>(
                          std::numeric_limits<int64_t>::max());
}

bool BigInt::ToUint128(Uint128* out) const {
  if (negative_ || limbs_.size() > 4) {
    return false;
  }
  Uint128 value = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    value = (value << 32) | limbs_[i];
  }
  *out = value;
  return true;
}

int64_t BigInt::ToInt64() const {
  QREL_CHECK_MSG(FitsInt64(), "BigInt does not fit in int64_t");
  uint64_t magnitude = 0;
  if (!limbs_.empty()) {
    magnitude = limbs_[0];
  }
  if (limbs_.size() == 2) {
    magnitude |= static_cast<uint64_t>(limbs_[1]) << 32;
  }
  if (negative_) {
    return static_cast<int64_t>(~magnitude + 1);
  }
  return static_cast<int64_t>(magnitude);
}

}  // namespace qrel
