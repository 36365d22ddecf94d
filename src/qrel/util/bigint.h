// Arbitrary-precision signed integers.
//
// The exact algorithms in this library (Theorem 4.2's world-enumeration
// computation, Proposition 3.1's quantifier-free algorithm, the Theorem 5.3
// reduction) manipulate probabilities whose denominators are products over
// all atoms of a database, i.e. numbers with thousands of bits. BigInt is
// the integer substrate for Rational (rational.h).
//
// Representation: sign-magnitude with 32-bit limbs in little-endian order
// and no leading zero limbs; zero has an empty limb vector and positive
// sign. All operations are value-semantic.

#ifndef QREL_UTIL_BIGINT_H_
#define QREL_UTIL_BIGINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qrel/util/status.h"

namespace qrel {

// Unsigned 128-bit integers (a GCC/Clang extension): the fixed-width
// accumulator of exact world enumeration (prob/world_enumerator.h).
__extension__ typedef unsigned __int128 Uint128;

class BigInt {
 public:
  // Zero.
  BigInt() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): numeric literals should
  // convert implicitly, mirroring built-in integer behaviour.
  BigInt(int64_t value);

  static BigInt FromUint64(uint64_t value);
  static BigInt FromUint128(Uint128 value);
  // Parses an optionally signed decimal string. Fails on empty input or
  // non-digit characters.
  static StatusOr<BigInt> FromDecimalString(std::string_view text);
  // 2^exponent.
  static BigInt TwoPow(uint32_t exponent);

  bool IsZero() const { return limbs_.empty(); }
  bool IsOne() const { return !negative_ && limbs_.size() == 1 && limbs_[0] == 1; }
  bool IsNegative() const { return negative_; }
  // -1, 0 or +1.
  int Sign() const { return IsZero() ? 0 : (negative_ ? -1 : 1); }

  // Number of bits in the magnitude; 0 for zero.
  size_t BitLength() const;
  // Whether the magnitude's bit `index` (0 = least significant) is set.
  bool TestBit(size_t index) const;
  bool IsEven() const { return limbs_.empty() || (limbs_[0] & 1u) == 0; }

  BigInt Abs() const;
  BigInt Negated() const;

  // Three-way comparison: negative/zero/positive as *this <,==,> other.
  int Compare(const BigInt& other) const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  // Truncated division (C++ semantics: quotient rounds toward zero, the
  // remainder has the sign of the dividend). Dividing by zero aborts.
  BigInt operator/(const BigInt& other) const;
  BigInt operator%(const BigInt& other) const;
  BigInt& operator+=(const BigInt& other) { return *this = *this + other; }
  BigInt& operator-=(const BigInt& other) { return *this = *this - other; }
  BigInt& operator*=(const BigInt& other) { return *this = *this * other; }

  BigInt operator-() const { return Negated(); }

  bool operator==(const BigInt& other) const { return Compare(other) == 0; }
  bool operator!=(const BigInt& other) const { return Compare(other) != 0; }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  // Quotient and remainder in one pass (same semantics as / and %).
  struct DivModResult;  // defined after the class (needs a complete BigInt)
  DivModResult DivMod(const BigInt& divisor) const;

  // Magnitude shifts (sign is preserved; shifting zero stays zero).
  BigInt ShiftLeft(size_t bits) const;
  BigInt ShiftRight(size_t bits) const;

  // Greatest common divisor of the magnitudes; Gcd(0, 0) == 0.
  static BigInt Gcd(const BigInt& a, const BigInt& b);
  // Least common multiple of the magnitudes; Lcm with zero is zero.
  static BigInt Lcm(const BigInt& a, const BigInt& b);
  // base^exponent. Pow(0, 0) == 1.
  static BigInt Pow(const BigInt& base, uint32_t exponent);

  std::string ToDecimalString() const;
  // Nearest double (may overflow to +/-inf for huge values).
  double ToDouble() const;
  // Returns the value as int64_t; aborts if it does not fit.
  int64_t ToInt64() const;
  // Whether the value fits in an int64_t.
  bool FitsInt64() const;
  // Stores the value in *out if it is non-negative and below 2^128;
  // returns whether it did.
  bool ToUint128(Uint128* out) const;

 private:
  static std::vector<uint32_t> AddMag(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b);
  // Requires |a| >= |b|.
  static std::vector<uint32_t> SubMag(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b);
  static std::vector<uint32_t> MulMag(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b);
  // Schoolbook long division (Knuth algorithm D) on magnitudes.
  static void DivModMag(const std::vector<uint32_t>& u,
                        const std::vector<uint32_t>& v,
                        std::vector<uint32_t>* quotient,
                        std::vector<uint32_t>* remainder);
  static int CompareMag(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b);
  static void TrimMag(std::vector<uint32_t>* mag);

  void Canonicalize();

  bool negative_ = false;
  std::vector<uint32_t> limbs_;
};

struct BigInt::DivModResult {
  BigInt quotient;
  BigInt remainder;
};

}  // namespace qrel

#endif  // QREL_UTIL_BIGINT_H_
