#ifndef PROVDB_CRYPTO_BIGNUM_H_
#define PROVDB_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace provdb::crypto {

struct DivModResult;

namespace detail {
/// Limb type of the Montgomery exponentiation engine. The public BigUInt
/// representation stays 32-bit; the ladder repacks operands into the
/// widest limb the compiler can multiply to double width (64-bit via
/// __int128 where available), which more than halves the inner-loop
/// work. Results are identical either way — only the internal radix
/// changes.
#if defined(__SIZEOF_INT128__)
using MontLimb = uint64_t;
#else
using MontLimb = uint32_t;
#endif
}  // namespace detail

/// Arbitrary-precision unsigned integer. Backing for the from-scratch RSA
/// implementation (the paper's checksum signatures use 1024-bit RSA, §5.1).
///
/// Representation: little-endian vector of 32-bit limbs, normalized (no
/// trailing zero limbs; zero is the empty vector). Multiplication is the
/// schoolbook product; odd-modulus exponentiation runs the Montgomery
/// ladder of MontgomeryContext (docs/CRYPTO.md).
class BigUInt {
 public:
  /// Zero.
  BigUInt() = default;

  /// From a machine word.
  explicit BigUInt(uint64_t v);

  /// Parses a big-endian byte string (as found in signatures and keys).
  static BigUInt FromBytesBigEndian(ByteView bytes);

  /// Parses hex (no 0x prefix, case-insensitive).
  static Result<BigUInt> FromHexString(std::string_view hex);

  /// Parses decimal.
  static Result<BigUInt> FromDecimalString(std::string_view dec);

  /// Minimal-length big-endian bytes ("0" encodes as one zero byte).
  Bytes ToBytesBigEndian() const;

  /// Big-endian bytes left-padded with zeros to exactly `width` bytes.
  /// Fails if the value does not fit.
  Result<Bytes> ToBytesBigEndianPadded(size_t width) const;

  std::string ToHexString() const;
  std::string ToDecimalString() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }

  /// Number of significant bits (0 for zero).
  size_t BitLength() const;

  /// Bit `i` (LSB = 0); bits beyond BitLength() read as 0.
  bool GetBit(size_t i) const;

  /// Value of the low 64 bits.
  uint64_t ToUint64() const;

  // -- Comparison ------------------------------------------------------
  static int Compare(const BigUInt& a, const BigUInt& b);
  bool operator==(const BigUInt& o) const { return Compare(*this, o) == 0; }
  bool operator!=(const BigUInt& o) const { return Compare(*this, o) != 0; }
  bool operator<(const BigUInt& o) const { return Compare(*this, o) < 0; }
  bool operator<=(const BigUInt& o) const { return Compare(*this, o) <= 0; }
  bool operator>(const BigUInt& o) const { return Compare(*this, o) > 0; }
  bool operator>=(const BigUInt& o) const { return Compare(*this, o) >= 0; }

  // -- Arithmetic ------------------------------------------------------
  static BigUInt Add(const BigUInt& a, const BigUInt& b);

  /// Requires a >= b. The precondition is enforced in every build type:
  /// violating it aborts the process rather than silently wrapping. A
  /// wrapped difference inside RSA-CRT or the extended Euclid would
  /// produce a structurally valid but cryptographically wrong value — a
  /// signature that fails verification at best, a key-dependent
  /// miscomputation at worst — so there is no safe "release" behavior to
  /// fall back to. All in-tree call sites either compare first or
  /// subtract a value bounded by construction (see the audit notes at
  /// each site in bignum.cc / rsa.cc).
  static BigUInt Sub(const BigUInt& a, const BigUInt& b);

  /// Schoolbook O(n^2) product (docs/CRYPTO.md).
  static BigUInt Mul(const BigUInt& a, const BigUInt& b);

  /// Quotient and remainder; `divisor` must be non-zero.
  static Result<DivModResult> DivMod(const BigUInt& dividend,
                                     const BigUInt& divisor);

  /// a mod m; `m` must be non-zero.
  static Result<BigUInt> Mod(const BigUInt& a, const BigUInt& m);

  BigUInt operator+(const BigUInt& o) const { return Add(*this, o); }
  BigUInt operator-(const BigUInt& o) const { return Sub(*this, o); }
  BigUInt operator*(const BigUInt& o) const { return Mul(*this, o); }

  /// Left shift by `bits`.
  BigUInt ShiftLeft(size_t bits) const;

  /// Logical right shift by `bits`.
  BigUInt ShiftRight(size_t bits) const;

  // -- Number theory ---------------------------------------------------

  /// (base ^ exp) mod m. Requires m != 0. Uses Montgomery multiplication
  /// when m is odd (the RSA case), generic square-and-multiply otherwise.
  static Result<BigUInt> ModExp(const BigUInt& base, const BigUInt& exp,
                                const BigUInt& m);

  /// Greatest common divisor.
  static BigUInt Gcd(BigUInt a, BigUInt b);

  /// Multiplicative inverse of a modulo m; fails when gcd(a, m) != 1.
  static Result<BigUInt> ModInverse(const BigUInt& a, const BigUInt& m);

 private:
  friend class MontgomeryContext;

  void Normalize();

  std::vector<uint32_t> limbs_;
};

/// Quotient and remainder of an integer division.
struct DivModResult {
  BigUInt quotient;
  BigUInt remainder;
};

/// Precomputed context for repeated modular exponentiation modulo a fixed
/// odd modulus (Montgomery REDC form). Exposed so RSA keys can reuse
/// their contexts across many signatures and verifications.
class MontgomeryContext {
 public:
  /// `modulus` must be odd and > 1.
  static Result<MontgomeryContext> Create(const BigUInt& modulus);

  const BigUInt& modulus() const { return modulus_; }

  /// (base ^ exp) mod m, operands in ordinary (non-Montgomery) form.
  /// Fixed 5-bit windows with constant-time table selection; exponents
  /// under 128 bits take the binary ladder instead (docs/CRYPTO.md).
  BigUInt ModExp(const BigUInt& base, const BigUInt& exp) const;

 private:
  MontgomeryContext() = default;

  /// Allocation-free CIOS Montgomery product on flat engine-radix limb
  /// arrays (detail::MontLimb): out = a * b * R_L^-1 mod m, the ladder
  /// hot path — no heap, no BigUInt. `a`, `b`, `out` are mont_limbs_
  /// wide; `scratch` is mont_limbs_ + 2 wide. `out` may alias `a` and/or
  /// `b` (inputs are consumed before `out` is written); `scratch` must
  /// not alias anything.
  void MontMulIntoL(const detail::MontLimb* a, const detail::MontLimb* b,
                    detail::MontLimb* out, detail::MontLimb* scratch) const;

  /// The modulus in the public radix: ModExp reduces its base by it.
  BigUInt modulus_;

  // The modulus repacked into engine limbs (docs/CRYPTO.md), with R_L =
  // 2^(bits(MontLimb) * mont_limbs_). Montgomery form never leaves
  // ModExp, which converts on entry and exit.
  std::vector<detail::MontLimb> mont_m_;
  std::vector<detail::MontLimb> mont_r_;   // R_L mod m
  std::vector<detail::MontLimb> mont_r2_;  // R_L^2 mod m
  detail::MontLimb mont_n_prime_ = 0;      // -m^-1 mod 2^bits(MontLimb)
  size_t mont_limbs_ = 0;
};

}  // namespace provdb::crypto

#endif  // PROVDB_CRYPTO_BIGNUM_H_
