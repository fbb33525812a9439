#include "crypto/bignum.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace provdb::crypto {
namespace {

BigUInt FromHex(std::string_view hex) {
  auto r = BigUInt::FromHexString(hex);
  EXPECT_TRUE(r.ok());
  return r.value();
}

BigUInt RandomBig(Rng* rng, size_t bytes) {
  Bytes raw;
  rng->NextBytes(&raw, bytes);
  return BigUInt::FromBytesBigEndian(raw);
}

// Square-and-multiply over Mul and Mod, LSB first: shares no code with
// the Montgomery ladder, so it is the reference for MontgomeryContext.
BigUInt ReferenceModExp(const BigUInt& base, const BigUInt& exp,
                        const BigUInt& m) {
  BigUInt acc = BigUInt::Mod(base, m).value();
  BigUInt result = BigUInt::Mod(BigUInt(1), m).value();
  for (size_t bit = 0; bit < exp.BitLength(); ++bit) {
    if (exp.GetBit(bit)) {
      result = BigUInt::Mod(BigUInt::Mul(result, acc), m).value();
    }
    acc = BigUInt::Mod(BigUInt::Mul(acc, acc), m).value();
  }
  return result;
}

TEST(BigUIntTest, ZeroProperties) {
  BigUInt zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_FALSE(zero.IsOdd());
  EXPECT_EQ(zero.BitLength(), 0u);
  EXPECT_EQ(zero.ToHexString(), "0");
  EXPECT_EQ(zero.ToDecimalString(), "0");
  EXPECT_EQ(zero.ToUint64(), 0u);
  EXPECT_EQ(zero.ToBytesBigEndian(), Bytes{0});
}

TEST(BigUIntTest, FromUint64) {
  BigUInt v(0x0123456789ABCDEFull);
  EXPECT_EQ(v.ToUint64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(v.ToHexString(), "123456789abcdef");
  EXPECT_EQ(v.BitLength(), 57u);
  EXPECT_TRUE(v.IsOdd());
}

TEST(BigUIntTest, BytesRoundTrip) {
  Rng rng(1);
  for (size_t bytes = 1; bytes <= 64; bytes += 3) {
    BigUInt v = RandomBig(&rng, bytes);
    BigUInt back = BigUInt::FromBytesBigEndian(v.ToBytesBigEndian());
    EXPECT_EQ(v, back);
  }
}

TEST(BigUIntTest, LeadingZeroBytesIgnored) {
  Bytes raw = {0, 0, 0, 1, 2};
  BigUInt v = BigUInt::FromBytesBigEndian(raw);
  EXPECT_EQ(v.ToUint64(), 0x0102u);
  EXPECT_EQ(v.ToBytesBigEndian(), (Bytes{1, 2}));
}

TEST(BigUIntTest, PaddedBytes) {
  BigUInt v(0xABCD);
  auto padded = v.ToBytesBigEndianPadded(4);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(*padded, (Bytes{0, 0, 0xAB, 0xCD}));
  EXPECT_FALSE(v.ToBytesBigEndianPadded(1).ok());
  auto zero_pad = BigUInt().ToBytesBigEndianPadded(3);
  ASSERT_TRUE(zero_pad.ok());
  EXPECT_EQ(*zero_pad, (Bytes{0, 0, 0}));
}

TEST(BigUIntTest, HexParsingAndPrinting) {
  EXPECT_EQ(FromHex("deadBEEF").ToHexString(), "deadbeef");
  EXPECT_EQ(FromHex("0").ToHexString(), "0");
  EXPECT_EQ(FromHex("000001").ToHexString(), "1");
  EXPECT_FALSE(BigUInt::FromHexString("").ok());
  EXPECT_FALSE(BigUInt::FromHexString("xyz").ok());
}

TEST(BigUIntTest, DecimalParsingAndPrinting) {
  auto v = BigUInt::FromDecimalString("340282366920938463463374607431768211456");
  ASSERT_TRUE(v.ok());  // 2^128
  EXPECT_EQ(v->ToHexString(), "100000000000000000000000000000000");
  EXPECT_EQ(v->ToDecimalString(),
            "340282366920938463463374607431768211456");
  EXPECT_FALSE(BigUInt::FromDecimalString("12a").ok());
  EXPECT_FALSE(BigUInt::FromDecimalString("").ok());
}

TEST(BigUIntTest, ComparisonOrdering) {
  BigUInt a(5), b(7), c = FromHex("ffffffffffffffffffffffffffffffff");
  EXPECT_LT(a, b);
  EXPECT_GT(c, b);
  EXPECT_LE(a, a);
  EXPECT_GE(c, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(BigUInt::Compare(a, a), 0);
}

TEST(BigUIntTest, AddSubInverse) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    BigUInt a = RandomBig(&rng, 1 + rng.NextBelow(48));
    BigUInt b = RandomBig(&rng, 1 + rng.NextBelow(48));
    BigUInt sum = BigUInt::Add(a, b);
    EXPECT_EQ(BigUInt::Sub(sum, b), a);
    EXPECT_EQ(BigUInt::Sub(sum, a), b);
  }
}

TEST(BigUIntTest, AdditionMatchesUint64) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.NextUint64() >> 1;
    uint64_t b = rng.NextUint64() >> 1;
    EXPECT_EQ(BigUInt::Add(BigUInt(a), BigUInt(b)).ToUint64(), a + b);
  }
}

TEST(BigUIntTest, CarryPropagatesThroughAllLimbs) {
  BigUInt max_128 = FromHex("ffffffffffffffffffffffffffffffff");
  BigUInt sum = BigUInt::Add(max_128, BigUInt(1));
  EXPECT_EQ(sum.ToHexString(), "100000000000000000000000000000000");
  EXPECT_EQ(BigUInt::Sub(sum, BigUInt(1)), max_128);
}

TEST(BigUIntTest, MultiplicationKnownValues) {
  EXPECT_EQ(BigUInt::Mul(BigUInt(0), BigUInt(12345)).ToHexString(), "0");
  EXPECT_EQ(BigUInt::Mul(BigUInt(1ull << 32), BigUInt(1ull << 32))
                .ToHexString(),
            "10000000000000000");
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  BigUInt m = BigUInt::Mul(BigUInt(~0ull), BigUInt(~0ull));
  EXPECT_EQ(m.ToHexString(), "fffffffffffffffe0000000000000001");
}

TEST(BigUIntTest, MultiplicationCommutesAndDistributes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    BigUInt a = RandomBig(&rng, 24);
    BigUInt b = RandomBig(&rng, 16);
    BigUInt c = RandomBig(&rng, 8);
    EXPECT_EQ(BigUInt::Mul(a, b), BigUInt::Mul(b, a));
    EXPECT_EQ(BigUInt::Mul(a, BigUInt::Add(b, c)),
              BigUInt::Add(BigUInt::Mul(a, b), BigUInt::Mul(a, c)));
  }
}

TEST(BigUIntTest, ShiftsMatchMultiplication) {
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    BigUInt a = RandomBig(&rng, 20);
    size_t shift = rng.NextBelow(130);
    BigUInt shifted = a.ShiftLeft(shift);
    BigUInt pow2 = BigUInt(1).ShiftLeft(shift);
    EXPECT_EQ(shifted, BigUInt::Mul(a, pow2));
    EXPECT_EQ(shifted.ShiftRight(shift), a);
  }
}

TEST(BigUIntTest, ShiftRightBeyondWidthIsZero) {
  EXPECT_TRUE(BigUInt(123).ShiftRight(64).IsZero());
}

TEST(BigUIntTest, DivModByZeroFails) {
  EXPECT_FALSE(BigUInt::DivMod(BigUInt(5), BigUInt()).ok());
  EXPECT_FALSE(BigUInt::Mod(BigUInt(5), BigUInt()).ok());
}

TEST(BigUIntTest, DivModIdentityRandom) {
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    BigUInt a = RandomBig(&rng, 1 + rng.NextBelow(64));
    BigUInt b = RandomBig(&rng, 1 + rng.NextBelow(40));
    if (b.IsZero()) continue;
    auto dm = BigUInt::DivMod(a, b);
    ASSERT_TRUE(dm.ok());
    // a == q*b + r and r < b.
    EXPECT_EQ(BigUInt::Add(BigUInt::Mul(dm->quotient, b), dm->remainder), a);
    EXPECT_LT(dm->remainder, b);
  }
}

TEST(BigUIntTest, DivModMatchesUint64) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.NextUint64();
    uint64_t b = rng.NextUint64() >> rng.NextBelow(32);
    if (b == 0) continue;
    auto dm = BigUInt::DivMod(BigUInt(a), BigUInt(b));
    ASSERT_TRUE(dm.ok());
    EXPECT_EQ(dm->quotient.ToUint64(), a / b);
    EXPECT_EQ(dm->remainder.ToUint64(), a % b);
  }
}

TEST(BigUIntTest, DivModKnuthAddBackCase) {
  // Divisor with small second limb triggers the q_hat adjustment paths.
  BigUInt dividend = FromHex("7fffffff800000010000000000000000");
  BigUInt divisor = FromHex("800000008000000200000005");
  auto dm = BigUInt::DivMod(dividend, divisor);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ(
      BigUInt::Add(BigUInt::Mul(dm->quotient, divisor), dm->remainder),
      dividend);
  EXPECT_LT(dm->remainder, divisor);
}

TEST(BigUIntTest, ModExpSmallCases) {
  auto r = BigUInt::ModExp(BigUInt(2), BigUInt(10), BigUInt(1000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToUint64(), 24u);  // 1024 mod 1000
  r = BigUInt::ModExp(BigUInt(3), BigUInt(0), BigUInt(7));
  EXPECT_EQ(r->ToUint64(), 1u);
  r = BigUInt::ModExp(BigUInt(0), BigUInt(5), BigUInt(7));
  EXPECT_EQ(r->ToUint64(), 0u);
  r = BigUInt::ModExp(BigUInt(5), BigUInt(100), BigUInt(1));
  EXPECT_TRUE(r->IsZero());  // everything is 0 mod 1
}

TEST(BigUIntTest, ModExpFermatLittleTheorem) {
  // p prime, a not divisible by p: a^(p-1) = 1 mod p.
  const uint64_t p = 1000000007ull;
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    uint64_t a = 2 + rng.NextBelow(p - 3);
    auto r = BigUInt::ModExp(BigUInt(a), BigUInt(p - 1), BigUInt(p));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->ToUint64(), 1u) << a;
  }
}

TEST(BigUIntTest, ModExpEvenModulus) {
  // Even modulus exercises the non-Montgomery path.
  auto r = BigUInt::ModExp(BigUInt(7), BigUInt(13), BigUInt(100));
  ASSERT_TRUE(r.ok());
  // 7^13 = 96889010407 -> mod 100 = 7.
  EXPECT_EQ(r->ToUint64(), 7u);
}

TEST(BigUIntTest, ModExpEvenModulusMatchesReference) {
  // Pins the even-modulus square-and-multiply loop (which now skips the
  // dead squaring after the last exponent bit) against a naive
  // multiply-one-bit-at-a-time reference, across exponents of every small
  // bit length so the loop boundary is exercised directly.
  Rng rng(14);
  for (int i = 0; i < 40; ++i) {
    BigUInt m = RandomBig(&rng, 24);
    if (m.IsOdd()) m = BigUInt::Add(m, BigUInt(1));  // force even
    if (m.IsZero()) continue;
    BigUInt base = RandomBig(&rng, 24);
    uint64_t e = rng.NextUint64() >> rng.NextBelow(58);
    auto got = BigUInt::ModExp(base, BigUInt(e), m);
    ASSERT_TRUE(got.ok());
    // Reference: repeated modular multiplication, one exponent unit at a
    // time would be too slow, so square-and-multiply MSB-first (a
    // structurally different loop from the implementation's LSB-first).
    BigUInt expected = BigUInt::Mod(BigUInt(1), m).value();
    BigUInt b = BigUInt::Mod(base, m).value();
    BigUInt exp(e);
    for (size_t bit = exp.BitLength(); bit-- > 0;) {
      expected = BigUInt::Mod(BigUInt::Mul(expected, expected), m).value();
      if (exp.GetBit(bit)) {
        expected = BigUInt::Mod(BigUInt::Mul(expected, b), m).value();
      }
    }
    EXPECT_EQ(got.value(), expected) << "e=" << e;
  }
}

TEST(BigUIntTest, ModExpEvenModulusHighBitExponent) {
  // Exponent with only the top bit set: the result depends entirely on
  // the squarings before the final bit, making any off-by-one in the
  // loop's last iteration visible.
  // 3^(2^20) mod 2^30: 3^1048576 mod 1073741824.
  BigUInt m = BigUInt(1).ShiftLeft(30);
  auto got = BigUInt::ModExp(BigUInt(3), BigUInt(1ull << 20), m);
  ASSERT_TRUE(got.ok());
  BigUInt expected = BigUInt::Mod(BigUInt(3), m).value();
  for (int i = 0; i < 20; ++i) {
    expected = BigUInt::Mod(BigUInt::Mul(expected, expected), m).value();
  }
  EXPECT_EQ(got.value(), expected);
}

TEST(BigUIntSubDeathTest, UnderflowAbortsInAllBuildTypes) {
  // Sub requires a >= b; a silent wrap inside RSA-CRT or the extended
  // Euclid would be a key-dependent miscomputation, so the precondition
  // is enforced by aborting even in release builds.
  EXPECT_DEATH(BigUInt::Sub(BigUInt(1), BigUInt(2)),
               "Sub precondition violated");
  EXPECT_DEATH(BigUInt::Sub(BigUInt(0), BigUInt(1)),
               "Sub precondition violated");
}

TEST(BigUIntTest, ModExpLargeConsistentWithSquaring) {
  Rng rng(9);
  BigUInt m = RandomBig(&rng, 32);
  if (!m.IsOdd()) m = BigUInt::Add(m, BigUInt(1));
  BigUInt base = RandomBig(&rng, 32);
  // base^4 via ModExp vs repeated Mod-of-Mul.
  auto direct = BigUInt::ModExp(base, BigUInt(4), m);
  ASSERT_TRUE(direct.ok());
  BigUInt b = BigUInt::Mod(base, m).value();
  BigUInt b2 = BigUInt::Mod(BigUInt::Mul(b, b), m).value();
  BigUInt b4 = BigUInt::Mod(BigUInt::Mul(b2, b2), m).value();
  EXPECT_EQ(direct.value(), b4);
}

TEST(BigUIntTest, GcdKnownValues) {
  EXPECT_EQ(BigUInt::Gcd(BigUInt(12), BigUInt(18)).ToUint64(), 6u);
  EXPECT_EQ(BigUInt::Gcd(BigUInt(17), BigUInt(13)).ToUint64(), 1u);
  EXPECT_EQ(BigUInt::Gcd(BigUInt(0), BigUInt(5)).ToUint64(), 5u);
  EXPECT_EQ(BigUInt::Gcd(BigUInt(5), BigUInt(0)).ToUint64(), 5u);
}

TEST(BigUIntTest, ModInverseRoundTrip) {
  Rng rng(10);
  BigUInt m = FromHex("fffffffffffffffffffffffffffffff1");  // odd modulus
  for (int i = 0; i < 50; ++i) {
    BigUInt a = RandomBig(&rng, 14);
    if (a.IsZero() || BigUInt::Gcd(a, m) != BigUInt(1)) continue;
    auto inv = BigUInt::ModInverse(a, m);
    ASSERT_TRUE(inv.ok());
    auto product = BigUInt::Mod(BigUInt::Mul(a, inv.value()), m);
    EXPECT_EQ(product.value().ToUint64(), 1u);
  }
}

TEST(BigUIntTest, ModInverseFailsWithoutCoprimality) {
  EXPECT_FALSE(BigUInt::ModInverse(BigUInt(6), BigUInt(9)).ok());
  EXPECT_FALSE(BigUInt::ModInverse(BigUInt(0), BigUInt(9)).ok());
}

TEST(MontgomeryContextTest, RequiresOddModulus) {
  EXPECT_FALSE(MontgomeryContext::Create(BigUInt(10)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigUInt(1)).ok());
  EXPECT_TRUE(MontgomeryContext::Create(BigUInt(9)).ok());
}

// The ladder against ReferenceModExp, on moduli of 1 to 33 32-bit limbs.
// An odd limb count pads the 64-bit engine radix with a zero half-limb,
// so R_L = 2^(64 * ceil(limbs / 2)) is not 2^(32 * limbs) there. Exponents
// of exactly 8 to 512 bits run both sides of the 128-bit cutoff between
// the binary and the 5-bit-window ladder, up to RSA-1024 prime size.
TEST(MontgomeryContextTest, ModExpMatchesGenericPath) {
  Rng rng(13);
  for (size_t limbs : {1u, 2u, 3u, 15u, 16u, 17u, 33u}) {
    Bytes raw;
    rng.NextBytes(&raw, 4 * limbs);
    raw.front() |= 0x80;  // exactly `limbs` limbs
    raw.back() |= 0x01;   // odd
    const BigUInt m = BigUInt::FromBytesBigEndian(raw);
    auto ctx = MontgomeryContext::Create(m);
    ASSERT_TRUE(ctx.ok());
    for (size_t exp_bytes : {1u, 8u, 15u, 16u, 17u, 40u, 64u}) {
      SCOPED_TRACE("modulus limbs " + std::to_string(limbs) +
                   ", exponent bytes " + std::to_string(exp_bytes));
      for (int i = 0; i < 4; ++i) {
        BigUInt base = RandomBig(&rng, 4 * limbs + 3);  // often >= m
        rng.NextBytes(&raw, exp_bytes);
        raw.front() |= 0x80;  // exactly 8 * exp_bytes bits
        const BigUInt exp = BigUInt::FromBytesBigEndian(raw);
        EXPECT_EQ(ctx->ModExp(base, exp), ReferenceModExp(base, exp, m));
      }
    }
  }
}

TEST(MontgomeryContextTest, ModExpExponentZeroAndOne) {
  Rng rng(11);
  BigUInt m = RandomBig(&rng, 64);
  if (!m.IsOdd()) m = BigUInt::Add(m, BigUInt(1));
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  BigUInt base = RandomBig(&rng, 48);
  EXPECT_EQ(ctx->ModExp(base, BigUInt()), BigUInt(1));
  EXPECT_EQ(ctx->ModExp(base, BigUInt(1)), BigUInt::Mod(base, m).value());
}

// base > m, base == m and base = 0 must all reduce correctly, under a
// 17-bit exponent (binary ladder) and a 160-bit one (5-bit windows).
TEST(MontgomeryContextTest, ModExpBaseNotBelowModulus) {
  BigUInt m = FromHex("f123456789abcdef0123456789abcdef1");
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  BigUInt big_base = FromHex("ffffffffffffffffffffffffffffffffffffffff");
  for (const BigUInt& exp :
       {BigUInt(0x12345),
        FromHex("c0ffee0123456789abcdef0123456789abcdef01")}) {
    EXPECT_EQ(ctx->ModExp(big_base, exp), ReferenceModExp(big_base, exp, m));
    EXPECT_TRUE(ctx->ModExp(m, exp).IsZero());
    EXPECT_TRUE(ctx->ModExp(BigUInt(), exp).IsZero());
  }
}

// The next four keep the suite names they had when the multiply and the
// ladder were selectable kernels; each now pins the one remaining path.

TEST(BigNumKernelsTest, MulKernelsHandleZeroAndOne) {
  Rng rng(9);
  BigUInt big = RandomBig(&rng, 192);  // 48 limbs
  EXPECT_TRUE(BigUInt::Mul(BigUInt(), big).IsZero());
  EXPECT_TRUE(BigUInt::Mul(big, BigUInt()).IsZero());
  EXPECT_EQ(BigUInt::Mul(BigUInt(1), big), big);
  EXPECT_EQ(BigUInt::Mul(big, BigUInt(1)), big);
}

// A prime 1-limb modulus, bases of up to 9 bytes (above it), and
// exponents of up to 160 bits, mostly past the 128-bit window cutoff.
TEST(BigNumKernelsTest, ModExpSingleLimbModulus) {
  const BigUInt m(0xFFFFFFFBull);
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    BigUInt base = RandomBig(&rng, 9);
    BigUInt exp = RandomBig(&rng, 20);
    EXPECT_EQ(ctx->ModExp(base, exp), ReferenceModExp(base, exp, m)) << i;
  }
}

// A 320-bit exponent on a 10-limb modulus: long enough to window.
TEST(BigNumKernelsTest, ModExpLongExponentMatchesReference) {
  Rng rng(17);
  BigUInt m = RandomBig(&rng, 40);
  if (!m.IsOdd()) m = BigUInt::Add(m, BigUInt(1));
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  BigUInt base = RandomBig(&rng, 40);
  BigUInt exp = RandomBig(&rng, 40);
  EXPECT_EQ(ctx->ModExp(base, exp), ReferenceModExp(base, exp, m));
}

// Random odd moduli of 4 to 64 bytes whose top bytes may be zero, so the
// limb count is not fixed by the byte count, against exponents on both
// sides of the 128-bit cutoff; bases are often >= m.
TEST(KernelDifferentialTest, LadderKernelsAgreeOnRandomTriples) {
  Rng rng(0xD1FF + 1);
  for (size_t m_bytes : {4u, 5u, 12u, 33u, 64u}) {
    for (size_t e_bytes : {1u, 8u, 15u, 16u, 17u, 40u, 64u}) {
      for (int i = 0; i < 12; ++i) {
        BigUInt m = RandomBig(&rng, m_bytes);
        if (!m.IsOdd()) m = BigUInt::Add(m, BigUInt(1));
        if (m <= BigUInt(1)) m = BigUInt(3);
        auto ctx = MontgomeryContext::Create(m);
        ASSERT_TRUE(ctx.ok());
        BigUInt base = RandomBig(&rng, m_bytes + 2);
        BigUInt exp = RandomBig(&rng, e_bytes);
        ASSERT_EQ(ctx->ModExp(base, exp), ReferenceModExp(base, exp, m))
            << "m_bytes=" << m_bytes << " e_bytes=" << e_bytes
            << " iteration " << i;
      }
    }
  }
}

}  // namespace
}  // namespace provdb::crypto
