#include "crypto/rsa.h"

#include <array>

#include "common/varint.h"

namespace provdb::crypto {

namespace {

// Small primes for fast trial division before Miller-Rabin.
constexpr std::array<uint32_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

// Miller-Rabin witness loop for n with n-1 = d * 2^r.
bool MillerRabinWitness(const BigUInt& n, const BigUInt& n_minus_1,
                        const BigUInt& d, size_t r, const BigUInt& a,
                        const MontgomeryContext& ctx) {
  BigUInt x = ctx.ModExp(a, d);
  if (x == BigUInt(1) || x == n_minus_1) {
    return true;  // passes this witness
  }
  for (size_t i = 1; i < r; ++i) {
    x = BigUInt::Mod(BigUInt::Mul(x, x), n).value();
    if (x == n_minus_1) {
      return true;
    }
    if (x == BigUInt(1)) {
      return false;
    }
  }
  return false;
}

}  // namespace

bool IsProbablePrime(const BigUInt& n, Rng* rng, int rounds) {
  if (n < BigUInt(2)) {
    return false;
  }
  // Trial division (also handles all small primes exactly).
  for (uint32_t p : kSmallPrimes) {
    BigUInt bp(p);
    if (n == bp) {
      return true;
    }
    if (BigUInt::Mod(n, bp).value().IsZero()) {
      return false;
    }
  }
  if (!n.IsOdd()) {
    return false;
  }

  BigUInt n_minus_1 = BigUInt::Sub(n, BigUInt(1));
  // n - 1 = d * 2^r with d odd.
  size_t r = 0;
  BigUInt d = n_minus_1;
  while (!d.IsOdd()) {
    d = d.ShiftRight(1);
    ++r;
  }

  auto ctx_or = MontgomeryContext::Create(n);
  if (!ctx_or.ok()) {
    return false;
  }
  const MontgomeryContext& ctx = ctx_or.value();

  // Deterministic small bases catch most composites cheaply.
  for (uint32_t base : {2u, 3u, 5u, 7u, 11u, 13u, 17u, 19u, 23u, 29u, 31u, 37u}) {
    BigUInt a(base);
    if (BigUInt::Compare(a, n_minus_1) >= 0) {
      continue;
    }
    if (!MillerRabinWitness(n, n_minus_1, d, r, a, ctx)) {
      return false;
    }
  }
  // Random witnesses in [2, n-2].
  const size_t bytes = (n.BitLength() + 7) / 8;
  for (int round = 0; round < rounds; ++round) {
    Bytes raw;
    rng->NextBytes(&raw, bytes);
    BigUInt a = BigUInt::Mod(BigUInt::FromBytesBigEndian(raw),
                             BigUInt::Sub(n, BigUInt(3)))
                    .value();
    a = BigUInt::Add(a, BigUInt(2));  // a in [2, n-2]
    if (!MillerRabinWitness(n, n_minus_1, d, r, a, ctx)) {
      return false;
    }
  }
  return true;
}

Result<BigUInt> GeneratePrime(size_t bits, Rng* rng) {
  if (bits < 16) {
    return Status::InvalidArgument("prime size too small");
  }
  const size_t bytes = (bits + 7) / 8;
  for (int attempt = 0; attempt < 100000; ++attempt) {
    Bytes raw;
    rng->NextBytes(&raw, bytes);
    // Clear excess high bits, then force the top two bits (so p*q reaches
    // the full modulus width) and the low bit (odd).
    size_t excess = bytes * 8 - bits;
    raw[0] &= static_cast<uint8_t>(0xFF >> excess);
    raw[0] |= static_cast<uint8_t>(0xC0 >> excess);
    raw[bytes - 1] |= 0x01;
    BigUInt candidate = BigUInt::FromBytesBigEndian(raw);
    if (IsProbablePrime(candidate, rng, 20)) {
      return candidate;
    }
  }
  return Status::Internal("prime generation exhausted attempts");
}

Result<RsaKeyPair> GenerateRsaKeyPair(size_t modulus_bits, Rng* rng) {
  if (modulus_bits < 128 || modulus_bits % 2 != 0) {
    return Status::InvalidArgument(
        "modulus_bits must be even and >= 128");
  }
  const BigUInt e(65537);
  const size_t prime_bits = modulus_bits / 2;

  for (int attempt = 0; attempt < 100; ++attempt) {
    PROVDB_ASSIGN_OR_RETURN(BigUInt p, GeneratePrime(prime_bits, rng));
    PROVDB_ASSIGN_OR_RETURN(BigUInt q, GeneratePrime(prime_bits, rng));
    if (p == q) {
      continue;
    }
    // Keep p > q so qinv = q^-1 mod p is well-formed for CRT.
    if (p < q) {
      std::swap(p, q);
    }
    BigUInt n = BigUInt::Mul(p, q);
    if (n.BitLength() != modulus_bits) {
      continue;
    }
    BigUInt p1 = BigUInt::Sub(p, BigUInt(1));
    BigUInt q1 = BigUInt::Sub(q, BigUInt(1));
    BigUInt phi = BigUInt::Mul(p1, q1);
    if (BigUInt::Gcd(e, phi) != BigUInt(1)) {
      continue;
    }
    PROVDB_ASSIGN_OR_RETURN(BigUInt d, BigUInt::ModInverse(e, phi));
    PROVDB_ASSIGN_OR_RETURN(BigUInt dp, BigUInt::Mod(d, p1));
    PROVDB_ASSIGN_OR_RETURN(BigUInt dq, BigUInt::Mod(d, q1));
    PROVDB_ASSIGN_OR_RETURN(BigUInt qinv, BigUInt::ModInverse(q, p));

    RsaPrivateKey priv{n, e, d, p, q, dp, dq, qinv};
    return RsaKeyPair{priv.PublicKey(), std::move(priv)};
  }
  return Status::Internal("RSA key generation exhausted attempts");
}

Bytes RsaPublicKey::Serialize() const {
  Bytes out;
  AppendLengthPrefixed(&out, n.ToBytesBigEndian());
  AppendLengthPrefixed(&out, e.ToBytesBigEndian());
  return out;
}

Result<RsaPublicKey> RsaPublicKey::Deserialize(ByteView data) {
  VarintReader reader(data);
  PROVDB_ASSIGN_OR_RETURN(Bytes n_bytes, reader.ReadLengthPrefixed());
  PROVDB_ASSIGN_OR_RETURN(Bytes e_bytes, reader.ReadLengthPrefixed());
  return RsaPublicKey{BigUInt::FromBytesBigEndian(n_bytes),
                      BigUInt::FromBytesBigEndian(e_bytes)};
}

}  // namespace provdb::crypto
