#ifndef PROVDB_CRYPTO_RSA_H_
#define PROVDB_CRYPTO_RSA_H_

#include <cstddef>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/bignum.h"

namespace provdb::crypto {

/// RSA public key (n, e). Signature length equals ModulusBytes() — 128
/// bytes for the paper's 1024-bit configuration (§5.1).
struct RsaPublicKey {
  BigUInt n;
  BigUInt e;

  size_t ModulusBytes() const { return (n.BitLength() + 7) / 8; }

  /// Length-prefixed binary encoding (used inside PKI certificates).
  Bytes Serialize() const;
  static Result<RsaPublicKey> Deserialize(ByteView data);

  bool operator==(const RsaPublicKey& o) const {
    return n == o.n && e == o.e;
  }
};

/// RSA private key with CRT components for fast signing.
struct RsaPrivateKey {
  BigUInt n;
  BigUInt e;
  BigUInt d;
  BigUInt p;
  BigUInt q;
  BigUInt dp;    // d mod (p-1)
  BigUInt dq;    // d mod (q-1)
  BigUInt qinv;  // q^-1 mod p

  size_t ModulusBytes() const { return (n.BitLength() + 7) / 8; }

  RsaPublicKey PublicKey() const { return RsaPublicKey{n, e}; }
};

/// A generated key pair.
struct RsaKeyPair {
  RsaPublicKey public_key;
  RsaPrivateKey private_key;
};

/// Miller–Rabin primality test with `rounds` random witnesses (plus the
/// small deterministic bases). Returns true for "probably prime".
bool IsProbablePrime(const BigUInt& n, Rng* rng, int rounds = 20);

/// Generates a random probable prime with exactly `bits` bits (top two
/// bits set so products reach the target modulus size).
Result<BigUInt> GeneratePrime(size_t bits, Rng* rng);

/// Generates an RSA key pair with an exactly `modulus_bits`-bit modulus and
/// public exponent 65537. Deterministic given the RNG seed, which keeps
/// tests and benchmarks reproducible. `modulus_bits` must be >= 128 and
/// even. The paper's configuration is 1024.
Result<RsaKeyPair> GenerateRsaKeyPair(size_t modulus_bits, Rng* rng);

}  // namespace provdb::crypto

#endif  // PROVDB_CRYPTO_RSA_H_
