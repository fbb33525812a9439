#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/signer.h"

namespace provdb::crypto {
namespace {

// Key generation is the slow part; share one pair per size across tests.
const RsaKeyPair& SharedKeyPair512() {
  static const RsaKeyPair* pair = [] {
    Rng rng(0x51AB);
    return new RsaKeyPair(GenerateRsaKeyPair(512, &rng).value());
  }();
  return *pair;
}

const RsaKeyPair& SharedKeyPair1024() {
  static const RsaKeyPair* pair = [] {
    Rng rng(0x1024);
    return new RsaKeyPair(GenerateRsaKeyPair(1024, &rng).value());
  }();
  return *pair;
}

Digest TestDigest(HashAlgorithm alg, std::string_view message) {
  return HashBytes(alg, ByteView(message));
}

RsaSigner SignerFor(const RsaPrivateKey& key,
                    HashAlgorithm alg = HashAlgorithm::kSha1) {
  return RsaSigner::Create(key, alg).value();
}

TEST(PrimalityTest, SmallPrimesAndComposites) {
  Rng rng(1);
  for (uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 97ull, 251ull, 257ull,
                     65537ull, 1000000007ull}) {
    EXPECT_TRUE(IsProbablePrime(BigUInt(p), &rng)) << p;
  }
  for (uint64_t c : {0ull, 1ull, 4ull, 9ull, 15ull, 255ull, 65535ull,
                     1000000008ull}) {
    EXPECT_FALSE(IsProbablePrime(BigUInt(c), &rng)) << c;
  }
}

TEST(PrimalityTest, CarmichaelNumbersRejected) {
  Rng rng(2);
  // Carmichael numbers fool Fermat tests but not Miller-Rabin.
  for (uint64_t carmichael : {561ull, 1105ull, 1729ull, 41041ull, 825265ull}) {
    EXPECT_FALSE(IsProbablePrime(BigUInt(carmichael), &rng)) << carmichael;
  }
}

TEST(PrimeGenerationTest, ExactBitLengthAndPrimality) {
  Rng rng(3);
  for (size_t bits : {64u, 128u, 256u}) {
    auto p = GeneratePrime(bits, &rng);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->BitLength(), bits);
    EXPECT_TRUE(p->IsOdd());
    EXPECT_TRUE(IsProbablePrime(*p, &rng));
    // Top two bits set (so products of two primes reach 2*bits).
    EXPECT_TRUE(p->GetBit(bits - 1));
    EXPECT_TRUE(p->GetBit(bits - 2));
  }
}

TEST(RsaKeyGenTest, RejectsBadParameters) {
  Rng rng(4);
  EXPECT_FALSE(GenerateRsaKeyPair(64, &rng).ok());   // too small
  EXPECT_FALSE(GenerateRsaKeyPair(513, &rng).ok());  // odd
}

TEST(RsaKeyGenTest, KeyComponentsConsistent) {
  const RsaKeyPair& pair = SharedKeyPair512();
  const RsaPrivateKey& key = pair.private_key;
  EXPECT_EQ(key.n.BitLength(), 512u);
  EXPECT_EQ(key.e.ToUint64(), 65537u);
  EXPECT_EQ(BigUInt::Mul(key.p, key.q), key.n);
  EXPECT_GT(key.p, key.q);
  // e*d = 1 mod phi(n)
  BigUInt phi = BigUInt::Mul(BigUInt::Sub(key.p, BigUInt(1)),
                             BigUInt::Sub(key.q, BigUInt(1)));
  EXPECT_EQ(BigUInt::Mod(BigUInt::Mul(key.e, key.d), phi).value(),
            BigUInt(1));
  // CRT components.
  EXPECT_EQ(BigUInt::Mod(key.d, BigUInt::Sub(key.p, BigUInt(1))).value(),
            key.dp);
  EXPECT_EQ(BigUInt::Mod(key.d, BigUInt::Sub(key.q, BigUInt(1))).value(),
            key.dq);
  EXPECT_EQ(BigUInt::Mod(BigUInt::Mul(key.qinv, key.q), key.p).value(),
            BigUInt(1));
  EXPECT_EQ(pair.public_key.ModulusBytes(), 64u);
}

TEST(RsaKeyGenTest, DeterministicFromSeed) {
  Rng rng1(77), rng2(77);
  auto a = GenerateRsaKeyPair(512, &rng1);
  auto b = GenerateRsaKeyPair(512, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->public_key, b->public_key);
}

TEST(RsaSignTest, RoundTripAllAlgorithms) {
  const RsaKeyPair& pair = SharedKeyPair512();
  for (HashAlgorithm alg : {HashAlgorithm::kSha1, HashAlgorithm::kSha256,
                            HashAlgorithm::kMd5}) {
    Digest d = TestDigest(alg, "sign me");
    auto sig = SignerFor(pair.private_key, alg).SignDigest(d);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(sig->size(), 64u);
    EXPECT_TRUE(
        RsaSignatureVerifier(pair.public_key, alg).VerifyDigest(d, *sig).ok());
  }
}

TEST(RsaSignTest, PaperSize1024ProducesPaper128ByteSignatures) {
  const RsaKeyPair& pair = SharedKeyPair1024();
  Digest d = TestDigest(HashAlgorithm::kSha1, "checksum payload");
  auto sig = SignerFor(pair.private_key).SignDigest(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->size(), 128u);  // the paper's binary(128) checksum column
  EXPECT_TRUE(RsaSignatureVerifier(pair.public_key).VerifyDigest(d, *sig).ok());
}

TEST(RsaSignTest, CrtSignatureMatchesPlainExponentiation) {
  const RsaKeyPair& pair = SharedKeyPair512();
  Digest d = TestDigest(HashAlgorithm::kSha1, "crt check");
  auto sig = SignerFor(pair.private_key).SignDigest(d);
  ASSERT_TRUE(sig.ok());
  // Verify s^e mod n reproduces a correctly padded message by checking the
  // signature verifies — and additionally that s == m^d mod n directly.
  BigUInt s = BigUInt::FromBytesBigEndian(*sig);
  auto m = BigUInt::ModExp(s, pair.private_key.e, pair.private_key.n);
  ASSERT_TRUE(m.ok());
  auto s2 = BigUInt::ModExp(*m, pair.private_key.d, pair.private_key.n);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, s);
}

TEST(RsaVerifyTest, TamperedSignatureRejected) {
  const RsaKeyPair& pair = SharedKeyPair512();
  Digest d = TestDigest(HashAlgorithm::kSha1, "message");
  auto sig = SignerFor(pair.private_key).SignDigest(d);
  ASSERT_TRUE(sig.ok());
  const RsaSignatureVerifier verifier(pair.public_key);
  for (size_t byte : {0u, 31u, 63u}) {
    Bytes bad = *sig;
    bad[byte] ^= 0x01;
    EXPECT_FALSE(verifier.VerifyDigest(d, bad).ok());
  }
}

TEST(RsaVerifyTest, WrongDigestRejected) {
  const RsaKeyPair& pair = SharedKeyPair512();
  Digest d1 = TestDigest(HashAlgorithm::kSha1, "message one");
  Digest d2 = TestDigest(HashAlgorithm::kSha1, "message two");
  auto sig = SignerFor(pair.private_key).SignDigest(d1);
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(
      RsaSignatureVerifier(pair.public_key).VerifyDigest(d2, *sig).ok());
}

TEST(RsaVerifyTest, WrongAlgorithmTagRejected) {
  // Same digest bytes presented under a different algorithm tag must fail
  // (prevents cross-algorithm confusion).
  const RsaKeyPair& pair = SharedKeyPair512();
  Digest d = TestDigest(HashAlgorithm::kMd5, "message");
  auto sig = SignerFor(pair.private_key, HashAlgorithm::kMd5).SignDigest(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(RsaSignatureVerifier(pair.public_key, HashAlgorithm::kMd5)
                  .VerifyDigest(d, *sig)
                  .ok());
  EXPECT_FALSE(RsaSignatureVerifier(pair.public_key, HashAlgorithm::kSha1)
                   .VerifyDigest(d, *sig)
                   .ok());
}

TEST(RsaVerifyTest, WrongKeyRejected) {
  const RsaKeyPair& pair = SharedKeyPair512();
  Rng rng(0xBEEF);
  auto other = GenerateRsaKeyPair(512, &rng);
  ASSERT_TRUE(other.ok());
  Digest d = TestDigest(HashAlgorithm::kSha1, "message");
  auto sig = SignerFor(pair.private_key).SignDigest(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(
      RsaSignatureVerifier(other->public_key).VerifyDigest(d, *sig).ok());
}

TEST(RsaVerifyTest, WrongLengthRejected) {
  const RsaKeyPair& pair = SharedKeyPair512();
  Digest d = TestDigest(HashAlgorithm::kSha1, "message");
  Bytes short_sig(32, 0xAA);
  EXPECT_FALSE(
      RsaSignatureVerifier(pair.public_key).VerifyDigest(d, short_sig).ok());
}

TEST(RsaSignerTest, ReusableAcrossSignatures) {
  const RsaKeyPair& pair = SharedKeyPair512();
  const RsaSigner signer = SignerFor(pair.private_key);
  const RsaSignatureVerifier verifier(pair.public_key);
  for (int i = 0; i < 20; ++i) {
    Digest d = TestDigest(HashAlgorithm::kSha1,
                          "message " + std::to_string(i));
    auto sig = signer.SignDigest(d);
    ASSERT_TRUE(sig.ok());
    EXPECT_TRUE(verifier.VerifyDigest(d, *sig).ok());
  }
}

TEST(RsaSignerTest, DeterministicSignatures) {
  // PKCS#1 v1.5 is deterministic: same digest, same signature.
  const RsaSigner signer = SignerFor(SharedKeyPair512().private_key);
  Digest d = TestDigest(HashAlgorithm::kSha1, "stable");
  auto s1 = signer.SignDigest(d);
  auto s2 = signer.SignDigest(d);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, *s2);
}

TEST(RsaPublicKeyTest, SerializeRoundTrip) {
  const RsaKeyPair& pair = SharedKeyPair512();
  Bytes wire = pair.public_key.Serialize();
  auto back = RsaPublicKey::Deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pair.public_key);
}

TEST(RsaPublicKeyTest, DeserializeGarbageFails) {
  Bytes garbage = {0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(RsaPublicKey::Deserialize(garbage).ok());
}

}  // namespace
}  // namespace provdb::crypto
