#include "crypto/signer.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "observability/metrics.h"
#include "testing/test_pki.h"

namespace provdb::crypto {
namespace {

const RsaKeyPair& SharedPair() {
  static const RsaKeyPair* pair = [] {
    Rng rng(0x515);
    return new RsaKeyPair(GenerateRsaKeyPair(512, &rng).value());
  }();
  return *pair;
}

uint64_t MontgomeryContextCount() {
  return observability::GlobalMetrics()
      .counter("crypto.bignum.montgomery_contexts")
      ->value();
}

TEST(RsaSignerTest, SignVerifyRoundTrip) {
  auto signer = RsaSigner::Create(SharedPair().private_key);
  ASSERT_TRUE(signer.ok());
  RsaSignatureVerifier verifier(SharedPair().public_key);

  ByteView msg(std::string_view("the message"));
  auto sig = signer->Sign(msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->size(), SharedPair().public_key.ModulusBytes());
  EXPECT_TRUE(verifier.Verify(msg, *sig).ok());
  EXPECT_FALSE(
      verifier.Verify(ByteView(std::string_view("another")), *sig).ok());
}

TEST(RsaSignerTest, HashAlgorithmMustMatchBetweenSignerAndVerifier) {
  auto signer = RsaSigner::Create(SharedPair().private_key,
                                  HashAlgorithm::kSha1);
  ASSERT_TRUE(signer.ok());
  ByteView msg(std::string_view("msg"));
  auto sig = signer->Sign(msg);
  ASSERT_TRUE(sig.ok());
  RsaSignatureVerifier wrong_alg(SharedPair().public_key,
                                 HashAlgorithm::kSha256);
  EXPECT_FALSE(wrong_alg.Verify(msg, *sig).ok());
}

TEST(RsaSignerTest, SigningTwiceReusesTheSigningContext) {
  const auto& p = provdb::testing::TestPki::Instance().participant(0);
  Bytes msg = {'r', 'e', 'u', 's', 'e'};
  // Warm up so lazily built state doesn't count against the window.
  ASSERT_TRUE(p.signer().Sign(msg).ok());
  const uint64_t before = MontgomeryContextCount();
  ASSERT_TRUE(p.signer().Sign(msg).ok());
  ASSERT_TRUE(p.signer().Sign(msg).ok());
  EXPECT_EQ(MontgomeryContextCount(), before)
      << "RsaSigner must not re-derive Montgomery contexts per signature";
}

TEST(RsaSignatureVerifierTest, VerifyingTwiceReusesTheVerifierContext) {
  const auto& p = provdb::testing::TestPki::Instance().participant(0);
  Bytes msg = {'v', 'e', 'r', 'i', 'f', 'y'};
  auto sig = p.signer().Sign(msg);
  ASSERT_TRUE(sig.ok());
  RsaSignatureVerifier verifier(p.public_key());
  const uint64_t before = MontgomeryContextCount();
  EXPECT_TRUE(verifier.Verify(msg, sig.value()).ok());
  EXPECT_TRUE(verifier.Verify(msg, sig.value()).ok());
  EXPECT_EQ(MontgomeryContextCount(), before)
      << "RsaSignatureVerifier must reuse its construction-time context";
}

// A modulus that is not odd has no Montgomery context, so the verifier
// refuses every signature over it, even one that is valid arithmetic:
// with n' = 2n and the key's own d, s^e = m (mod n') for every m, since
// lambda(2pq) = lcm(p - 1, q - 1) divides the (p - 1)(q - 1) that d
// inverts e modulo. A 510-bit n keeps n' at n's byte width, so the
// message representative the signer encoded is the one checked under n'.
TEST(RsaSignatureVerifierTest, EvenModulusRefusesEverySignature) {
  Rng rng(0xE7E4);
  const RsaKeyPair pair = GenerateRsaKeyPair(510, &rng).value();
  const RsaPrivateKey& key = pair.private_key;
  ByteView msg(std::string_view("even"));
  auto sig = RsaSigner::Create(key)->Sign(msg);
  ASSERT_TRUE(sig.ok());
  const BigUInt em =
      BigUInt::ModExp(BigUInt::FromBytesBigEndian(*sig), key.e, key.n).value();

  const RsaPublicKey even{BigUInt::Add(key.n, key.n), key.e};
  ASSERT_EQ(even.ModulusBytes(), pair.public_key.ModulusBytes());
  const BigUInt s = BigUInt::ModExp(em, key.d, even.n).value();
  ASSERT_EQ(BigUInt::ModExp(s, key.e, even.n).value(), em);
  auto even_sig = s.ToBytesBigEndianPadded(even.ModulusBytes());
  ASSERT_TRUE(even_sig.ok());

  const Status status = RsaSignatureVerifier(even).Verify(msg, *even_sig);
  EXPECT_EQ(status.code(), StatusCode::kVerificationFailed)
      << status.ToString();
}

}  // namespace
}  // namespace provdb::crypto
