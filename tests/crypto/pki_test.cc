#include "crypto/pki.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace provdb::crypto {
namespace {

class PkiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0xCA);
    ca_ = new CertificateAuthority(
        CertificateAuthority::Create(512, &rng).value());
    alice_ = new Participant(
        Participant::Create(1, "alice", 512, &rng, *ca_).value());
    bob_ = new Participant(
        Participant::Create(2, "bob", 512, &rng, *ca_).value());
  }

  static CertificateAuthority* ca_;
  static Participant* alice_;
  static Participant* bob_;
};

CertificateAuthority* PkiTest::ca_ = nullptr;
Participant* PkiTest::alice_ = nullptr;
Participant* PkiTest::bob_ = nullptr;

TEST_F(PkiTest, IssuedCertificateVerifies) {
  EXPECT_TRUE(VerifyCertificate(ca_->public_key(), alice_->certificate()).ok());
  EXPECT_TRUE(VerifyCertificate(ca_->public_key(), bob_->certificate()).ok());
}

TEST_F(PkiTest, TamperedCertificateRejected) {
  ParticipantCertificate cert = alice_->certificate();
  cert.name = "mallory";  // rebind the name
  EXPECT_FALSE(VerifyCertificate(ca_->public_key(), cert).ok());

  cert = alice_->certificate();
  cert.participant_id = 99;  // rebind the id
  EXPECT_FALSE(VerifyCertificate(ca_->public_key(), cert).ok());

  cert = alice_->certificate();
  cert.public_key = bob_->public_key();  // rebind the key
  EXPECT_FALSE(VerifyCertificate(ca_->public_key(), cert).ok());
}

TEST_F(PkiTest, WrongCaRejected) {
  Rng rng(0xCB);
  auto other_ca = CertificateAuthority::Create(512, &rng);
  ASSERT_TRUE(other_ca.ok());
  EXPECT_FALSE(
      VerifyCertificate(other_ca->public_key(), alice_->certificate()).ok());
}

TEST_F(PkiTest, RegistryAcceptsValidCertificates) {
  ParticipantRegistry registry(ca_->public_key());
  EXPECT_TRUE(registry.Register(alice_->certificate()).ok());
  EXPECT_TRUE(registry.Register(bob_->certificate()).ok());
  EXPECT_EQ(registry.size(), 2u);

  auto cert = registry.Lookup(alice_->id());
  ASSERT_TRUE(cert.ok());
  EXPECT_EQ(cert->public_key, alice_->public_key());
}

TEST_F(PkiTest, RegistryMakesOneVerifierPerParticipant) {
  ParticipantRegistry registry(ca_->public_key());
  ASSERT_TRUE(registry.Register(alice_->certificate()).ok());
  ASSERT_TRUE(registry.Register(bob_->certificate()).ok());
  auto verifiers = registry.MakeVerifiers(HashAlgorithm::kSha1);
  ASSERT_EQ(verifiers.size(), 2u);

  ByteView msg(std::string_view("signed by alice"));
  auto sig = alice_->signer().Sign(msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(verifiers.at(alice_->id()).Verify(msg, *sig).ok());
  EXPECT_FALSE(verifiers.at(bob_->id()).Verify(msg, *sig).ok());
}

TEST_F(PkiTest, RegistryRejectsForgedCertificates) {
  ParticipantRegistry registry(ca_->public_key());
  ParticipantCertificate forged = alice_->certificate();
  forged.public_key = bob_->public_key();
  EXPECT_FALSE(registry.Register(forged).ok());
  EXPECT_EQ(registry.size(), 0u);
}

TEST_F(PkiTest, RegistryIdempotentButRejectsRebinding) {
  ParticipantRegistry registry(ca_->public_key());
  ASSERT_TRUE(registry.Register(alice_->certificate()).ok());
  // Same certificate again: fine.
  EXPECT_TRUE(registry.Register(alice_->certificate()).ok());
  // A *different valid* certificate for the same id: rejected (a second
  // key for an existing participant would enable impersonation).
  auto rebind = ca_->IssueCertificate(alice_->id(), "alice-2",
                                      bob_->public_key());
  ASSERT_TRUE(rebind.ok());
  Status s = registry.Register(*rebind);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST_F(PkiTest, LookupUnknownParticipantFails) {
  ParticipantRegistry registry(ca_->public_key());
  EXPECT_FALSE(registry.Lookup(42).ok());
  EXPECT_EQ(registry.Lookup(42).status().code(), StatusCode::kNotFound);
}

TEST_F(PkiTest, ParticipantSignerBindsToCertifiedKey) {
  ByteView msg(std::string_view("signed by alice"));
  auto sig = alice_->signer().Sign(msg);
  ASSERT_TRUE(sig.ok());
  RsaSignatureVerifier good(alice_->public_key());
  RsaSignatureVerifier bad(bob_->public_key());
  EXPECT_TRUE(good.Verify(msg, *sig).ok());
  EXPECT_FALSE(bad.Verify(msg, *sig).ok());
}

TEST_F(PkiTest, CertificateToBeSignedBytesAreCanonical) {
  Bytes a = alice_->certificate().ToBeSignedBytes();
  Bytes b = alice_->certificate().ToBeSignedBytes();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, bob_->certificate().ToBeSignedBytes());
}

}  // namespace
}  // namespace provdb::crypto
