#include "crypto/signer.h"

namespace provdb::crypto {

namespace {

// One-byte stand-in for the PKCS#1 DigestInfo algorithm identifier.
uint8_t AlgorithmTag(HashAlgorithm alg) {
  switch (alg) {
    case HashAlgorithm::kSha1:
      return 0x01;
    case HashAlgorithm::kSha256:
      return 0x02;
    case HashAlgorithm::kMd5:
      return 0x03;
  }
  return 0xFF;
}

// Builds the padded message representative EM that is signed:
//   0x00 || 0x01 || 0xFF..FF || 0x00 || tag || digest
Result<Bytes> EncodeMessage(size_t modulus_bytes, HashAlgorithm alg,
                            const Digest& digest) {
  const size_t payload = digest.size() + 1;  // tag + digest
  if (modulus_bytes < payload + 11) {
    return Status::InvalidArgument("RSA modulus too small for digest");
  }
  Bytes em;
  em.reserve(modulus_bytes);
  em.push_back(0x00);
  em.push_back(0x01);
  size_t pad_len = modulus_bytes - payload - 3;
  em.insert(em.end(), pad_len, 0xFF);
  em.push_back(0x00);
  em.push_back(AlgorithmTag(alg));
  AppendBytes(&em, digest.view());
  return em;
}

}  // namespace

Result<RsaSigner> RsaSigner::Create(const RsaPrivateKey& key,
                                    HashAlgorithm alg) {
  PROVDB_ASSIGN_OR_RETURN(MontgomeryContext p_ctx,
                          MontgomeryContext::Create(key.p));
  PROVDB_ASSIGN_OR_RETURN(MontgomeryContext q_ctx,
                          MontgomeryContext::Create(key.q));
  return RsaSigner(key, std::move(p_ctx), std::move(q_ctx), alg);
}

Result<Bytes> RsaSigner::Sign(ByteView message) const {
  return SignDigest(HashBytes(alg_, message));
}

Result<Bytes> RsaSigner::SignDigest(const Digest& digest) const {
  const size_t k = key_.ModulusBytes();
  PROVDB_ASSIGN_OR_RETURN(Bytes em, EncodeMessage(k, alg_, digest));
  BigUInt m = BigUInt::FromBytesBigEndian(em);

  // CRT: s = s2 + q * ((qinv * (s1 - s2)) mod p)
  BigUInt s1 = p_ctx_.ModExp(m, key_.dp);
  BigUInt s2 = q_ctx_.ModExp(m, key_.dq);
  BigUInt diff;
  if (BigUInt::Compare(s1, s2) >= 0) {
    diff = BigUInt::Sub(s1, s2);
  } else {
    // (s1 - s2) mod p. One lift suffices: s2 mod p < p <= s1 + p.
    PROVDB_ASSIGN_OR_RETURN(BigUInt s2_mod_p, BigUInt::Mod(s2, key_.p));
    diff = BigUInt::Sub(BigUInt::Add(s1, key_.p), s2_mod_p);
  }
  PROVDB_ASSIGN_OR_RETURN(BigUInt h,
                          BigUInt::Mod(BigUInt::Mul(key_.qinv, diff), key_.p));
  BigUInt s = BigUInt::Add(s2, BigUInt::Mul(key_.q, h));

  return s.ToBytesBigEndianPadded(k);
}

RsaSignatureVerifier::RsaSignatureVerifier(RsaPublicKey key,
                                           HashAlgorithm alg)
    : key_(std::move(key)), alg_(alg) {
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(key_.n);
  if (ctx.ok()) {
    n_ctx_.emplace(std::move(ctx.value()));
  }
}

Status RsaSignatureVerifier::Verify(ByteView message,
                                    ByteView signature) const {
  return VerifyDigest(HashBytes(alg_, message), signature);
}

Status RsaSignatureVerifier::VerifyDigest(const Digest& digest,
                                          ByteView signature) const {
  if (!n_ctx_.has_value()) {
    return Status::VerificationFailed("RSA modulus is not odd");
  }
  const size_t k = key_.ModulusBytes();
  if (signature.size() != k) {
    return Status::VerificationFailed("signature length mismatch");
  }
  BigUInt s = BigUInt::FromBytesBigEndian(signature);
  if (BigUInt::Compare(s, key_.n) >= 0) {
    return Status::VerificationFailed("signature out of range");
  }
  auto em_or = n_ctx_->ModExp(s, key_.e).ToBytesBigEndianPadded(k);
  if (!em_or.ok()) {
    return Status::VerificationFailed("recovered message malformed");
  }
  auto expected_or = EncodeMessage(k, alg_, digest);
  if (!expected_or.ok()) {
    return Status::VerificationFailed(expected_or.status().message());
  }
  if (!ConstantTimeEqual(em_or.value(), expected_or.value())) {
    return Status::VerificationFailed("signature does not match digest");
  }
  return Status::OK();
}

}  // namespace provdb::crypto
