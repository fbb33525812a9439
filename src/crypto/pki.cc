#include "crypto/pki.h"

#include "common/varint.h"

namespace provdb::crypto {

Bytes ParticipantCertificate::ToBeSignedBytes() const {
  Bytes out;
  AppendVarint64(&out, participant_id);
  AppendLengthPrefixed(&out, ByteView(name));
  AppendLengthPrefixed(&out, public_key.Serialize());
  return out;
}

Result<CertificateAuthority> CertificateAuthority::Create(size_t modulus_bits,
                                                          Rng* rng) {
  PROVDB_ASSIGN_OR_RETURN(RsaKeyPair pair,
                          GenerateRsaKeyPair(modulus_bits, rng));
  PROVDB_ASSIGN_OR_RETURN(RsaSigner signer, RsaSigner::Create(pair.private_key));
  return CertificateAuthority(std::make_unique<RsaSigner>(std::move(signer)),
                              pair.public_key);
}

Result<ParticipantCertificate> CertificateAuthority::IssueCertificate(
    ParticipantId id, std::string name, const RsaPublicKey& key) const {
  ParticipantCertificate cert;
  cert.participant_id = id;
  cert.name = std::move(name);
  cert.public_key = key;
  PROVDB_ASSIGN_OR_RETURN(cert.ca_signature,
                          signer_->Sign(cert.ToBeSignedBytes()));
  return cert;
}

Status VerifyCertificate(const RsaPublicKey& ca_key,
                         const ParticipantCertificate& cert) {
  RsaSignatureVerifier verifier(ca_key);
  Status s = verifier.Verify(cert.ToBeSignedBytes(), cert.ca_signature);
  if (!s.ok()) {
    return Status::VerificationFailed("certificate signature invalid for '" +
                                      cert.name + "'");
  }
  return Status::OK();
}

Status ParticipantRegistry::Register(const ParticipantCertificate& cert) {
  PROVDB_RETURN_IF_ERROR(VerifyCertificate(ca_key_, cert));
  auto it = certs_.find(cert.participant_id);
  if (it != certs_.end()) {
    if (it->second.public_key == cert.public_key) {
      return Status::OK();  // idempotent re-registration
    }
    return Status::AlreadyExists("participant id already bound to a key");
  }
  certs_.emplace(cert.participant_id, cert);
  return Status::OK();
}

Result<ParticipantCertificate> ParticipantRegistry::Lookup(
    ParticipantId id) const {
  auto it = certs_.find(id);
  if (it == certs_.end()) {
    return Status::NotFound("no certificate for participant " +
                            std::to_string(id));
  }
  return it->second;
}

std::map<ParticipantId, RsaSignatureVerifier>
ParticipantRegistry::MakeVerifiers(HashAlgorithm alg) const {
  std::map<ParticipantId, RsaSignatureVerifier> verifiers;
  for (const auto& [id, cert] : certs_) {
    verifiers.try_emplace(id, cert.public_key, alg);
  }
  return verifiers;
}

Result<Participant> Participant::Create(ParticipantId id, std::string name,
                                        size_t modulus_bits, Rng* rng,
                                        const CertificateAuthority& ca,
                                        HashAlgorithm signature_hash) {
  PROVDB_ASSIGN_OR_RETURN(RsaKeyPair pair,
                          GenerateRsaKeyPair(modulus_bits, rng));
  PROVDB_ASSIGN_OR_RETURN(ParticipantCertificate cert,
                          ca.IssueCertificate(id, name, pair.public_key));
  PROVDB_ASSIGN_OR_RETURN(RsaSigner signer,
                          RsaSigner::Create(pair.private_key, signature_hash));
  return Participant(id, std::move(name), std::move(cert),
                     std::make_unique<RsaSigner>(std::move(signer)));
}

}  // namespace provdb::crypto
