#ifndef PROVDB_CRYPTO_PKI_H_
#define PROVDB_CRYPTO_PKI_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/rsa.h"
#include "crypto/signer.h"

namespace provdb::crypto {

/// Identifies a participant (user, process, transaction) — the `p` of each
/// provenance record. The paper assumes participants are authenticated by
/// a certificate authority (§2.3); this module implements that assumption.
using ParticipantId = uint64_t;

/// Binds a participant id and display name to an RSA public key, endorsed
/// by the certificate authority's signature.
struct ParticipantCertificate {
  ParticipantId participant_id = 0;
  std::string name;
  RsaPublicKey public_key;
  Bytes ca_signature;

  /// Canonical to-be-signed encoding (everything except ca_signature).
  Bytes ToBeSignedBytes() const;
};

/// Issues and validates participant certificates. A single CA suffices for
/// the paper's model; cross-CA chains are out of scope.
class CertificateAuthority {
 public:
  /// Creates a CA with a fresh `modulus_bits` RSA key drawn from `rng`.
  static Result<CertificateAuthority> Create(size_t modulus_bits, Rng* rng);

  const RsaPublicKey& public_key() const { return public_key_; }

  /// Signs a certificate binding `id`/`name` to `key`.
  Result<ParticipantCertificate> IssueCertificate(ParticipantId id,
                                                  std::string name,
                                                  const RsaPublicKey& key) const;

 private:
  CertificateAuthority(std::unique_ptr<RsaSigner> signer, RsaPublicKey pub)
      : signer_(std::move(signer)), public_key_(std::move(pub)) {}

  std::unique_ptr<RsaSigner> signer_;
  RsaPublicKey public_key_;
};

/// Validates `cert` against the CA public key.
Status VerifyCertificate(const RsaPublicKey& ca_key,
                         const ParticipantCertificate& cert);

/// Data recipients resolve record signers through this registry: it admits
/// only CA-endorsed certificates, so a forged binding of an attacker key to
/// a victim id is rejected at registration (supports R1/R8).
class ParticipantRegistry {
 public:
  explicit ParticipantRegistry(RsaPublicKey ca_key)
      : ca_key_(std::move(ca_key)) {}

  /// Verifies the CA signature, then records the certificate. Re-registering
  /// an id with a different key fails (kAlreadyExists).
  Status Register(const ParticipantCertificate& cert);

  /// Certificate for `id`, or kNotFound.
  Result<ParticipantCertificate> Lookup(ParticipantId id) const;

  /// One signature verifier per registered participant, keyed by id, each
  /// hashing under `alg`: built once per verification run, whose chains
  /// then share them read-only.
  std::map<ParticipantId, RsaSignatureVerifier> MakeVerifiers(
      HashAlgorithm alg) const;

  size_t size() const { return certs_.size(); }
  const RsaPublicKey& ca_key() const { return ca_key_; }

 private:
  RsaPublicKey ca_key_;
  std::map<ParticipantId, ParticipantCertificate> certs_;
};

/// A keyed participant: id, name, key pair, signing context, certificate.
/// Convenience aggregate used by examples, tests, and benchmarks.
class Participant {
 public:
  /// Generates a key pair, obtains a certificate from `ca`, and builds the
  /// signing context. `signature_hash` selects the hash-then-sign digest;
  /// a deployment uses one algorithm system-wide, so pass the same value
  /// used for state hashing (the paper's configuration is SHA-1).
  static Result<Participant> Create(
      ParticipantId id, std::string name, size_t modulus_bits, Rng* rng,
      const CertificateAuthority& ca,
      HashAlgorithm signature_hash = HashAlgorithm::kSha1);

  ParticipantId id() const { return id_; }
  const std::string& name() const { return name_; }
  const ParticipantCertificate& certificate() const { return certificate_; }
  const RsaPublicKey& public_key() const { return certificate_.public_key; }
  const RsaSigner& signer() const { return *signer_; }

 private:
  Participant(ParticipantId id, std::string name,
              ParticipantCertificate cert, std::unique_ptr<RsaSigner> signer)
      : id_(id), name_(std::move(name)), certificate_(std::move(cert)),
        signer_(std::move(signer)) {}

  ParticipantId id_;
  std::string name_;
  ParticipantCertificate certificate_;
  std::unique_ptr<RsaSigner> signer_;
};

}  // namespace provdb::crypto

#endif  // PROVDB_CRYPTO_PKI_H_
