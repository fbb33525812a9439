#ifndef PROVDB_CRYPTO_SIGNER_H_
#define PROVDB_CRYPTO_SIGNER_H_

#include <optional>
#include <utility>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/hash.h"
#include "crypto/rsa.h"

namespace provdb::crypto {

/// RSA hash-then-sign signer: a participant's `S_SK_p(...)` (§2.3), the
/// checksum scheme's signature over `h(in)|h(out)|C_prev`. Owns the key's
/// two CRT prime contexts, built once in Create and reused for every
/// signature: checksum generation signs thousands of records per complex
/// operation.
class RsaSigner {
 public:
  static Result<RsaSigner> Create(const RsaPrivateKey& key,
                                  HashAlgorithm alg = HashAlgorithm::kSha1);

  /// SignDigest of the message's hash under the signer's algorithm.
  Result<Bytes> Sign(ByteView message) const;

  /// Signs a digest: PKCS#1 v1.5-style encoding
  /// `0x00 01 FF..FF 00 <alg-tag byte> <digest>` under the signer's
  /// algorithm tag, then RSA-CRT private-key exponentiation. (The tag is
  /// a 1-byte stand-in for the ASN.1 DigestInfo header of full PKCS#1;
  /// the security argument is unchanged.) The result is exactly the
  /// modulus width long (128 bytes for RSA-1024, as in the paper).
  Result<Bytes> SignDigest(const Digest& digest) const;

  const RsaPublicKey& public_key() const { return public_key_; }

 private:
  RsaSigner(RsaPrivateKey key, MontgomeryContext p_ctx,
            MontgomeryContext q_ctx, HashAlgorithm alg)
      : key_(std::move(key)), public_key_(key_.PublicKey()),
        p_ctx_(std::move(p_ctx)), q_ctx_(std::move(q_ctx)), alg_(alg) {}

  RsaPrivateKey key_;
  RsaPublicKey public_key_;
  MontgomeryContext p_ctx_;
  MontgomeryContext q_ctx_;
  HashAlgorithm alg_;
};

/// Verifier for RsaSigner signatures. Derives the Montgomery context for
/// the key's modulus once at construction and reuses it for every call
/// (chain verification checks one signature per record under the same
/// handful of keys).
class RsaSignatureVerifier {
 public:
  RsaSignatureVerifier(RsaPublicKey key,
                       HashAlgorithm alg = HashAlgorithm::kSha1);

  /// VerifyDigest of the message's hash under the verifier's algorithm:
  /// OK when `signature` is a valid signature of `message`,
  /// kVerificationFailed otherwise.
  Status Verify(ByteView message, ByteView signature) const;

  /// OK when `signature` is RsaSigner::SignDigest of `digest` under this
  /// key and the verifier's algorithm tag; kVerificationFailed otherwise.
  Status VerifyDigest(const Digest& digest, ByteView signature) const;

 private:
  RsaPublicKey key_;
  HashAlgorithm alg_;
  // nullopt for a modulus that is not odd, which no RSA key has: every
  // signature is then refused.
  std::optional<MontgomeryContext> n_ctx_;
};

}  // namespace provdb::crypto

#endif  // PROVDB_CRYPTO_SIGNER_H_
