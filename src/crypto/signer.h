#ifndef PROVDB_CRYPTO_SIGNER_H_
#define PROVDB_CRYPTO_SIGNER_H_

#include <memory>
#include <optional>
#include <string_view>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/hash.h"
#include "crypto/rsa.h"

namespace provdb::crypto {

/// Produces signatures over arbitrary messages (hash-then-sign). The
/// checksum scheme signs the concatenation `h(in)|h(out)|C_prev` with the
/// acting participant's key — this is `S_SK_p(...)` in the paper (§2.3).
class Signer {
 public:
  virtual ~Signer() = default;

  /// Signs `message`. The returned signature has `signature_size()` bytes.
  virtual Result<Bytes> Sign(ByteView message) const = 0;

  /// Signature length in bytes (128 for RSA-1024, as in the paper).
  virtual size_t signature_size() const = 0;

  /// Human-readable scheme name, e.g. "RSA-1024/SHA-1".
  virtual std::string scheme_name() const = 0;
};

/// Checks signatures produced by a matching Signer.
class SignatureVerifier {
 public:
  virtual ~SignatureVerifier() = default;

  /// OK when `signature` is a valid signature of `message`;
  /// kVerificationFailed otherwise.
  virtual Status Verify(ByteView message, ByteView signature) const = 0;
};

/// RSA hash-then-sign signer. Owns the key's two CRT prime contexts,
/// built once in Create and reused for every signature: checksum
/// generation signs thousands of records per complex operation.
class RsaSigner final : public Signer {
 public:
  static Result<RsaSigner> Create(const RsaPrivateKey& key,
                                  HashAlgorithm alg = HashAlgorithm::kSha1);

  /// SignDigest of the message's hash under the signer's algorithm.
  Result<Bytes> Sign(ByteView message) const override;

  /// Signs a digest: PKCS#1 v1.5-style encoding
  /// `0x00 01 FF..FF 00 <alg-tag byte> <digest>` under the signer's
  /// algorithm tag, then RSA-CRT private-key exponentiation. (The tag is
  /// a 1-byte stand-in for the ASN.1 DigestInfo header of full PKCS#1;
  /// the security argument is unchanged.) The result is exactly
  /// signature_size() long.
  Result<Bytes> SignDigest(const Digest& digest) const;

  size_t signature_size() const override;
  std::string scheme_name() const override;

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
class RsaSignatureVerifier final : public SignatureVerifier {
 public:
  RsaSignatureVerifier(RsaPublicKey key,
                       HashAlgorithm alg = HashAlgorithm::kSha1);

  /// VerifyDigest of the message's hash under the verifier's algorithm.
  Status Verify(ByteView message, ByteView signature) const override;

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

/// Symmetric HMAC "signer" for the ablation benchmarks: roughly three
/// orders of magnitude faster than RSA but sacrifices non-repudiation (R8)
/// because every holder of the key can forge. Implements both interfaces.
class HmacSigner final : public Signer, public SignatureVerifier {
 public:
  HmacSigner(Bytes key, HashAlgorithm alg = HashAlgorithm::kSha1)
      : key_(std::move(key)), alg_(alg) {}

  Result<Bytes> Sign(ByteView message) const override;
  size_t signature_size() const override { return HashDigestSize(alg_); }
  std::string scheme_name() const override;

  Status Verify(ByteView message, ByteView signature) const override;

 private:
  Bytes key_;
  HashAlgorithm alg_;
};

}  // namespace provdb::crypto

#endif  // PROVDB_CRYPTO_SIGNER_H_
