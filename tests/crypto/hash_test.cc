// Hash-function tests against the published FIPS 180 / RFC 1321 vectors,
// plus streaming-equivalence properties around block boundaries.

#include "crypto/hash.h"

#include <gtest/gtest.h>

#include <string>

#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace provdb::crypto {
namespace {

std::string HashHex(HashAlgorithm alg, std::string_view message) {
  return HashBytes(alg, ByteView(message)).ToHex();
}

TEST(Sha1Test, FipsVectors) {
  EXPECT_EQ(HashHex(HashAlgorithm::kSha1, ""),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(HashHex(HashAlgorithm::kSha1, "abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(HashHex(HashAlgorithm::kSha1,
                    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(
      HashHex(HashAlgorithm::kSha1,
              "The quick brown fox jumps over the lazy dog"),
      "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1Test, MillionAs) {
  Sha1Hasher hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(ByteView(chunk));
  }
  EXPECT_EQ(hasher.Finish().ToHex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, DigestsAcrossBlockBoundariesArePinned) {
  // Every prefix length 0..300 of a fixed pattern: zero to four whole
  // blocks, each with a one- or two-block padding tail. One digest over
  // all 301 digests pins them together; a wrong round function, constant
  // or schedule word anywhere changes it.
  std::string pattern;
  for (int i = 0; i < 300; ++i) {
    pattern.push_back(static_cast<char>((i * 131 + 7) & 0xFF));
  }
  Bytes digests;
  for (size_t length = 0; length <= pattern.size(); ++length) {
    Digest d = HashBytes(HashAlgorithm::kSha1,
                         ByteView(std::string_view(pattern).substr(0, length)));
    AppendBytes(&digests, d.view());
  }
  EXPECT_EQ(HashBytes(HashAlgorithm::kSha1, digests).ToHex(),
            "e076385f2d06b3e9dc4db3c2fcf396f36cdae79e");
}

TEST(Sha256Test, FipsVectors) {
  EXPECT_EQ(
      HashHex(HashAlgorithm::kSha256, ""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      HashHex(HashAlgorithm::kSha256, "abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      HashHex(HashAlgorithm::kSha256,
              "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256Hasher hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(ByteView(chunk));
  }
  EXPECT_EQ(
      hasher.Finish().ToHex(),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5, ""),
            "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5, "a"),
            "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5, "abc"),
            "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5, "message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5, "abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5,
                    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                    "0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5,
                    "1234567890123456789012345678901234567890123456789012345"
                    "6789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(HashTest, AlgorithmMetadata) {
  EXPECT_EQ(HashAlgorithmName(HashAlgorithm::kSha1), "SHA-1");
  EXPECT_EQ(HashAlgorithmName(HashAlgorithm::kSha256), "SHA-256");
  EXPECT_EQ(HashAlgorithmName(HashAlgorithm::kMd5), "MD5");
  EXPECT_EQ(HashDigestSize(HashAlgorithm::kSha1), 20u);
  EXPECT_EQ(HashDigestSize(HashAlgorithm::kSha256), 32u);
  EXPECT_EQ(HashDigestSize(HashAlgorithm::kMd5), 16u);
}

TEST(HashTest, FactoryMatchesOneShot) {
  std::string message = "factory test message";
  for (HashAlgorithm alg : {HashAlgorithm::kSha1, HashAlgorithm::kSha256,
                            HashAlgorithm::kMd5}) {
    auto hasher = CreateHasher(alg);
    ASSERT_NE(hasher, nullptr);
    EXPECT_EQ(hasher->digest_size(), HashDigestSize(alg));
    EXPECT_EQ(hasher->algorithm(), alg);
    EXPECT_EQ(hasher->Hash(ByteView(message)).ToHex(),
              HashBytes(alg, ByteView(message)).ToHex());
  }
}

// Streaming property: one-shot == byte-at-a-time == random chunking, for
// message lengths straddling the 64-byte block boundary and the 56-byte
// padding boundary.
class HashStreamingTest
    : public ::testing::TestWithParam<std::tuple<HashAlgorithm, size_t>> {};

TEST_P(HashStreamingTest, ChunkedMatchesOneShot) {
  auto [alg, length] = GetParam();
  std::string message;
  for (size_t i = 0; i < length; ++i) {
    message.push_back(static_cast<char>('A' + (i % 26)));
  }
  Digest one_shot = HashBytes(alg, ByteView(message));

  // Byte-at-a-time.
  auto hasher = CreateHasher(alg);
  for (char c : message) {
    hasher->Update(ByteView(&reinterpret_cast<const uint8_t&>(c), 1));
  }
  EXPECT_EQ(hasher->Finish().ToHex(), one_shot.ToHex());

  // Uneven chunks (7 bytes).
  hasher->Reset();
  for (size_t pos = 0; pos < message.size(); pos += 7) {
    hasher->Update(ByteView(std::string_view(message).substr(pos, 7)));
  }
  EXPECT_EQ(hasher->Finish().ToHex(), one_shot.ToHex());
}

INSTANTIATE_TEST_SUITE_P(
    BoundaryLengths, HashStreamingTest,
    ::testing::Combine(
        ::testing::Values(HashAlgorithm::kSha1, HashAlgorithm::kSha256,
                          HashAlgorithm::kMd5),
        ::testing::Values(0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u,
                          128u, 1000u)));

TEST(HashTest, ResetClearsState) {
  Sha1Hasher hasher;
  hasher.Update(ByteView(std::string_view("garbage")));
  hasher.Reset();
  hasher.Update(ByteView(std::string_view("abc")));
  EXPECT_EQ(hasher.Finish().ToHex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(HashTest, ReuseAfterFinish) {
  Sha256Hasher hasher;
  hasher.Update(ByteView(std::string_view("abc")));
  Digest first = hasher.Finish();
  hasher.Reset();
  hasher.Update(ByteView(std::string_view("abc")));
  EXPECT_EQ(hasher.Finish().ToHex(), first.ToHex());
}

TEST(HashTest, DistinctMessagesDistinctDigests) {
  // Not a collision test — a sanity check that close inputs diverge.
  for (HashAlgorithm alg : {HashAlgorithm::kSha1, HashAlgorithm::kSha256,
                            HashAlgorithm::kMd5}) {
    EXPECT_NE(HashHex(alg, "message1"), HashHex(alg, "message2"));
    EXPECT_NE(HashHex(alg, ""), HashHex(alg, std::string(1, '\0')));
  }
}

}  // namespace
}  // namespace provdb::crypto
