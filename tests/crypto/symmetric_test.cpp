#include "crypto/symmetric.hpp"

#include <gtest/gtest.h>
#include <openssl/evp.h>

#include <random>
#include <string>
#include <vector>

#include "common/encoding.hpp"
#include "common/error.hpp"
#include "crypto/kdf.hpp"
#include "crypto/random.hpp"

namespace myproxy::crypto {
namespace {

std::span<const std::uint8_t> as_bytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

/// OpenSSL's PBKDF2-HMAC-SHA256, the reference crypto::pbkdf2 must match.
std::vector<std::uint8_t> reference_pbkdf2(std::string_view phrase,
                                           std::span<const std::uint8_t> salt,
                                           unsigned iterations,
                                           std::size_t key_len) {
  std::vector<std::uint8_t> out(key_len);
  EXPECT_EQ(PKCS5_PBKDF2_HMAC(phrase.data(), static_cast<int>(phrase.size()),
                              salt.data(), static_cast<int>(salt.size()),
                              static_cast<int>(iterations), EVP_sha256(),
                              static_cast<int>(key_len), out.data()),
            1);
  return out;
}

std::vector<std::uint8_t> derive(std::string_view phrase,
                                 std::span<const std::uint8_t> salt,
                                 unsigned iterations, std::size_t key_len) {
  const SecureBuffer key = pbkdf2(phrase, salt, iterations, key_len);
  return {key.bytes().begin(), key.bytes().end()};
}

TEST(Aead, SealOpenRoundTrip) {
  const auto key = random_bytes(kAesKeySize);
  const auto sealed = aead_seal(key, "plaintext payload", "user:alice");
  const SecureBuffer opened = aead_open(key, sealed, "user:alice");
  EXPECT_EQ(opened.view(), "plaintext payload");
}

TEST(Aead, EmptyPlaintext) {
  const auto key = random_bytes(kAesKeySize);
  const auto sealed = aead_seal(key, "", "aad");
  EXPECT_EQ(aead_open(key, sealed, "aad").size(), 0u);
}

TEST(Aead, WrongKeyRejected) {
  const auto key = random_bytes(kAesKeySize);
  const auto other = random_bytes(kAesKeySize);
  const auto sealed = aead_seal(key, "payload", "");
  EXPECT_THROW((void)aead_open(other, sealed, ""), VerificationError);
}

TEST(Aead, WrongAadRejected) {
  // The AAD binds a stored credential to its owner; a record copied between
  // users must fail to open (paper §5.1 at-rest protection).
  const auto key = random_bytes(kAesKeySize);
  const auto sealed = aead_seal(key, "payload", "user:alice");
  EXPECT_THROW((void)aead_open(key, sealed, "user:mallory"),
               VerificationError);
}

TEST(Aead, TamperedCiphertextRejected) {
  const auto key = random_bytes(kAesKeySize);
  auto sealed = aead_seal(key, "payload", "");
  sealed.back() ^= 0x01;
  EXPECT_THROW((void)aead_open(key, sealed, ""), VerificationError);
}

TEST(Aead, TamperedTagRejected) {
  const auto key = random_bytes(kAesKeySize);
  auto sealed = aead_seal(key, "payload", "");
  sealed[kGcmNonceSize] ^= 0x01;  // first tag byte
  EXPECT_THROW((void)aead_open(key, sealed, ""), VerificationError);
}

TEST(Aead, TruncatedBlobRejected) {
  const auto key = random_bytes(kAesKeySize);
  EXPECT_THROW((void)aead_open(key, std::vector<std::uint8_t>(5), ""),
               ParseError);
}

TEST(Aead, NonceIsFreshPerSeal) {
  const auto key = random_bytes(kAesKeySize);
  const auto a = aead_seal(key, "same", "");
  const auto b = aead_seal(key, "same", "");
  EXPECT_NE(a, b);  // distinct nonce -> distinct ciphertext
}

TEST(Pbkdf2, DeterministicForSameInputs) {
  const auto salt = random_bytes(kEnvelopeSaltSize);
  const auto k1 = pbkdf2("phrase", salt, 1000, kAesKeySize);
  const auto k2 = pbkdf2("phrase", salt, 1000, kAesKeySize);
  EXPECT_EQ(k1, k2);
}

TEST(Pbkdf2, SaltAndIterationsChangeKey) {
  const auto salt1 = random_bytes(kEnvelopeSaltSize);
  const auto salt2 = random_bytes(kEnvelopeSaltSize);
  EXPECT_FALSE(pbkdf2("phrase", salt1, 1000, kAesKeySize) ==
               pbkdf2("phrase", salt2, 1000, kAesKeySize));
  EXPECT_FALSE(pbkdf2("phrase", salt1, 1000, kAesKeySize) ==
               pbkdf2("phrase", salt1, 1001, kAesKeySize));
}

TEST(Pbkdf2, Rfc7914Vectors) {
  // RFC 7914 §11, the PBKDF2-HMAC-SHA256 test vectors.
  EXPECT_EQ(encoding::hex_encode(
                derive("passwd", as_bytes("salt"), 1, 64)),
            "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"
            "49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783");
  EXPECT_EQ(encoding::hex_encode(
                derive("Password", as_bytes("NaCl"), 80000, 64)),
            "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56"
            "a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d");
}

TEST(Pbkdf2, EdgeCasesMatchReference) {
  const auto salt = random_bytes(kEnvelopeSaltSize);
  // Pass phrases shorter than, equal to and longer than the 64-byte HMAC
  // block (a longer key is hashed first).
  for (const std::size_t length : {0, 1, 63, 64, 65, 100, 200}) {
    const std::string phrase(length, 'p');
    EXPECT_EQ(derive(phrase, salt, 3, kAesKeySize),
              reference_pbkdf2(phrase, salt, 3, kAesKeySize))
        << "phrase length " << length;
  }
  EXPECT_EQ(derive("phrase", {}, 5, kAesKeySize),
            reference_pbkdf2("phrase", {}, 5, kAesKeySize));
  // 33 bytes: a second output block, truncated to one byte.
  EXPECT_EQ(derive("phrase", salt, 7, 33),
            reference_pbkdf2("phrase", salt, 7, 33));
  EXPECT_EQ(derive("phrase", salt, 1, kAesKeySize),
            reference_pbkdf2("phrase", salt, 1, kAesKeySize));
  EXPECT_EQ(derive("phrase", salt, kDefaultKdfIterations, kAesKeySize),
            reference_pbkdf2("phrase", salt, kDefaultKdfIterations,
                             kAesKeySize));
}

TEST(Pbkdf2, MatchesReferenceOnRandomInputs) {
  std::mt19937 rng(20011);
  auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 256; ++trial) {
    std::string phrase(pick(0, 150), '\0');
    for (char& c : phrase) c = static_cast<char>(pick(0, 255));
    std::vector<std::uint8_t> salt(pick(0, 48));
    for (auto& b : salt) b = static_cast<std::uint8_t>(pick(0, 255));
    const auto iterations = static_cast<unsigned>(pick(1, 64));
    const std::size_t key_len = pick(1, 100);
    ASSERT_EQ(derive(phrase, salt, iterations, key_len),
              reference_pbkdf2(phrase, salt, iterations, key_len))
        << "trial " << trial << ": phrase length " << phrase.size()
        << ", salt length " << salt.size() << ", " << iterations
        << " iterations, " << key_len << "-byte key";
  }
}

TEST(Pbkdf2, RejectsDegenerateParameters) {
  const auto salt = random_bytes(kEnvelopeSaltSize);
  EXPECT_THROW((void)pbkdf2("p", salt, 0, 32), CryptoError);
  EXPECT_THROW((void)pbkdf2("p", salt, 100, 0), CryptoError);
}

TEST(Envelope, RoundTrip) {
  const auto sealed =
      passphrase_seal("correct horse", "-----BEGIN...-----", "alice", 1000);
  EXPECT_TRUE(is_envelope(sealed));
  const SecureBuffer opened = passphrase_open("correct horse", sealed, "alice");
  EXPECT_EQ(opened.view(), "-----BEGIN...-----");
}

TEST(Envelope, WrongPassphraseRejected) {
  const auto sealed = passphrase_seal("right", "data", "alice", 1000);
  EXPECT_THROW((void)passphrase_open("wrong", sealed, "alice"),
               VerificationError);
}

TEST(Envelope, WrongUserAadRejected) {
  const auto sealed = passphrase_seal("phrase", "data", "alice", 1000);
  EXPECT_THROW((void)passphrase_open("phrase", sealed, "bob"),
               VerificationError);
}

TEST(Envelope, MalformedInputsRejected) {
  std::vector<std::uint8_t> junk{'n', 'o', 'p', 'e'};
  EXPECT_THROW((void)passphrase_open("p", junk, ""), ParseError);
  auto sealed = passphrase_seal("p", "data", "", 1000);
  sealed.resize(10);  // truncate below header size
  EXPECT_THROW((void)passphrase_open("p", sealed, ""), ParseError);
}

TEST(Envelope, IterationCountPreserved) {
  // Opening must honor the iteration count recorded in the envelope, so a
  // server can raise the default without breaking old records.
  const auto sealed = passphrase_seal("p", "data", "", 12345);
  EXPECT_EQ(passphrase_open("p", sealed, "").view(), "data");
}

TEST(Envelope, OpensEnvelopeSealedByEarlierRelease) {
  // Sealed by the release whose derive was OpenSSL's PKCS5_PBKDF2_HMAC
  // (1,000 iterations, aad "myproxy:alice:"): records already on disk must
  // keep opening under the current derive.
  const auto sealed = encoding::hex_decode(
      "4d504531000003e82b17dcf49187e57a6899d63e7e8c26f0804482b3d0a91a56a85b"
      "06e32db2719e778a1449c0b9180c025ea28d99a65355463a7422f40ec74774142b74"
      "cf8396af01e5afa901f0492c8597be0533c43adfcb892e3a");
  EXPECT_EQ(
      passphrase_open("envelope fixture phrase", sealed, "myproxy:alice:")
          .view(),
      "MPE1 fixture sealed with 1000 iterations");
  EXPECT_THROW((void)passphrase_open("envelope fixture phrasE", sealed,
                                     "myproxy:alice:"),
               VerificationError);
}

}  // namespace
}  // namespace myproxy::crypto
