// PBKDF2-HMAC-SHA256 (RFC 8018 §5.2) with the HMAC key schedule computed
// once per derive.
//
// OpenSSL 3's own PBKDF2 runs every iteration through the EVP HMAC layer,
// copying whole digest contexts (and bumping shared reference counts) each
// time; that cost more than the hashing and grew when threads derived at
// once. Here the ipad and opad blocks are absorbed into two SHA256_CTX up
// front; each iteration copies a state and runs one block transform over a
// pre-padded 64-byte block, twice (inner, outer). The output is the same
// bytes as OpenSSL's, so envelopes sealed before stay openable.
//
// SHA256_Transform is deprecated in OpenSSL 3 but built by default.
#define OPENSSL_SUPPRESS_DEPRECATED

#include "crypto/kdf.hpp"

#include <openssl/sha.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace myproxy::crypto {

namespace {

constexpr std::size_t kBlockSize = SHA256_CBLOCK;          // 64
constexpr std::size_t kDigestSize = SHA256_DIGEST_LENGTH;  // 32

/// The digest of a SHA-256 state that has absorbed whole blocks: its eight
/// chaining words, big-endian.
void state_digest(const SHA256_CTX& ctx, std::uint8_t* out) {
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(ctx.h[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(ctx.h[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(ctx.h[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(ctx.h[i]);
  }
}

/// Everything a derive holds that depends on the pass phrase; wiped on
/// every exit as OpenSSL cleanses its own contexts.
struct DeriveState {
  std::uint8_t key[kBlockSize] = {};
  std::uint8_t pad[kBlockSize] = {};
  SHA256_CTX inner{};  ///< state after absorbing key ^ ipad
  SHA256_CTX outer{};  ///< state after absorbing key ^ opad
  SHA256_CTX work{};
  /// U_j in bytes 0..31, then SHA-256 padding for a 96-byte message
  /// (one key block + one digest): 0x80, zeros, bit length 768.
  std::uint8_t u[kBlockSize] = {};
  std::uint8_t t[kDigestSize] = {};

  DeriveState() = default;
  DeriveState(const DeriveState&) = delete;
  DeriveState& operator=(const DeriveState&) = delete;
  ~DeriveState() { secure_wipe(this, sizeof(*this)); }
};

}  // namespace

SecureBuffer pbkdf2(std::string_view pass_phrase,
                    std::span<const std::uint8_t> salt, unsigned iterations,
                    std::size_t key_len) {
  if (iterations == 0) throw CryptoError("pbkdf2: zero iterations");
  if (key_len == 0) throw CryptoError("pbkdf2: zero key length");
  const std::size_t blocks = (key_len + kDigestSize - 1) / kDigestSize;
  if (blocks > std::numeric_limits<std::uint32_t>::max()) {
    throw CryptoError("pbkdf2: key length too large");
  }

  DeriveState s;
  // HMAC: a key longer than the block is replaced by its digest.
  if (pass_phrase.size() > kBlockSize) {
    SHA256(reinterpret_cast<const unsigned char*>(pass_phrase.data()),
           pass_phrase.size(), s.key);
  } else if (!pass_phrase.empty()) {
    std::memcpy(s.key, pass_phrase.data(), pass_phrase.size());
  }
  for (std::size_t i = 0; i < kBlockSize; ++i) s.pad[i] = s.key[i] ^ 0x36;
  SHA256_Init(&s.inner);
  SHA256_Update(&s.inner, s.pad, kBlockSize);
  for (std::size_t i = 0; i < kBlockSize; ++i) s.pad[i] = s.key[i] ^ 0x5c;
  SHA256_Init(&s.outer);
  SHA256_Update(&s.outer, s.pad, kBlockSize);

  s.u[kDigestSize] = 0x80;
  s.u[kBlockSize - 2] = 0x03;  // 768 = 0x0300 bits

  SecureBuffer out(key_len);
  for (std::size_t block = 1; block <= blocks; ++block) {
    // U_1 = HMAC(P, salt || INT_32_BE(block)).
    const std::uint8_t counter[4] = {
        static_cast<std::uint8_t>(block >> 24),
        static_cast<std::uint8_t>(block >> 16),
        static_cast<std::uint8_t>(block >> 8),
        static_cast<std::uint8_t>(block)};
    s.work = s.inner;
    SHA256_Update(&s.work, salt.data(), salt.size());
    SHA256_Update(&s.work, counter, sizeof(counter));
    SHA256_Final(s.u, &s.work);
    s.work = s.outer;
    SHA256_Update(&s.work, s.u, kDigestSize);
    SHA256_Final(s.u, &s.work);
    std::memcpy(s.t, s.u, kDigestSize);

    // U_j = HMAC(P, U_{j-1}): one transform from each precomputed state.
    for (unsigned j = 1; j < iterations; ++j) {
      s.work = s.inner;
      SHA256_Transform(&s.work, s.u);
      state_digest(s.work, s.u);
      s.work = s.outer;
      SHA256_Transform(&s.work, s.u);
      state_digest(s.work, s.u);
      for (std::size_t i = 0; i < kDigestSize; ++i) s.t[i] ^= s.u[i];
    }

    const std::size_t offset = (block - 1) * kDigestSize;
    std::memcpy(out.data() + offset, s.t,
                std::min(kDigestSize, key_len - offset));
  }
  return out;
}

}  // namespace myproxy::crypto
