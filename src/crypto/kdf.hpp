// Pass-phrase key derivation (PBKDF2-HMAC-SHA256). The repository encrypts
// every stored credential under a key derived from the user's chosen pass
// phrase (paper §5.1), so the KDF cost is the attacker's per-guess cost
// after a repository-host compromise.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/secure_buffer.hpp"

namespace myproxy::crypto {

/// Default PBKDF2 iteration count. bench_at_rest sweeps this to show the
/// security/latency tradeoff.
inline constexpr unsigned kDefaultKdfIterations = 10'000;

/// Derive `key_len` bytes from `pass_phrase` with PBKDF2-HMAC-SHA256
/// (RFC 8018). Throws CryptoError on zero iterations or key length.
[[nodiscard]] SecureBuffer pbkdf2(std::string_view pass_phrase,
                                  std::span<const std::uint8_t> salt,
                                  unsigned iterations, std::size_t key_len);

}  // namespace myproxy::crypto
