// X.509 certificates. Value-semantic wrapper over OpenSSL X509 with the
// GSI-specific views MyProxy needs: proxy classification by subject CN
// (legacy GSI proxies, paper §2.3) and the restricted-proxy policy extension
// (paper §6.5, draft-ietf-pkix-impersonation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "crypto/key_pair.hpp"
#include "pki/distinguished_name.hpp"

using X509 = struct x509_st;

namespace myproxy::pki {

/// How a certificate participates in a GSI identity chain.
enum class ProxyType {
  kEndEntity,  ///< long-term credential (or CA) — not a proxy
  kFull,       ///< "CN=proxy": full impersonation rights
  kLimited,    ///< "CN=limited proxy": job submission must be refused
};

[[nodiscard]] std::string_view to_string(ProxyType type) noexcept;

/// Parses of distinct certificate DER are shared process-wide (see
/// Certificate::from_pem). The table holds at most this many certificates
/// and this many DER bytes, and is cleared wholesale when either is
/// reached; a certificate larger than the byte bound is parsed but not
/// kept.
inline constexpr std::size_t kCertificateTableCapacity = 2048;
inline constexpr std::size_t kCertificateTableDerBytes = 4 << 20;

struct CertificateTableStats {
  std::uint64_t hits = 0;    ///< PEM certificate blocks served from the table
  std::uint64_t misses = 0;  ///< blocks parsed with d2i_X509
  std::size_t size = 0;      ///< distinct certificates held now
};

class Certificate {
 public:
  Certificate() = default;

  /// First certificate in a PEM blob; blocks of other types are skipped.
  /// Identical DER shares one parsed X509 with every earlier parse still
  /// in the table. Throws ParseError if there is none or it is malformed.
  static Certificate from_pem(std::string_view pem);

  /// Every certificate in a PEM blob, in order of appearance; blocks of
  /// other types are skipped. Throws ParseError if there is none, or if any
  /// block is malformed (a damaged chain is never silently truncated).
  static std::vector<Certificate> chain_from_pem(std::string_view pem);

  /// Counters of the process-wide parsed-certificate table.
  [[nodiscard]] static CertificateTableStats table_stats();

  /// Concatenate `certs` into one PEM blob.
  static std::string chain_to_pem(const std::vector<Certificate>& certs);

  [[nodiscard]] bool valid() const noexcept { return x509_ != nullptr; }

  [[nodiscard]] std::string to_pem() const;

  [[nodiscard]] DistinguishedName subject() const;
  [[nodiscard]] DistinguishedName issuer() const;

  [[nodiscard]] TimePoint not_before() const;
  [[nodiscard]] TimePoint not_after() const;

  /// Remaining lifetime relative to the library clock; <= 0 when expired.
  [[nodiscard]] Seconds remaining_lifetime() const;
  [[nodiscard]] bool expired() const { return remaining_lifetime() <= Seconds(0); }

  /// Serial number as lower-case hex.
  [[nodiscard]] std::string serial_hex() const;

  /// Public half of the subject key (never contains a private key).
  [[nodiscard]] crypto::KeyPair public_key() const;

  /// True if this certificate's signature verifies under `issuer`'s key.
  /// Checks only the signature — not validity windows or DN chaining.
  [[nodiscard]] bool signed_by(const Certificate& issuer) const;

  /// SHA-256 over the DER encoding, hex. Stable identity for audit logs.
  [[nodiscard]] std::string fingerprint() const;

  /// Proxy classification from the subject's final CN component relative to
  /// the issuer DN (legacy GSI rule). kEndEntity when the subject does not
  /// extend the issuer by CN=proxy / CN=limited proxy.
  [[nodiscard]] ProxyType proxy_type() const;
  [[nodiscard]] bool is_proxy() const {
    return proxy_type() != ProxyType::kEndEntity;
  }

  /// Restriction policy text carried in the proxy-policy extension (§6.5),
  /// if present.
  [[nodiscard]] std::optional<std::string> restriction_policy() const;

  /// True if basicConstraints marks this certificate as a CA.
  [[nodiscard]] bool is_ca() const;

  [[nodiscard]] X509* native() const noexcept { return x509_.get(); }

  /// Adopt an X509 (takes one reference).
  static Certificate adopt(X509* x509);

  /// Same DER bytes?
  friend bool operator==(const Certificate& a, const Certificate& b);

 private:
  std::shared_ptr<X509> x509_;
};

}  // namespace myproxy::pki
