#include "pki/certificate.hpp"

#include <openssl/asn1.h>
#include <openssl/bn.h>
#include <openssl/err.h>
#include <openssl/evp.h>
#include <openssl/pem.h>
#include <openssl/x509.h>
#include <openssl/x509v3.h>

#include <cctype>
#include <ctime>
#include <mutex>
#include <unordered_map>

#include "common/encoding.hpp"
#include "common/error.hpp"
#include "crypto/digest.hpp"
#include "crypto/openssl_util.hpp"
#include "pki/proxy_policy.hpp"

namespace myproxy::pki {

namespace {

std::shared_ptr<X509> wrap(X509* x) {
  return std::shared_ptr<X509>(x, [](X509* p) { X509_free(p); });
}

X509* require(const std::shared_ptr<X509>& x) {
  if (x == nullptr) throw Error(ErrorCode::kInternal, "empty Certificate");
  return x.get();
}

TimePoint asn1_time_to_timepoint(const ASN1_TIME* t) {
  std::tm tm{};
  crypto::check(ASN1_TIME_to_tm(t, &tm), "ASN1_TIME_to_tm");
  const std::time_t secs = timegm(&tm);
  return from_unix(static_cast<std::int64_t>(secs));
}

std::string der_encode(X509* x) {
  unsigned char* der = nullptr;
  const int len = i2d_X509(x, &der);
  if (len < 0) crypto::throw_openssl("i2d_X509");
  std::string out(reinterpret_cast<char*>(der),
                  static_cast<std::size_t>(len));
  OPENSSL_free(der);
  return out;
}

// Every distinct certificate DER this process has parsed, so a stored
// credential's proxy and end-entity certificates are decoded once rather
// than on every GET. Certificates are public and X509 is shared read-only
// between Certificate copies already; no key material is ever held here.
class ParsedCertificates {
 public:
  std::shared_ptr<X509> get(std::string_view der) {
    {
      const std::scoped_lock lock(mutex_);
      if (auto it = by_der_.find(der); it != by_der_.end()) {
        ++hits_;
        return it->second;
      }
      ++misses_;
    }
    // Parse outside the lock; a racing parse of the same DER is harmless
    // and the first one inserted wins.
    const auto* in = reinterpret_cast<const unsigned char*>(der.data());
    X509* x = d2i_X509(nullptr, &in, static_cast<long>(der.size()));  // NOLINT
    if (x == nullptr) {
      (void)crypto::drain_error_queue();
      throw ParseError("malformed certificate in PEM input");
    }
    std::shared_ptr<X509> parsed = wrap(x);
    if (der.size() > kCertificateTableDerBytes) return parsed;
    const std::scoped_lock lock(mutex_);
    // Wholesale eviction, as CachedCredentialStore's shards do: bounded
    // memory, no recency bookkeeping on the hit path. The byte bound keeps
    // a peer sending outsized certificates from growing the table past it.
    if (by_der_.size() >= kCertificateTableCapacity ||
        der_bytes_ + der.size() > kCertificateTableDerBytes) {
      by_der_.clear();
      der_bytes_ = 0;
    }
    const auto [it, inserted] =
        by_der_.try_emplace(std::string(der), std::move(parsed));
    if (inserted) der_bytes_ += der.size();
    return it->second;
  }

  CertificateTableStats stats() {
    const std::scoped_lock lock(mutex_);
    return {hits_, misses_, by_der_.size()};
  }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<X509>, Hash,
                     std::equal_to<>>
      by_der_;
  std::size_t der_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

ParsedCertificates& parsed_certificates() {
  static ParsedCertificates table;
  return table;
}

// One PEM block as read by PEM_read_bio; every buffer is freed (the data
// cleansed: a credential's private key block passes through here too).
struct PemBlock {
  char* name = nullptr;
  char* header = nullptr;
  unsigned char* data = nullptr;
  long len = 0;  // NOLINT(google-runtime-int) OpenSSL API type

  PemBlock() = default;
  PemBlock(const PemBlock&) = delete;
  PemBlock& operator=(const PemBlock&) = delete;
  ~PemBlock() {
    OPENSSL_free(name);
    OPENSSL_free(header);
    OPENSSL_clear_free(data, static_cast<std::size_t>(len));
  }
};

// The next certificate in `bio`, skipping blocks of other types; null at
// the end of the input. Throws ParseError on a damaged PEM block or a
// certificate block whose DER does not decode.
std::shared_ptr<X509> read_certificate_block(BIO* bio) {
  while (true) {
    PemBlock block;
    if (PEM_read_bio(bio, &block.name, &block.header, &block.data,
                     &block.len) != 1) {
      const int reason = ERR_GET_REASON(ERR_peek_last_error());
      (void)crypto::drain_error_queue();
      if (reason == PEM_R_NO_START_LINE) return nullptr;
      throw ParseError("malformed PEM block");
    }
    const std::string_view name(block.name);
    if (name != PEM_STRING_X509 && name != PEM_STRING_X509_OLD) continue;
    return parsed_certificates().get(
        std::string_view(reinterpret_cast<const char*>(block.data),
                         static_cast<std::size_t>(block.len)));
  }
}

}  // namespace

std::string_view to_string(ProxyType type) noexcept {
  switch (type) {
    case ProxyType::kEndEntity:
      return "end-entity";
    case ProxyType::kFull:
      return "proxy";
    case ProxyType::kLimited:
      return "limited proxy";
  }
  return "?";
}

Certificate Certificate::from_pem(std::string_view pem) {
  crypto::BioPtr bio = crypto::memory_bio(pem);
  Certificate out;
  out.x509_ = read_certificate_block(bio.get());
  if (out.x509_ == nullptr) {
    throw ParseError("no certificate found in PEM input");
  }
  return out;
}

std::vector<Certificate> Certificate::chain_from_pem(std::string_view pem) {
  crypto::BioPtr bio = crypto::memory_bio(pem);
  std::vector<Certificate> chain;
  while (auto x509 = read_certificate_block(bio.get())) {
    Certificate cert;
    cert.x509_ = std::move(x509);
    chain.push_back(std::move(cert));
  }
  if (chain.empty()) {
    throw ParseError("no certificates found in PEM input");
  }
  return chain;
}

CertificateTableStats Certificate::table_stats() {
  return parsed_certificates().stats();
}

std::string Certificate::chain_to_pem(const std::vector<Certificate>& certs) {
  std::string out;
  for (const auto& cert : certs) out += cert.to_pem();
  return out;
}

std::string Certificate::to_pem() const {
  crypto::BioPtr bio = crypto::memory_bio();
  crypto::check(PEM_write_bio_X509(bio.get(), require(x509_)),
                "PEM_write_bio_X509");
  return crypto::bio_to_string(bio.get());
}

DistinguishedName Certificate::subject() const {
  return DistinguishedName::from_x509_name(
      X509_get_subject_name(require(x509_)));
}

DistinguishedName Certificate::issuer() const {
  return DistinguishedName::from_x509_name(
      X509_get_issuer_name(require(x509_)));
}

TimePoint Certificate::not_before() const {
  return asn1_time_to_timepoint(X509_get0_notBefore(require(x509_)));
}

TimePoint Certificate::not_after() const {
  return asn1_time_to_timepoint(X509_get0_notAfter(require(x509_)));
}

Seconds Certificate::remaining_lifetime() const {
  return std::chrono::duration_cast<Seconds>(not_after() - now());
}

std::string Certificate::serial_hex() const {
  const ASN1_INTEGER* serial = X509_get0_serialNumber(require(x509_));
  BIGNUM* bn = ASN1_INTEGER_to_BN(serial, nullptr);
  crypto::check_ptr(bn, "ASN1_INTEGER_to_BN");
  char* hex = BN_bn2hex(bn);
  BN_free(bn);
  crypto::check_ptr(hex, "BN_bn2hex");
  std::string out(hex);
  OPENSSL_free(hex);
  for (auto& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

crypto::KeyPair Certificate::public_key() const {
  EVP_PKEY* key = X509_get_pubkey(require(x509_));  // +1 reference
  crypto::check_ptr(key, "X509_get_pubkey");
  return crypto::KeyPair::adopt(key, /*has_private=*/false);
}

bool Certificate::signed_by(const Certificate& issuer) const {
  EVP_PKEY* key = X509_get_pubkey(require(issuer.x509_));
  crypto::check_ptr(key, "X509_get_pubkey");
  const int rc = X509_verify(require(x509_), key);
  EVP_PKEY_free(key);
  if (rc < 0) (void)crypto::drain_error_queue();
  return rc == 1;
}

std::string Certificate::fingerprint() const {
  return crypto::digest_hex(crypto::HashAlgorithm::kSha256,
                            der_encode(require(x509_)));
}

ProxyType Certificate::proxy_type() const {
  const DistinguishedName subject_dn = subject();
  const DistinguishedName issuer_dn = issuer();
  std::string cn;
  if (!subject_dn.extends_by_one_cn(issuer_dn, &cn)) {
    return ProxyType::kEndEntity;
  }
  if (cn == kProxyCn) return ProxyType::kFull;
  if (cn == kLimitedProxyCn) return ProxyType::kLimited;
  return ProxyType::kEndEntity;
}

std::optional<std::string> Certificate::restriction_policy() const {
  X509* x = require(x509_);
  const int index = X509_get_ext_by_NID(x, proxy_policy_nid(), -1);
  if (index < 0) return std::nullopt;
  X509_EXTENSION* ext = X509_get_ext(x, index);
  const ASN1_OCTET_STRING* data = X509_EXTENSION_get_data(ext);
  return std::string(reinterpret_cast<const char*>(data->data),
                     static_cast<std::size_t>(data->length));
}

bool Certificate::is_ca() const {
  return X509_check_ca(require(x509_)) == 1;
}

Certificate Certificate::adopt(X509* x509) {
  Certificate out;
  out.x509_ = wrap(crypto::check_ptr(x509, "Certificate::adopt(null)"));
  return out;
}

bool operator==(const Certificate& a, const Certificate& b) {
  if (a.x509_ == nullptr || b.x509_ == nullptr) {
    return a.x509_ == b.x509_;
  }
  return X509_cmp(a.x509_.get(), b.x509_.get()) == 0;
}

}  // namespace myproxy::pki
