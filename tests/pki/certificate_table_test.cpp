// The process-wide table of parsed certificates behind Certificate::from_pem
// and chain_from_pem: identical DER shares one X509, distinct DER never
// does, and the answers stay right past the table's bounds and under
// concurrent parses.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "pki/certificate.hpp"
#include "pki/certificate_builder.hpp"
#include "pki/pki_fixtures.hpp"
#include "pki/proxy_policy.hpp"

namespace myproxy::pki {
namespace {

using testing::make_identity;

/// `count` distinct certificates under one key (each gets a fresh serial),
/// padded by a restriction policy of `padding` bytes when it is not zero.
std::vector<Certificate> distinct_certificates(std::size_t count,
                                               std::size_t padding = 0) {
  static const auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  const auto dn = DistinguishedName::parse("/O=Grid/CN=table");
  std::vector<Certificate> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CertificateBuilder builder;
    builder.subject(dn).issuer(dn).public_key(key);
    if (padding > 0) {
      builder.restriction(RestrictionPolicy{{std::string(padding, 'r')}});
    }
    out.push_back(builder.sign(key));
  }
  return out;
}

TEST(CertificateTable, SameDerSharesOneParse) {
  const auto alice = make_identity("table-same");
  const std::string pem = alice.cert.to_pem();
  const auto before = Certificate::table_stats();
  const Certificate first = Certificate::from_pem(pem);
  const Certificate second = Certificate::from_pem(pem);
  const auto chain = Certificate::chain_from_pem(pem + pem);
  EXPECT_EQ(first.native(), second.native());
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].native(), first.native());
  EXPECT_EQ(chain[1].native(), first.native());
  EXPECT_EQ(first, alice.cert);
  const auto after = Certificate::table_stats();
  EXPECT_GE(after.hits - before.hits, 3u);
}

TEST(CertificateTable, DistinctDerYieldsDistinctObjects) {
  const auto certs = distinct_certificates(2);
  const auto chain = Certificate::chain_from_pem(
      Certificate::chain_to_pem(certs));
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_NE(chain[0].native(), chain[1].native());
  EXPECT_EQ(chain[0], certs[0]);
  EXPECT_EQ(chain[1], certs[1]);
  EXPECT_NE(chain[0].serial_hex(), chain[1].serial_hex());
}

TEST(CertificateTable, ParsingPastCapacityStaysCorrect) {
  const auto certs = distinct_certificates(kCertificateTableCapacity + 100);
  std::vector<std::string> pems;
  pems.reserve(certs.size());
  for (const auto& cert : certs) pems.push_back(cert.to_pem());

  const Certificate early = Certificate::from_pem(pems.front());
  for (std::size_t i = 0; i < pems.size(); ++i) {
    const Certificate parsed = Certificate::from_pem(pems[i]);
    ASSERT_EQ(parsed, certs[i]) << "certificate " << i;
    ASSERT_EQ(parsed.serial_hex(), certs[i].serial_hex());
    ASSERT_LE(Certificate::table_stats().size, kCertificateTableCapacity);
  }
  // A certificate parsed before the table was cleared stays usable, and
  // parsing its DER again still gives the same certificate.
  EXPECT_EQ(early, certs.front());
  EXPECT_EQ(early.serial_hex(), certs.front().serial_hex());
  EXPECT_EQ(Certificate::from_pem(pems.front()), certs.front());
}

TEST(CertificateTable, OutsizedCertificatesStayWithinTheByteBound) {
  constexpr std::size_t kPadding = 64 * 1024;
  const auto certs = distinct_certificates(
      kCertificateTableDerBytes / kPadding + 16, kPadding);
  for (const auto& cert : certs) {
    ASSERT_EQ(Certificate::from_pem(cert.to_pem()), cert);
  }
  // The byte bound was crossed, so the table was cleared and holds only
  // what fits in it since.
  EXPECT_LE(Certificate::table_stats().size,
            kCertificateTableDerBytes / kPadding);

  // A certificate larger than the whole bound is parsed, never kept.
  const Certificate huge =
      distinct_certificates(1, kCertificateTableDerBytes).front();
  const std::string pem = huge.to_pem();
  const Certificate first = Certificate::from_pem(pem);
  const Certificate second = Certificate::from_pem(pem);
  EXPECT_EQ(first, huge);
  EXPECT_EQ(second, huge);
  EXPECT_NE(first.native(), second.native());
}

TEST(CertificateConcurrency, SharedAndDistinctChainsParseCorrectly) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  const auto certs = distinct_certificates(kThreads + 2);
  // Every thread parses the shared two-certificate chain, and a chain whose
  // leaf only it uses.
  const std::vector<Certificate> shared(certs.end() - 2, certs.end());
  const std::string shared_pem = Certificate::chain_to_pem(shared);

  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<Certificate> own = {certs[t], shared[0]};
      const std::string own_pem = Certificate::chain_to_pem(own);
      for (int round = 0; round < kRounds; ++round) {
        const auto a = Certificate::chain_from_pem(shared_pem);
        const auto b = Certificate::chain_from_pem(own_pem);
        if (a != shared || b != own) ++failures[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

}  // namespace
}  // namespace myproxy::pki
