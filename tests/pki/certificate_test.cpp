#include "pki/certificate.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "pki/certificate_builder.hpp"
#include "pki/pki_fixtures.hpp"

namespace myproxy::pki {
namespace {

using testing::make_identity;
using testing::make_proxy_cert;
using testing::test_ca;

TEST(Certificate, PemRoundTrip) {
  const auto alice = make_identity("pem-alice");
  const std::string pem = alice.cert.to_pem();
  EXPECT_NE(pem.find("BEGIN CERTIFICATE"), std::string::npos);
  const Certificate back = Certificate::from_pem(pem);
  EXPECT_EQ(back, alice.cert);
  EXPECT_EQ(back.fingerprint(), alice.cert.fingerprint());
}

TEST(Certificate, FromPemRejectsGarbage) {
  EXPECT_THROW(Certificate::from_pem("garbage"), ParseError);
  EXPECT_THROW(Certificate::chain_from_pem(""), ParseError);
}

TEST(Certificate, ChainPemRoundTrip) {
  const auto a = make_identity("chain-a");
  const auto b = make_identity("chain-b");
  const std::string pem = Certificate::chain_to_pem({a.cert, b.cert});
  const auto chain = Certificate::chain_from_pem(pem);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0], a.cert);
  EXPECT_EQ(chain[1], b.cert);
}

TEST(Certificate, ChainWithDamagedMiddleCertificateIsAnError) {
  const auto a = make_identity("damaged-a");
  const auto c = make_identity("damaged-c");
  // Valid PEM framing and base64, but the DER is not a certificate.
  const std::string damaged =
      "-----BEGIN CERTIFICATE-----\nMAMCAQE=\n-----END CERTIFICATE-----\n";
  const std::string pem = a.cert.to_pem() + damaged + c.cert.to_pem();
  EXPECT_THROW((void)Certificate::chain_from_pem(pem), ParseError);
  EXPECT_THROW((void)Certificate::from_pem(damaged + a.cert.to_pem()),
               ParseError);
}

TEST(Certificate, NonCertificateBlocksAreSkipped) {
  const auto a = make_identity("skip-a");
  const auto b = make_identity("skip-b");
  const std::string key_pem(a.key.private_pem().view());
  const auto chain = Certificate::chain_from_pem(
      key_pem + a.cert.to_pem() + key_pem + b.cert.to_pem());
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0], a.cert);
  EXPECT_EQ(chain[1], b.cert);
  EXPECT_EQ(Certificate::from_pem(key_pem + b.cert.to_pem()), b.cert);
  EXPECT_THROW((void)Certificate::chain_from_pem(key_pem), ParseError);
}

TEST(Certificate, SubjectIssuerAndSerial) {
  const auto alice = make_identity("subj-alice");
  EXPECT_EQ(alice.cert.subject(), alice.dn);
  EXPECT_EQ(alice.cert.issuer(), testing::ca_dn());
  EXPECT_FALSE(alice.cert.serial_hex().empty());
  // Serials must be unique across issues.
  const auto bob = make_identity("subj-bob");
  EXPECT_NE(alice.cert.serial_hex(), bob.cert.serial_hex());
}

TEST(Certificate, ValidityWindowAndRemainingLifetime) {
  const auto alice = make_identity("life-alice", Seconds(7200));
  EXPECT_FALSE(alice.cert.expired());
  EXPECT_GT(alice.cert.remaining_lifetime(), Seconds(7000));
  EXPECT_LE(alice.cert.remaining_lifetime(), Seconds(7200));
  // notBefore is backdated by the skew allowance.
  EXPECT_LT(alice.cert.not_before(), now());
}

TEST(Certificate, ExpiryFollowsVirtualClock) {
  const auto alice = make_identity("expire-alice", Seconds(3600));
  const ScopedClockAdvance warp(Seconds(4000));
  EXPECT_TRUE(alice.cert.expired());
}

TEST(Certificate, SignedByDetectsIssuer) {
  const auto alice = make_identity("signed-alice");
  EXPECT_TRUE(alice.cert.signed_by(test_ca().certificate()));
  const auto other_ca = CertificateAuthority::create(
      DistinguishedName::parse("/O=Other/CN=Other CA"), crypto::KeySpec::ec());
  EXPECT_FALSE(alice.cert.signed_by(other_ca.certificate()));
}

TEST(Certificate, PublicKeyMatchesSubjectKey) {
  const auto alice = make_identity("pubkey-alice");
  EXPECT_TRUE(alice.cert.public_key().same_public_key(alice.key));
  EXPECT_FALSE(alice.cert.public_key().has_private());
}

TEST(Certificate, CaFlag) {
  EXPECT_TRUE(test_ca().certificate().is_ca());
  EXPECT_FALSE(make_identity("caflag-alice").cert.is_ca());
}

TEST(Certificate, ProxyTypeClassification) {
  const auto alice = make_identity("ptype-alice");
  const auto proxy_key = crypto::KeyPair::generate(crypto::KeySpec::ec());

  EXPECT_EQ(alice.cert.proxy_type(), ProxyType::kEndEntity);
  EXPECT_FALSE(alice.cert.is_proxy());

  const auto full = make_proxy_cert(alice, proxy_key, kProxyCn);
  EXPECT_EQ(full.proxy_type(), ProxyType::kFull);
  EXPECT_TRUE(full.is_proxy());

  const auto limited = make_proxy_cert(alice, proxy_key, kLimitedProxyCn);
  EXPECT_EQ(limited.proxy_type(), ProxyType::kLimited);

  // A cert whose final CN is not the proxy marker is an end entity.
  const auto odd = make_proxy_cert(alice, proxy_key, "server");
  EXPECT_EQ(odd.proxy_type(), ProxyType::kEndEntity);
}

TEST(Certificate, RestrictionPolicyExtension) {
  const auto alice = make_identity("policy-alice");
  const auto proxy_key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  const auto policy = RestrictionPolicy::parse("rights=file-read,job-submit");

  const auto restricted =
      make_proxy_cert(alice, proxy_key, kProxyCn, Seconds(3600), policy);
  const auto text = restricted.restriction_policy();
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(RestrictionPolicy::parse(*text), policy);

  const auto plain = make_proxy_cert(alice, proxy_key);
  EXPECT_FALSE(plain.restriction_policy().has_value());
}

TEST(Certificate, ToStringOfProxyTypes) {
  EXPECT_EQ(to_string(ProxyType::kEndEntity), "end-entity");
  EXPECT_EQ(to_string(ProxyType::kFull), "proxy");
  EXPECT_EQ(to_string(ProxyType::kLimited), "limited proxy");
}

TEST(CertificateBuilder, RequiresMandatoryFields) {
  const auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  CertificateBuilder builder;
  EXPECT_THROW((void)builder.sign(key), Error);  // missing subject/issuer
  builder.subject(DistinguishedName::parse("/CN=x"));
  builder.issuer(DistinguishedName::parse("/CN=y"));
  EXPECT_THROW((void)builder.sign(key), Error);  // missing public key
}

TEST(CertificateBuilder, RejectsBadLifetimes) {
  CertificateBuilder builder;
  EXPECT_THROW(builder.lifetime(Seconds(0)), PolicyError);
  EXPECT_THROW(builder.lifetime(Seconds(-5)), PolicyError);
  const TimePoint t = now();
  EXPECT_THROW(builder.validity(t, t), PolicyError);
}

TEST(CertificateBuilder, ExplicitSerialHonored) {
  const auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  const auto cert = CertificateBuilder()
                        .subject(DistinguishedName::parse("/CN=serial"))
                        .issuer(DistinguishedName::parse("/CN=serial"))
                        .public_key(key)
                        .serial_hex("deadbeef")
                        .sign(key);
  EXPECT_EQ(cert.serial_hex(), "deadbeef");
}

}  // namespace
}  // namespace myproxy::pki
