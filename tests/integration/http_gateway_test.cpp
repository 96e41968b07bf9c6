// §6.4 HTTP protocol binding: the full retrieval flow in one mutually-
// authenticated HTTPS round trip.
#include "server/http_gateway.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "portal/http.hpp"

namespace myproxy {
namespace {

using gsi::testing::make_trust_store;
using gsi::testing::make_user;
using gsi::testing::test_ca;

constexpr std::string_view kPhrase = "correct horse battery";

gsi::Credential make_service(const std::string& cn) {
  const auto dn =
      pki::DistinguishedName::parse("/C=US/O=Grid/OU=Services/CN=" + cn);
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
  return gsi::Credential(std::move(cert), std::move(key));
}

/// Minimal HTTP-over-mutual-TLS client for the gateway.
portal::HttpResponse post(const gsi::Credential& client_cred,
                          std::uint16_t port, const std::string& target,
                          const std::map<std::string, std::string>& fields) {
  const tls::TlsContext ctx = tls::TlsContext::make(client_cred);
  auto channel = tls::TlsChannel::connect(ctx, net::tcp_connect(port));
  portal::HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.version = "HTTP/1.1";
  request.headers["content-type"] = "application/x-www-form-urlencoded";
  std::string body;
  for (const auto& [key, value] : fields) {
    if (!body.empty()) body += '&';
    body += portal::url_encode(key) + "=" + portal::url_encode(value);
  }
  request.body = body;
  channel->send(request.serialize());
  return portal::parse_response(channel->receive());
}

class HttpGatewayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    repo_ = std::make_shared<repository::Repository>(
        std::make_unique<repository::MemoryCredentialStore>(), policy);
    server::HttpGatewayConfig config;
    config.authorized_retrievers.add("/C=US/O=Grid/OU=Portals/*");
    config.authorized_retrievers.add("/C=US/O=Grid/OU=People/*");
    gateway_ = std::make_unique<server::HttpGateway>(
        make_service("http-gw"), make_trust_store(), repo_, config);
    gateway_->start();

    alice_ = std::make_unique<gsi::Credential>(make_user("gw-alice"));
    gsi::ProxyOptions options;
    options.lifetime = Seconds(24 * 3600);
    const auto proxy = gsi::create_proxy(*alice_, options);
    repository::StoreOptions store_options;
    repo_->store("alice", kPhrase, alice_->identity().str(), proxy,
                 store_options);

    portal_ = std::make_unique<gsi::Credential>([this] {
      const auto dn = pki::DistinguishedName::parse(
          "/C=US/O=Grid/OU=Portals/CN=gw-portal");
      auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
      auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
      return gsi::Credential(std::move(cert), std::move(key));
    }());
  }

  void TearDown() override { gateway_->stop(); }

  std::shared_ptr<repository::Repository> repo_;
  std::unique_ptr<server::HttpGateway> gateway_;
  std::unique_ptr<gsi::Credential> alice_;
  std::unique_ptr<gsi::Credential> portal_;
};

TEST_F(HttpGatewayTest, GetInOneRoundTrip) {
  gsi::DelegationRequest delegation = gsi::begin_delegation();
  const auto response = post(*portal_, gateway_->port(), "/get",
                             {{"username", "alice"},
                              {"passphrase", std::string(kPhrase)},
                              {"lifetime", "3600"},
                              {"csr", delegation.csr_pem}});
  ASSERT_EQ(response.status, 200) << response.body;
  const gsi::Credential delegated =
      gsi::complete_delegation(std::move(delegation.key), response.body);
  EXPECT_EQ(delegated.identity(), alice_->identity());
  EXPECT_LE(delegated.remaining_lifetime(), Seconds(3600));
  EXPECT_NO_THROW((void)make_trust_store().verify(delegated.full_chain()));
}

TEST_F(HttpGatewayTest, ZeroLifetimeMeansServerDefault) {
  // As on the native port, lifetime=0 asks for the server's default
  // lifetime rather than a zero-length proxy.
  gsi::DelegationRequest delegation = gsi::begin_delegation();
  const auto response = post(*portal_, gateway_->port(), "/get",
                             {{"username", "alice"},
                              {"passphrase", std::string(kPhrase)},
                              {"lifetime", "0"},
                              {"csr", delegation.csr_pem}});
  ASSERT_EQ(response.status, 200) << response.body;
  const gsi::Credential delegated =
      gsi::complete_delegation(std::move(delegation.key), response.body);
  EXPECT_GT(delegated.remaining_lifetime(), Seconds(0));
  EXPECT_LE(delegated.remaining_lifetime(),
            repo_->policy().default_delegation_lifetime);
}

TEST_F(HttpGatewayTest, WrongPassphraseIs401) {
  gsi::DelegationRequest delegation = gsi::begin_delegation();
  const auto response = post(*portal_, gateway_->port(), "/get",
                             {{"username", "alice"},
                              {"passphrase", "wrong"},
                              {"csr", delegation.csr_pem}});
  EXPECT_EQ(response.status, 401);
}

TEST_F(HttpGatewayTest, UnknownUserIs404) {
  gsi::DelegationRequest delegation = gsi::begin_delegation();
  const auto response = post(*portal_, gateway_->port(), "/get",
                             {{"username", "ghost"},
                              {"passphrase", std::string(kPhrase)},
                              {"csr", delegation.csr_pem}});
  EXPECT_EQ(response.status, 404);
}

TEST_F(HttpGatewayTest, UnauthorizedRetrieverIs403) {
  const auto outsider = make_service("gw-outsider");
  gsi::DelegationRequest delegation = gsi::begin_delegation();
  const auto response = post(outsider, gateway_->port(), "/get",
                             {{"username", "alice"},
                              {"passphrase", std::string(kPhrase)},
                              {"csr", delegation.csr_pem}});
  EXPECT_EQ(response.status, 403);
}

TEST_F(HttpGatewayTest, MissingFieldsIs422) {
  const auto response = post(*portal_, gateway_->port(), "/get",
                             {{"username", "alice"}});
  EXPECT_EQ(response.status, 422);
}

TEST_F(HttpGatewayTest, InfoEndpoint) {
  const auto response =
      post(*portal_, gateway_->port(), "/info", {{"username", "alice"}});
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("owner: " + alice_->identity().str()),
            std::string::npos);
  EXPECT_NE(response.body.find("sealing: passphrase"), std::string::npos);
}

TEST_F(HttpGatewayTest, DestroyRequiresOwnership) {
  auto destroy_by_portal = post(*portal_, gateway_->port(), "/destroy",
                                {{"username", "alice"}});
  EXPECT_EQ(destroy_by_portal.status, 403);
  EXPECT_EQ(repo_->size(), 1u);

  const auto alice_proxy = gsi::create_proxy(*alice_);
  const auto destroy_by_owner = post(alice_proxy, gateway_->port(),
                                     "/destroy", {{"username", "alice"}});
  EXPECT_EQ(destroy_by_owner.status, 200);
  EXPECT_EQ(repo_->size(), 0u);
}

TEST_F(HttpGatewayTest, UnknownEndpointAndMethod) {
  EXPECT_EQ(post(*portal_, gateway_->port(), "/nope", {}).status, 404);
  // GET method refused.
  const tls::TlsContext ctx = tls::TlsContext::make(*portal_);
  auto channel =
      tls::TlsChannel::connect(ctx, net::tcp_connect(gateway_->port()));
  portal::HttpRequest request;
  request.method = "GET";
  request.target = "/get";
  request.version = "HTTP/1.1";
  channel->send(request.serialize());
  EXPECT_EQ(portal::parse_response(channel->receive()).status, 405);
}

}  // namespace
}  // namespace myproxy
