// Per-command policy of the MyProxy port, end to end: which commands a
// replica redirects to its primary, which server-wide ACL each command
// requires, and which commands bypass admission control. Every request is
// sent raw so the test sees the server's first reply frame exactly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>

#include "client/myproxy_client.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "replication/replicated_store.hpp"
#include "server/myproxy_server.hpp"

namespace myproxy {
namespace {

using gsi::testing::make_trust_store;
using gsi::testing::make_user;
using gsi::testing::test_ca;
using protocol::AuthMode;
using protocol::Command;
using protocol::Request;
using protocol::Response;
using server::MyProxyServer;
using server::ServerConfig;

constexpr std::string_view kPhrase = "correct horse battery";
constexpr std::string_view kReplicaDn =
    "/C=US/O=Grid/OU=Services/CN=policy-replica.grid.test";

gsi::Credential make_service(const std::string& dn_text) {
  const auto dn = pki::DistinguishedName::parse(dn_text);
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
  return gsi::Credential(std::move(cert), std::move(key));
}

ServerConfig base_config() {
  ServerConfig config;
  config.accepted_credentials.add("/C=US/O=Grid/OU=People/*");
  config.authorized_retrievers.add("/C=US/O=Grid/OU=People/*");
  config.authorized_retrievers.add("/C=US/O=Grid/OU=Portals/*");
  config.worker_threads = 2;
  config.keygen_pool_size = 0;
  return config;
}

Request make_request(Command command, std::string username = {}) {
  Request request;
  request.command = command;
  request.username = std::move(username);
  request.passphrase = std::string(kPhrase);
  return request;
}

/// Send `request` as `credential` and return the server's first reply.
Response first_reply(const gsi::Credential& credential, std::uint16_t port,
                     const Request& request) {
  const tls::TlsContext ctx = tls::TlsContext::make(credential);
  auto channel = tls::TlsChannel::connect(ctx, net::tcp_connect(port));
  channel->send(request.serialize());
  return Response::parse(channel->receive());
}

class CommandPolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("myproxy-command-policy-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    journal_ = std::make_shared<replication::ReplicationJournal>(
        dir_ / "journal.log");
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    auto repo = std::make_shared<repository::Repository>(
        std::make_unique<replication::ReplicatedStore>(
            std::make_unique<repository::MemoryCredentialStore>(), journal_,
            dir_ / "journal.watermark"),
        policy);
    ServerConfig config = base_config();
    config.replication_role = replication::ReplicationRole::kPrimary;
    config.journal = journal_;
    config.replica_acl.add(std::string(kReplicaDn));
    config.cluster_admin_acl.add("/C=US/O=Grid/OU=Admins/*");
    primary_ = std::make_unique<MyProxyServer>(
        make_service("/C=US/O=Grid/OU=Services/CN=policy-primary.grid.test"),
        make_trust_store(), repo, std::move(config));
    primary_->start();
    // A one-node cluster that owns every shard: CLUSTER_MAP is answered
    // and nothing is refused for ownership.
    map_ = cluster::ClusterMap::balanced({{primary_->port(), {}}}, 8, 1);
    primary_->set_cluster(map_, primary_->port());

    alice_ = std::make_unique<gsi::Credential>(make_user("policy-alice"));
    const auto proxy = gsi::create_proxy(*alice_);
    client::MyProxyClient client(proxy, make_trust_store(), primary_->port());
    client::PutOptions options;
    options.stored_lifetime = Seconds(24 * 3600);
    client.put("alice", kPhrase, proxy, options);
  }

  void TearDown() override {
    if (replica_) replica_->stop();
    primary_->stop();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void start_replica() {
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    auto repo = std::make_shared<repository::Repository>(
        std::make_unique<repository::MemoryCredentialStore>(), policy);
    ServerConfig config = base_config();
    config.replication_role = replication::ReplicationRole::kReplica;
    config.replication_primary_port = primary_->port();
    config.replication_state_file = dir_ / "replica.state";
    replica_ = std::make_unique<MyProxyServer>(
        make_service(std::string(kReplicaDn)), make_trust_store(), repo,
        std::move(config));
    replica_->start();
    replica_->set_cluster(map_, primary_->port());
    ASSERT_TRUE(replica_->replica_session()->wait_for_sequence(
        journal_->last_sequence(), Millis(10000)));
  }

  std::filesystem::path dir_;
  std::shared_ptr<replication::ReplicationJournal> journal_;
  cluster::ClusterMap map_;
  std::unique_ptr<MyProxyServer> primary_;
  std::unique_ptr<MyProxyServer> replica_;
  std::unique_ptr<gsi::Credential> alice_;
};

TEST_F(CommandPolicyTest, ReplicaRedirectsWritesAndAnswersReads) {
  start_replica();
  const auto proxy = gsi::create_proxy(*alice_);
  const auto primary_port = std::to_string(primary_->port());

  Request renew = make_request(Command::kRenew, "alice");
  Request otp_get = make_request(Command::kGet, "alice");
  otp_get.auth_mode = AuthMode::kOtp;
  Request otp_retrieve = make_request(Command::kRetrieve, "alice");
  otp_retrieve.auth_mode = AuthMode::kOtp;
  for (const Request& request : {renew, otp_get, otp_retrieve}) {
    const Response reply = first_reply(proxy, replica_->port(), request);
    EXPECT_FALSE(reply.ok()) << to_string(request.command);
    ASSERT_TRUE(reply.fields.contains("PRIMARY"))
        << to_string(request.command) << ": " << reply.error;
    EXPECT_EQ(reply.fields.at("PRIMARY"), primary_port);
  }
  EXPECT_EQ(replica_->stats().repl_redirects.load(), 3u);

  for (const Command command :
       {Command::kInfo, Command::kList, Command::kStats,
        Command::kClusterMap}) {
    const Response reply =
        first_reply(proxy, replica_->port(), make_request(command, "alice"));
    EXPECT_TRUE(reply.ok()) << to_string(command) << ": " << reply.error;
    EXPECT_FALSE(reply.fields.contains("PRIMARY")) << to_string(command);
  }
  EXPECT_EQ(replica_->stats().repl_redirects.load(), 3u);
}

TEST_F(CommandPolicyTest, IdentityOnNoAclIsRefused) {
  // Trusted (issued by the test CA) but on none of the server's ACLs.
  const auto stranger =
      make_service("/C=US/O=Grid/OU=Services/CN=policy-stranger");
  Request migrate = make_request(Command::kMigrate);
  migrate.target = "1";
  Request install = make_request(Command::kMigrateInstall);
  install.sequence = 99;
  const std::vector<Request> requests = {
      make_request(Command::kStats),
      make_request(Command::kClusterMap),
      make_request(Command::kReplicaSync),
      migrate,
      install,
      make_request(Command::kPut, "stranger"),
      make_request(Command::kStore, "stranger"),
  };
  for (const Request& request : requests) {
    const Response reply = first_reply(stranger, primary_->port(), request);
    EXPECT_FALSE(reply.ok()) << to_string(request.command);
    EXPECT_EQ(reply.error, "not authorized") << to_string(request.command);
  }
  EXPECT_EQ(primary_->stats().authz_failures.load(), requests.size());
  EXPECT_EQ(primary_->repository().size(), 1u);
}

TEST_F(CommandPolicyTest, NonRetrieverCannotProbeUsernames) {
  // The retriever ACL is checked before the store is read, so an identity
  // outside it learns nothing about which usernames hold credentials.
  const auto stranger =
      make_service("/C=US/O=Grid/OU=Services/CN=policy-prober");
  for (const Command command : {Command::kGet, Command::kRetrieve}) {
    const Response stored =
        first_reply(stranger, primary_->port(), make_request(command, "alice"));
    const Response unknown =
        first_reply(stranger, primary_->port(), make_request(command, "ghost"));
    EXPECT_EQ(stored.error, "not authorized") << to_string(command);
    EXPECT_EQ(unknown.error, "not authorized") << to_string(command);
  }
}

TEST_F(CommandPolicyTest, ControlPlaneAnsweredWithEmptyAdmissionBucket) {
  server::AdmissionLimits limits;
  limits.rate_limit_rps = 0.001;  // no refill within the test
  limits.rate_limit_burst = 1;
  primary_->reload_limits(limits);
  const auto portal = make_service("/C=US/O=Grid/OU=Portals/CN=policy-portal");

  // The one token goes to the first INFO; the second is shed.
  EXPECT_TRUE(first_reply(portal, primary_->port(),
                          make_request(Command::kInfo, "alice"))
                  .ok());
  const Response shed = first_reply(portal, primary_->port(),
                                    make_request(Command::kInfo, "alice"));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.fields.contains("BUSY"));

  for (const Command command : {Command::kStats, Command::kClusterMap}) {
    const Response reply =
        first_reply(portal, primary_->port(), make_request(command));
    EXPECT_TRUE(reply.ok()) << to_string(command) << ": " << reply.error;
  }
}

}  // namespace
}  // namespace myproxy
