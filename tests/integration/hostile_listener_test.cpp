// Hostile clients against every TLS listener besides the MyProxy port (whose
// front end reactor_test.cpp and failure_injection_test.cpp cover): the
// §6.4 HTTP gateway, the Grid portal's HTTPS front, and the Grid resource
// service. The paper's §5 threat model assumes hostile clients on every
// port, so each listener must hold up to silent connections (slowloris),
// shed past its connection cap, and stop promptly while clients keep
// arriving.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "grid/resource_service.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"
#include "net/channel.hpp"
#include "net/socket.hpp"
#include "portal/grid_portal.hpp"
#include "portal/http.hpp"
#include "server/http_gateway.hpp"
#include "tls/service.hpp"

namespace myproxy {
namespace {

using gsi::testing::make_trust_store;
using gsi::testing::make_user;
using gsi::testing::test_ca;
using std::chrono::milliseconds;

/// Default worker count of all three listeners.
constexpr std::size_t kWorkers = 2;

gsi::Credential make_service(const std::string& dn_text) {
  const auto dn = pki::DistinguishedName::parse(dn_text);
  auto key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  auto cert = test_ca().issue(dn, key, Seconds(365L * 24 * 3600));
  return gsi::Credential(std::move(cert), std::move(key));
}

// --- One harness per listener: start it, and make one real request. ---------

struct GatewayHarness {
  static constexpr const char* kName = "HttpGateway";

  GatewayHarness() {
    repository::RepositoryPolicy policy;
    policy.kdf_iterations = 100;
    auto repo = std::make_shared<repository::Repository>(
        std::make_unique<repository::MemoryCredentialStore>(), policy);
    const auto alice = make_user("hostile-gw-alice");
    repo->store("alice", "correct horse battery", alice.identity().str(),
                gsi::create_proxy(alice), repository::StoreOptions{});
    server::HttpGatewayConfig config;
    config.authorized_retrievers.add("*");
    listener = std::make_unique<server::HttpGateway>(
        make_service("/C=US/O=Grid/OU=Services/CN=hostile-gw"),
        make_trust_store(), std::move(repo), config);
  }

  /// POST /info over mutual TLS; true on a 200.
  bool request() const {
    const tls::TlsContext ctx = tls::TlsContext::make(client);
    auto channel =
        tls::TlsChannel::connect(ctx, net::tcp_connect(listener->port()));
    portal::HttpRequest request;
    request.method = "POST";
    request.target = "/info";
    request.version = "HTTP/1.1";
    request.headers["content-type"] = "application/x-www-form-urlencoded";
    request.body = "username=alice";
    channel->send(request.serialize());
    return portal::parse_response(channel->receive()).status == 200;
  }

  gsi::Credential client = make_user("hostile-gw-client");
  std::unique_ptr<server::HttpGateway> listener;
};

struct PortalHarness {
  static constexpr const char* kName = "GridPortal";

  PortalHarness() {
    portal::PortalConfig config;
    // GET / never dials the repository; only its label is rendered.
    config.repositories = {{"default", 1}};
    listener = std::make_unique<portal::GridPortal>(
        make_service("/C=US/O=Grid/OU=Portals/CN=hostile-portal"),
        make_trust_store(), std::move(config));
  }

  /// GET / (the login page) from a browser; true on a 200.
  bool request() const {
    portal::Browser browser(listener->port());
    return browser.get("/").status == 200;
  }

  std::unique_ptr<portal::GridPortal> listener;
};

struct ResourceHarness {
  static constexpr const char* kName = "ResourceService";

  ResourceHarness() {
    gsi::Gridmap gridmap;
    gridmap.add("/C=US/O=Grid/OU=People/*", "griduser");
    listener = std::make_unique<grid::ResourceService>(
        make_service("/C=US/O=Grid/OU=Services/CN=hostile-resource"),
        make_trust_store(), std::move(gridmap));
  }

  /// whoami over GSI; true when the gridmap answer comes back.
  bool request() const {
    grid::ResourceClient resource(client, make_trust_store(),
                                  listener->port());
    return resource.whoami() == "griduser";
  }

  gsi::Credential client = gsi::create_proxy(make_user("hostile-res-client"));
  std::unique_ptr<grid::ResourceService> listener;
};

template <typename Harness>
class HostileListener : public ::testing::Test {
 protected:
  void SetUp() override { harness_.listener->start(); }
  void TearDown() override { harness_.listener->stop(); }

  [[nodiscard]] std::uint16_t port() const {
    return harness_.listener->port();
  }

  [[nodiscard]] const tls::ServiceStats& stats() const {
    return harness_.listener->connection_stats();
  }

  Harness harness_;
};

struct HarnessNames {
  template <typename T>
  static std::string GetName(int) {
    return T::kName;
  }
};

using Listeners =
    ::testing::Types<GatewayHarness, PortalHarness, ResourceHarness>;
TYPED_TEST_SUITE(HostileListener, Listeners, HarnessNames);

TYPED_TEST(HostileListener, SilentConnectionsDoNotPinWorkers) {
  // Twice as many silent TCP connections as there are workers: blocking
  // handshakes on the workers would pin every one of them indefinitely.
  std::vector<net::Socket> silent;
  for (std::size_t i = 0; i < 2 * kWorkers; ++i) {
    silent.push_back(net::tcp_connect(this->port()));
  }
  auto served = std::async(std::launch::async,
                           [this] { return this->harness_.request(); });
  const bool in_time =
      served.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  // Closing the silent connections frees any pinned worker, so a failing
  // run ends here instead of hanging.
  for (auto& socket : silent) socket.close();
  EXPECT_TRUE(in_time) << "a real request waited behind silent connections";
  EXPECT_TRUE(served.get());
}

TYPED_TEST(HostileListener, ConnectionsOverTheCapAreShed) {
  constexpr std::size_t kCap = tls::kDefaultMaxConnections;
  // Cap + 1 silent connections: the last of them is already over the cap.
  std::vector<net::Socket> silent;
  silent.reserve(kCap + 1);
  for (std::size_t i = 0; i < kCap + 1; ++i) {
    silent.push_back(net::tcp_connect(this->port()));
  }
  // Accepts are FIFO, so the next connection is over the cap too: it is
  // refused with a plaintext framed busy reply before any TLS.
  net::Socket extra = net::tcp_connect(this->port());
  extra.set_read_timeout(milliseconds(2000));
  net::PlainChannel channel(std::move(extra));
  const std::string reply = channel.receive();
  EXPECT_NE(reply.find("busy"), std::string::npos) << reply;
  EXPECT_GE(this->stats().shed_connections.load(), 2u);
  EXPECT_LE(this->stats().peak_in_flight.load(), kCap);
  for (auto& socket : silent) socket.close();
}

TYPED_TEST(HostileListener, StopWhileClientsConnectIsPrompt) {
  std::atomic<bool> running{true};
  const std::uint16_t port = this->port();
  std::thread client([&running, port] {
    while (running.load()) {
      try {
        net::Socket socket = net::tcp_connect(port, milliseconds(200));
        socket.close();
      } catch (const std::exception&) {
        // Refused once the listener is gone; keep trying until told.
      }
    }
  });
  std::this_thread::sleep_for(milliseconds(100));
  const auto started = std::chrono::steady_clock::now();
  this->harness_.listener->stop();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  running.store(false);
  client.join();
  EXPECT_LT(elapsed, milliseconds(1000));
}

}  // namespace
}  // namespace myproxy
