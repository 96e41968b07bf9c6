#include "stack.hpp"

#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>

#include "gsi/proxy.hpp"
#include "replication/replicated_store.hpp"

namespace perfbench {

namespace mp = myproxy;
using namespace std::chrono_literals;

namespace {

constexpr std::string_view kDnPrefix = "/C=US/O=Grid/OU=";

// Store and journal commits skip fsync (SyncMode::kNone, the compiled
// default of FileStoreOptions and ReplicationJournal) although
// myproxy-server defaults to fsync: on shared virtual disks an fsync takes
// from under half a millisecond to several, depending on other tenants'
// I/O, and the benchmark must measure this code, not the neighbours. The
// write, rename, index, journal and replica-apply paths all still run.
constexpr auto kSyncMode = myproxy::repository::SyncMode::kNone;

void wait_until(const char* what, std::chrono::milliseconds timeout,
                const std::function<bool()>& done) {
  const auto deadline = Clock::now() + timeout;
  while (!done()) {
    if (Clock::now() > deadline) {
      throw std::runtime_error(std::string("timed out waiting for ") + what);
    }
    std::this_thread::sleep_for(1ms);
  }
}

mp::server::ServerConfig base_config() {
  mp::server::ServerConfig config;
  config.accepted_credentials.add(std::string(kDnPrefix) + "People/*");
  config.authorized_retrievers.add(std::string(kDnPrefix) + "Portals/*");
  return config;
}

std::unique_ptr<mp::repository::CredentialStore> file_store(
    const std::filesystem::path& dir) {
  mp::repository::FileStoreOptions options;
  options.sync_mode = kSyncMode;
  return std::make_unique<mp::repository::FileCredentialStore>(dir, options);
}

}  // namespace

Vo::Vo(const WorkloadSpec& spec)
    : ca(mp::pki::CertificateAuthority::create(
          mp::pki::DistinguishedName::parse("/C=US/O=Grid/CN=Bench VO CA"),
          mp::crypto::KeySpec::ec())),
      host(enroll("Services", "myproxy.bench.test")),
      replica_host(enroll("Services", "myproxy-replica.bench.test")) {
  trust.add_root(ca.certificate());
  for (std::size_t i = 0; i < spec.portals; ++i) {
    portals.push_back(enroll("Portals", "portal-" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < spec.writers; ++i) {
    const mp::gsi::Credential eec = enroll("People", "user-" + std::to_string(i));
    writer_dns.push_back(eec.identity().str());
    writer_proxies.push_back(mp::gsi::create_proxy(eec));
  }
}

mp::gsi::Credential Vo::enroll(const std::string& ou,
                               const std::string& cn) {
  const auto dn = mp::pki::DistinguishedName::parse(std::string(kDnPrefix) +
                                                    ou + "/CN=" + cn);
  auto key = mp::crypto::KeyPair::generate(mp::crypto::KeySpec::ec());
  auto cert = ca.issue(dn, key, mp::Seconds(365L * 24 * 3600));
  return mp::gsi::Credential(std::move(cert), std::move(key));
}

std::vector<std::string> renewer_patterns(const WorkloadSpec& spec,
                                          const Vo& vo, std::uint32_t u) {
  if (spec.mix[static_cast<int>(OpType::kRenew)] == 0 || !renewable(u)) {
    return {};
  }
  return {vo.writer_dns[owner_of(spec, u)]};
}

Stack::Stack(const WorkloadSpec& spec, const Vo& vo, const UserNaming& naming,
             std::filesystem::path dir, bool traced)
    : dir_(std::move(dir)) {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);

  // Innermost first, mirroring myproxy-server: file store, journal, cache.
  std::unique_ptr<mp::repository::CredentialStore> store =
      file_store(dir_ / "store");
  auto wrap = [&](const TimedStore** probe) {
    if (!traced) return;
    auto timed = std::make_unique<TimedStore>(std::move(store));
    *probe = timed.get();
    store = std::move(timed);
  };
  if (spec.replicated) {
    wrap(&probes_.inner);
    journal_ = std::make_shared<mp::replication::ReplicationJournal>(
        dir_ / "journal.log", kSyncMode);
    store = std::make_unique<mp::replication::ReplicatedStore>(
        std::move(store), journal_, dir_ / "journal.log.watermark");
  }
  wrap(&probes_.backing);
  auto cache =
      std::make_unique<mp::repository::CachedCredentialStore>(std::move(store));
  probes_.cache = cache.get();
  store = std::move(cache);
  wrap(&probes_.top);
  repository_ = std::make_shared<mp::repository::Repository>(
      std::move(store), mp::repository::RepositoryPolicy{});

  preload(spec, vo, naming);

  mp::server::ServerConfig config = base_config();
  if (spec.replicated) {
    config.replication_role = mp::replication::ReplicationRole::kPrimary;
    config.journal = journal_;
    config.replica_acl.add(vo.replica_host.identity().str());
  }
  if (spec.admission_limits) {
    // etc/myproxy-server.config sample limits.
    config.admission.rate_limit_rps = 50;
    config.admission.rate_limit_burst = 10;
    config.admission.max_queued_per_identity = 32;
    config.admission.preauth_rate_limit_rps = 100;
    config.admission.preauth_rate_limit_burst = 200;
  }
  server_ = std::make_unique<mp::server::MyProxyServer>(
      vo.host, vo.trust, repository_, std::move(config));
  server_->start();

  if (spec.replicated) {
    replica_repository_ = std::make_shared<mp::repository::Repository>(
        std::make_unique<mp::repository::CachedCredentialStore>(
            file_store(dir_ / "replica")),
        mp::repository::RepositoryPolicy{});
    mp::server::ServerConfig replica_config = base_config();
    replica_config.replication_role = mp::replication::ReplicationRole::kReplica;
    replica_config.replication_primary_port = server_->port();
    replica_config.replication_state_file = dir_ / "replica.state";
    replica_ = std::make_unique<mp::server::MyProxyServer>(
        vo.replica_host, vo.trust, replica_repository_,
        std::move(replica_config));
    replica_->start();
    wait_until("the replica to bootstrap", 10s, [this] {
      const auto* session = replica_->replica_session();
      return session != nullptr && session->stats().connected.load() &&
             session->stats().snapshots_installed.load() > 0;
    });
    if (!wait_for_replica(10s)) {
      throw std::runtime_error("the replica did not catch up with the preload");
    }
  }
  const auto* pool = server_->key_pool();
  if (pool != nullptr) {
    wait_until("the delegation key pool", 10s,
               [pool] { return pool->available() >= pool->target_size(); });
  }
}

Stack::~Stack() {
  if (replica_ != nullptr) replica_->stop();
  if (server_ != nullptr) server_->stop();
  replica_.reset();
  server_.reset();
  replica_repository_.reset();
  repository_.reset();
  journal_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

void Stack::preload(const WorkloadSpec& spec, const Vo& vo,
                    const UserNaming& naming) {
  // Bulk load through the repository itself (KDF seal + store put).
  constexpr std::size_t threads = 4 * kGeneratorThreads;
  std::vector<std::thread> loaders;
  std::vector<std::exception_ptr> errors(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    loaders.emplace_back([&, t] {
      try {
        for (std::size_t k = t; k < spec.preloaded; k += threads) {
          const std::uint32_t user = preloaded_user(spec, k);
          const std::uint32_t owner = owner_of(spec, user);
          mp::repository::StoreOptions options;
          options.renewer_patterns = renewer_patterns(spec, vo, user);
          repository_->store(naming.username(user), naming.pass_phrase(user),
                             vo.writer_dns[owner], vo.writer_proxies[owner],
                             options);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& loader : loaders) loader.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

bool Stack::wait_for_replica(std::chrono::milliseconds timeout) const {
  if (replica_ == nullptr) return true;
  const auto* session = replica_->replica_session();
  return session != nullptr &&
         session->wait_for_sequence(journal_->last_sequence(), timeout);
}

}  // namespace perfbench
