// The system under test, assembled in-process from the library's public
// constructors with compiled defaults: RepositoryPolicy{} (10,000 PBKDF2
// iterations), a FileCredentialStore behind the 8-shard read cache,
// reactor I/O and 4 workers. The replicated workload adds the journaled
// ReplicatedStore and one replica tailing it over REPLICA_SYNC.
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gsi/credential.hpp"
#include "pki/certificate_authority.hpp"
#include "pki/trust_store.hpp"
#include "replication/journal.hpp"
#include "repository/cached_store.hpp"
#include "repository/repository.hpp"
#include "server/myproxy_server.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// The virtual organization: one CA and every identity the run uses.
struct Vo {
  explicit Vo(const WorkloadSpec& spec);

  myproxy::pki::CertificateAuthority ca;
  myproxy::pki::TrustStore trust;
  myproxy::gsi::Credential host;
  myproxy::gsi::Credential replica_host;
  std::vector<myproxy::gsi::Credential> portals;
  /// Writers authenticate with (and delegate from) a proxy of their end
  /// entity credential, as grid-proxy-init + myproxy-init do.
  std::vector<myproxy::gsi::Credential> writer_proxies;
  std::vector<std::string> writer_dns;

  [[nodiscard]] myproxy::gsi::Credential enroll(const std::string& ou,
                                                const std::string& cn);
};

/// Store-chain observers; null where the chain has no such layer.
struct StoreProbes {
  const myproxy::repository::CachedCredentialStore* cache = nullptr;
  const TimedStore* top = nullptr;      ///< above the cache
  const TimedStore* backing = nullptr;  ///< below the cache
  const TimedStore* inner = nullptr;    ///< below ReplicatedStore
};

class Stack {
 public:
  /// Build, preload and start everything under `dir`. `traced` inserts
  /// the timing decorators into the primary's store chain.
  Stack(const WorkloadSpec& spec, const Vo& vo, const UserNaming& naming,
        std::filesystem::path dir, bool traced);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] myproxy::server::MyProxyServer& server() { return *server_; }
  [[nodiscard]] myproxy::repository::Repository& repository() {
    return *repository_;
  }
  /// Null unless the workload is replicated.
  [[nodiscard]] myproxy::repository::Repository* replica_repository() {
    return replica_repository_.get();
  }
  [[nodiscard]] const myproxy::server::MyProxyServer* replica() const {
    return replica_.get();
  }
  [[nodiscard]] const myproxy::replication::ReplicationJournal* journal()
      const {
    return journal_.get();
  }
  [[nodiscard]] const StoreProbes& probes() const { return probes_; }

  /// Block until the replica has applied everything journaled so far.
  [[nodiscard]] bool wait_for_replica(std::chrono::milliseconds timeout) const;

 private:
  void preload(const WorkloadSpec& spec, const Vo& vo,
               const UserNaming& naming);

  std::filesystem::path dir_;
  std::shared_ptr<myproxy::replication::ReplicationJournal> journal_;
  StoreProbes probes_;
  std::shared_ptr<myproxy::repository::Repository> repository_;
  std::unique_ptr<myproxy::server::MyProxyServer> server_;
  std::shared_ptr<myproxy::repository::Repository> replica_repository_;
  std::unique_ptr<myproxy::server::MyProxyServer> replica_;
};

/// StoreOptions a writer attaches when storing user `u` (renewable
/// targets carry the owner as their renewer).
[[nodiscard]] std::vector<std::string> renewer_patterns(
    const WorkloadSpec& spec, const Vo& vo, std::uint32_t u);

}  // namespace perfbench
