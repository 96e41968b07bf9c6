// The MyProxy repository server (paper §4).
//
// Every connection is mutually authenticated over TLS with Grid credentials
// (§5.1); the peer's verified identity is then checked against two
// server-wide ACLs — `accepted_credentials` (who may store) and
// `authorized_retrievers` (who may retrieve) — plus any per-credential
// restrictions, before the protocol command is dispatched to the
// Repository. An `authorized_renewers` ACL gates the §6.6 renewal path.
// Which server-wide ACL each command needs, whether it writes, and whether
// it is control plane is declared once, in the command table.
//
// Threading: connections are accepted, handshaken and read on the event
// loops of a tls::Service and serviced on its bounded ThreadPool (the
// repository is a shared production service, §3.3).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "crypto/keypair_pool.hpp"
#include "gsi/acl.hpp"
#include "server/admission.hpp"
#include "server/audit_log.hpp"
#include "server/metrics.hpp"
#include "gsi/credential.hpp"
#include "net/channel.hpp"
#include "pki/trust_store.hpp"
#include "protocol/message.hpp"
#include "replication/journal.hpp"
#include "replication/replica_session.hpp"
#include "replication/wire.hpp"
#include "repository/repository.hpp"
#include "tls/service.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy::server {

struct ServerConfig {
  /// TCP port; 0 picks an ephemeral port (tests). The original service ran
  /// on 7512.
  std::uint16_t port = 0;

  /// Who may delegate credentials *to* the repository (typically users).
  gsi::AccessControlList accepted_credentials;

  /// Who may request delegations *from* it (typically portals). "The latter
  /// is particularly important" (§5.1).
  gsi::AccessControlList authorized_retrievers;

  /// Who may refresh renewable credentials without a pass phrase (§6.6).
  gsi::AccessControlList authorized_renewers;

  std::size_t worker_threads = 4;

  /// Event loops that accept, handshake and read requests (loop 0 owns the
  /// listener; accepted connections are distributed round-robin).
  std::size_t reactor_threads = 2;

  pki::VerifyOptions verify_options;

  /// Period of the background sweep that deletes expired records (the
  /// operational half of the bounded-lifetime defence). Zero disables it;
  /// tests drive Repository::sweep_expired() directly.
  Seconds sweep_interval{60};

  /// Deadline for the TLS handshake on a freshly accepted connection: an
  /// event-loop timer closes a client that completes TCP connect but never
  /// finishes TLS (slowloris). Zero disables the deadline.
  Millis handshake_timeout = tls::kDefaultHandshakeTimeout;

  /// Deadline for reading the request (an event-loop timer), then the
  /// per-read/per-write deadline while a worker services it. A client that
  /// stalls mid-message frees its worker after this long. Zero disables.
  Millis request_timeout = tls::kDefaultRequestTimeout;

  /// Maximum connections in flight (parked on a loop, queued, or being
  /// serviced). Further accepts are shed with a best-effort "server busy"
  /// response before TLS. Zero means unlimited.
  std::size_t max_connections = tls::kDefaultMaxConnections;

  /// Bound on the worker-pool queue; overflow is shed like max_connections.
  std::size_t max_pending_connections = tls::kDefaultMaxPending;

  /// Key type for the server-side delegation key freshly generated on every
  /// PUT (the receiver half of Figure 1). Also the spec the key pool keeps
  /// pre-generated.
  crypto::KeySpec delegation_key_spec = crypto::KeySpec::ec();

  /// Pre-generated delegation keys kept ready (0 disables the pool and
  /// every PUT pays a synchronous keygen).
  std::size_t keygen_pool_size = 32;

  /// Background threads refilling the key pool.
  std::size_t keygen_pool_refill_threads = 1;

  /// TLS session resumption: repeat clients (the portal workload, §3.2)
  /// skip the full handshake using a session ticket that carries the
  /// identity this server verified at full-handshake time.
  bool tls_session_resumption = true;

  /// Ticket lifetime; the sealed identity additionally expires with the
  /// client credential that authenticated the original connection.
  Seconds tls_session_timeout{3600};

  // --- Replication (primary–replica failover) -------------------------------

  /// This server's role. A primary journals writes and serves REPLICA_SYNC
  /// streams; a replica tails a primary, serves reads, and redirects writes.
  replication::ReplicationRole replication_role =
      replication::ReplicationRole::kStandalone;

  /// Primary only: the journal the repository's store writes ahead to. The
  /// caller wires the same journal into a ReplicatedStore wrapped around
  /// the repository's store (see myproxy_server_main / the tests).
  std::shared_ptr<replication::ReplicationJournal> journal;

  /// Primary only: DNs allowed to open REPLICA_SYNC streams. Deliberately
  /// separate from the retriever/renewer ACLs — a replica sees every
  /// record, so membership is the strongest grant the server can make.
  gsi::AccessControlList replica_acl;

  /// Primary only: max journal entries shipped per replication batch.
  std::size_t replication_batch = 64;

  /// Replica only: port of the primary (single-host deployment).
  std::uint16_t replication_primary_port = 0;

  /// Replica only: where the last-applied journal sequence is persisted.
  std::filesystem::path replication_state_file;

  // --- Cluster (sharded multi-primary) ---------------------------------------

  /// Shard map this node starts with (empty = clustering off). Tests and
  /// ephemeral-port setups install one after start() via set_cluster().
  cluster::ClusterMap cluster_map;

  /// Which cluster node this server belongs to: the node's *primary* port.
  /// On a primary that is its own port; on a replica it is the port of the
  /// primary it tails. Required (non-zero) whenever cluster_map is set.
  std::uint16_t cluster_self = 0;

  /// DNs allowed to trigger MIGRATE and to push MIGRATE_INSTALL streams.
  /// Like replica_acl this is the strongest grant the server makes (a
  /// migration peer reads and writes whole user ranges), so it never rides
  /// the retriever/renewer ACLs.
  gsi::AccessControlList cluster_admin_acl;

  /// Append-only JSONL audit sink; empty disables the file (the in-memory
  /// ring always works).
  std::filesystem::path audit_log_file;

  // --- Admission control & metrics -------------------------------------------

  /// Per-identity admission limits (token buckets + fair queue). A zero
  /// queue_capacity is derived as worker_threads + max_pending_connections
  /// at start(). Hot-reloadable via SIGHUP when config_file is set.
  AdmissionLimits admission;

  /// Plaintext-HTTP /metrics endpoint (Prometheus text format).
  bool metrics_enabled = false;
  std::uint16_t metrics_port = 0;  ///< 0 = ephemeral (tests)
  std::string metrics_bind_address = "127.0.0.1";
  bool metrics_bind_any = false;  ///< allow a non-loopback bind_address

  /// When set, SIGHUP re-reads this file and applies the admission limits
  /// to the running server without dropping TLS sessions.
  std::filesystem::path config_file;
};

/// Operation counters for tests, benchmarks, and the audit story. The
/// connection-level counters (connections, protocol_errors, timeouts,
/// shed_connections, peak_in_flight) come from tls::ServiceStats and are
/// bumped by the front end and the request handlers alike.
struct ServerStats : tls::ServiceStats {
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> renewals{0};
  std::atomic<std::uint64_t> auth_failures{0};
  std::atomic<std::uint64_t> authz_failures{0};

  // Hot-path instrumentation (keypair pool, TLS resumption).
  std::atomic<std::uint64_t> full_handshakes{0};     ///< fresh TLS handshakes
  std::atomic<std::uint64_t> resumed_handshakes{0};  ///< ticket resumptions
  std::atomic<std::uint64_t> keypool_hits{0};    ///< delegation keys from pool
  std::atomic<std::uint64_t> keypool_misses{0};  ///< synchronous fallbacks

  // Store instrumentation (sharded store + background sweep).
  std::atomic<std::uint64_t> sweeps{0};          ///< background sweep runs
  std::atomic<std::uint64_t> records_swept{0};   ///< expired records deleted
  std::atomic<std::uint64_t> store_records{0};   ///< gauge: records after sweep
  std::atomic<std::uint64_t> put_store_us{0};    ///< cumulative store-op µs in PUT/STORE
  std::atomic<std::uint64_t> get_open_us{0};     ///< cumulative open-op µs in GET/RETRIEVE

  // Replication instrumentation (primary side; the replica side lives in
  // ReplicaSession::stats and is merged into the STATS response).
  std::atomic<std::uint64_t> repl_snapshots_served{0};
  std::atomic<std::uint64_t> repl_snapshot_records{0};
  std::atomic<std::uint64_t> repl_batches_shipped{0};
  std::atomic<std::uint64_t> repl_ops_shipped{0};
  std::atomic<std::uint64_t> repl_last_acked_seq{0};   ///< newest replica ack
  std::atomic<std::uint64_t> repl_replicas_connected{0};  ///< gauge
  std::atomic<std::uint64_t> repl_redirects{0};  ///< writes refused on replica

  // Cluster instrumentation (sharded multi-primary).
  std::atomic<std::uint64_t> cluster_wrong_shard{0};  ///< misrouted requests
  std::atomic<std::uint64_t> cluster_fenced_writes{0};  ///< refused at cutover
  std::atomic<std::uint64_t> cluster_migrations_started{0};
  std::atomic<std::uint64_t> cluster_migrations_completed{0};
  std::atomic<std::uint64_t> cluster_records_migrated_out{0};
  std::atomic<std::uint64_t> cluster_records_migrated_in{0};

  /// Per-op dispatch latency, indexed by protocol::Command.
  /// Records cover parse-to-response of admitted requests; shed requests
  /// never reach a histogram.
  static constexpr std::size_t kOpCount =
      static_cast<std::size_t>(protocol::kLastCommand) + 1;
  std::array<LatencyHistogram, kOpCount> op_latency;
};

/// Framed "server busy" refusal carrying the admission hint: BUSY=1 plus
/// RETRY_AFTER_MS, which the client RetryPolicy honours before retrying.
[[nodiscard]] protocol::Response busy_response(Millis retry_after);

class MyProxyServer {
 public:
  MyProxyServer(gsi::Credential host_credential, pki::TrustStore trust_store,
                std::shared_ptr<repository::Repository> repository,
                ServerConfig config);
  ~MyProxyServer();

  MyProxyServer(const MyProxyServer&) = delete;
  MyProxyServer& operator=(const MyProxyServer&) = delete;

  /// Bind, start the front end, and return (non-blocking).
  void start();

  /// Stop accepting, drain in-flight connections, join.
  void stop();

  /// Port actually bound (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return service_.port(); }

  [[nodiscard]] const ServerStats& stats() const { return stats_; }

  /// Structured audit trail (§5.1 detection story).
  [[nodiscard]] const AuditLog& audit() const { return audit_; }

  [[nodiscard]] const repository::Repository& repository() const {
    return *repository_;
  }

  /// In-flight connection gauge (reserved slots), for tests and benches.
  [[nodiscard]] std::size_t in_flight() const {
    return service_.in_flight();
  }

  /// Delegation key pool (null when keygen_pool_size == 0); exposed for
  /// stats in tests and benchmarks.
  [[nodiscard]] const crypto::KeyPairPool* key_pool() const {
    return key_pool_.get();
  }

  /// Replica-side replication engine (null unless replication_role ==
  /// kReplica and the server is started). Tests and the failover bench use
  /// wait_for_sequence / stats through this.
  [[nodiscard]] const replication::ReplicaSession* replica_session() const {
    return replica_session_.get();
  }

  /// Admission counters (accepted/shed per identity class) for tests,
  /// STATS, and the metrics scrape.
  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }

  /// Current admission limits (hot-reload observability for tests).
  [[nodiscard]] AdmissionLimits admission_limits() const {
    return admission_.limits();
  }

  /// Apply new admission limits to the running server. Established TLS
  /// sessions and in-flight requests are untouched; the next admission
  /// decision sees the new numbers. Public so the SIGHUP path and tests
  /// share one entry point.
  void reload_limits(const AdmissionLimits& limits);

  /// Port of the /metrics endpoint (0 unless metrics_enabled and started).
  [[nodiscard]] std::uint16_t metrics_port() const {
    return metrics_ != nullptr ? metrics_->port() : 0;
  }

  /// Install (or replace) the cluster shard map at runtime. `self_port`
  /// names the node this server belongs to — the node's primary port (a
  /// replica passes its primary's port). Tests bind ephemeral ports, so
  /// the map can only be built after every node has started; production
  /// wires ServerConfig::cluster_map instead and start() installs it.
  void set_cluster(cluster::ClusterMap map, std::uint16_t self_port);

  /// Copy of the current shard map (empty when clustering is off).
  [[nodiscard]] cluster::ClusterMap cluster_map() const;

  [[nodiscard]] bool cluster_enabled() const;

  /// Prometheus text exposition of every ServerStats counter, the per-op
  /// latency histograms, and the admission counters. Public so tests can
  /// check STATS(10) consistency without a scrape.
  [[nodiscard]] std::string render_metrics() const;

 private:
  /// SIGHUP hot-reload poll loop: re-reads config_file when the signal
  /// handler bumps the reload generation, then applies the admission keys.
  void reload_loop();

  /// Numeric STATS(10) fields in exposition order — the single source both
  /// handle_stats and render_metrics enumerate, so the admin dump and the
  /// scrape can never drift apart.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_snapshot() const;

  /// Front-end handler, run on a pool worker: the event loop has already
  /// completed the TLS handshake and read `raw_request`; this authenticates
  /// the peer (chain verification is crypto-heavy and does not belong on
  /// an event loop) and dispatches the pre-read request.
  void serve_accepted(std::shared_ptr<tls::TlsChannel> channel,
                      std::string raw_request);

  /// Front-end hand-off hook: the per-address pre-auth limiter. Returns the
  /// framed busy refusal when the peer's address is over its budget.
  [[nodiscard]] std::optional<std::string> preauth_refusal(
      const tls::TlsChannel& channel);

  /// Parse one already-received request and run it through its command's
  /// policy: shard ownership, write fence, replica redirect, admission,
  /// server-wide ACL, handler.
  void serve_request(net::Channel& channel, const pki::VerifiedIdentity& peer,
                     std::string_view raw_request);

  /// One row of the command table: each protocol::Command's handler,
  /// server-wide ACL, write class and control-plane bit, declared once.
  struct CommandPolicy;
  [[nodiscard]] static const CommandPolicy& command_policy(
      protocol::Command command);

  /// Fresh delegation key: pooled when possible, synchronous otherwise.
  [[nodiscard]] crypto::KeyPair next_delegation_key();

  /// Identity for this connection: the GSI-verified chain on a full
  /// handshake (then arms a session ticket sealing that identity), or the
  /// identity unsealed from the ticket on a resumed one. Throws
  /// AuthenticationError when neither yields a live identity.
  [[nodiscard]] pki::VerifiedIdentity authenticate_peer(
      tls::TlsChannel& channel);

  void handle_put(net::Channel& channel, const protocol::Request& request,
                  const pki::VerifiedIdentity& peer);
  void handle_get(net::Channel& channel, const protocol::Request& request,
                  const pki::VerifiedIdentity& peer);
  void handle_renew(net::Channel& channel, const protocol::Request& request,
                    const pki::VerifiedIdentity& peer);
  void handle_info(net::Channel& channel, const protocol::Request& request,
                   const pki::VerifiedIdentity& peer);
  void handle_list(net::Channel& channel, const protocol::Request& request,
                   const pki::VerifiedIdentity& peer);
  void handle_destroy(net::Channel& channel,
                      const protocol::Request& request,
                      const pki::VerifiedIdentity& peer);
  void handle_change_passphrase(net::Channel& channel,
                                const protocol::Request& request,
                                const pki::VerifiedIdentity& peer);
  void handle_store(net::Channel& channel, const protocol::Request& request,
                    const pki::VerifiedIdentity& peer);
  void handle_retrieve(net::Channel& channel,
                       const protocol::Request& request,
                       const pki::VerifiedIdentity& peer);
  void handle_replica_sync(net::Channel& channel,
                           const protocol::Request& request,
                           const pki::VerifiedIdentity& peer);
  void handle_stats(net::Channel& channel, const protocol::Request& request,
                    const pki::VerifiedIdentity& peer);
  void handle_cluster_map(net::Channel& channel,
                          const protocol::Request& request,
                          const pki::VerifiedIdentity& peer);
  void handle_migrate(net::Channel& channel,
                      const protocol::Request& request,
                      const pki::VerifiedIdentity& peer);
  void handle_migrate_install(net::Channel& channel,
                              const protocol::Request& request,
                              const pki::VerifiedIdentity& peer);

  /// Cluster-ownership check: the WRONG_SHARD refusal (WRONG_SHARD, SHARD,
  /// EPOCH, PRIMARY) for `username`, or nullopt when this node owns its
  /// shard (or clustering is off).
  [[nodiscard]] std::optional<protocol::Response> cluster_refusal_for(
      const std::string& username);

  /// Write fence for shard migration: returns a shared permit that must be
  /// held across the repository mutation, or throws (caught in
  /// serve_request as a busy refusal) when `username`'s shard is in final
  /// cutover. The cutover thread sets fenced_shard_, then acquires
  /// fence_mutex_ exclusively once — a barrier that waits out every write
  /// already past this check — and only then drains the journal tail, so
  /// no mutation can slip between the drain and the ownership flip.
  [[nodiscard]] std::shared_lock<std::shared_mutex> cluster_write_permit(
      const std::string& username);

  /// Shared GET/RENEW tail: delegate `credential` to the peer over the
  /// channel under the stored record's restrictions.
  void delegate_to_peer(net::Channel& channel,
                        const gsi::Credential& credential,
                        const repository::CredentialRecord& record,
                        Seconds requested_lifetime, bool want_limited);

  /// GET/RETRIEVE: authenticate the user (pass phrase or OTP word) and
  /// open the checked `record`, under the write permit when the OTP chain
  /// advances.
  [[nodiscard]] gsi::Credential open_for_retrieval(
      const protocol::Request& request,
      const repository::CredentialRecord& record);

  /// Shared PUT/STORE tail: check that the received `credential` verifies
  /// and belongs to the connection's identity, then seal and store it.
  void store_received(net::Channel& channel, const protocol::Request& request,
                      const pki::VerifiedIdentity& peer,
                      const gsi::Credential& credential,
                      const repository::StoreOptions& options);

  gsi::Credential host_credential_;
  pki::TrustStore trust_store_;
  std::shared_ptr<repository::Repository> repository_;
  ServerConfig config_;
  tls::TlsContext tls_context_;

  std::unique_ptr<crypto::KeyPairPool> key_pool_;
  std::unique_ptr<replication::ReplicaSession> replica_session_;

  // Cluster state. The map mutates only on set_cluster and migration
  // cutover; requests copy what they need under the mutex.
  mutable std::mutex cluster_mutex_;
  cluster::ClusterMap cluster_map_;
  std::uint16_t cluster_self_ = 0;
  /// Shard in final migration cutover (-1 = none). Writes to it are refused
  /// with a busy hint; see cluster_write_permit.
  std::atomic<std::int64_t> fenced_shard_{-1};
  std::shared_mutex fence_mutex_;
  std::atomic<bool> migration_in_flight_{false};

  AdmissionController admission_;
  std::unique_ptr<MetricsEndpoint> metrics_;
  std::thread sweep_thread_;
  std::thread reload_thread_;
  std::uint64_t seen_reload_generation_ = 0;
  std::atomic<bool> stopping_{false};
  std::condition_variable stop_cv_;
  std::mutex stop_mutex_;

  ServerStats stats_;
  AuditLog audit_;

  /// Declared after everything its handler and hook use.
  tls::Service service_;
};

}  // namespace myproxy::server
