#include "server/myproxy_server.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "gsi/proxy.hpp"
#include "net/socket.hpp"
#include "repository/credential_store.hpp"
#include "replication/journal.hpp"
#include "replication/wire.hpp"

namespace myproxy::server {

namespace {

constexpr std::string_view kLogComponent = "server";

/// Time `op` and add the elapsed microseconds to `counter` (store-latency
/// instrumentation; the matching puts/gets counters are the denominators).
template <typename Op>
auto timed_us(std::atomic<std::uint64_t>& counter, Op&& op)
    -> decltype(op()) {
  const auto start = std::chrono::steady_clock::now();
  struct Charge {
    std::atomic<std::uint64_t>& counter;
    std::chrono::steady_clock::time_point start;
    ~Charge() {
      counter.fetch_add(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count(),
          std::memory_order_relaxed);
    }
  } charge{counter, start};
  return op();
}

using protocol::Command;
using protocol::Request;
using protocol::Response;

/// Admission limits with the fair queue's capacity derived from the pool
/// geometry. Derivation only happens once any limiting is configured, so a
/// server with admission off behaves exactly as before this layer existed.
AdmissionLimits effective_admission_limits(const AdmissionLimits& requested,
                                           const ServerConfig& config) {
  AdmissionLimits limits = requested;
  const bool enabled = limits.rate_limit_rps > 0.0 ||
                       limits.max_queued_per_identity > 0 ||
                       limits.queue_capacity > 0 ||
                       limits.preauth_rate_limit_rps > 0.0;
  if (enabled && limits.queue_capacity == 0) {
    limits.queue_capacity =
        config.worker_threads + (config.max_pending_connections == 0
                                     ? 256
                                     : config.max_pending_connections);
  }
  return limits;
}

/// SIGHUP sets a process-wide generation; each server's reload_loop polls
/// it and re-reads its own config_file. Signal-handler-safe: one relaxed
/// fetch_add, nothing else.
std::atomic<std::uint64_t> g_reload_generation{0};

void on_sighup(int) {
  g_reload_generation.fetch_add(1, std::memory_order_relaxed);
}

/// Map an internal failure to the error text put on the wire. Auth errors
/// are deliberately vague to the client; the specifics go to the audit log.
Response error_response(const Error& error) {
  switch (error.code()) {
    case ErrorCode::kAuthentication:
      return Response::make_error("authentication failed");
    case ErrorCode::kAuthorization:
      return Response::make_error("not authorized");
    case ErrorCode::kNotFound:
      return Response::make_error("no credentials found");
    case ErrorCode::kExpired:
      return Response::make_error("credential expired");
    case ErrorCode::kPolicy:
      return Response::make_error(error.what());
    default:
      return Response::make_error("request failed");
  }
}

// --- Session-ticket identity (TLS resumption) -------------------------------
//
// A full handshake runs the complete GSI chain verification; the result is
// sealed into the session ticket (encrypted + MACed under the process's
// ticket key, so only this server can mint or read one). A resuming client
// proves possession of the ticket's secret, which is the same client the
// identity was verified for — re-running X.509 verification would add
// nothing, and the certificate chain is not re-sent on resumption anyway.

constexpr char kTicketFieldSep = '\x1f';

std::string seal_identity(const pki::VerifiedIdentity& peer) {
  return fmt::format("v1{}{}{}{}{}{}{}{}", kTicketFieldSep,
                     peer.identity.str(), kTicketFieldSep, peer.proxy_depth,
                     kTicketFieldSep, peer.limited ? 1 : 0, kTicketFieldSep,
                     to_unix(peer.expires_at));
}

std::optional<pki::VerifiedIdentity> unseal_identity(
    std::string_view appdata) {
  const auto parts = strings::split(appdata, kTicketFieldSep);
  if (parts.size() != 5 || parts[0] != "v1") return std::nullopt;
  // Strict field parses: a ticket is minted only by this server, so any
  // malformed number means corruption (or a forgery that got past the MAC,
  // which must not be met halfway with a best-effort stoul).
  const auto depth = strings::parse_u64(parts[2]);
  const auto expires = strings::parse_i64(parts[4]);
  if (!depth.has_value() || !expires.has_value()) return std::nullopt;
  try {
    pki::VerifiedIdentity peer;
    peer.identity = pki::DistinguishedName::parse(parts[1]);
    peer.proxy_depth = static_cast<std::size_t>(*depth);
    peer.limited = parts[3] == "1";
    peer.expires_at = from_unix(*expires);
    // The ticket may outlive the credential that authenticated the original
    // connection (proxies are short-lived by design, §2.3); an identity
    // whose chain has lapsed must re-authenticate with a full handshake.
    if (now() >= peer.expires_at) return std::nullopt;
    return peer;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

Response busy_response(Millis retry_after) {
  Response response =
      Response::make_error("server busy, retry after backoff");
  response.fields["BUSY"] = "1";
  response.fields["RETRY_AFTER_MS"] = std::to_string(retry_after.count());
  return response;
}

namespace {

/// A write reached the mutation point while its shard was in final
/// migration cutover. serve_request answers with a busy hint — the cutover
/// lasts one journal drain, so "retry shortly" is exactly right.
struct MigrationFenced {};

/// A request slipped past the serve_request ownership check but lost the
/// race with a migration cutover; carries the WRONG_SHARD refusal naming
/// the new owner.
struct ClusterRefusal {
  Response response;
};

/// Client-facing pacing hint while a shard is fenced: the cutover drain is
/// a handful of journal batches, so one short beat is enough.
constexpr Millis kFenceRetryAfter{200};

/// How many per-identity admission rows STATS and /metrics surface.
constexpr std::size_t kTopIdentities = 5;

/// Server-wide ACL (§5.1) a command's caller must pass before its handler
/// runs: one ServerConfig list, or either of two. Record-level checks
/// (owner, per-credential patterns) stay in the handlers.
struct ServerAcl {
  std::string_view name;  ///< empty: no server-wide ACL
  gsi::AccessControlList ServerConfig::*list = nullptr;
  gsi::AccessControlList ServerConfig::*or_list = nullptr;

  [[nodiscard]] bool allows(const ServerConfig& config,
                            const pki::DistinguishedName& dn) const {
    return list == nullptr || (config.*list).allows(dn) ||
           (or_list != nullptr && (config.*or_list).allows(dn));
  }
};

constexpr ServerAcl kNoAcl{};
constexpr ServerAcl kAccepted{"accepted_credentials",
                              &ServerConfig::accepted_credentials};
constexpr ServerAcl kRetrievers{"authorized_retrievers",
                                &ServerConfig::authorized_retrievers};
/// Any identity the server would talk to at all.
constexpr ServerAcl kRetrieversOrAccepted{
    "authorized_retrievers or accepted_credentials",
    &ServerConfig::authorized_retrievers, &ServerConfig::accepted_credentials};
constexpr ServerAcl kReplicaAcl{"replica_acl", &ServerConfig::replica_acl};
constexpr ServerAcl kClusterAdmin{"cluster_admin_acl",
                                  &ServerConfig::cluster_admin_acl};

/// Whether a command mutates the repository — a replica redirects it to
/// the primary, and a migration cutover fences it.
enum class WriteClass {
  kNever,
  kAlways,
  kOnlyUnderOtp,  ///< verifying an OTP word advances the chain
};

/// The record `request` names, or NotFoundError.
repository::CredentialRecord stored_record(
    const repository::Repository& repository, const Request& request) {
  auto record = repository.record(request.username, request.credential_name);
  if (!record.has_value()) {
    throw NotFoundError(fmt::format("no credentials stored for '{}'",
                                    request.username));
  }
  return std::move(*record);
}

/// Only the identity that stored a credential may renew, destroy, re-phrase
/// or export it (§3.3: the user stays in control of their credentials).
void require_owner(const repository::CredentialRecord& record,
                   const pki::VerifiedIdentity& peer) {
  if (!(peer.identity.str() == record.owner_dn)) {
    throw AuthorizationError(fmt::format(
        "'{}' does not own the stored credential", peer.identity.str()));
  }
}

/// The per-credential narrowing the user attached at store time (§4.1
/// retrieval restrictions), on top of the server-wide retriever ACL.
void require_retriever(const repository::CredentialRecord& record,
                       const pki::VerifiedIdentity& peer) {
  if (record.retriever_patterns.empty()) return;
  if (!gsi::AccessControlList(record.retriever_patterns)
           .allows(peer.identity)) {
    throw AuthorizationError(fmt::format(
        "'{}' is not an authorized retriever of this credential",
        peer.identity.str()));
  }
}

/// What PUT and STORE both attach to the stored credential.
repository::StoreOptions store_options(const Request& request) {
  repository::StoreOptions options;
  options.name = request.credential_name;
  options.max_delegation_lifetime = request.lifetime;
  options.retriever_patterns = request.retriever_patterns;
  options.renewer_patterns = request.renewer_patterns;
  options.restriction = request.restriction;
  options.task_tags = request.task;
  return options;
}

/// Prometheus label values escape backslash, quote, and newline.
std::string metrics_label_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// The front end's settings: the operator's ServerConfig values.
tls::ServiceConfig front_end_config(const ServerConfig& config) {
  tls::ServiceConfig out;
  out.port = config.port;
  out.loops = config.reactor_threads;
  out.worker_threads = config.worker_threads;
  out.max_pending = config.max_pending_connections == 0
                        ? tls::kDefaultMaxPending
                        : config.max_pending_connections;
  out.handshake_timeout = config.handshake_timeout;
  out.request_timeout = config.request_timeout;
  out.max_connections = config.max_connections;
  out.busy_reply = Response::make_error("server busy, try again").serialize();
  out.name = std::string(kLogComponent);
  return out;
}

}  // namespace

MyProxyServer::MyProxyServer(
    gsi::Credential host_credential, pki::TrustStore trust_store,
    std::shared_ptr<repository::Repository> repository, ServerConfig config)
    : host_credential_(std::move(host_credential)),
      trust_store_(std::move(trust_store)),
      repository_(std::move(repository)),
      config_(std::move(config)),
      tls_context_(tls::TlsContext::make(
          host_credential_, tls::PeerAuth::kRequired,
          tls::SessionResumption{config_.tls_session_resumption,
                                 config_.tls_session_timeout})),
      admission_(effective_admission_limits(config_.admission, config_)),
      service_(
          tls_context_, front_end_config(config_),
          [this](std::shared_ptr<tls::TlsChannel> channel,
                 std::string request) {
            serve_accepted(std::move(channel), std::move(request));
          },
          [this](const tls::TlsChannel& channel) {
            return preauth_refusal(channel);
          },
          &stats_) {
  if (repository_ == nullptr) {
    throw Error(ErrorCode::kInternal, "server requires a repository");
  }
}

MyProxyServer::~MyProxyServer() { stop(); }

void MyProxyServer::start() {
  if (!config_.audit_log_file.empty()) {
    audit_.set_file(config_.audit_log_file);
  }
  if (config_.replication_role == replication::ReplicationRole::kPrimary &&
      config_.journal == nullptr) {
    throw ConfigError("replication_role=primary requires a journal");
  }
  if (config_.replication_role == replication::ReplicationRole::kReplica) {
    if (config_.replication_primary_port == 0) {
      throw ConfigError(
          "replication_role=replica requires replication_primary");
    }
    replication::ReplicaConfig replica_config;
    replica_config.primary_port = config_.replication_primary_port;
    replica_config.state_file = config_.replication_state_file;
    replica_session_ = std::make_unique<replication::ReplicaSession>(
        host_credential_, trust_store_, repository_->store_mutable(),
        replica_config,
        [this](std::string_view event, std::string_view detail) {
          audit_.record({now(), std::string(event), "", "",
                         event == "replica-disconnected"
                             ? AuditOutcome::kError
                             : AuditOutcome::kSuccess,
                         std::string(detail)});
        });
    replica_session_->start();
  }
  if (!config_.cluster_map.empty()) {
    set_cluster(config_.cluster_map, config_.cluster_self);
  }
  if (config_.keygen_pool_size > 0) {
    key_pool_ = std::make_unique<crypto::KeyPairPool>(
        config_.delegation_key_spec, config_.keygen_pool_size,
        config_.keygen_pool_refill_threads);
  }
  service_.start();
  if (config_.metrics_enabled) {
    MetricsConfig metrics_config;
    metrics_config.enabled = true;
    metrics_config.port = config_.metrics_port;
    metrics_config.bind_address = config_.metrics_bind_address;
    metrics_config.bind_any = config_.metrics_bind_any;
    metrics_ = std::make_unique<MetricsEndpoint>(
        metrics_config, [this] { return render_metrics(); });
    metrics_->start();
  }
  if (!config_.config_file.empty()) {
    // Admission limits hot-reload on SIGHUP without disturbing established
    // TLS sessions: the handler only bumps a generation; this thread does
    // the config re-read outside signal context.
    std::signal(SIGHUP, on_sighup);
    seen_reload_generation_ =
        g_reload_generation.load(std::memory_order_relaxed);
    reload_thread_ = std::thread([this] { reload_loop(); });
  }
  if (config_.sweep_interval > Seconds(0)) {
    sweep_thread_ = std::thread([this] {
      std::unique_lock lock(stop_mutex_);
      while (!stop_cv_.wait_for(lock, config_.sweep_interval,
                                [this] { return stopping_.load(); })) {
        const std::size_t swept = repository_->sweep_expired();
        stats_.sweeps.fetch_add(1, std::memory_order_relaxed);
        stats_.records_swept.fetch_add(swept, std::memory_order_relaxed);
        stats_.store_records.store(repository_->size(),
                                   std::memory_order_relaxed);
        if (swept > 0) {
          log::info(kLogComponent, "expiry sweep removed {} record(s)",
                    swept);
        }
      }
    });
  }
  log::info(kLogComponent,
            "myproxy-server listening on port {} as '{}' ({} event loop(s), "
            "{} worker(s))",
            port(), host_credential_.identity().str(),
            config_.reactor_threads, config_.worker_threads);
}

void MyProxyServer::stop() {
  if (stopping_.exchange(true)) return;
  {
    // Notify while holding the mutex: without it the sweep thread can check
    // its predicate, miss this notify, and then sleep a full sweep_interval
    // before noticing stopping_ (lost-wakeup race). Holding the lock means
    // the sweeper is either before the predicate check (and will see
    // stopping_ == true) or already parked in wait_for (and gets the
    // notification).
    const std::scoped_lock lock(stop_mutex_);
    stop_cv_.notify_all();
  }
  // Event loops, then workers (REPLICA_SYNC streams end on stopping_).
  service_.stop();
  if (sweep_thread_.joinable()) sweep_thread_.join();
  if (reload_thread_.joinable()) reload_thread_.join();
  metrics_.reset();  // before the pools: a scrape reads their gauges
  key_pool_.reset();  // after workers: handlers may still hold the pool
  replica_session_.reset();  // after workers: STATS handlers read its stats
  log::info(kLogComponent, "myproxy-server stopped");
}

void MyProxyServer::reload_limits(const AdmissionLimits& limits) {
  const AdmissionLimits effective =
      effective_admission_limits(limits, config_);
  admission_.set_limits(effective);
  log::info(kLogComponent,
            "admission limits reloaded: rate={}/s burst={} "
            "max_queued_per_identity={} queue_capacity={} preauth_rate={}/s",
            effective.rate_limit_rps, effective.rate_limit_burst,
            effective.max_queued_per_identity, effective.queue_capacity,
            effective.preauth_rate_limit_rps);
}

void MyProxyServer::reload_loop() {
  std::unique_lock lock(stop_mutex_);
  while (!stop_cv_.wait_for(lock, Millis(100),
                            [this] { return stopping_.load(); })) {
    const std::uint64_t generation =
        g_reload_generation.load(std::memory_order_relaxed);
    if (generation == seen_reload_generation_) continue;
    seen_reload_generation_ = generation;
    lock.unlock();
    try {
      const Config config = Config::load(config_.config_file);
      reload_limits(admission_limits_from_config(config));
    } catch (const std::exception& e) {
      // A bad config on disk must not kill the running limits (or the
      // server): keep the previous limits and say why.
      log::warn(kLogComponent, "SIGHUP reload of '{}' failed: {}",
                config_.config_file.string(), e.what());
    }
    lock.lock();
  }
}

pki::VerifiedIdentity MyProxyServer::authenticate_peer(
    tls::TlsChannel& channel) {
  if (channel.resumed()) {
    stats_.resumed_handshakes.fetch_add(1, std::memory_order_relaxed);
    // OpenSSL only completes a resumption after our ticket-decrypt callback
    // accepted the ticket, and tickets are minted exclusively by
    // arm_session_ticket below — so appdata is present unless the sealed
    // identity has expired in the meantime.
    const auto& appdata = channel.ticket_appdata();
    if (appdata.has_value()) {
      if (auto peer = unseal_identity(*appdata); peer.has_value()) {
        log::debug(kLogComponent, "resumed session for '{}'",
                   peer->identity.str());
        return *peer;
      }
    }
    throw AuthenticationError(
        "resumed session does not carry a live verified identity");
  }

  stats_.full_handshakes.fetch_add(1, std::memory_order_relaxed);
  pki::VerifiedIdentity peer =
      trust_store_.verify(channel.peer_chain(), config_.verify_options);
  // Conservative ticket policy: identities carrying a restriction policy
  // (paper §6.5) are not serialized into tickets — the effective policy
  // must be recomputed from the chain, so such peers always re-handshake.
  if (config_.tls_session_resumption && !peer.policy.has_value()) {
    channel.arm_session_ticket(seal_identity(peer));
  }
  return peer;
}

void MyProxyServer::serve_accepted(std::shared_ptr<tls::TlsChannel> channel,
                                   std::string raw_request) {
  pki::VerifiedIdentity peer;
  try {
    peer = authenticate_peer(*channel);
  } catch (const Error& e) {
    stats_.auth_failures.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "client authentication failed: {}", e.what());
    audit_.record({now(), "CONNECT", "", "",
                   AuditOutcome::kAuthenticationFailure, e.what()});
    channel->send(Response::make_error("authentication failed").serialize());
    return;
  }
  serve_request(*channel, peer, raw_request);
}

std::optional<std::string> MyProxyServer::preauth_refusal(
    const tls::TlsChannel& channel) {
  // The handshake is already paid for (the event loop fronts it), but the
  // gate still keeps an abusive address from monopolizing the worker pool.
  const AdmissionDecision preauth =
      admission_.admit_preauth(net::peer_address_of(channel.fd()));
  if (preauth.admitted) return std::nullopt;
  log::warn(kLogComponent, "shedding connection: pre-auth address rate limit");
  return busy_response(preauth.retry_after).serialize();
}

struct MyProxyServer::CommandPolicy {
  Command command;
  void (MyProxyServer::*handler)(net::Channel&, const Request&,
                                 const pki::VerifiedIdentity&);
  ServerAcl acl;
  WriteClass writes;
  /// Answered on any node and never shed: exempt from shard routing and
  /// admission. STATS and CLUSTER_MAP carry no username to route by and
  /// must reach a saturated server; REPLICA_SYNC is a node-local stream
  /// that would pin a fair-queue slot for the replica's lifetime; the
  /// migration commands manage ownership itself, and shedding them would
  /// wedge the rebalancing meant to relieve the load.
  bool control_plane;
};

const MyProxyServer::CommandPolicy& MyProxyServer::command_policy(
    Command command) {
  using enum WriteClass;
  using S = MyProxyServer;
  // Indexed by Command. RENEW always writes because only the primary's
  // master key opens a renewable record; MIGRATE / MIGRATE_INSTALL mutate
  // the store but are control plane, never bounced by the replica redirect.
  static constexpr std::array<CommandPolicy, ServerStats::kOpCount> kTable{{
      {Command::kGet, &S::handle_get, kRetrievers, kOnlyUnderOtp, false},
      {Command::kPut, &S::handle_put, kAccepted, kAlways, false},
      {Command::kInfo, &S::handle_info, kRetrieversOrAccepted, kNever, false},
      {Command::kDestroy, &S::handle_destroy, kNoAcl, kAlways, false},
      {Command::kChangePassphrase, &S::handle_change_passphrase, kNoAcl,
       kAlways, false},
      {Command::kStore, &S::handle_store, kAccepted, kAlways, false},
      {Command::kRetrieve, &S::handle_retrieve, kRetrievers, kOnlyUnderOtp,
       false},
      {Command::kList, &S::handle_list, kRetrieversOrAccepted, kNever, false},
      {Command::kRenew, &S::handle_renew, kNoAcl, kAlways, false},
      {Command::kReplicaSync, &S::handle_replica_sync, kReplicaAcl, kNever,
       true},
      {Command::kStats, &S::handle_stats, kRetrieversOrAccepted, kNever, true},
      {Command::kClusterMap, &S::handle_cluster_map, kRetrieversOrAccepted,
       kNever, true},
      {Command::kMigrate, &S::handle_migrate, kClusterAdmin, kNever, true},
      {Command::kMigrateInstall, &S::handle_migrate_install, kClusterAdmin,
       kNever, true},
  }};
  // A Command without a row (or rows out of order) fails the build.
  static_assert([] {
    for (std::size_t i = 0; i < kTable.size(); ++i) {
      if (kTable[i].command != static_cast<Command>(i) ||
          kTable[i].handler == nullptr) {
        return false;
      }
    }
    return true;
  }());
  return kTable[static_cast<std::size_t>(command)];
}

void MyProxyServer::serve_request(net::Channel& channel,
                                  const pki::VerifiedIdentity& peer,
                                  std::string_view raw_request) {
  Request request;
  try {
    request = Request::parse(raw_request);
  } catch (const Error& e) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    log::warn(kLogComponent, "bad request from '{}': {}",
              peer.identity.str(), e.what());
    channel.send(Response::make_error("malformed request").serialize());
    return;
  }

  log::info(kLogComponent, "{} user='{}' from '{}' (proxy depth {})",
            to_string(request.command), request.username,
            peer.identity.str(), peer.proxy_depth);
  AuditEvent audit_event{now(), std::string(to_string(request.command)),
                         peer.identity.str(), request.username,
                         AuditOutcome::kSuccess, ""};

  const CommandPolicy& policy = command_policy(request.command);
  const bool writes =
      policy.writes == WriteClass::kAlways ||
      (policy.writes == WriteClass::kOnlyUnderOtp &&
       request.auth_mode == protocol::AuthMode::kOtp);

  // Cluster ownership enforcement: a request for a user whose shard lives
  // on another node is refused with a WRONG_SHARD frame naming the owner
  // and the map epoch — a routing-aware client refreshes its map and
  // retries there. Checked before the replica redirect: a replica answers
  // for its own node's shards only.
  if (auto refusal = policy.control_plane
                         ? std::nullopt
                         : cluster_refusal_for(request.username)) {
    stats_.cluster_wrong_shard.fetch_add(1, std::memory_order_relaxed);
    audit_event.outcome = AuditOutcome::kError;
    audit_event.detail =
        fmt::format("wrong shard (owner primary {})",
                    refusal->fields["PRIMARY"]);
    audit_.record(std::move(audit_event));
    channel.send(refusal->serialize());
    return;
  }

  // Fast-path fence refusal: a write for a shard in final migration
  // cutover is turned away before any crypto is spent on it. The
  // authoritative check is the cluster_write_permit each mutating handler
  // holds — this one only saves work.
  if (writes && fenced_shard_.load(std::memory_order_acquire) >= 0) {
    bool fenced = false;
    {
      const std::lock_guard lock(cluster_mutex_);
      fenced = !cluster_map_.empty() &&
               static_cast<std::int64_t>(
                   cluster_map_.shard_of(request.username)) ==
                   fenced_shard_.load(std::memory_order_acquire);
    }
    if (fenced) {
      stats_.cluster_fenced_writes.fetch_add(1, std::memory_order_relaxed);
      audit_event.outcome = AuditOutcome::kError;
      audit_event.detail = "write fenced during shard cutover";
      audit_.record(std::move(audit_event));
      channel.send(busy_response(kFenceRetryAfter).serialize());
      return;
    }
  }

  // Replica read-only enforcement: mutations are refused with a redirect
  // carrying the primary's endpoint, so a failover-aware client retries
  // there instead of treating this as a hard failure.
  if (writes &&
      config_.replication_role == replication::ReplicationRole::kReplica) {
    stats_.repl_redirects.fetch_add(1, std::memory_order_relaxed);
    Response redirect = Response::make_error(
        "replica is read-only; retry this operation at the primary");
    redirect.fields["PRIMARY"] =
        std::to_string(config_.replication_primary_port);
    audit_event.outcome = AuditOutcome::kError;
    audit_event.detail = "redirected write to primary";
    audit_.record(std::move(audit_event));
    channel.send(redirect.serialize());
    return;
  }

  // Per-identity admission: token bucket + fair queue keyed on the
  // authenticated DN (the control plane is exempt, see CommandPolicy).
  std::optional<AdmissionGuard> admission_guard;
  if (!policy.control_plane) {
    const AdmissionDecision decision = admission_.admit(peer.identity.str());
    if (!decision.admitted) {
      log::warn(kLogComponent, "admission shed ({}) for '{}': retry in {} ms",
                decision.reason, peer.identity.str(),
                decision.retry_after.count());
      audit_event.outcome = AuditOutcome::kError;
      audit_event.detail = fmt::format("admission shed ({})", decision.reason);
      audit_.record(std::move(audit_event));
      channel.send(busy_response(decision.retry_after).serialize());
      return;
    }
    admission_guard.emplace(admission_, peer.identity.str());
  }

  // Latency histogram charge covers dispatch through reply — success and
  // error paths alike — but never shed requests (they return above), so
  // each op's bucket counts sum to the ops actually served.
  struct LatencyCharge {
    LatencyHistogram& histogram;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    ~LatencyCharge() {
      histogram.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
  } latency_charge{
      stats_.op_latency[static_cast<std::size_t>(request.command)]};

  try {
    if (!policy.acl.allows(config_, peer.identity)) {
      throw AuthorizationError(fmt::format(
          "'{}' is not in {} (required for {})", peer.identity.str(),
          policy.acl.name, to_string(request.command)));
    }
    (this->*policy.handler)(channel, request, peer);
    audit_.record(std::move(audit_event));
  } catch (const MigrationFenced&) {
    // The write lost the race with a cutover fence after passing the
    // fast-path check; the busy hint reuses the client's backoff machinery.
    stats_.cluster_fenced_writes.fetch_add(1, std::memory_order_relaxed);
    audit_event.outcome = AuditOutcome::kError;
    audit_event.detail = "write fenced during shard cutover";
    audit_.record(std::move(audit_event));
    channel.send(busy_response(kFenceRetryAfter).serialize());
  } catch (const ClusterRefusal& refusal) {
    // Ownership moved while this request was mid-protocol (migration
    // committed between admission and mutation).
    stats_.cluster_wrong_shard.fetch_add(1, std::memory_order_relaxed);
    audit_event.outcome = AuditOutcome::kError;
    audit_event.detail = "shard moved mid-request";
    audit_.record(std::move(audit_event));
    channel.send(refusal.response.serialize());
  } catch (const IoTimeout& e) {
    // Mid-command stall: the deadline freed this worker. Record the audit
    // outcome here, then let the front end count the timeout — the
    // stalled channel is not worth another write.
    audit_event.outcome = AuditOutcome::kError;
    audit_event.detail = e.what();
    audit_.record(std::move(audit_event));
    throw;
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kAuthentication) {
      stats_.auth_failures.fetch_add(1, std::memory_order_relaxed);
      audit_event.outcome = AuditOutcome::kAuthenticationFailure;
    } else if (e.code() == ErrorCode::kAuthorization) {
      stats_.authz_failures.fetch_add(1, std::memory_order_relaxed);
      audit_event.outcome = AuditOutcome::kAuthorizationFailure;
    } else if (e.code() == ErrorCode::kNotFound) {
      audit_event.outcome = AuditOutcome::kNotFound;
    } else {
      audit_event.outcome = AuditOutcome::kError;
    }
    audit_event.detail = e.what();
    audit_.record(std::move(audit_event));
    log::warn(kLogComponent, "{} for user '{}' failed: {}",
              to_string(request.command), request.username, e.what());
    channel.send(error_response(e).serialize());
  }
}

crypto::KeyPair MyProxyServer::next_delegation_key() {
  if (key_pool_ == nullptr) {
    stats_.keypool_misses.fetch_add(1, std::memory_order_relaxed);
    return crypto::KeyPair::generate(config_.delegation_key_spec);
  }
  bool from_pool = false;
  crypto::KeyPair key = key_pool_->acquire(&from_pool);
  auto& counter = from_pool ? stats_.keypool_hits : stats_.keypool_misses;
  counter.fetch_add(1, std::memory_order_relaxed);
  return key;
}

gsi::Credential MyProxyServer::open_for_retrieval(
    const Request& request, const repository::CredentialRecord& record) {
  // Authenticate the *user* (pass phrase or OTP) on top of the already-
  // authenticated *client* (§5.1: both are required). Verifying an OTP
  // word advances the chain — a store write, so it takes the fence permit.
  const bool otp = request.auth_mode == protocol::AuthMode::kOtp;
  std::shared_lock<std::shared_mutex> permit;
  if (otp) permit = cluster_write_permit(request.username);
  return timed_us(stats_.get_open_us, [&] {
    return repository_->open(record, request.passphrase, otp);
  });
}

void MyProxyServer::store_received(net::Channel& channel,
                                   const Request& request,
                                   const pki::VerifiedIdentity& peer,
                                   const gsi::Credential& credential,
                                   const repository::StoreOptions& options) {
  // The stored credential must verify under our trust roots and must belong
  // to the connection's authenticated identity — a client cannot park
  // someone else's (stolen) proxy under its own account unnoticed.
  const pki::VerifiedIdentity stored_identity =
      trust_store_.verify(credential.full_chain(), config_.verify_options);
  if (!(stored_identity.identity == peer.identity)) {
    throw AuthorizationError(fmt::format(
        "stored identity '{}' does not match connection identity '{}'",
        stored_identity.identity.str(), peer.identity.str()));
  }
  const auto permit = cluster_write_permit(request.username);
  timed_us(stats_.put_store_us, [&] {
    repository_->store(request.username, request.passphrase,
                       peer.identity.str(), credential, options);
  });
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  channel.send(Response::make_ok().serialize());
}

// --- PUT (Figure 1) ---------------------------------------------------------

void MyProxyServer::handle_put(net::Channel& channel, const Request& request,
                               const pki::VerifiedIdentity& peer) {
  if (request.username.empty()) {
    throw PolicyError("username must not be empty");
  }
  // The server runs the *receiver* side of delegation: fresh key, CSR out,
  // signed chain back (the client's private key never travels — and
  // neither does the user's long-term key; we receive only a proxy).
  gsi::DelegationRequest delegation =
      gsi::begin_delegation(next_delegation_key());
  channel.send(Response::make_ok().serialize());
  channel.send(delegation.csr_pem);

  const std::string chain_pem = channel.receive();
  const gsi::Credential delegated =
      gsi::complete_delegation(std::move(delegation.key), chain_pem);

  repository::StoreOptions options = store_options(request);
  options.always_limited = request.want_limited;
  if (request.auth_mode == protocol::AuthMode::kOtp) {
    // PASSPHRASE carries the OTP seed; LIFETIME the chain length would be
    // overloading, so a fixed generous chain is armed.
    options.otp_words = 1000;
  }
  store_received(channel, request, peer, delegated, options);
}

// --- GET (Figure 2) ---------------------------------------------------------

void MyProxyServer::handle_get(net::Channel& channel, const Request& request,
                               const pki::VerifiedIdentity& peer) {
  const auto record = stored_record(*repository_, request);
  require_retriever(record, peer);
  const gsi::Credential stored = open_for_retrieval(request, record);
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  delegate_to_peer(channel, stored, record, request.lifetime,
                   request.want_limited);
}

// --- RENEW (§6.6) -----------------------------------------------------------

void MyProxyServer::handle_renew(net::Channel& channel,
                                 const Request& request,
                                 const pki::VerifiedIdentity& peer) {
  const auto record = stored_record(*repository_, request);
  // Renewal replaces the pass phrase with possession of the credential
  // being renewed: the caller must *be* the stored identity (its about-to-
  // expire proxy still authenticates the connection)...
  require_owner(record, peer);
  // ...and must additionally pass either the server-wide renewer ACL or
  // the per-credential renewer patterns the user attached at store time.
  const gsi::AccessControlList per_credential(record.renewer_patterns);
  if (!config_.authorized_renewers.allows(peer.identity) &&
      !per_credential.allows(peer.identity)) {
    throw AuthorizationError(fmt::format(
        "'{}' is not an authorized renewer", peer.identity.str()));
  }
  const gsi::Credential stored = repository_->open_for_renewal(record);

  stats_.renewals.fetch_add(1, std::memory_order_relaxed);
  delegate_to_peer(channel, stored, record, request.lifetime,
                   request.want_limited);
}

void MyProxyServer::delegate_to_peer(
    net::Channel& channel, const gsi::Credential& credential,
    const repository::CredentialRecord& record, Seconds requested_lifetime,
    bool want_limited) {
  const gsi::ProxyOptions options =
      repository_->proxy_options(record, requested_lifetime, want_limited);
  channel.send(Response::make_ok().serialize());
  const std::string csr_pem = channel.receive();
  const std::string chain_pem =
      gsi::delegate_credential(credential, csr_pem, options);
  channel.send(chain_pem);
}

// --- Metadata commands -------------------------------------------------------

void MyProxyServer::handle_info(net::Channel& channel,
                                const Request& request,
                                const pki::VerifiedIdentity&) {
  const auto info =
      repository_->info(request.username, request.credential_name);
  if (!info.has_value()) {
    throw NotFoundError(fmt::format("no credentials stored for '{}'",
                                    request.username));
  }
  Response response;
  response.fields["OWNER"] = info->owner_dn;
  response.fields["NOT_AFTER"] = std::to_string(to_unix(info->not_after));
  response.fields["CREATED_AT"] = std::to_string(to_unix(info->created_at));
  response.fields["MAX_LIFETIME"] =
      std::to_string(info->max_delegation_lifetime.count());
  response.fields["SEALING"] = std::string(to_string(info->sealing));
  if (info->otp_enabled) {
    response.fields["OTP_REMAINING"] = std::to_string(info->otp_remaining);
  }
  if (info->always_limited) response.fields["LIMITED"] = "1";
  if (info->restriction.has_value()) {
    response.fields["RESTRICTION"] = *info->restriction;
  }
  channel.send(response.serialize());
}

void MyProxyServer::handle_list(net::Channel& channel,
                                const Request& request,
                                const pki::VerifiedIdentity&) {
  Response response;
  if (!request.task.empty()) {
    // Wallet selection (§6.2): answer with the single best credential.
    const auto chosen =
        repository_->select_for_task(request.username, request.task);
    if (!chosen.has_value()) {
      throw NotFoundError("no credential matches the requested task");
    }
    response.fields["SELECTED"] = chosen->name;
  } else {
    std::string names;
    for (const auto& info : repository_->list(request.username)) {
      if (!names.empty()) names += '\x1f';
      names += info.name.empty() ? "(default)" : info.name;
    }
    if (names.empty()) {
      throw NotFoundError(fmt::format("no credentials stored for '{}'",
                                      request.username));
    }
    response.fields["NAMES"] = names;
  }
  channel.send(response.serialize());
}

void MyProxyServer::handle_destroy(net::Channel& channel,
                                   const Request& request,
                                   const pki::VerifiedIdentity& peer) {
  require_owner(stored_record(*repository_, request), peer);
  const auto permit = cluster_write_permit(request.username);
  repository_->destroy(request.username, request.credential_name);
  channel.send(Response::make_ok().serialize());
}

void MyProxyServer::handle_change_passphrase(
    net::Channel& channel, const Request& request,
    const pki::VerifiedIdentity& peer) {
  require_owner(stored_record(*repository_, request), peer);
  const auto permit = cluster_write_permit(request.username);
  repository_->change_passphrase(request.username, request.passphrase,
                                 request.new_passphrase,
                                 request.credential_name);
  channel.send(Response::make_ok().serialize());
}

// --- STORE / RETRIEVE (§6.1 long-term credential management) ----------------

void MyProxyServer::handle_store(net::Channel& channel,
                                 const Request& request,
                                 const pki::VerifiedIdentity& peer) {
  channel.send(Response::make_ok().serialize());
  // STORE ships the whole credential (certificate + key), unlike PUT which
  // delegates a proxy. The transport is encrypted; at rest the credential
  // is pass-phrase sealed like any other record.
  const gsi::Credential credential =
      gsi::Credential::from_pem(channel.receive());
  repository::StoreOptions options = store_options(request);
  options.long_term = true;
  store_received(channel, request, peer, credential, options);
}

void MyProxyServer::handle_retrieve(net::Channel& channel,
                                    const Request& request,
                                    const pki::VerifiedIdentity& peer) {
  const auto record = stored_record(*repository_, request);
  require_retriever(record, peer);
  // RETRIEVE additionally requires the caller to *be* the credential owner:
  // exporting key material to a third party would defeat §3.3's "remove,
  // as much as possible, any credentials from the portal".
  require_owner(record, peer);
  const gsi::Credential stored = open_for_retrieval(request, record);
  channel.send(Response::make_ok().serialize());
  const SecureBuffer pem = stored.to_pem();
  channel.send(pem.view());
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
}

// --- Replication (REPLICA_SYNC) ----------------------------------------------

void MyProxyServer::handle_replica_sync(net::Channel& channel,
                                        const Request& request,
                                        const pki::VerifiedIdentity& peer) {
  if (config_.replication_role != replication::ReplicationRole::kPrimary ||
      config_.journal == nullptr) {
    throw PolicyError("this server is not a replication primary");
  }
  auto& journal = *config_.journal;

  stats_.repl_replicas_connected.fetch_add(1, std::memory_order_relaxed);
  struct Gauge {
    std::atomic<std::uint64_t>& gauge;
    ~Gauge() { gauge.fetch_sub(1, std::memory_order_relaxed); }
  } gauge{stats_.repl_replicas_connected};

  std::uint64_t replica_seq = request.sequence;
  // The journal can tail the replica only from an offset it still covers;
  // anything else — fresh replica, or an offset past/before the journal —
  // needs a full snapshot. (sequence == 0 always snapshots: the store may
  // hold records that predate the journal.)
  const bool need_snapshot = replica_seq == 0 ||
                             replica_seq + 1 < journal.first_sequence() ||
                             replica_seq > journal.last_sequence();
  if (need_snapshot) {
    // Capture the sequence *before* reading the store: ReplicatedStore
    // holds each username's stripe exclusively from journal append through
    // store apply, and usernames()/list() take those stripes shared — so
    // every operation with sequence <= snapshot_seq is visible to these
    // reads. Concurrent newer operations may also leak in; the replica
    // re-applies sequences above snapshot_seq, which converges.
    const std::uint64_t snapshot_seq = journal.last_sequence();
    std::vector<std::string> records;
    const auto& store = repository_->store();
    for (const auto& username : store.usernames()) {
      for (const auto& record : store.list(username)) {
        records.push_back(record.serialize());
      }
    }
    Response response;
    response.fields["MODE"] = "snapshot";
    response.fields["SNAPSHOT_COUNT"] = std::to_string(records.size());
    response.fields["SNAPSHOT_SEQ"] = std::to_string(snapshot_seq);
    channel.send(response.serialize());
    for (const auto& text : records) channel.send(text);
    replica_seq = snapshot_seq;
    stats_.repl_snapshots_served.fetch_add(1, std::memory_order_relaxed);
    stats_.repl_snapshot_records.fetch_add(records.size(),
                                           std::memory_order_relaxed);
    audit_.record({now(), "REPLICA_SYNC", peer.identity.str(), "",
                   AuditOutcome::kSuccess,
                   fmt::format("snapshot served: {} record(s) through "
                               "sequence {}",
                               records.size(), snapshot_seq)});
    log::info(kLogComponent,
              "served snapshot to replica '{}': {} record(s), sequence {}",
              peer.identity.str(), records.size(), snapshot_seq);
  } else {
    Response response;
    response.fields["MODE"] = "tail";
    channel.send(response.serialize());
    audit_.record({now(), "REPLICA_SYNC", peer.identity.str(), "",
                   AuditOutcome::kSuccess,
                   fmt::format("replica connected at sequence {}",
                               replica_seq)});
  }

  // Stream loop: ship batches as the journal grows, empty heartbeats about
  // once a second otherwise. The replica acks each message; a silent or
  // dead replica trips the request deadline and ends the stream.
  bool was_lagging = false;
  try {
    while (!stopping_.load()) {
      (void)journal.wait_for_entries(replica_seq, Millis(1000));
      replication::Batch batch;
      batch.entries =
          journal.entries_after(replica_seq, config_.replication_batch);
      batch.primary_last_sequence = journal.last_sequence();
      channel.send(replication::encode_batch(batch));
      const std::uint64_t acked =
          replication::decode_ack(channel.receive());
      replica_seq = std::max(replica_seq, acked);
      stats_.repl_batches_shipped.fetch_add(1, std::memory_order_relaxed);
      stats_.repl_ops_shipped.fetch_add(batch.entries.size(),
                                        std::memory_order_relaxed);
      stats_.repl_last_acked_seq.store(acked, std::memory_order_relaxed);

      const std::uint64_t lag = journal.last_sequence() > acked
                                    ? journal.last_sequence() - acked
                                    : 0;
      const bool lagging = lag > config_.replication_batch;
      if (lagging && !was_lagging) {
        audit_.record({now(), "REPLICA_SYNC", peer.identity.str(), "",
                       AuditOutcome::kError,
                       fmt::format("replica lagging: {} entries behind",
                                   lag)});
      }
      was_lagging = lagging;
    }
  } catch (const IoError& e) {
    // Replica went away (failover drill, crash, or network): end the
    // stream quietly; it will reconnect and resume from its acked offset.
    audit_.record({now(), "REPLICA_SYNC", peer.identity.str(), "",
                   AuditOutcome::kError,
                   fmt::format("replica stream ended: {}", e.what())});
    log::info(kLogComponent, "replica '{}' stream ended: {}",
              peer.identity.str(), e.what());
  }
}

// --- Cluster (CLUSTER_MAP / MIGRATE / MIGRATE_INSTALL) -----------------------

void MyProxyServer::set_cluster(cluster::ClusterMap map,
                                std::uint16_t self_port) {
  if (map.empty()) {
    throw ConfigError("set_cluster requires a non-empty shard map");
  }
  if (self_port == 0) {
    throw ConfigError(
        "clustering requires cluster_self (this node's primary port)");
  }
  const std::lock_guard lock(cluster_mutex_);
  cluster_map_ = std::move(map);
  cluster_self_ = self_port;
  log::info(kLogComponent,
            "cluster map installed: epoch {}, {} shard(s), {} owned here",
            cluster_map_.epoch(), cluster_map_.shard_count(),
            cluster_map_.owned_shards(cluster_self_).size());
}

cluster::ClusterMap MyProxyServer::cluster_map() const {
  const std::lock_guard lock(cluster_mutex_);
  return cluster_map_;
}

bool MyProxyServer::cluster_enabled() const {
  const std::lock_guard lock(cluster_mutex_);
  return !cluster_map_.empty();
}

std::optional<Response> MyProxyServer::cluster_refusal_for(
    const std::string& username) {
  const std::lock_guard lock(cluster_mutex_);
  if (cluster_map_.empty() || username.empty()) return std::nullopt;
  const std::uint32_t shard = cluster_map_.shard_of(username);
  if (cluster_map_.owns(cluster_self_, shard)) return std::nullopt;
  const cluster::ShardNode& owner = cluster_map_.node(shard);
  Response refusal = Response::make_error(fmt::format(
      "wrong shard: this node does not own shard {} (map epoch {})", shard,
      cluster_map_.epoch()));
  refusal.fields["WRONG_SHARD"] = "1";
  refusal.fields["SHARD"] = std::to_string(shard);
  refusal.fields["EPOCH"] = std::to_string(cluster_map_.epoch());
  refusal.fields["PRIMARY"] = std::to_string(owner.primary);
  return refusal;
}

std::shared_lock<std::shared_mutex> MyProxyServer::cluster_write_permit(
    const std::string& username) {
  std::shared_lock<std::shared_mutex> permit(fence_mutex_);
  const std::int64_t fenced = fenced_shard_.load(std::memory_order_acquire);
  if (fenced >= 0) {
    const std::lock_guard lock(cluster_mutex_);
    if (!cluster_map_.empty() &&
        static_cast<std::int64_t>(cluster_map_.shard_of(username)) ==
            fenced) {
      throw MigrationFenced{};
    }
  }
  // Ownership may have moved while this request was mid-protocol (the
  // cutover completed between the serve_request check and the mutation):
  // re-check under the permit so a write can never land on a shard this
  // node no longer owns.
  if (auto refusal = cluster_refusal_for(username)) {
    throw ClusterRefusal{std::move(*refusal)};
  }
  return permit;
}

void MyProxyServer::handle_cluster_map(net::Channel& channel, const Request&,
                                       const pki::VerifiedIdentity&) {
  std::string text;
  Response response;
  {
    const std::lock_guard lock(cluster_mutex_);
    if (cluster_map_.empty()) {
      throw PolicyError("clustering is not enabled on this server");
    }
    text = cluster_map_.serialize();
    response.fields["EPOCH"] = std::to_string(cluster_map_.epoch());
    response.fields["SHARDS"] = std::to_string(cluster_map_.shard_count());
  }
  // The serialized map is multi-line, which response fields cannot carry;
  // it travels as its own frame after the response.
  channel.send(response.serialize());
  channel.send(text);
}

namespace {

/// Username a journal entry belongs to, for shard-filtering the migration
/// replay. Mirrors how ReplicatedStore journals each op type.
std::string entry_username(const replication::JournalEntry& entry) {
  switch (entry.type) {
    case replication::OpType::kPut:
      return repository::CredentialRecord::parse(entry.payload).username;
    case replication::OpType::kRemove: {
      // Payload is the store key "<username>\x1e<credential name>".
      const std::size_t sep = entry.payload.find('\x1e');
      return entry.payload.substr(
          0, sep == std::string::npos ? entry.payload.size() : sep);
    }
    case replication::OpType::kRemoveAll:
      return entry.payload;
  }
  return {};
}

}  // namespace

void MyProxyServer::handle_migrate(net::Channel& channel,
                                   const Request& request,
                                   const pki::VerifiedIdentity& peer) {
  if (config_.replication_role == replication::ReplicationRole::kReplica) {
    throw PolicyError("shard migration must run on the shard's primary");
  }
  if (config_.journal == nullptr) {
    throw PolicyError("shard migration requires a journaling primary");
  }
  const auto target = strings::parse_u64(request.target);
  if (!target.has_value() || *target == 0 || *target > 0xffff) {
    throw PolicyError("MIGRATE requires TARGET=<target primary port>");
  }
  const auto target_port = static_cast<std::uint16_t>(*target);
  const std::uint32_t shard = request.shard;

  cluster::ClusterMap map;
  {
    const std::lock_guard lock(cluster_mutex_);
    if (cluster_map_.empty()) {
      throw PolicyError("clustering is not enabled on this server");
    }
    map = cluster_map_;
  }
  if (shard >= map.shard_count()) {
    throw PolicyError(fmt::format("no shard {} (map has {} shard(s))", shard,
                                  map.shard_count()));
  }
  if (!map.owns(cluster_self_, shard)) {
    throw PolicyError(fmt::format(
        "this node does not own shard {}; run MIGRATE on its owner", shard));
  }
  if (target_port == cluster_self_) {
    throw PolicyError("target node already owns the shard");
  }

  bool not_migrating = false;
  if (!migration_in_flight_.compare_exchange_strong(not_migrating, true)) {
    throw PolicyError("a shard migration is already in flight");
  }
  // Unwinds the fence and the in-flight flag on every exit path — a failed
  // migration must leave the node serving writes again.
  struct MigrationScope {
    MyProxyServer& server;
    ~MigrationScope() {
      server.fenced_shard_.store(-1, std::memory_order_release);
      server.migration_in_flight_.store(false, std::memory_order_release);
    }
  } scope{*this};

  stats_.cluster_migrations_started.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t new_epoch = map.epoch() + 1;
  auto& journal = *config_.journal;
  log::info(kLogComponent,
            "migrating shard {} to primary port {} (epoch {} -> {})", shard,
            target_port, map.epoch(), new_epoch);

  // Open the install stream to the new owner (mutual TLS, same trust roots
  // as every other channel in the system).
  tls::TlsContext out_context = tls::TlsContext::make(host_credential_);
  auto out = tls::TlsChannel::connect(
      out_context, net::tcp_connect(target_port, config_.handshake_timeout),
      config_.request_timeout);
  (void)trust_store_.verify(out->peer_chain());
  Request install;
  install.command = Command::kMigrateInstall;
  install.shard = shard;
  install.sequence = new_epoch;  // SEQ carries the post-migration epoch
  out->send(install.serialize());
  const Response opened = Response::parse(out->receive());
  if (!opened.ok()) {
    throw PolicyError(fmt::format("target refused the migrating shard: {}",
                                  opened.error));
  }

  const auto in_shard = [&map, shard](std::string_view username) {
    return map.shard_of(username) == shard;
  };
  std::uint64_t shipped = 0;
  const std::size_t batch_limit =
      std::max<std::size_t>(std::size_t{1}, config_.replication_batch);
  const auto ship = [&](std::vector<replication::JournalEntry> entries) {
    if (entries.empty()) return;
    replication::Batch batch;
    batch.primary_last_sequence = journal.last_sequence();
    batch.entries = std::move(entries);
    out->send(replication::encode_batch(batch));
    (void)replication::decode_ack(out->receive());
    shipped += batch.entries.size();
  };

  // Phase 1 — bulk copy. The journal cursor is captured *before* reading
  // the store, so any write racing the copy is replayed by the tail drains
  // below (apply_entry is idempotent; a record seen twice converges).
  std::uint64_t cursor = journal.last_sequence();
  std::vector<std::string> moved_users;
  {
    const auto& store = repository_->store();
    std::vector<replication::JournalEntry> chunk;
    for (const auto& username : store.usernames()) {
      if (!in_shard(username)) continue;
      moved_users.push_back(username);
      for (const auto& record : store.list(username)) {
        chunk.push_back(
            {0, replication::OpType::kPut, record.serialize()});
        if (chunk.size() >= batch_limit) {
          ship(std::move(chunk));
          chunk = {};
        }
      }
    }
    ship(std::move(chunk));
  }

  // Replays journal growth since `cursor`, filtered to the moving shard.
  // Bounded by the tail position at entry so concurrent writes to *other*
  // shards cannot keep it chasing the log forever.
  const auto drain_tail = [&] {
    const std::uint64_t tip = journal.last_sequence();
    while (cursor < tip) {
      const auto entries = journal.entries_after(cursor, batch_limit);
      if (entries.empty()) break;
      cursor = entries.back().sequence;
      std::vector<replication::JournalEntry> wanted;
      for (const auto& entry : entries) {
        if (in_shard(entry_username(entry))) wanted.push_back(entry);
      }
      ship(std::move(wanted));
    }
  };

  // Phase 2 — catch-up replay of writes that landed during the copy.
  drain_tail();

  // Phase 3 — cutover. Fence new writes to the shard, then take the fence
  // barrier: the exclusive acquisition returns only once every write that
  // already held a permit has committed and journaled. The drain after it
  // is therefore final — nothing for this shard can enter the journal
  // until ownership has moved.
  fenced_shard_.store(static_cast<std::int64_t>(shard),
                      std::memory_order_release);
  { const std::unique_lock<std::shared_mutex> barrier(fence_mutex_); }
  drain_tail();

  // Phase 4 — commit: the target adopts the shard at the new epoch.
  out->send(fmt::format("COMMIT {}", new_epoch));
  const Response committed = Response::parse(out->receive());
  if (!committed.ok()) {
    throw PolicyError(fmt::format("target refused migration commit: {}",
                                  committed.error));
  }

  // Phase 5 — flip local ownership. From here writes for the shard get a
  // WRONG_SHARD refusal naming the new owner (the fence lifts when `scope`
  // unwinds).
  {
    const std::lock_guard lock(cluster_mutex_);
    cluster_map_.reassign(shard, map.node_endpoints(target_port), new_epoch);
  }

  // Phase 6 — drop the moved range locally. Ordinary journaled removals,
  // so this node's own replicas forget the range too. The target has been
  // the owner of record since the commit, so a crash mid-loop strands only
  // unreachable dead records, never live ones.
  auto& store = repository_->store_mutable();
  for (const auto& username : moved_users) {
    (void)store.remove_all(username);
  }

  stats_.cluster_records_migrated_out.fetch_add(shipped,
                                                std::memory_order_relaxed);
  stats_.cluster_migrations_completed.fetch_add(1, std::memory_order_relaxed);
  audit_.record({now(), "MIGRATE", peer.identity.str(), "",
                 AuditOutcome::kSuccess,
                 fmt::format("shard {} -> port {}: {} user(s), {} record(s), "
                             "epoch {}",
                             shard, target_port, moved_users.size(), shipped,
                             new_epoch)});
  log::info(kLogComponent,
            "shard {} migrated to port {}: {} user(s), {} record(s)", shard,
            target_port, moved_users.size(), shipped);
  Response done;
  done.fields["MOVED_USERS"] = std::to_string(moved_users.size());
  done.fields["MOVED_RECORDS"] = std::to_string(shipped);
  done.fields["EPOCH"] = std::to_string(new_epoch);
  channel.send(done.serialize());
}

void MyProxyServer::handle_migrate_install(net::Channel& channel,
                                           const Request& request,
                                           const pki::VerifiedIdentity& peer) {
  if (config_.replication_role == replication::ReplicationRole::kReplica) {
    throw PolicyError("a replica cannot receive a shard");
  }
  {
    const std::lock_guard lock(cluster_mutex_);
    if (cluster_map_.empty()) {
      throw PolicyError("clustering is not enabled on this server");
    }
    if (request.shard >= cluster_map_.shard_count()) {
      throw PolicyError(fmt::format("no shard {} (map has {} shard(s))",
                                    request.shard,
                                    cluster_map_.shard_count()));
    }
    if (request.sequence <= cluster_map_.epoch()) {
      throw PolicyError(fmt::format(
          "stale migration epoch {} (map is already at {})",
          request.sequence, cluster_map_.epoch()));
    }
  }
  channel.send(Response::make_ok().serialize());
  log::info(kLogComponent,
            "receiving shard {} from '{}' (target epoch {})", request.shard,
            peer.identity.str(), request.sequence);

  // Apply through the repository's (replicated) store: each entry journals
  // locally, so this node's own replicas follow the incoming range.
  auto& store = repository_->store_mutable();
  std::uint64_t applied = 0;
  while (true) {
    const std::string frame = channel.receive();
    if (frame.rfind("COMMIT ", 0) == 0) {
      const auto epoch =
          strings::parse_u64(strings::trim(frame.substr(7)));
      if (!epoch.has_value() || *epoch != request.sequence) {
        throw ProtocolError("migration commit epoch mismatch");
      }
      const std::lock_guard lock(cluster_mutex_);
      cluster_map_.reassign(request.shard,
                            cluster_map_.node_endpoints(cluster_self_),
                            *epoch);
      break;
    }
    const replication::Batch batch = replication::decode_batch(frame);
    for (const auto& entry : batch.entries) {
      replication::apply_entry(store, entry);
    }
    applied += batch.entries.size();
    stats_.cluster_records_migrated_in.fetch_add(batch.entries.size(),
                                                 std::memory_order_relaxed);
    channel.send(replication::encode_ack(applied));
  }

  audit_.record({now(), "MIGRATE_INSTALL", peer.identity.str(), "",
                 AuditOutcome::kSuccess,
                 fmt::format("shard {} installed: {} record(s), epoch {}",
                             request.shard, applied, request.sequence)});
  log::info(kLogComponent, "shard {} installed: {} record(s), now epoch {}",
            request.shard, applied, request.sequence);
  channel.send(Response::make_ok().serialize());
}

// Single source of truth for every numeric counter the server exposes:
// handle_stats (STATS over TLS) and render_metrics (/metrics scrape) both
// read this, so the two surfaces agree by construction. Lock-free — only
// atomics and the striped store's size() are touched.
std::vector<std::pair<std::string, std::uint64_t>>
MyProxyServer::counter_snapshot() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(48);
  const auto put = [&out](std::string_view key, std::uint64_t value) {
    out.emplace_back(std::string(key), value);
  };
  put("CONNECTIONS", stats_.connections.load());
  put("PUTS", stats_.puts.load());
  put("GETS", stats_.gets.load());
  put("RENEWALS", stats_.renewals.load());
  put("AUTH_FAILURES", stats_.auth_failures.load());
  put("AUTHZ_FAILURES", stats_.authz_failures.load());
  put("PROTOCOL_ERRORS", stats_.protocol_errors.load());
  put("TIMEOUTS", stats_.timeouts.load());
  put("SHED_CONNECTIONS", stats_.shed_connections.load());
  put("IN_FLIGHT", in_flight());
  put("PEAK_IN_FLIGHT", stats_.peak_in_flight.load());
  put("FULL_HANDSHAKES", stats_.full_handshakes.load());
  put("RESUMED_HANDSHAKES", stats_.resumed_handshakes.load());
  put("KEYPOOL_HITS", stats_.keypool_hits.load());
  put("KEYPOOL_MISSES", stats_.keypool_misses.load());
  put("SWEEPS", stats_.sweeps.load());
  put("RECORDS_SWEPT", stats_.records_swept.load());
  put("STORE_RECORDS", repository_->size());
  put("PUT_STORE_US", stats_.put_store_us.load());
  put("GET_OPEN_US", stats_.get_open_us.load());

  const AdmissionController::Counters admission = admission_.counters();
  put("ADMISSION_ACCEPTED", admission.accepted);
  put("ADMISSION_SHED_RATE", admission.shed_rate);
  put("ADMISSION_SHED_QUEUE", admission.shed_queue);
  put("ADMISSION_PREAUTH_ACCEPTED", admission.preauth_accepted);
  put("ADMISSION_PREAUTH_SHED", admission.preauth_shed);
  put("ADMISSION_QUEUED", admission.queued);
  put("ADMISSION_IDENTITIES", admission.identities);

  if (key_pool_ != nullptr) {
    const auto pool_stats = key_pool_->stats();
    put("KEYPOOL_AVAILABLE", key_pool_->available());
    put("KEYPOOL_GENERATED", pool_stats.generated);
    put("KEYPOOL_DRAINED", pool_stats.drained);
  }
  if (config_.journal != nullptr) {
    put("REPL_JOURNAL_SEQ", config_.journal->last_sequence());
    put("REPL_LAST_ACKED_SEQ", stats_.repl_last_acked_seq.load());
    put("REPL_REPLICAS_CONNECTED", stats_.repl_replicas_connected.load());
    put("REPL_SNAPSHOTS_SERVED", stats_.repl_snapshots_served.load());
    put("REPL_SNAPSHOT_RECORDS", stats_.repl_snapshot_records.load());
    put("REPL_BATCHES_SHIPPED", stats_.repl_batches_shipped.load());
    put("REPL_OPS_SHIPPED", stats_.repl_ops_shipped.load());
  }
  if (replica_session_ != nullptr) {
    const auto& rs = replica_session_->stats();
    put("REPL_LAST_APPLIED_SEQ", rs.last_applied_sequence.load());
    put("REPL_LAG", rs.lag.load());
    put("REPL_CONNECTED", rs.connected.load() ? 1 : 0);
    put("REPL_SNAPSHOTS_INSTALLED", rs.snapshots_installed.load());
    put("REPL_OPS_APPLIED", rs.ops_applied.load());
    put("REPL_RECONNECTS", rs.reconnects.load());
  }
  put("REPL_REDIRECTS", stats_.repl_redirects.load());

  {
    const std::lock_guard lock(cluster_mutex_);
    if (!cluster_map_.empty()) {
      put("CLUSTER_EPOCH", cluster_map_.epoch());
      put("CLUSTER_SHARDS", cluster_map_.shard_count());
      put("CLUSTER_SHARDS_OWNED",
          cluster_map_.owned_shards(cluster_self_).size());
      put("CLUSTER_WRONG_SHARD", stats_.cluster_wrong_shard.load());
      put("CLUSTER_FENCED_WRITES", stats_.cluster_fenced_writes.load());
      put("CLUSTER_MIGRATION_ACTIVE",
          migration_in_flight_.load(std::memory_order_relaxed) ? 1 : 0);
      put("CLUSTER_MIGRATIONS_STARTED",
          stats_.cluster_migrations_started.load());
      put("CLUSTER_MIGRATIONS_COMPLETED",
          stats_.cluster_migrations_completed.load());
      put("CLUSTER_RECORDS_OUT", stats_.cluster_records_migrated_out.load());
      put("CLUSTER_RECORDS_IN", stats_.cluster_records_migrated_in.load());
    }
  }
  return out;
}

std::string MyProxyServer::render_metrics() const {
  std::string out;
  out.reserve(16384);
  for (const auto& [key, value] : counter_snapshot()) {
    std::string name = "myproxy_";
    for (const char c : key) {
      name += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    }
    out += fmt::format("{} {}\n", name, value);
  }
  out += fmt::format("myproxy_repl_role{{role=\"{}\"}} 1\n",
                     replication::to_string(config_.replication_role));
  for (const auto& entry : admission_.top_identities(kTopIdentities)) {
    const std::string label = metrics_label_escape(entry.identity);
    out += fmt::format(
        "myproxy_admission_identity_served{{identity=\"{}\"}} {}\n", label,
        entry.served);
    out += fmt::format(
        "myproxy_admission_identity_shed{{identity=\"{}\"}} {}\n", label,
        entry.shed);
  }
  out += "# TYPE myproxy_op_latency_us histogram\n";
  for (std::size_t i = 0; i < ServerStats::kOpCount; ++i) {
    append_histogram(
        out, "myproxy_op_latency_us",
        fmt::format("op=\"{}\"",
                    protocol::to_string(static_cast<Command>(i))),
        stats_.op_latency[i].snapshot());
  }
  return out;
}

void MyProxyServer::handle_stats(net::Channel& channel, const Request&,
                                 const pki::VerifiedIdentity&) {
  Response response;
  for (const auto& [key, value] : counter_snapshot()) {
    response.fields[key] = std::to_string(value);
  }
  response.fields["REPL_ROLE"] =
      std::string(replication::to_string(config_.replication_role));
  // Who is being shed (and served), heaviest shedder first — the aggregate
  // shed counters alone cannot name the noisy identity.
  std::size_t rank = 0;
  for (const auto& entry : admission_.top_identities(kTopIdentities)) {
    response.fields[fmt::format("ADMISSION_TOP{}", rank++)] = fmt::format(
        "served={} shed={} {}", entry.served, entry.shed, entry.identity);
  }
  channel.send(response.serialize());
}

}  // namespace myproxy::server
