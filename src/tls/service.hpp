// The one TLS serving skeleton every listener runs on: the MyProxy port,
// the §6.4 HTTP gateway, the Grid portal's HTTPS front, and the Grid
// resource service.
//
// The paper's §5 threat model assumes hostile clients on every port, so the
// phases of a connection an attacker can make arbitrarily slow — accept,
// the TLS handshake, and reading the first framed message — run
// non-blocking on a small set of epoll event loops, each phase under an
// event-loop deadline timer. Idle or dribbling connections cost a file
// descriptor and a few KB of state, never a worker thread. A connection
// cap bounds the state: a single fetch_add reserves the in-flight slot and
// an over-cap socket is shed with a plaintext framed busy reply before any
// TLS work is spent on it.
//
// Once the first message is in hand, the socket flips back to blocking
// mode under the per-request SO_*TIMEO deadlines and the connection goes
// to a bounded ThreadPool through try_submit (a full queue sheds, it never
// blocks a loop). The caller's handler runs there: peer verification,
// everything crypto-heavy, and the rest of the conversation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy::tls {

/// Compiled defaults for every listener; MyProxy's ServerConfig starts from
/// the same values and lets the operator change them.
inline constexpr std::chrono::milliseconds kDefaultHandshakeTimeout{10000};
inline constexpr std::chrono::milliseconds kDefaultRequestTimeout{30000};
inline constexpr std::size_t kDefaultMaxConnections = 256;
inline constexpr std::size_t kDefaultMaxPending = 256;

struct ServiceConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port.
  std::uint16_t port = 0;

  /// Event loops; loop 0 also owns the listener and accepted connections
  /// are distributed round-robin.
  std::size_t loops = 1;

  std::size_t worker_threads = 2;

  /// Bound on the worker-pool queue; a full queue sheds the connection.
  std::size_t max_pending = kDefaultMaxPending;

  /// Budget for accept → handshake completion (zero disables).
  std::chrono::milliseconds handshake_timeout = kDefaultHandshakeTimeout;

  /// Budget for reading the first message, then the per-read/per-write
  /// socket deadline on the worker (zero disables).
  std::chrono::milliseconds request_timeout = kDefaultRequestTimeout;

  /// Connections in flight (parked on a loop, queued, or being served).
  /// Zero means unlimited.
  std::size_t max_connections = kDefaultMaxConnections;

  /// Framed refusal sent to a shed connection: in plaintext when the cap
  /// refuses it before TLS, over TLS when the worker queue is full.
  std::string busy_reply;

  /// Log component for this listener's connection events.
  std::string name = "tls.service";
};

/// Connection-level counters. A caller that reports them alongside its own
/// (MyProxyServer's ServerStats) passes its instance to the Service.
struct ServiceStats {
  std::atomic<std::uint64_t> connections{0};      ///< admitted under the cap
  std::atomic<std::uint64_t> protocol_errors{0};  ///< torn or garbage input
  std::atomic<std::uint64_t> timeouts{0};          ///< reaped by a deadline
  std::atomic<std::uint64_t> shed_connections{0};  ///< refused: cap/queue/hook
  std::atomic<std::uint64_t> peak_in_flight{0};    ///< high-water admitted gauge
};

class Service {
 public:
  /// Runs on a pool worker with the channel in blocking mode under the
  /// request deadline. An escaping IoTimeout counts a timeout, any other
  /// exception a protocol error.
  using Handler = std::function<void(std::shared_ptr<TlsChannel> channel,
                                     std::string first_frame)>;

  /// Consulted on the event loop at hand-off. A returned frame refuses the
  /// connection: it is sent over TLS and the connection is shed.
  using HandOffHook =
      std::function<std::optional<std::string>(const TlsChannel& channel)>;

  /// `stats` (optional) must outlive the Service; by default the Service
  /// counts into its own.
  Service(TlsContext context, ServiceConfig config, Handler handler,
          HandOffHook hook = {}, ServiceStats* stats = nullptr);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Bind, start the loops and the worker pool, and return.
  void start();

  /// Stop accepting, drop connections still on a loop, drain handed-off
  /// ones, join every thread, close the listener. Idempotent.
  void stop();

  /// Port actually bound (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Reserved in-flight slots.
  [[nodiscard]] std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const ServiceStats& stats() const { return stats_; }

 private:
  /// Per-connection state machine: handshake → read first frame → hand off.
  struct Connection;

  void on_accept_ready();
  void begin_connection(std::size_t loop_index, net::Socket socket);

  /// Drive the connection as far as readiness allows, then re-arm epoll
  /// interest for whatever the TLS layer wants next.
  void advance(const std::shared_ptr<Connection>& conn);

  /// Arm the connection's deadline timer, replacing any armed one.
  void arm_deadline(const std::shared_ptr<Connection>& conn,
                    std::chrono::milliseconds budget, const char* phase);

  /// Remove the connection from its loop (deregister fd, cancel timer).
  void detach(const std::shared_ptr<Connection>& conn);

  void hand_off(const std::shared_ptr<Connection>& conn);

  /// Run the handler on a worker, counting what escapes it.
  void serve(std::shared_ptr<TlsChannel> channel, std::string first_frame);

  /// Atomically reserve an in-flight slot: a single fetch_add claims it and
  /// an over-cap claim is rolled back (a load-then-add pair would let a
  /// burst of accepts race past the cap). False when the cap refused.
  [[nodiscard]] bool reserve_slot();
  void release_slot();

  /// Count a shed connection and send a best-effort framed refusal, then
  /// close; a short write deadline keeps a stalled peer from pinning the
  /// loop. The socket form refuses before TLS with the configured reply.
  void shed(net::Socket socket, std::string_view reason);
  void shed(TlsChannel& channel, std::string_view reply);

  TlsContext context_;
  ServiceConfig config_;
  Handler handler_;
  HandOffHook hook_;
  ServiceStats own_stats_;
  ServiceStats& stats_;
  std::atomic<std::size_t> in_flight_{0};

  std::optional<net::TcpListener> listener_;
  std::uint16_t port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<net::EventLoop>> loops_;
  std::vector<std::thread> threads_;
  std::size_t next_loop_ = 0;  ///< touched only on loop 0
};

}  // namespace myproxy::tls
