// TLS transport with mutual authentication by Grid credentials.
//
// The paper uses SSL for three things (§2.2): authentication, message
// integrity, and message privacy, with *mutual* authentication between
// MyProxy clients and the repository (§5.1: "MyProxy clients also require
// mutual authentication of the repository"). GSI-specific chain rules
// (proxy certificates) are not expressible in stock X.509 path validation,
// so this layer transports the peer's full certificate chain and leaves the
// trust decision to pki::TrustStore::verify — exactly how GSI layers on
// SSL "without modification".
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gsi/credential.hpp"
#include "net/channel.hpp"
#include "net/socket.hpp"
#include "pki/certificate.hpp"

using SSL_CTX = struct ssl_ctx_st;
using SSL_SESSION = struct ssl_session_st;

namespace myproxy::tls {

/// A resumable TLS session handle (reference-counted SSL_SESSION). Clients
/// capture one after a connection's reads have processed the server's
/// session tickets, and pass it to TlsChannel::connect to skip the full
/// handshake on the next connection (the portal's many-short-connections
/// workload, paper §3.2).
class TlsSession {
 public:
  TlsSession() = default;

  [[nodiscard]] bool valid() const noexcept { return session_ != nullptr; }
  [[nodiscard]] SSL_SESSION* native() const noexcept {
    return session_.get();
  }

  /// Adopt an SSL_SESSION (takes one reference).
  static TlsSession adopt(SSL_SESSION* session);

 private:
  std::shared_ptr<SSL_SESSION> session_;
};

/// Whether the peer must present a certificate. GSI connections require
/// mutual authentication; the portal's browser-facing HTTPS (§5.2) is
/// server-auth only, since 2001-era browsers hold no Grid credentials —
/// that asymmetry is the paper's core problem statement.
enum class PeerAuth { kRequired, kNone };

/// Server-side session resumption policy. When enabled, the accepting
/// context issues session tickets *on demand* (TlsChannel::arm_session_
/// ticket, called only after the application has verified the peer's GSI
/// chain) and recovers the application data sealed into a ticket when a
/// client resumes. Tickets are encrypted and authenticated under the
/// process's ticket key, so the recovered appdata is exactly what this
/// server wrote at full-handshake time.
struct SessionResumption {
  bool enabled = false;
  /// Ticket/session lifetime; resumption after this requires a full
  /// handshake. Application appdata should carry its own expiry too
  /// (credentials outlive or underlive TLS state independently).
  std::chrono::seconds timeout{3600};
};

/// Holds an SSL_CTX configured with a credential (certificate, key, chain).
/// One context is typically shared by many channels.
class TlsContext {
 public:
  /// Build a context presenting `credential` to peers. Works for both the
  /// connecting and accepting role. Peer certificates (when required) are
  /// accepted unconditionally at the TLS layer — callers must pass the
  /// peer chain to TrustStore::verify before trusting the connection.
  static TlsContext make(const gsi::Credential& credential,
                         PeerAuth peer_auth = PeerAuth::kRequired,
                         const SessionResumption& resumption = {});

  /// Context with no credential at all — a browser-like client that can
  /// authenticate the server but presents nothing itself.
  static TlsContext anonymous_client();

  [[nodiscard]] SSL_CTX* native() const noexcept { return ctx_.get(); }

 private:
  std::shared_ptr<SSL_CTX> ctx_;
};

/// Progress of an incremental TLS operation on a non-blocking socket:
/// finished, or waiting for the socket to become readable / writable (the
/// event loops of tls::Service map these onto epoll interest).
enum class IoWant { kDone, kRead, kWrite };

/// One TLS connection, implementing the framed message Channel.
class TlsChannel final : public net::Channel {
 public:
  /// Run the accepting-side handshake over `socket`. A non-zero
  /// `handshake_timeout` arms read/write deadlines on the socket first, so
  /// a peer that connects and never speaks TLS raises IoTimeout instead of
  /// pinning the calling thread forever. The deadlines stay armed after the
  /// handshake until set_deadlines() changes them.
  static std::unique_ptr<TlsChannel> accept(
      const TlsContext& context, net::Socket socket,
      std::chrono::milliseconds handshake_timeout = {});

  /// Run the connecting-side handshake over `socket`; `handshake_timeout`
  /// as in accept(). A valid `resume` session is offered to the server —
  /// check resumed() afterwards to see whether it was honoured (a server
  /// that lost or expired the session silently falls back to a full
  /// handshake; the connection still succeeds).
  static std::unique_ptr<TlsChannel> connect(
      const TlsContext& context, net::Socket socket,
      std::chrono::milliseconds handshake_timeout = {},
      const TlsSession* resume = nullptr);

  /// Begin an accepting-side handshake WITHOUT running it: wraps `socket`
  /// (which the caller has made non-blocking) and prepares the TLS state.
  /// Drive the handshake to completion with handshake_step(); peer_chain()
  /// is populated only once that returns IoWant::kDone.
  static std::unique_ptr<TlsChannel> accept_async(const TlsContext& context,
                                                  net::Socket socket);

  /// Advance a non-blocking handshake by one step. kDone means the
  /// handshake finished (peer chain collected); kRead/kWrite mean the
  /// caller must wait for that readiness and call again. Throws IoError on
  /// handshake failure — never IoTimeout (deadlines are the caller's timer).
  [[nodiscard]] IoWant handshake_step();

  /// Incrementally receive one framed message on a non-blocking socket.
  /// kDone: `out` holds the complete message. kRead/kWrite: wait for that
  /// readiness and call again (partial input is buffered internally).
  /// Reads never cross a frame boundary, so switching back to blocking
  /// receive() after kDone sees a clean stream.
  [[nodiscard]] IoWant receive_step(std::string& out);

  /// Underlying descriptor, for event-loop registration.
  [[nodiscard]] int fd() const noexcept;

  /// Flip the underlying socket back to blocking mode — tls::Service hands
  /// the connection to a worker thread once the request has been read, and
  /// the worker path uses blocking I/O with SO_*TIMEO deadlines.
  void make_blocking();

  /// Re-arm the underlying socket deadlines (e.g. switch from handshake to
  /// per-request budgets). Zero clears a deadline.
  void set_deadlines(std::chrono::milliseconds read,
                     std::chrono::milliseconds write);

  ~TlsChannel() override;

  void send(std::string_view message) override;
  [[nodiscard]] std::string receive() override;
  void close() noexcept override;

  /// Peer's certificate chain, leaf first, exactly as presented in the
  /// handshake; empty when the peer authenticated anonymously (browser
  /// side of the portal). Feed to TrustStore::verify for GSI connections.
  [[nodiscard]] const std::vector<pki::Certificate>& peer_chain() const {
    return peer_chain_;
  }

  [[nodiscard]] bool peer_authenticated() const {
    return !peer_chain_.empty();
  }

  /// Negotiated protocol version string ("TLSv1.3"), for logs/benches.
  [[nodiscard]] std::string protocol_version() const;

  /// True when this connection resumed a previous session (abbreviated
  /// handshake) instead of performing a full one.
  [[nodiscard]] bool resumed() const;

  /// Accepting side, after application-layer authentication: seal `appdata`
  /// into a session ticket and queue it for the peer (sent with the next
  /// write). Requires a context built with SessionResumption::enabled;
  /// no-op otherwise. Call at most once per connection.
  void arm_session_ticket(std::string appdata);

  /// Accepting side of a resumed connection: the appdata sealed into the
  /// ticket the client presented; nullopt on full handshakes and on
  /// contexts without resumption.
  [[nodiscard]] const std::optional<std::string>& ticket_appdata() const;

  /// Connecting side: snapshot the current session for later resumption.
  /// Call after at least one receive() so TLS 1.3 tickets (delivered after
  /// the handshake) have been processed. Returns an invalid session when
  /// nothing resumable is available.
  [[nodiscard]] TlsSession session() const;

  /// Opaque connection state; public only so the OpenSSL ticket callbacks
  /// (free functions in the implementation file) can name it.
  struct Impl;

 private:
  /// `handshake_done`: collect the peer chain now (blocking accept/connect
  /// paths) or defer until handshake_step() completes (async path).
  TlsChannel(std::unique_ptr<Impl> impl, bool handshake_done);

  void collect_peer_chain();

  std::unique_ptr<Impl> impl_;
  std::vector<pki::Certificate> peer_chain_;
};

}  // namespace myproxy::tls
