#include "tls/tls_channel.hpp"

#include <openssl/err.h>
#include <openssl/ssl.h>
#include <openssl/x509.h>

#include "common/error.hpp"
#include "common/format.hpp"
#include "crypto/openssl_util.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <mutex>

namespace myproxy::tls {

namespace {

// SSL_write uses plain write(2); a peer that slams the connection shut
// would otherwise kill the whole server process with SIGPIPE. Write errors
// are reported through SSL_get_error instead.
void ignore_sigpipe_once() {
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

// Accept every certificate at the TLS layer; real validation happens in
// TrustStore::verify with GSI proxy semantics. Returning 1 here does NOT
// grant trust — a peer without a verifiable chain fails one layer up.
int accept_all_verify_callback(int /*preverify_ok*/,
                               X509_STORE_CTX* /*ctx*/) {
  return 1;
}

// Per-SSL pointer back to the owning TlsChannel::Impl so the ticket
// callbacks (which only see the SSL*) can exchange appdata with the
// channel object.
int impl_ex_data_index() {
  static const int index =
      SSL_get_ex_new_index(0, nullptr, nullptr, nullptr, nullptr);
  return index;
}

// Defined after TlsChannel::Impl (they dereference it).
int ticket_gen_callback(SSL* ssl, void* arg);
SSL_TICKET_RETURN ticket_decrypt_callback(SSL* ssl, SSL_SESSION* session,
                                          const unsigned char* keyname,
                                          size_t keyname_length,
                                          SSL_TICKET_STATUS status,
                                          void* arg);

[[noreturn]] void throw_ssl(std::string_view what, SSL* ssl, int rc) {
  const int saved_errno = errno;
  const int err = SSL_get_error(ssl, rc);
  const std::string queued = crypto::drain_error_queue();
  // With SO_RCVTIMEO/SO_SNDTIMEO armed on the underlying descriptor the
  // socket stays "blocking", so a deadline expiry surfaces here either as a
  // retryable BIO (WANT_READ/WANT_WRITE) or as a syscall EAGAIN.
  if (err == SSL_ERROR_WANT_READ || err == SSL_ERROR_WANT_WRITE ||
      (err == SSL_ERROR_SYSCALL &&
       (saved_errno == EAGAIN || saved_errno == EWOULDBLOCK))) {
    throw IoTimeout(fmt::format("{}: I/O deadline expired", what));
  }
  throw IoError(
      fmt::format("{}: ssl_error={} ({})", what, err, queued));
}

}  // namespace

TlsSession TlsSession::adopt(SSL_SESSION* session) {
  TlsSession out;
  if (session != nullptr) {
    out.session_ = std::shared_ptr<SSL_SESSION>(
        session, [](SSL_SESSION* p) { SSL_SESSION_free(p); });
  }
  return out;
}

TlsContext TlsContext::make(const gsi::Credential& credential,
                            PeerAuth peer_auth,
                            const SessionResumption& resumption) {
  ignore_sigpipe_once();
  SSL_CTX* raw = SSL_CTX_new(TLS_method());
  crypto::check_ptr(raw, "SSL_CTX_new");
  TlsContext out;
  out.ctx_ = std::shared_ptr<SSL_CTX>(raw,
                                      [](SSL_CTX* p) { SSL_CTX_free(p); });

  crypto::check(SSL_CTX_set_min_proto_version(raw, TLS1_2_VERSION),
                "SSL_CTX_set_min_proto_version");
  crypto::check(SSL_CTX_use_certificate(raw, credential.certificate().native()),
                "SSL_CTX_use_certificate");
  crypto::check(SSL_CTX_use_PrivateKey(raw, credential.key().native()),
                "SSL_CTX_use_PrivateKey");
  crypto::check(SSL_CTX_check_private_key(raw), "SSL_CTX_check_private_key");
  for (const auto& cert : credential.chain()) {
    // add_extra_chain_cert takes ownership; hand it its own reference.
    X509* copy = cert.native();
    X509_up_ref(copy);
    if (SSL_CTX_add_extra_chain_cert(raw, copy) != 1) {
      X509_free(copy);
      crypto::throw_openssl("SSL_CTX_add_extra_chain_cert");
    }
  }

  if (peer_auth == PeerAuth::kRequired) {
    // Require a peer certificate in both directions (mutual authentication,
    // paper §5.1), but defer the trust decision to the GSI layer.
    SSL_CTX_set_verify(raw, SSL_VERIFY_PEER | SSL_VERIFY_FAIL_IF_NO_PEER_CERT,
                       accept_all_verify_callback);
  } else {
    // Browser-facing HTTPS: clients hold no Grid credentials (§3.2); they
    // authenticate with the user name + pass phrase form instead.
    SSL_CTX_set_verify(raw, SSL_VERIFY_NONE, nullptr);
  }

  if (resumption.enabled) {
    // Resumption is ticket-based (works for both TLS 1.2 and 1.3, stateless
    // on the server). Automatic ticket issuance is suppressed — the server
    // decides per connection, *after* GSI verification, whether to arm a
    // ticket carrying the authenticated identity (arm_session_ticket).
    static const unsigned char kSidCtx[] = "myproxy";
    SSL_CTX_set_session_id_context(raw, kSidCtx, sizeof(kSidCtx) - 1);
    SSL_CTX_set_session_cache_mode(raw, SSL_SESS_CACHE_SERVER |
                                            SSL_SESS_CACHE_NO_INTERNAL);
    SSL_CTX_set_timeout(raw, static_cast<long>(resumption.timeout.count()));
    SSL_CTX_set_num_tickets(raw, 0);
    crypto::check(SSL_CTX_set_session_ticket_cb(raw, ticket_gen_callback,
                                                ticket_decrypt_callback,
                                                nullptr),
                  "SSL_CTX_set_session_ticket_cb");
  } else {
    // Explicitly no resumption: baseline contexts must not hand out
    // tickets a future connection could use to skip re-authentication.
    SSL_CTX_set_session_cache_mode(raw, SSL_SESS_CACHE_OFF);
    SSL_CTX_set_num_tickets(raw, 0);
  }
  return out;
}

TlsContext TlsContext::anonymous_client() {
  ignore_sigpipe_once();
  SSL_CTX* raw = SSL_CTX_new(TLS_method());
  crypto::check_ptr(raw, "SSL_CTX_new");
  TlsContext out;
  out.ctx_ = std::shared_ptr<SSL_CTX>(raw,
                                      [](SSL_CTX* p) { SSL_CTX_free(p); });
  crypto::check(SSL_CTX_set_min_proto_version(raw, TLS1_2_VERSION),
                "SSL_CTX_set_min_proto_version");
  SSL_CTX_set_verify(raw, SSL_VERIFY_NONE, nullptr);
  return out;
}

struct TlsChannel::Impl {
  net::Socket socket;
  SSL* ssl = nullptr;

  /// Appdata to seal into the next ticket generated on this connection
  /// (set by arm_session_ticket on the accepting side).
  std::string ticket_appdata_out;

  /// Appdata recovered from the ticket the peer resumed with.
  std::optional<std::string> ticket_appdata_in;

  // Incremental-receive state (receive_step, driven by tls::Service): bytes
  // accumulated toward the current header or body, and the body size once
  // the header has been decoded.
  std::string rx_buffer;
  std::size_t rx_body_size = 0;
  bool rx_have_header = false;

  ~Impl() {
    if (ssl != nullptr) SSL_free(ssl);
  }
};

namespace {

TlsChannel::Impl* impl_from_ssl(SSL* ssl) {
  return static_cast<TlsChannel::Impl*>(
      SSL_get_ex_data(ssl, impl_ex_data_index()));
}

int ticket_gen_callback(SSL* ssl, void* /*arg*/) {
  // Only issue tickets the application armed: a ticket without sealed
  // identity appdata would let a resuming peer skip GSI verification
  // without giving the server anything to authorize against.
  TlsChannel::Impl* impl = impl_from_ssl(ssl);
  if (impl == nullptr || impl->ticket_appdata_out.empty()) return 0;
  if (SSL_SESSION_set1_ticket_appdata(
          SSL_get_session(ssl), impl->ticket_appdata_out.data(),
          impl->ticket_appdata_out.size()) != 1) {
    return 0;
  }
  return 1;
}

SSL_TICKET_RETURN ticket_decrypt_callback(SSL* ssl, SSL_SESSION* session,
                                          const unsigned char* /*keyname*/,
                                          size_t /*keyname_length*/,
                                          SSL_TICKET_STATUS status,
                                          void* /*arg*/) {
  if (status != SSL_TICKET_SUCCESS && status != SSL_TICKET_SUCCESS_RENEW) {
    // Undecryptable / unrecognized ticket (e.g. issued by a previous server
    // process): ignore it and fall back to a full handshake.
    return SSL_TICKET_RETURN_IGNORE;
  }
  void* data = nullptr;
  size_t length = 0;
  if (SSL_SESSION_get0_ticket_appdata(session, &data, &length) != 1 ||
      data == nullptr || length == 0) {
    // Ticket without sealed identity: never accept it for resumption.
    return SSL_TICKET_RETURN_IGNORE;
  }
  if (TlsChannel::Impl* impl = impl_from_ssl(ssl); impl != nullptr) {
    impl->ticket_appdata_in =
        std::string(static_cast<const char*>(data), length);
  }
  return status == SSL_TICKET_SUCCESS_RENEW ? SSL_TICKET_RETURN_USE_RENEW
                                            : SSL_TICKET_RETURN_USE;
}

}  // namespace

TlsChannel::TlsChannel(std::unique_ptr<Impl> impl, bool handshake_done)
    : impl_(std::move(impl)) {
  if (handshake_done) collect_peer_chain();
}

void TlsChannel::collect_peer_chain() {
  // Collect the peer chain, leaf first. A missing certificate is legal
  // only when the context was built with PeerAuth::kNone (the TLS
  // handshake itself enforces kRequired); peer_chain() stays empty then.
  X509* leaf = SSL_get_peer_certificate(impl_->ssl);  // +1 ref
  if (leaf == nullptr) return;
  peer_chain_.push_back(pki::Certificate::adopt(leaf));

  STACK_OF(X509)* stack = SSL_get_peer_cert_chain(impl_->ssl);  // borrowed
  if (stack != nullptr) {
    for (int i = 0; i < sk_X509_num(stack); ++i) {
      X509* cert = sk_X509_value(stack, i);
      pki::Certificate wrapped = [cert] {
        X509_up_ref(cert);
        return pki::Certificate::adopt(cert);
      }();
      // On the connecting side the stack includes the leaf; skip it.
      if (wrapped == peer_chain_.front()) continue;
      peer_chain_.push_back(std::move(wrapped));
    }
  }
}

TlsChannel::~TlsChannel() = default;

std::unique_ptr<TlsChannel> TlsChannel::accept(
    const TlsContext& context, net::Socket socket,
    std::chrono::milliseconds handshake_timeout) {
  auto impl = std::make_unique<Impl>();
  impl->socket = std::move(socket);
  if (handshake_timeout.count() > 0) {
    impl->socket.set_deadlines(handshake_timeout, handshake_timeout);
  }
  impl->ssl = crypto::check_ptr(SSL_new(context.native()), "SSL_new");
  crypto::check(SSL_set_ex_data(impl->ssl, impl_ex_data_index(), impl.get()),
                "SSL_set_ex_data");
  crypto::check(SSL_set_fd(impl->ssl, impl->socket.fd()), "SSL_set_fd");
  const int rc = SSL_accept(impl->ssl);
  if (rc != 1) throw_ssl("TLS accept handshake failed", impl->ssl, rc);
  return std::unique_ptr<TlsChannel>(new TlsChannel(std::move(impl), true));
}

std::unique_ptr<TlsChannel> TlsChannel::accept_async(const TlsContext& context,
                                                     net::Socket socket) {
  auto impl = std::make_unique<Impl>();
  impl->socket = std::move(socket);
  impl->ssl = crypto::check_ptr(SSL_new(context.native()), "SSL_new");
  crypto::check(SSL_set_ex_data(impl->ssl, impl_ex_data_index(), impl.get()),
                "SSL_set_ex_data");
  crypto::check(SSL_set_fd(impl->ssl, impl->socket.fd()), "SSL_set_fd");
  SSL_set_accept_state(impl->ssl);
  return std::unique_ptr<TlsChannel>(new TlsChannel(std::move(impl), false));
}

IoWant TlsChannel::handshake_step() {
  const int rc = SSL_do_handshake(impl_->ssl);
  if (rc == 1) {
    collect_peer_chain();
    return IoWant::kDone;
  }
  const int err = SSL_get_error(impl_->ssl, rc);
  if (err == SSL_ERROR_WANT_READ) return IoWant::kRead;
  if (err == SSL_ERROR_WANT_WRITE) return IoWant::kWrite;
  const std::string queued = crypto::drain_error_queue();
  throw IoError(fmt::format(
      "TLS handshake failed: ssl_error={} ({})", err, queued));
}

IoWant TlsChannel::receive_step(std::string& out) {
  auto& im = *impl_;
  while (true) {
    const std::size_t target = im.rx_have_header ? im.rx_body_size : 4;
    while (im.rx_buffer.size() < target) {
      char chunk[4096];
      // Never read past the current frame boundary: a blocking receive()
      // issued by a worker after the handoff must see an intact stream.
      const std::size_t want =
          std::min(sizeof(chunk), target - im.rx_buffer.size());
      const int r = SSL_read(im.ssl, chunk, static_cast<int>(want));
      if (r <= 0) {
        const int err = SSL_get_error(im.ssl, r);
        if (err == SSL_ERROR_WANT_READ) return IoWant::kRead;
        if (err == SSL_ERROR_WANT_WRITE) return IoWant::kWrite;
        const std::string queued = crypto::drain_error_queue();
        throw IoError(fmt::format(
            "SSL_read failed: ssl_error={} ({})", err, queued));
      }
      im.rx_buffer.append(chunk, static_cast<std::size_t>(r));
    }
    if (!im.rx_have_header) {
      im.rx_body_size = net::decode_frame_header(im.rx_buffer);
      im.rx_buffer.clear();
      im.rx_have_header = true;
      if (im.rx_body_size == 0) {
        im.rx_have_header = false;
        out.clear();
        return IoWant::kDone;
      }
      im.rx_buffer.reserve(im.rx_body_size);
      continue;
    }
    out = std::move(im.rx_buffer);
    im.rx_buffer.clear();
    im.rx_have_header = false;
    im.rx_body_size = 0;
    return IoWant::kDone;
  }
}

int TlsChannel::fd() const noexcept { return impl_->socket.fd(); }

void TlsChannel::make_blocking() { impl_->socket.set_nonblocking(false); }

std::unique_ptr<TlsChannel> TlsChannel::connect(
    const TlsContext& context, net::Socket socket,
    std::chrono::milliseconds handshake_timeout, const TlsSession* resume) {
  auto impl = std::make_unique<Impl>();
  impl->socket = std::move(socket);
  if (handshake_timeout.count() > 0) {
    impl->socket.set_deadlines(handshake_timeout, handshake_timeout);
  }
  impl->ssl = crypto::check_ptr(SSL_new(context.native()), "SSL_new");
  crypto::check(SSL_set_ex_data(impl->ssl, impl_ex_data_index(), impl.get()),
                "SSL_set_ex_data");
  crypto::check(SSL_set_fd(impl->ssl, impl->socket.fd()), "SSL_set_fd");
  if (resume != nullptr && resume->valid()) {
    crypto::check(SSL_set_session(impl->ssl, resume->native()),
                  "SSL_set_session");
  }
  const int rc = SSL_connect(impl->ssl);
  if (rc != 1) throw_ssl("TLS connect handshake failed", impl->ssl, rc);
  return std::unique_ptr<TlsChannel>(new TlsChannel(std::move(impl), true));
}

void TlsChannel::set_deadlines(std::chrono::milliseconds read,
                               std::chrono::milliseconds write) {
  impl_->socket.set_deadlines(read, write);
}

void TlsChannel::send(std::string_view message) {
  const std::string header = net::encode_frame_header(message.size());
  std::string framed = header;
  framed += message;
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const int n = SSL_write(impl_->ssl, framed.data() + sent,
                            static_cast<int>(framed.size() - sent));
    if (n <= 0) throw_ssl("SSL_write", impl_->ssl, n);
    sent += static_cast<std::size_t>(n);
  }
}

std::string TlsChannel::receive() {
  const auto read_exact = [this](std::size_t n) {
    std::string out(n, '\0');
    std::size_t got = 0;
    while (got < n) {
      const int r = SSL_read(impl_->ssl, out.data() + got,
                             static_cast<int>(n - got));
      if (r <= 0) throw_ssl("SSL_read", impl_->ssl, r);
      got += static_cast<std::size_t>(r);
    }
    return out;
  };
  const std::string header = read_exact(4);
  const std::size_t size = net::decode_frame_header(header);
  if (size == 0) return {};
  return read_exact(size);
}

void TlsChannel::close() noexcept {
  if (impl_ != nullptr && impl_->ssl != nullptr) {
    SSL_shutdown(impl_->ssl);
  }
  if (impl_ != nullptr) impl_->socket.close();
}

std::string TlsChannel::protocol_version() const {
  return SSL_get_version(impl_->ssl);
}

bool TlsChannel::resumed() const {
  return SSL_session_reused(impl_->ssl) != 0;
}

void TlsChannel::arm_session_ticket(std::string appdata) {
  if (appdata.empty()) return;
  // SSL_new_session_ticket sidesteps SSL_CTX_set_num_tickets(ctx, 0), so a
  // context built without resumption would still mint a (callback-free,
  // identity-less) ticket here. Only resumption-enabled contexts carry
  // SSL_SESS_CACHE_SERVER; treat everything else as a no-op.
  const long cache_mode =
      SSL_CTX_get_session_cache_mode(SSL_get_SSL_CTX(impl_->ssl));
  if ((cache_mode & SSL_SESS_CACHE_SERVER) == 0) return;
  impl_->ticket_appdata_out = std::move(appdata);
  // SSL_new_session_ticket queues a NewSessionTicket; it leaves with the
  // next SSL_write. Fails benignly on contexts without resumption or on
  // TLS 1.2 connections (which got their ticket, if any, in-handshake).
  if (SSL_new_session_ticket(impl_->ssl) != 1) {
    impl_->ticket_appdata_out.clear();
    (void)crypto::drain_error_queue();
  }
}

const std::optional<std::string>& TlsChannel::ticket_appdata() const {
  return impl_->ticket_appdata_in;
}

TlsSession TlsChannel::session() const {
  SSL_SESSION* session = SSL_get1_session(impl_->ssl);  // +1 ref
  if (session == nullptr) return {};
  // Ticketless TLS 1.3 sessions still claim to be resumable (OpenSSL
  // synthesizes a session id); without a ticket the server can never
  // accept them, so treat them as non-resumable.
  if (SSL_SESSION_is_resumable(session) != 1 ||
      SSL_SESSION_has_ticket(session) != 1) {
    SSL_SESSION_free(session);
    return {};
  }
  // Snapshot the session: the live object stays referenced by the SSL,
  // and tearing that connection down without a bidirectional close_notify
  // marks it not-resumable in place, which would silently disable the
  // pre_shared_key offer on the next connect.
  SSL_SESSION* snapshot = SSL_SESSION_dup(session);
  SSL_SESSION_free(session);
  if (snapshot == nullptr) {
    (void)crypto::drain_error_queue();
    return {};
  }
  return TlsSession::adopt(snapshot);
}

}  // namespace myproxy::tls
