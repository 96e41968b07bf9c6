// HTTP binding of the MyProxy protocol (paper §6.4).
//
// "The current MyProxy client-server protocol was quickly designed as a
// prototype. We plan to investigate using more standard protocols. One
// option would be HTTP for compatibility with standard web-oriented
// libraries."
//
// This gateway exposes the retrieval-side operations over HTTPS with
// mutual TLS — the same authentication, ACLs and repository semantics as
// the native protocol, reshaped into single-round-trip HTTP exchanges:
//
//   POST /get      form: username, passphrase[, lifetime, name, limited,
//                  otp]; body field `csr` carries the delegation CSR.
//                  200 -> text/plain certificate-chain PEM.
//   POST /info     form: username[, name]   200 -> key: value lines
//   POST /destroy  form: username[, name]   200 on success
//
// GET fits HTTP naturally because the *client* generates the key pair: the
// CSR rides in the request and the signed chain in the response — one round
// trip where the native protocol needs four messages. PUT (server-generated
// key) would need a two-step exchange and stays on the native protocol.
//
// Connections run on a tls::Service with MyProxy's compiled deadlines and
// connection cap; the peer's chain is verified on the worker.
#pragma once

#include <memory>

#include "gsi/acl.hpp"
#include "gsi/credential.hpp"
#include "pki/trust_store.hpp"
#include "portal/http.hpp"
#include "repository/repository.hpp"
#include "tls/service.hpp"
#include "tls/tls_channel.hpp"

namespace myproxy::server {

struct HttpGatewayConfig {
  gsi::AccessControlList authorized_retrievers;
  pki::VerifyOptions verify_options;
  std::size_t worker_threads = 2;
};

class HttpGateway {
 public:
  HttpGateway(gsi::Credential host_credential, pki::TrustStore trust_store,
              std::shared_ptr<repository::Repository> repository,
              HttpGatewayConfig config);
  ~HttpGateway();

  HttpGateway(const HttpGateway&) = delete;
  HttpGateway& operator=(const HttpGateway&) = delete;

  void start();
  void stop();
  [[nodiscard]] std::uint16_t port() const { return service_.port(); }

  /// Connection counters of the front end (deadlines, cap, sheds).
  [[nodiscard]] const tls::ServiceStats& connection_stats() const {
    return service_.stats();
  }

  /// Handle one parsed request for an authenticated peer (exposed for
  /// tests).
  [[nodiscard]] portal::HttpResponse handle(
      const portal::HttpRequest& request,
      const pki::VerifiedIdentity& peer);

 private:
  /// Front-end handler: authenticate the peer, answer its one request.
  void serve(tls::TlsChannel& channel, std::string_view raw_request);

  [[nodiscard]] portal::HttpResponse handle_get(
      const std::map<std::string, std::string>& form,
      const pki::VerifiedIdentity& peer);
  [[nodiscard]] portal::HttpResponse handle_info(
      const std::map<std::string, std::string>& form,
      const pki::VerifiedIdentity& peer);
  [[nodiscard]] portal::HttpResponse handle_destroy(
      const std::map<std::string, std::string>& form,
      const pki::VerifiedIdentity& peer);

  pki::TrustStore trust_store_;
  std::shared_ptr<repository::Repository> repository_;
  HttpGatewayConfig config_;
  tls::Service service_;
};

}  // namespace myproxy::server
