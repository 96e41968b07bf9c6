#include "server/http_gateway.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "gsi/proxy.hpp"

namespace myproxy::server {

namespace {

constexpr std::string_view kLogComponent = "http-gateway";

using portal::HttpRequest;
using portal::HttpResponse;

std::string form_get(const std::map<std::string, std::string>& form,
                     const std::string& key) {
  const auto it = form.find(key);
  return it == form.end() ? std::string() : it->second;
}

HttpResponse text_response(int status, std::string_view reason,
                           std::string body) {
  HttpResponse response;
  response.status = status;
  response.reason = std::string(reason);
  response.headers["content-type"] = "text/plain; charset=utf-8";
  response.body = std::move(body);
  return response;
}

HttpResponse error_for(const Error& error) {
  switch (error.code()) {
    case ErrorCode::kAuthentication:
      return text_response(401, "Unauthorized", "authentication failed\n");
    case ErrorCode::kAuthorization:
      return text_response(403, "Forbidden", "not authorized\n");
    case ErrorCode::kNotFound:
      return text_response(404, "Not Found", "no credentials found\n");
    case ErrorCode::kExpired:
      return text_response(410, "Gone", "credential expired\n");
    case ErrorCode::kPolicy:
      return text_response(422, "Unprocessable Entity",
                           std::string(error.what()) + "\n");
    default:
      return text_response(500, "Internal Server Error",
                           "request failed\n");
  }
}

}  // namespace

HttpGateway::HttpGateway(gsi::Credential host_credential,
                         pki::TrustStore trust_store,
                         std::shared_ptr<repository::Repository> repository,
                         HttpGatewayConfig config)
    : trust_store_(std::move(trust_store)),
      repository_(std::move(repository)),
      config_(std::move(config)),
      service_(tls::TlsContext::make(host_credential),
               {.worker_threads = config_.worker_threads,
                .busy_reply = text_response(503, "Service Unavailable",
                                            "server busy, try again\n")
                                  .serialize(),
                .name = std::string(kLogComponent)},
               [this](std::shared_ptr<tls::TlsChannel> channel,
                      std::string request) { serve(*channel, request); }) {}

HttpGateway::~HttpGateway() { stop(); }

void HttpGateway::start() {
  service_.start();
  log::info(kLogComponent, "HTTP gateway listening on port {}", port());
}

void HttpGateway::stop() { service_.stop(); }

void HttpGateway::serve(tls::TlsChannel& channel,
                        std::string_view raw_request) {
  pki::VerifiedIdentity peer;
  try {
    peer = trust_store_.verify(channel.peer_chain(), config_.verify_options);
  } catch (const Error& e) {
    log::warn(kLogComponent, "authentication failed: {}", e.what());
    channel.send(text_response(401, "Unauthorized", "authentication failed\n")
                     .serialize());
    return;
  }
  const HttpRequest request = portal::parse_request(raw_request);
  HttpResponse response;
  try {
    response = handle(request, peer);
  } catch (const Error& e) {
    log::warn(kLogComponent, "{} {} failed: {}", request.method,
              request.target, e.what());
    response = error_for(e);
  }
  channel.send(response.serialize());
}

HttpResponse HttpGateway::handle(const HttpRequest& request,
                                 const pki::VerifiedIdentity& peer) {
  if (request.method != "POST") {
    return text_response(405, "Method Not Allowed", "POST only\n");
  }
  const auto form = request.form();
  if (request.target == "/get") return handle_get(form, peer);
  if (request.target == "/info") return handle_info(form, peer);
  if (request.target == "/destroy") return handle_destroy(form, peer);
  return text_response(404, "Not Found", "unknown endpoint\n");
}

HttpResponse HttpGateway::handle_get(
    const std::map<std::string, std::string>& form,
    const pki::VerifiedIdentity& peer) {
  if (!config_.authorized_retrievers.allows(peer.identity)) {
    throw AuthorizationError(fmt::format(
        "'{}' is not an authorized retriever", peer.identity.str()));
  }
  const std::string username = form_get(form, "username");
  const std::string name = form_get(form, "name");
  const std::string csr_pem = form_get(form, "csr");
  if (username.empty() || csr_pem.empty()) {
    throw PolicyError("username and csr are required");
  }
  const auto record = repository_->record(username, name);
  if (!record.has_value()) {
    throw NotFoundError(fmt::format("no credentials stored for '{}'",
                                    username));
  }
  if (!record->retriever_patterns.empty()) {
    const gsi::AccessControlList per_credential(record->retriever_patterns);
    if (!per_credential.allows(peer.identity)) {
      throw AuthorizationError("per-credential retriever restriction");
    }
  }
  const bool otp = form_get(form, "otp") == "1";
  gsi::Credential stored =
      repository_->open(*record, form_get(form, "passphrase"), otp);

  const std::string lifetime = form_get(form, "lifetime");
  Seconds requested{0};  // the server default, as on the native port
  if (!lifetime.empty()) {
    // Browser-supplied field: reject junk rather than truncating "12abc".
    const auto parsed = strings::parse_i64(lifetime);
    if (!parsed.has_value() || *parsed < 0) {
      throw PolicyError(fmt::format("malformed lifetime: '{}'", lifetime));
    }
    requested = Seconds(*parsed);
  }
  const gsi::ProxyOptions options = repository_->proxy_options(
      *record, requested, form_get(form, "limited") == "1");
  // Single round trip: CSR in, chain out (§6.4's attraction).
  return text_response(200, "OK",
                       gsi::delegate_credential(stored, csr_pem, options));
}

HttpResponse HttpGateway::handle_info(
    const std::map<std::string, std::string>& form,
    const pki::VerifiedIdentity& peer) {
  if (!config_.authorized_retrievers.allows(peer.identity)) {
    throw AuthorizationError("not authorized for info");
  }
  const std::string username = form_get(form, "username");
  const auto info = repository_->info(username, form_get(form, "name"));
  if (!info.has_value()) {
    throw NotFoundError(fmt::format("no credentials stored for '{}'",
                                    username));
  }
  std::string body;
  body += fmt::format("owner: {}\n", info->owner_dn);
  body += fmt::format("not_after: {}\n", to_unix(info->not_after));
  body += fmt::format("max_delegation_lifetime: {}\n",
                      info->max_delegation_lifetime.count());
  body += fmt::format("sealing: {}\n", to_string(info->sealing));
  return text_response(200, "OK", std::move(body));
}

HttpResponse HttpGateway::handle_destroy(
    const std::map<std::string, std::string>& form,
    const pki::VerifiedIdentity& peer) {
  const std::string username = form_get(form, "username");
  const std::string name = form_get(form, "name");
  const auto record = repository_->record(username, name);
  if (!record.has_value()) {
    throw NotFoundError(fmt::format("no credentials stored for '{}'",
                                    username));
  }
  if (!(peer.identity.str() == record->owner_dn)) {
    throw AuthorizationError("only the owner may destroy a credential");
  }
  repository_->destroy(username, name);
  return text_response(200, "OK", "destroyed\n");
}

}  // namespace myproxy::server
