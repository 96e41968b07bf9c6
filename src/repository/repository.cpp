#include "repository/repository.hpp"

#include <algorithm>

#include "common/encoding.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "crypto/random.hpp"
#include "crypto/symmetric.hpp"

namespace myproxy::repository {

namespace {

constexpr std::string_view kLogComponent = "repository";

CredentialInfo to_info(const CredentialRecord& record) {
  CredentialInfo info;
  info.username = record.username;
  info.name = record.name;
  info.owner_dn = record.owner_dn;
  info.created_at = record.created_at;
  info.not_after = record.not_after;
  info.max_delegation_lifetime = record.max_delegation_lifetime;
  info.always_limited = record.always_limited;
  info.sealing = record.sealing;
  info.otp_enabled = record.otp.has_value();
  info.otp_remaining = record.otp.has_value() ? record.otp->remaining : 0;
  info.restriction = record.restriction;
  info.task_tags = record.task_tags;
  info.retriever_patterns = record.retriever_patterns;
  info.renewer_patterns = record.renewer_patterns;
  return info;
}

}  // namespace

Repository::Repository(std::unique_ptr<CredentialStore> store,
                       RepositoryPolicy policy)
    : store_(std::move(store)), policy_(std::move(policy)) {
  if (store_ == nullptr) {
    throw Error(ErrorCode::kInternal, "Repository requires a store");
  }
  master_key_ = SecureBuffer(crypto::random_bytes(crypto::kAesKeySize));
}

std::string Repository::aad_for(std::string_view username,
                                std::string_view name) const {
  // Binds the envelope to its record identity so blobs cannot be
  // transplanted between users or wallet slots on disk.
  return fmt::format("myproxy:{}:{}", username, name);
}

std::string Repository::passphrase_digest_for(std::string_view aad,
                                              std::string_view phrase) {
  return otp_hash(fmt::format("{}:{}", aad, phrase));
}

void Repository::store(std::string_view username,
                       std::string_view pass_phrase,
                       std::string_view owner_dn,
                       const gsi::Credential& credential,
                       const StoreOptions& options) {
  if (username.empty()) throw PolicyError("username must not be empty");
  if (credential.expired()) {
    throw ExpiredError("refusing to store an already-expired credential");
  }
  const Seconds remaining = credential.remaining_lifetime();
  if (!options.long_term && remaining > policy_.max_stored_lifetime) {
    throw PolicyError(fmt::format(
        "stored credential lifetime {} exceeds repository maximum {}",
        format_duration(remaining),
        format_duration(policy_.max_stored_lifetime)));
  }
  policy_.passphrase_policy.check(username, pass_phrase);

  CredentialRecord record;
  record.username = std::string(username);
  record.name = options.name;
  record.owner_dn = std::string(owner_dn);
  record.created_at = now();
  record.not_after = credential.not_after();
  record.max_delegation_lifetime =
      options.max_delegation_lifetime > Seconds(0)
          ? std::min(options.max_delegation_lifetime,
                     policy_.max_delegation_lifetime)
          : policy_.default_delegation_lifetime;
  record.retriever_patterns = options.retriever_patterns;
  record.renewer_patterns = options.renewer_patterns;
  record.always_limited = options.always_limited;
  record.restriction = options.restriction;
  record.task_tags = options.task_tags;

  const SecureBuffer pem = credential.to_pem();
  const std::string aad = aad_for(username, options.name);
  if (options.otp_words > 0) {
    // OTP mode (§6.3): the "pass phrase" seeds the hash chain; the blob is
    // sealed under the repository master key since OTP words rotate.
    record.otp = otp_initialize(pass_phrase, options.otp_words);
    record.sealing = Sealing::kMasterKey;
    record.blob = crypto::aead_seal(master_key_.bytes(), pem.view(), aad);
  } else if (!options.renewer_patterns.empty()) {
    // Renewable credentials (§6.6) must be openable by the server without
    // the user's pass phrase (the user is not present when a long-running
    // job refreshes its proxy), so they are sealed under the master key;
    // pass-phrase retrievals authenticate against a digest.
    record.sealing = Sealing::kMasterKey;
    record.passphrase_digest = passphrase_digest_for(aad, pass_phrase);
    record.blob = crypto::aead_seal(master_key_.bytes(), pem.view(), aad);
  } else if (policy_.encrypt_at_rest) {
    record.sealing = Sealing::kPassphrase;
    record.blob = crypto::passphrase_seal(pass_phrase, pem.view(), aad,
                                          policy_.kdf_iterations);
  } else {
    // Ablation path (bench_at_rest): plaintext record, authentication falls
    // back to a stored digest of the pass phrase.
    record.sealing = Sealing::kPlain;
    record.passphrase_digest = passphrase_digest_for(aad, pass_phrase);
    record.blob = encoding::to_bytes(pem.view());
  }

  store_->put(record);
  log::info(kLogComponent,
            "stored credential user='{}' slot='{}' owner='{}' expires={}",
            username, options.name, owner_dn, format_utc(record.not_after));
}

gsi::Credential Repository::open(std::string_view username,
                                 std::string_view secret,
                                 std::string_view name, bool otp) {
  const auto record = store_->get(username, name);
  if (!record.has_value()) {
    throw NotFoundError(fmt::format(
        "no credentials stored for user '{}' slot '{}'", username, name));
  }
  return open(*record, secret, otp);
}

gsi::Credential Repository::open(const CredentialRecord& checked,
                                 std::string_view secret, bool otp) {
  const std::string_view username = checked.username;
  const std::string_view name = checked.name;
  if (checked.expired()) {
    throw ExpiredError(fmt::format(
        "stored credential for user '{}' has expired", username));
  }
  const std::string aad = aad_for(username, name);

  if (otp) {
    // Fetch-verify-advance-store must be atomic: two concurrent requests
    // presenting the same word must yield exactly one success, or replay
    // protection evaporates under load.
    const std::scoped_lock lock(otp_mutex_);
    auto record = store_->get(username, name);  // re-read under the lock
    if (!record.has_value()) {
      throw NotFoundError(fmt::format(
          "no credentials stored for user '{}' slot '{}'", username, name));
    }
    if (record->created_at != checked.created_at ||
        record->owner_dn != checked.owner_dn ||
        record->blob != checked.blob) {
      throw AuthorizationError(fmt::format(
          "credential for user '{}' slot '{}' was replaced after it was "
          "authorized",
          username, name));
    }
    if (!record->otp.has_value() || record->otp->exhausted()) {
      throw AuthenticationError(
          "one-time-password authentication is not armed for this "
          "credential");
    }
    if (!otp_verify_and_advance(*record->otp, secret)) {
      log::warn(kLogComponent, "bad one-time password for user '{}'",
                username);
      throw AuthenticationError("invalid one-time password");
    }
    store_->put(*record);  // persist the advanced chain before releasing
    return unseal(*record, aad);
  }

  // OTP-armed records never fall back to pass-phrase authentication, even
  // once the chain is exhausted.
  if (checked.otp.has_value()) {
    throw AuthenticationError(
        "credential requires one-time-password authentication");
  }

  if (checked.sealing == Sealing::kPassphrase) {
    try {
      const SecureBuffer pem =
          crypto::passphrase_open(secret, checked.blob, aad);
      return gsi::Credential::from_pem(pem.view());
    } catch (const VerificationError&) {
      // Decryption failure == wrong pass phrase (§5.1: the envelope *is*
      // the authentication check).
      log::warn(kLogComponent, "bad pass phrase for user '{}'", username);
      throw AuthenticationError("invalid pass phrase");
    }
  }

  // Master-key / plaintext records: check the stored pass-phrase digest.
  if (!checked.passphrase_digest.has_value() ||
      !strings::constant_time_equals(*checked.passphrase_digest,
                                     passphrase_digest_for(aad, secret))) {
    log::warn(kLogComponent, "bad pass phrase for user '{}'", username);
    throw AuthenticationError("invalid pass phrase");
  }
  return unseal(checked, aad);
}

gsi::Credential Repository::open_for_renewal(const CredentialRecord& checked) {
  if (checked.expired()) {
    throw ExpiredError(fmt::format(
        "stored credential for user '{}' has expired", checked.username));
  }
  if (checked.renewer_patterns.empty()) {
    throw AuthorizationError(
        "stored credential was not marked renewable at store time");
  }
  return unseal(checked, aad_for(checked.username, checked.name));
}

gsi::Credential Repository::unseal(const CredentialRecord& record,
                                   std::string_view aad) const {
  switch (record.sealing) {
    case Sealing::kMasterKey: {
      const SecureBuffer pem =
          crypto::aead_open(master_key_.bytes(), record.blob, aad);
      return gsi::Credential::from_pem(pem.view());
    }
    case Sealing::kPlain:
      return gsi::Credential::from_pem(encoding::to_string(record.blob));
    case Sealing::kPassphrase:
      break;
  }
  throw Error(ErrorCode::kInternal,
              "unseal called on a pass-phrase-sealed record");
}

std::optional<CredentialInfo> Repository::info(std::string_view username,
                                               std::string_view name) const {
  const auto record = store_->get(username, name);
  if (!record.has_value()) return std::nullopt;
  return to_info(*record);
}

std::vector<CredentialInfo> Repository::list(std::string_view username) const {
  std::vector<CredentialInfo> out;
  for (const auto& record : store_->list(username)) {
    out.push_back(to_info(record));
  }
  std::sort(out.begin(), out.end(),
            [](const CredentialInfo& a, const CredentialInfo& b) {
              return a.name < b.name;
            });
  return out;
}

std::optional<CredentialInfo> Repository::select_for_task(
    std::string_view username, std::string_view task) const {
  // §6.2: the wallet picks the credential whose tags cover the task.
  std::optional<CredentialInfo> fallback;
  for (const auto& info : list(username)) {
    if (info.name.empty()) fallback = info;
    for (const auto& tag : strings::split_trimmed(info.task_tags, ',')) {
      if (tag == task) return info;
    }
  }
  return fallback;
}

std::size_t Repository::destroy(std::string_view username,
                                std::string_view name, bool all) {
  const std::size_t removed =
      all ? store_->remove_all(username)
          : static_cast<std::size_t>(store_->remove(username, name) ? 1 : 0);
  if (removed > 0) {
    log::info(kLogComponent, "destroyed {} credential(s) for user '{}'",
              removed, username);
  }
  return removed;
}

void Repository::change_passphrase(std::string_view username,
                                   std::string_view old_phrase,
                                   std::string_view new_phrase,
                                   std::string_view name) {
  policy_.passphrase_policy.check(username, new_phrase);
  auto record = store_->get(username, name);
  if (!record.has_value()) {
    throw NotFoundError(fmt::format(
        "no credentials stored for user '{}' slot '{}'", username, name));
  }
  // Authenticate with the old phrase by opening, then re-seal.
  const gsi::Credential credential = open(*record, old_phrase);
  const SecureBuffer pem = credential.to_pem();
  const std::string aad = aad_for(username, name);
  switch (record->sealing) {
    case Sealing::kPassphrase:
      record->blob = crypto::passphrase_seal(new_phrase, pem.view(), aad,
                                             policy_.kdf_iterations);
      break;
    case Sealing::kMasterKey:
    case Sealing::kPlain:
      record->passphrase_digest = passphrase_digest_for(aad, new_phrase);
      break;
  }
  store_->put(*record);
  log::info(kLogComponent, "pass phrase changed for user '{}'", username);
}

std::optional<CredentialRecord> Repository::record(
    std::string_view username, std::string_view name) const {
  return store_->get(username, name);
}

gsi::ProxyOptions Repository::proxy_options(const CredentialRecord& record,
                                            Seconds requested_lifetime,
                                            bool want_limited) const {
  gsi::ProxyOptions options;
  options.lifetime = std::min({requested_lifetime > Seconds(0)
                                   ? requested_lifetime
                                   : policy_.default_delegation_lifetime,
                               record.max_delegation_lifetime,
                               policy_.max_delegation_lifetime});
  options.limited = want_limited || record.always_limited;
  if (record.restriction.has_value()) {
    options.restriction = pki::RestrictionPolicy::parse(*record.restriction);
  }
  return options;
}

}  // namespace myproxy::repository
