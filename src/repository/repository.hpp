// Repository domain logic: the server-side behaviour of MyProxy (§4, §5.1)
// independent of any transport. The network server (server/) maps protocol
// messages onto these operations after authenticating the caller.
//
// Responsibilities:
//  * store delegated proxies encrypted at rest under the user's pass phrase
//    (§5.1: "the repository encrypts the credentials that it holds with the
//    pass phrase provided by the user");
//  * authenticate retrievals by pass phrase (decryption success) or OTP
//    (§6.3), and enforce the per-credential retrieval restrictions (§4.1);
//  * manage the credential wallet (§6.2) and long-term credentials (§6.1);
//  * expire and destroy credentials (§4.1 myproxy-destroy).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/secure_buffer.hpp"
#include "crypto/kdf.hpp"
#include "gsi/credential.hpp"
#include "gsi/proxy.hpp"
#include "repository/credential_store.hpp"
#include "repository/passphrase_policy.hpp"

namespace myproxy::repository {

struct RepositoryPolicy {
  /// Longest lifetime a stored credential may carry (§4.3: "The maximum
  /// lifetime of credentials delegated to the repository is set by policy
  /// on the repository server, but defaults to one week").
  Seconds max_stored_lifetime = kDefaultRepositoryLifetime;

  /// Hard cap on delegations from the repository regardless of what a
  /// credential's own max_delegation_lifetime says.
  Seconds max_delegation_lifetime{24L * 3600};

  /// Used when a GET request does not name a lifetime (§4.3: "a few hours").
  Seconds default_delegation_lifetime = kDefaultDelegatedLifetime;

  /// PBKDF2 cost for the at-rest envelope (swept by bench_at_rest).
  unsigned kdf_iterations = crypto::kDefaultKdfIterations;

  /// Ablation switch: disable at-rest encryption to measure its cost and
  /// demonstrate the §5.1 design choice. Production deployments keep this
  /// on.
  bool encrypt_at_rest = true;

  PassphrasePolicy passphrase_policy;
};

/// What a PUT/STORE attaches to the stored credential.
struct StoreOptions {
  std::string name;  ///< wallet slot (empty = default)
  Seconds max_delegation_lifetime{0};  ///< 0 = server default
  std::vector<std::string> retriever_patterns;
  std::vector<std::string> renewer_patterns;
  bool always_limited = false;
  std::optional<std::string> restriction;
  std::string task_tags;
  /// Number of OTP words to arm instead of pass-phrase auth; 0 = pass
  /// phrase. The pass phrase argument is then the OTP chain *seed*.
  std::uint32_t otp_words = 0;

  /// §6.1 long-term credential: exempt from max_stored_lifetime (which
  /// bounds *delegated proxies*); the record expires with the credential.
  bool long_term = false;
};

/// Metadata view of a stored credential (INFO/LIST responses). Never
/// includes key material.
struct CredentialInfo {
  std::string username;
  std::string name;
  std::string owner_dn;
  TimePoint created_at;
  TimePoint not_after;
  Seconds max_delegation_lifetime{0};
  bool always_limited = false;
  Sealing sealing = Sealing::kPassphrase;
  bool otp_enabled = false;
  std::uint32_t otp_remaining = 0;
  std::optional<std::string> restriction;
  std::string task_tags;
  std::vector<std::string> retriever_patterns;
  std::vector<std::string> renewer_patterns;
};

class Repository {
 public:
  Repository(std::unique_ptr<CredentialStore> store, RepositoryPolicy policy);

  /// PUT: persist `credential` for (`username`), authenticated at retrieval
  /// time by `pass_phrase` (or OTP seeded from it, per options.otp_words).
  /// `owner_dn` is the authenticated Grid identity performing the store.
  /// Throws PolicyError if the pass phrase fails policy or the credential
  /// outlives max_stored_lifetime.
  void store(std::string_view username, std::string_view pass_phrase,
             std::string_view owner_dn, const gsi::Credential& credential,
             const StoreOptions& options = {});

  /// Authenticate and decrypt the stored credential.
  /// `otp` selects OTP verification instead of pass-phrase decryption.
  /// Throws AuthenticationError on a bad pass phrase / OTP word,
  /// NotFoundError if absent, ExpiredError if the stored credential
  /// lapsed.
  [[nodiscard]] gsi::Credential open(std::string_view username,
                                     std::string_view secret,
                                     std::string_view name = {},
                                     bool otp = false);

  /// GET/RETRIEVE path: open the record the caller read with record() and
  /// authorized (ACLs, restriction, lifetime), so what is delegated is what
  /// was checked. A pass-phrase record is opened as given, with no second
  /// store read. OTP verification advances the chain, so it re-reads the
  /// record under the OTP lock and throws AuthorizationError if a PUT
  /// replaced it (owner, creation time or sealed blob differ) since the
  /// check. Other errors as for the by-name overload.
  [[nodiscard]] gsi::Credential open(const CredentialRecord& checked,
                                     std::string_view secret,
                                     bool otp = false);

  /// RENEW path (§6.6): open a *renewable* credential without the user's
  /// pass phrase. `checked` is the record the caller read with record()
  /// and authorized (the renewer against the record's renewer ACL and
  /// identity); it is opened as given, with no second store read, so what
  /// is delegated is what was checked. Throws AuthorizationError for
  /// records not stored as renewable, ExpiredError if it lapsed.
  [[nodiscard]] gsi::Credential open_for_renewal(
      const CredentialRecord& checked);

  /// Record metadata without authentication beyond knowing the name
  /// (server layer gates INFO by the retriever ACL).
  [[nodiscard]] std::optional<CredentialInfo> info(
      std::string_view username, std::string_view name = {}) const;

  [[nodiscard]] std::vector<CredentialInfo> list(
      std::string_view username) const;

  /// Wallet selection (§6.2): the user's credential whose task tags contain
  /// `task`; falls back to the default credential when no tag matches.
  [[nodiscard]] std::optional<CredentialInfo> select_for_task(
      std::string_view username, std::string_view task) const;

  /// DESTROY: remove one slot (empty name) or every credential when
  /// `all` is set. Returns number of records removed.
  std::size_t destroy(std::string_view username, std::string_view name = {},
                      bool all = false);

  /// CHANGE_PASSPHRASE: re-encrypt under the new pass phrase after
  /// authenticating with the old one.
  void change_passphrase(std::string_view username,
                         std::string_view old_phrase,
                         std::string_view new_phrase,
                         std::string_view name = {});

  /// Raw record access for the server layer (ACL evaluation, OTP state).
  [[nodiscard]] std::optional<CredentialRecord> record(
      std::string_view username, std::string_view name = {}) const;

  /// How a proxy delegated from `record` is issued, for the native port
  /// and the HTTP gateway alike: the requested lifetime (0 = the policy
  /// default, §4.3) clamped to the record's and the policy's maxima,
  /// limited when asked or when the record always is, and the record's
  /// restriction policy (§6.5).
  [[nodiscard]] gsi::ProxyOptions proxy_options(const CredentialRecord& record,
                                                Seconds requested_lifetime,
                                                bool want_limited) const;

  /// Sweep expired records (run periodically by the server).
  std::size_t sweep_expired() { return store_->sweep_expired(); }

  [[nodiscard]] const RepositoryPolicy& policy() const { return policy_; }
  [[nodiscard]] std::size_t size() const { return store_->size(); }

  /// The backing store (stats sampling, admin tooling).
  [[nodiscard]] const CredentialStore& store() const { return *store_; }

  /// Mutable store access for replication (a replica applies journal
  /// entries and snapshot records directly, below the repository's
  /// authentication layer — the records arrive already sealed).
  [[nodiscard]] CredentialStore& store_mutable() { return *store_; }

 private:
  [[nodiscard]] std::string aad_for(std::string_view username,
                                    std::string_view name) const;
  [[nodiscard]] static std::string passphrase_digest_for(
      std::string_view aad, std::string_view phrase);
  [[nodiscard]] gsi::Credential unseal(const CredentialRecord& record,
                                       std::string_view aad) const;

  std::unique_ptr<CredentialStore> store_;
  RepositoryPolicy policy_;
  /// Serializes OTP fetch-verify-advance-store sequences (replay safety
  /// under concurrent retrievals).
  std::mutex otp_mutex_;
  /// Seals OTP-mode records at rest (pass-phrase sealing is unavailable
  /// because OTP words rotate). Fresh per process: a repository restart
  /// invalidates OTP records, which is the conservative failure mode.
  SecureBuffer master_key_;
};

}  // namespace myproxy::repository
