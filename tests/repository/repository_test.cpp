#include "repository/repository.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"

namespace myproxy::repository {
namespace {

using gsi::testing::make_user;

constexpr std::string_view kPhrase = "correct horse battery";

RepositoryPolicy fast_policy() {
  RepositoryPolicy policy;
  policy.kdf_iterations = 100;  // keep tests fast; strength swept in bench
  return policy;
}

Repository make_repository(RepositoryPolicy policy = fast_policy()) {
  return Repository(std::make_unique<MemoryCredentialStore>(),
                    std::move(policy));
}

/// A proxy suitable for storing (lifetime within the 7-day repo maximum).
gsi::Credential make_storable(const gsi::Credential& user,
                              Seconds lifetime = Seconds(24 * 3600)) {
  gsi::ProxyOptions options;
  options.lifetime = lifetime;
  return gsi::create_proxy(user, options);
}

TEST(Repository, StoreOpenRoundTrip) {
  auto repo = make_repository();
  const auto alice = make_user("repo-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_EQ(repo.size(), 1u);

  const gsi::Credential opened = repo.open("alice", kPhrase);
  EXPECT_EQ(opened.identity(), alice.identity());
  EXPECT_TRUE(opened.is_proxy());
}

TEST(Repository, WrongPassphraseRejected) {
  auto repo = make_repository();
  const auto alice = make_user("repo-wrong-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_THROW((void)repo.open("alice", "wrong phrase!"),
               AuthenticationError);
}

TEST(Repository, UnknownUserRejected) {
  auto repo = make_repository();
  EXPECT_THROW((void)repo.open("nobody", kPhrase), NotFoundError);
}

TEST(Repository, WeakPassphraseRefusedAtStore) {
  auto repo = make_repository();
  const auto alice = make_user("repo-weak-alice");
  EXPECT_THROW(repo.store("alice", "abc", alice.identity().str(),
                          make_storable(alice)),
               PolicyError);
  EXPECT_EQ(repo.size(), 0u);
}

TEST(Repository, OverlongStoredLifetimeRefused) {
  // §4.3: max lifetime of stored credentials defaults to one week.
  auto repo = make_repository();
  const auto alice = make_user("repo-long-alice", Seconds(30L * 24 * 3600));
  const auto proxy = make_storable(alice, Seconds(14L * 24 * 3600));
  EXPECT_THROW(
      repo.store("alice", kPhrase, alice.identity().str(), proxy),
      PolicyError);
}

TEST(Repository, ExpiredStoredCredentialRefusedAtOpen) {
  auto repo = make_repository();
  const auto alice = make_user("repo-exp-alice");
  repo.store("alice", kPhrase, alice.identity().str(),
             make_storable(alice, Seconds(3600)));
  const ScopedClockAdvance warp(Seconds(7200));
  EXPECT_THROW((void)repo.open("alice", kPhrase), ExpiredError);
}

TEST(Repository, SweepRemovesExpiredRecords) {
  auto repo = make_repository();
  const auto alice = make_user("repo-sweep-alice");
  repo.store("alice", kPhrase, alice.identity().str(),
             make_storable(alice, Seconds(60)));
  {
    const ScopedClockAdvance warp(Seconds(3600));
    EXPECT_EQ(repo.sweep_expired(), 1u);
  }
  EXPECT_EQ(repo.size(), 0u);
}

TEST(Repository, DestroyRemovesCredential) {
  auto repo = make_repository();
  const auto alice = make_user("repo-destroy-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_EQ(repo.destroy("alice"), 1u);
  EXPECT_THROW((void)repo.open("alice", kPhrase), NotFoundError);
  EXPECT_EQ(repo.destroy("alice"), 0u);  // idempotent
}

TEST(Repository, DestroyAllClearsWallet) {
  auto repo = make_repository();
  const auto alice = make_user("repo-destroyall-alice");
  StoreOptions a, b;
  a.name = "compute";
  b.name = "transfer";
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice), a);
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice), b);
  EXPECT_EQ(repo.destroy("alice", "", /*all=*/true), 2u);
  EXPECT_EQ(repo.size(), 0u);
}

TEST(Repository, ChangePassphraseReEncrypts) {
  auto repo = make_repository();
  const auto alice = make_user("repo-chpass-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  repo.change_passphrase("alice", kPhrase, "new phrase here");
  EXPECT_THROW((void)repo.open("alice", kPhrase), AuthenticationError);
  EXPECT_EQ(repo.open("alice", "new phrase here").identity(),
            alice.identity());
}

TEST(Repository, ChangePassphraseRequiresOldPhrase) {
  auto repo = make_repository();
  const auto alice = make_user("repo-chpass2-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_THROW(
      repo.change_passphrase("alice", "wrong old", "new phrase here"),
      AuthenticationError);
}

TEST(Repository, ChangePassphraseChecksNewPhrasePolicy) {
  auto repo = make_repository();
  const auto alice = make_user("repo-chpass3-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_THROW(repo.change_passphrase("alice", kPhrase, "abc"), PolicyError);
}

TEST(Repository, InfoAndListExposeMetadataOnly) {
  auto repo = make_repository();
  const auto alice = make_user("repo-info-alice");
  StoreOptions options;
  options.name = "compute";
  options.max_delegation_lifetime = Seconds(7200);
  options.always_limited = true;
  options.restriction = "rights=job-submit";
  options.task_tags = "compute";
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             options);

  const auto info = repo.info("alice", "compute");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->owner_dn, alice.identity().str());
  EXPECT_EQ(info->max_delegation_lifetime, Seconds(7200));
  EXPECT_TRUE(info->always_limited);
  EXPECT_EQ(info->restriction, "rights=job-submit");
  EXPECT_FALSE(repo.info("alice", "missing").has_value());
  EXPECT_EQ(repo.list("alice").size(), 1u);
}

TEST(Repository, MaxDelegationLifetimeClampedByServerPolicy) {
  RepositoryPolicy policy = fast_policy();
  policy.max_delegation_lifetime = Seconds(1800);
  auto repo = make_repository(std::move(policy));
  const auto alice = make_user("repo-clamp-alice");
  StoreOptions options;
  options.max_delegation_lifetime = Seconds(86400);
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             options);
  EXPECT_EQ(repo.info("alice")->max_delegation_lifetime, Seconds(1800));
}

TEST(Repository, OtpStoreAndOpen) {
  auto repo = make_repository();
  const auto alice = make_user("repo-otp-alice");
  StoreOptions options;
  options.otp_words = 4;
  repo.store("alice", "otp seed phrase", alice.identity().str(),
             make_storable(alice), options);

  // Pass-phrase retrieval must be refused outright.
  EXPECT_THROW((void)repo.open("alice", "otp seed phrase"),
               AuthenticationError);

  // OTP words authenticate, each exactly once, in order.
  const std::string w3 = otp_word("otp seed phrase", 3);
  EXPECT_EQ(repo.open("alice", w3, "", /*otp=*/true).identity(),
            alice.identity());
  EXPECT_THROW((void)repo.open("alice", w3, "", true), AuthenticationError);
  const std::string w2 = otp_word("otp seed phrase", 2);
  EXPECT_NO_THROW((void)repo.open("alice", w2, "", true));
  EXPECT_EQ(repo.info("alice")->otp_remaining, 2u);
}

TEST(Repository, RenewableCredentialOpensWithoutPassphrase) {
  auto repo = make_repository();
  const auto alice = make_user("repo-renew-alice");
  StoreOptions options;
  options.renewer_patterns = {"/O=Grid/CN=condor"};
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             options);

  EXPECT_EQ(repo.open_for_renewal(*repo.record("alice")).identity(),
            alice.identity());
  // Pass-phrase retrieval still works against the digest.
  EXPECT_EQ(repo.open("alice", kPhrase).identity(), alice.identity());
  EXPECT_THROW((void)repo.open("alice", "wrong"), AuthenticationError);
}

TEST(Repository, NonRenewableCredentialRefusesRenewal) {
  auto repo = make_repository();
  const auto alice = make_user("repo-norenew-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  EXPECT_THROW((void)repo.open_for_renewal(*repo.record("alice")),
               AuthorizationError);
}

TEST(Repository, EncryptAtRestAblationStillAuthenticates) {
  RepositoryPolicy policy = fast_policy();
  policy.encrypt_at_rest = false;
  auto repo = make_repository(std::move(policy));
  const auto alice = make_user("repo-plain-alice");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));

  EXPECT_EQ(repo.record("alice")->sealing, Sealing::kPlain);
  EXPECT_EQ(repo.open("alice", kPhrase).identity(), alice.identity());
  EXPECT_THROW((void)repo.open("alice", "wrong phrase!"),
               AuthenticationError);
}

TEST(Repository, WalletSelectionByTask) {
  auto repo = make_repository();
  const auto alice = make_user("repo-wallet-alice");
  StoreOptions dflt;
  StoreOptions compute;
  compute.name = "compute-slot";
  compute.task_tags = "compute,simulation";
  StoreOptions transfer;
  transfer.name = "transfer-slot";
  transfer.task_tags = "transfer";
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             dflt);
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             compute);
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             transfer);

  EXPECT_EQ(repo.select_for_task("alice", "compute")->name, "compute-slot");
  EXPECT_EQ(repo.select_for_task("alice", "simulation")->name,
            "compute-slot");
  EXPECT_EQ(repo.select_for_task("alice", "transfer")->name, "transfer-slot");
  // Unknown task falls back to the default slot.
  EXPECT_EQ(repo.select_for_task("alice", "archive")->name, "");
  EXPECT_FALSE(repo.select_for_task("bob", "compute").has_value());
}

TEST(Repository, RecordsBoundToUserCannotBeSwapped) {
  // Two users; swapping their blobs on "disk" must break decryption (AAD
  // binding, §5.1).
  auto store_ptr = std::make_unique<MemoryCredentialStore>();
  MemoryCredentialStore* store = store_ptr.get();
  Repository repo(std::move(store_ptr), fast_policy());
  const auto alice = make_user("repo-swap-alice");
  const auto bob = make_user("repo-swap-bob");
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice));
  repo.store("bob", kPhrase, bob.identity().str(), make_storable(bob));

  auto a = *store->get("alice", "");
  auto b = *store->get("bob", "");
  std::swap(a.blob, b.blob);
  store->put(a);
  store->put(b);

  EXPECT_THROW((void)repo.open("alice", kPhrase), AuthenticationError);
  EXPECT_THROW((void)repo.open("bob", kPhrase), AuthenticationError);
}

/// Forwards to a MemoryCredentialStore, except that once a replacement is
/// armed every get after the first returns it: what a reader sees when a
/// PUT lands between its authorization read and its open.
class RacingPutStore final : public CredentialStore {
 public:
  void arm(std::optional<CredentialRecord> replacement) {
    replacement_ = std::move(replacement);
    gets_ = 0;
  }
  [[nodiscard]] int gets() const { return gets_; }

  void put(const CredentialRecord& record) override { inner_.put(record); }
  [[nodiscard]] std::optional<CredentialRecord> get(
      std::string_view username, std::string_view name) const override {
    if (++gets_ > 1 && replacement_.has_value()) return replacement_;
    return inner_.get(username, name);
  }
  bool remove(std::string_view username, std::string_view name) override {
    return inner_.remove(username, name);
  }
  std::size_t remove_all(std::string_view username) override {
    return inner_.remove_all(username);
  }
  [[nodiscard]] std::vector<CredentialRecord> list(
      std::string_view username) const override {
    return inner_.list(username);
  }
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  std::size_t sweep_expired() override { return inner_.sweep_expired(); }
  [[nodiscard]] std::vector<std::string> usernames() const override {
    return inner_.usernames();
  }

 private:
  MemoryCredentialStore inner_;
  std::optional<CredentialRecord> replacement_;
  mutable int gets_ = 0;
};

TEST(RepositoryCheckedOpen, PassphraseOpenUsesTheCheckedRecord) {
  auto store_ptr = std::make_unique<RacingPutStore>();
  RacingPutStore* store = store_ptr.get();
  Repository repo(std::move(store_ptr), fast_policy());
  const auto alice = make_user("checked-alice");
  const auto mallory = make_user("checked-mallory");
  StoreOptions portal_only;
  portal_only.retriever_patterns = {"/O=Grid/CN=portal"};
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             portal_only);
  const CredentialRecord first = *repo.record("alice");
  // The racing PUT: same slot and phrase, another credential, no
  // retriever restriction.
  repo.store("alice", kPhrase, mallory.identity().str(),
             make_storable(mallory));
  const CredentialRecord second = *repo.record("alice");
  store->put(first);
  store->arm(second);

  const auto checked = repo.record("alice");
  ASSERT_TRUE(checked.has_value());
  ASSERT_EQ(checked->retriever_patterns, portal_only.retriever_patterns);
  EXPECT_EQ(repo.open(*checked, kPhrase).identity(), alice.identity());
  EXPECT_EQ(store->gets(), 1);  // open read nothing more
  EXPECT_THROW((void)repo.open(*checked, "wrong phrase!"),
               AuthenticationError);

  // The by-name open reads the store again and sees the PUT.
  EXPECT_EQ(repo.open("alice", kPhrase).identity(), mallory.identity());
}

TEST(RepositoryCheckedOpen, RenewalOpensTheCheckedRecord) {
  auto store_ptr = std::make_unique<RacingPutStore>();
  RacingPutStore* store = store_ptr.get();
  Repository repo(std::move(store_ptr), fast_policy());
  const auto alice = make_user("checked-renew-alice");
  const auto mallory = make_user("checked-renew-mallory");
  StoreOptions renewable;
  renewable.renewer_patterns = {"/O=Grid/CN=condor"};
  repo.store("alice", kPhrase, alice.identity().str(), make_storable(alice),
             renewable);
  const CredentialRecord first = *repo.record("alice");
  // The racing PUT: same slot, another owner's renewable credential.
  repo.store("alice", kPhrase, mallory.identity().str(),
             make_storable(mallory), renewable);
  const CredentialRecord second = *repo.record("alice");
  store->put(first);
  store->arm(second);

  const auto checked = repo.record("alice");
  ASSERT_TRUE(checked.has_value());
  ASSERT_EQ(checked->owner_dn, alice.identity().str());
  EXPECT_EQ(repo.open_for_renewal(*checked).identity(), alice.identity());
  EXPECT_EQ(store->gets(), 1);  // open read nothing more

  // The checked record still decides renewability.
  auto not_renewable = *checked;
  not_renewable.renewer_patterns.clear();
  EXPECT_THROW((void)repo.open_for_renewal(not_renewable),
               AuthorizationError);

  // A fresh check sees the PUT, and opens what it saw.
  EXPECT_EQ(repo.open_for_renewal(*repo.record("alice")).identity(),
            mallory.identity());
}

TEST(RepositoryCheckedOpen, OtpOpenRefusesARecordReplacedSinceTheCheck) {
  auto store_ptr = std::make_unique<RacingPutStore>();
  RacingPutStore* store = store_ptr.get();
  Repository repo(std::move(store_ptr), fast_policy());
  const auto alice = make_user("checked-otp-alice");
  StoreOptions options;
  options.otp_words = 4;
  repo.store("alice", "otp seed phrase", alice.identity().str(),
             make_storable(alice), options);
  const CredentialRecord first = *repo.record("alice");
  const std::string w3 = otp_word("otp seed phrase", 3);

  auto later = first;
  later.created_at += Seconds(1);
  auto reowned = first;
  reowned.owner_dn = "/O=Grid/CN=someone else";
  auto resealed = first;
  resealed.blob.back() ^= 0x01;
  for (const auto& replacement : {later, reowned, resealed}) {
    store->arm(replacement);
    const auto checked = repo.record("alice");
    EXPECT_THROW((void)repo.open(*checked, w3, /*otp=*/true),
                 AuthorizationError);
    EXPECT_EQ(store->gets(), 2);
  }

  // Only the chain state may move between check and open (a concurrent
  // GET advancing it); the refused attempts above consumed no word.
  store->arm(first);
  const auto checked = repo.record("alice");
  EXPECT_EQ(repo.open(*checked, w3, /*otp=*/true).identity(),
            alice.identity());
  store->arm(std::nullopt);
  EXPECT_EQ(repo.info("alice")->otp_remaining, 3u);
}

}  // namespace
}  // namespace myproxy::repository
