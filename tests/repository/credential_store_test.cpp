#include "repository/credential_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace myproxy::repository {
namespace {

CredentialRecord make_record(std::string username, std::string name = "") {
  CredentialRecord record;
  record.username = std::move(username);
  record.name = std::move(name);
  record.owner_dn = "/O=Grid/CN=" + record.username;
  record.blob = {1, 2, 3, 4, 5};
  record.sealing = Sealing::kPassphrase;
  record.created_at = now();
  record.not_after = now() + Seconds(3600);
  record.max_delegation_lifetime = Seconds(600);
  return record;
}

TEST(CredentialRecord, SerializeParseRoundTrip) {
  CredentialRecord record = make_record("alice", "compute");
  record.retriever_patterns = {"/O=Grid/CN=p1", "/O=Grid/CN=p2"};
  record.renewer_patterns = {"/O=Grid/CN=condor"};
  record.always_limited = true;
  record.restriction = "rights=job-submit";
  record.task_tags = "compute,transfer";
  record.otp = OtpState{"abcd", 7};
  record.sealing = Sealing::kMasterKey;
  record.passphrase_digest = "beef";

  const CredentialRecord back = CredentialRecord::parse(record.serialize());
  EXPECT_EQ(back.username, "alice");
  EXPECT_EQ(back.name, "compute");
  EXPECT_EQ(back.owner_dn, record.owner_dn);
  EXPECT_EQ(back.blob, record.blob);
  EXPECT_EQ(back.sealing, Sealing::kMasterKey);
  EXPECT_EQ(back.passphrase_digest, "beef");
  EXPECT_EQ(back.retriever_patterns, record.retriever_patterns);
  EXPECT_EQ(back.renewer_patterns, record.renewer_patterns);
  EXPECT_TRUE(back.always_limited);
  EXPECT_EQ(back.restriction, record.restriction);
  EXPECT_EQ(back.task_tags, "compute,transfer");
  ASSERT_TRUE(back.otp.has_value());
  EXPECT_EQ(back.otp->current_hex, "abcd");
  EXPECT_EQ(back.otp->remaining, 7u);
  EXPECT_EQ(to_unix(back.created_at), to_unix(record.created_at));
  EXPECT_EQ(to_unix(back.not_after), to_unix(record.not_after));
}

TEST(CredentialRecord, UsernameWithSpecialCharactersSurvives) {
  // Usernames are user-chosen (§4.1) and may contain anything.
  CredentialRecord record = make_record("alice smith\nx=1", "a/b c");
  record.owner_dn = "/O=Grid/CN=alice";  // DNs themselves never hold newlines
  const CredentialRecord back = CredentialRecord::parse(record.serialize());
  EXPECT_EQ(back.username, "alice smith\nx=1");
  EXPECT_EQ(back.name, "a/b c");
}

TEST(CredentialRecord, ParseRejectsMalformed) {
  EXPECT_THROW(CredentialRecord::parse("bogus"), ParseError);
  EXPECT_THROW(CredentialRecord::parse("myproxy-record-v1\n"), ParseError);
  EXPECT_THROW(
      CredentialRecord::parse("myproxy-record-v1\nunknown_field x\nblob \n"),
      ParseError);
  // Partial OTP state.
  CredentialRecord record = make_record("x");
  std::string text = record.serialize();
  text += "otp_current deadbeef\n";
  EXPECT_THROW(CredentialRecord::parse(text), ParseError);
}

TEST(CredentialRecord, ParseRejectsJunkNumericFields) {
  // Numeric fields used to be parsed with stoll/stoul, which accept
  // "12abc" (and a stray sign for unsigned fields) — a corrupted on-disk
  // record would round-trip into a bogus expiry instead of failing loudly.
  const std::string good = make_record("alice").serialize();
  const auto corrupt = [&](std::string_view key, std::string_view value) {
    std::string text;
    for (const auto& line : strings::split(good, '\n')) {
      if (line.starts_with(key)) {
        text += std::string(key) + " " + std::string(value) + "\n";
      } else if (!line.empty()) {
        text += line + "\n";
      }
    }
    return text;
  };
  EXPECT_THROW(CredentialRecord::parse(corrupt("not_after", "12abc")),
               ParseError);
  EXPECT_THROW(CredentialRecord::parse(corrupt("created_at", "17 54")),
               ParseError);
  EXPECT_THROW(
      CredentialRecord::parse(corrupt("max_delegation_lifetime", "+600")),
      ParseError);
  // Negative remaining-uses would wrap under stoul; it must be refused.
  std::string with_otp = good;
  with_otp += "otp_current deadbeef\notp_remaining -3\n";
  EXPECT_THROW(CredentialRecord::parse(with_otp), ParseError);
  // Control: the unmodified record still parses.
  EXPECT_NO_THROW(CredentialRecord::parse(good));
}

template <typename StoreT>
std::unique_ptr<CredentialStore> make_store(const std::string& dir);

template <>
std::unique_ptr<CredentialStore> make_store<MemoryCredentialStore>(
    const std::string&) {
  return std::make_unique<MemoryCredentialStore>();
}

template <>
std::unique_ptr<CredentialStore> make_store<FileCredentialStore>(
    const std::string& dir) {
  return std::make_unique<FileCredentialStore>(dir);
}

template <>
std::unique_ptr<CredentialStore> make_store<FlatFileCredentialStore>(
    const std::string& dir) {
  return std::make_unique<FlatFileCredentialStore>(dir);
}

template <typename StoreT>
class CredentialStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps test processes run in parallel apart: a fixture's
    // address alone repeats across processes (it does under ASan).
    dir_ = std::filesystem::temp_directory_path() /
           ("myproxy-store-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::remove_all(dir_);
    store_ = make_store<StoreT>(dir_.string());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::unique_ptr<CredentialStore> store_;
};

using StoreTypes = ::testing::Types<MemoryCredentialStore, FileCredentialStore,
                                    FlatFileCredentialStore>;
TYPED_TEST_SUITE(CredentialStoreTest, StoreTypes);

TYPED_TEST(CredentialStoreTest, PutGetRoundTrip) {
  this->store_->put(make_record("alice"));
  const auto got = this->store_->get("alice", "");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->username, "alice");
  EXPECT_EQ(got->blob, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(this->store_->size(), 1u);
}

TYPED_TEST(CredentialStoreTest, GetMissingReturnsNullopt) {
  EXPECT_FALSE(this->store_->get("nobody", "").has_value());
}

TYPED_TEST(CredentialStoreTest, PutReplacesExistingRecord) {
  this->store_->put(make_record("alice"));
  CredentialRecord updated = make_record("alice");
  updated.blob = {9, 9};
  this->store_->put(updated);
  EXPECT_EQ(this->store_->size(), 1u);
  EXPECT_EQ(this->store_->get("alice", "")->blob,
            (std::vector<std::uint8_t>{9, 9}));
}

TYPED_TEST(CredentialStoreTest, WalletSlotsAreIndependent) {
  this->store_->put(make_record("alice"));
  this->store_->put(make_record("alice", "compute"));
  this->store_->put(make_record("alice", "transfer"));
  EXPECT_EQ(this->store_->size(), 3u);
  EXPECT_EQ(this->store_->list("alice").size(), 3u);
  EXPECT_TRUE(this->store_->remove("alice", "compute"));
  EXPECT_FALSE(this->store_->get("alice", "compute").has_value());
  EXPECT_TRUE(this->store_->get("alice", "transfer").has_value());
}

TYPED_TEST(CredentialStoreTest, UsersAreIsolated) {
  this->store_->put(make_record("alice"));
  this->store_->put(make_record("bob"));
  EXPECT_EQ(this->store_->list("alice").size(), 1u);
  EXPECT_EQ(this->store_->list("bob").size(), 1u);
  EXPECT_EQ(this->store_->remove_all("alice"), 1u);
  EXPECT_FALSE(this->store_->get("alice", "").has_value());
  EXPECT_TRUE(this->store_->get("bob", "").has_value());
}

TYPED_TEST(CredentialStoreTest, RemoveMissingReturnsFalse) {
  EXPECT_FALSE(this->store_->remove("nobody", ""));
  EXPECT_EQ(this->store_->remove_all("nobody"), 0u);
}

TYPED_TEST(CredentialStoreTest, SweepRemovesOnlyExpired) {
  CredentialRecord fresh = make_record("fresh");
  CredentialRecord stale = make_record("stale");
  stale.not_after = now() - Seconds(10);
  this->store_->put(fresh);
  this->store_->put(stale);
  EXPECT_EQ(this->store_->sweep_expired(), 1u);
  EXPECT_TRUE(this->store_->get("fresh", "").has_value());
  EXPECT_FALSE(this->store_->get("stale", "").has_value());
}

TEST(FileCredentialStore, PersistsAcrossInstances) {
  const auto dir =
      std::filesystem::temp_directory_path() / "myproxy-persist-test";
  std::filesystem::remove_all(dir);
  {
    FileCredentialStore store(dir);
    store.put(make_record("alice", "slot"));
  }
  {
    FileCredentialStore store(dir);
    const auto got = store.get("alice", "slot");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->username, "alice");
  }
  std::filesystem::remove_all(dir);
}

TEST(FileCredentialStore, RecordFilesAreOwnerOnly) {
  const auto dir =
      std::filesystem::temp_directory_path() / "myproxy-perms-test";
  std::filesystem::remove_all(dir);
  FileCredentialStore store(dir);
  store.put(make_record("alice"));
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const auto perms = std::filesystem::status(entry.path()).permissions();
    EXPECT_EQ(perms & (std::filesystem::perms::group_all |
                       std::filesystem::perms::others_all),
              std::filesystem::perms::none)
        << entry.path();
  }
  std::filesystem::remove_all(dir);
}

// --- Sharded layout ---------------------------------------------------------

class ShardedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("myproxy-sharded-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(ShardedStoreTest, RecordsLiveInShardDirectories) {
  FileCredentialStore store(dir_);
  for (int i = 0; i < 20; ++i) {
    store.put(make_record("user" + std::to_string(i)));
  }
  std::size_t sharded = 0;
  std::set<std::string> shard_dirs;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir_)) {
    if (entry.path().extension() != ".cred") continue;
    // Every record file sits one level down, in a shard directory whose name
    // is the record's hex shard index.
    EXPECT_NE(entry.path().parent_path(), dir_) << entry.path();
    const std::string shard = entry.path().parent_path().filename().string();
    EXPECT_TRUE(shard.size() == 2 &&
                shard.find_first_not_of("0123456789abcdef") ==
                    std::string::npos)
        << entry.path();
    shard_dirs.insert(shard);
    ++sharded;
  }
  EXPECT_EQ(sharded, 20u);
  // 20 distinct usernames across a 16-way fanout must spread out.
  EXPECT_GT(shard_dirs.size(), 1u);
  EXPECT_EQ(store.size(), 20u);
}

TEST_F(ShardedStoreTest, LayoutMarkerPinsFanout) {
  FileStoreOptions small;
  small.shard_count = 4;
  {
    FileCredentialStore store(dir_, small);
    EXPECT_EQ(store.shard_count(), 4u);
    store.put(make_record("alice"));
  }
  // Reopening with a different configured fanout keeps the on-disk fanout —
  // otherwise existing records would hash to the wrong shard.
  FileStoreOptions big;
  big.shard_count = 32;
  FileCredentialStore store(dir_, big);
  EXPECT_EQ(store.shard_count(), 4u);
  EXPECT_TRUE(store.get("alice", "").has_value());
}

TEST_F(ShardedStoreTest, LegacyFlatLayoutMigratedTransparently) {
  {
    FlatFileCredentialStore legacy(dir_);
    legacy.put(make_record("alice"));
    legacy.put(make_record("alice", "compute"));
    legacy.put(make_record("bob"));
  }
  FileCredentialStore store(dir_);
  EXPECT_EQ(store.scan_report().migrated, 3u);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_TRUE(store.get("alice", "").has_value());
  EXPECT_TRUE(store.get("alice", "compute").has_value());
  EXPECT_TRUE(store.get("bob", "").has_value());
  EXPECT_EQ(store.list("alice").size(), 2u);
  // The flat files were renamed, not copied: nothing left at the top level.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".cred") << entry.path();
  }
  // And the migrated layout persists.
  FileCredentialStore reopened(dir_);
  EXPECT_EQ(reopened.scan_report().migrated, 0u);
  EXPECT_EQ(reopened.size(), 3u);
}

TEST_F(ShardedStoreTest, IndexPersistsAcrossReopen) {
  {
    FileCredentialStore store(dir_);
    for (int i = 0; i < 10; ++i) {
      store.put(make_record("user" + std::to_string(i), "slot"));
    }
  }
  FileCredentialStore store(dir_);
  EXPECT_EQ(store.scan_report().indexed, 10u);
  EXPECT_EQ(store.size(), 10u);
  const auto users = store.usernames();
  EXPECT_EQ(users.size(), 10u);
  EXPECT_TRUE(std::is_sorted(users.begin(), users.end()));
}

TEST_F(ShardedStoreTest, OrphanTmpFilesReapedAtStartup) {
  std::filesystem::create_directories(dir_);
  // Orphan at the top level (legacy-layout writer died mid-PUT)...
  {
    std::ofstream out(dir_ / "deadbeef-.cred.tmp");
    out << "partial";
  }
  {
    FileCredentialStore store(dir_);
    EXPECT_EQ(store.scan_report().reaped_tmp, 1u);
    EXPECT_EQ(store.size(), 0u);
  }
  // ...and inside a shard directory (sharded writer died mid-PUT).
  const CredentialRecord record = make_record("alice");
  {
    FileCredentialStore store(dir_);
    store.put(record);
  }
  std::filesystem::path record_file;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir_)) {
    if (entry.path().extension() == ".cred") record_file = entry.path();
  }
  ASSERT_FALSE(record_file.empty());
  {
    // A fully written temp that never reached its rename: content is valid,
    // but the record was never committed — it must not be served.
    std::ofstream out(record_file.string() + ".7.tmp");
    out << record.serialize();
  }
  FileCredentialStore store(dir_);
  EXPECT_EQ(store.scan_report().reaped_tmp, 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.list("alice").size(), 1u);
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST_F(ShardedStoreTest, CrashBetweenWriteAndRenameLeavesOldRecord) {
  const CredentialRecord original = make_record("alice");
  {
    FileCredentialStore store(dir_);
    store.put(original);
  }
  // Simulate a writer that died between the temp write and the rename of an
  // *update*: the temp holds new content, the committed file the old one.
  CredentialRecord update = original;
  update.blob = {9, 9, 9};
  std::filesystem::path record_file;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir_)) {
    if (entry.path().extension() == ".cred") record_file = entry.path();
  }
  ASSERT_FALSE(record_file.empty());
  {
    std::ofstream out(record_file.string() + ".3.tmp");
    out << update.serialize();
  }
  FileCredentialStore store(dir_);
  const auto got = store.get("alice", "");
  ASSERT_TRUE(got.has_value());
  // The uncommitted update is gone; the committed record is intact.
  EXPECT_EQ(got->blob, original.blob);
  EXPECT_EQ(store.scan_report().reaped_tmp, 1u);
}

TEST_F(ShardedStoreTest, GroupCommitPutsSurviveReopen) {
  FileStoreOptions options;
  options.sync_mode = SyncMode::kGroup;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 12;
  {
    FileCredentialStore store(dir_, options);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        for (int i = 0; i < kPerThread; ++i) {
          store.put(make_record(
              "user" + std::to_string(t) + "-" + std::to_string(i)));
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(store.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    // Batching happened: fewer flush rounds than sync() calls is the whole
    // point. (>= is still correct under no concurrency, hence <=.)
    EXPECT_LE(store.committer().rounds(), store.committer().commits());
    EXPECT_GT(store.committer().commits(), 0u);
  }
  // Every committed PUT is present and parseable after reopen.
  FileCredentialStore reopened(dir_, options);
  EXPECT_EQ(reopened.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(
          reopened
              .get("user" + std::to_string(t) + "-" + std::to_string(i), "")
              .has_value());
    }
  }
}

TEST_F(ShardedStoreTest, FsyncModeRoundTrips) {
  FileStoreOptions options;
  options.sync_mode = SyncMode::kFsync;
  FileCredentialStore store(dir_, options);
  store.put(make_record("alice"));
  EXPECT_TRUE(store.get("alice", "").has_value());
  EXPECT_TRUE(store.remove("alice", ""));
}

TEST_F(ShardedStoreTest, SweepUsesExpiryIndex) {
  FileCredentialStore store(dir_);
  for (int i = 0; i < 10; ++i) {
    CredentialRecord record = make_record("user" + std::to_string(i));
    if (i % 2 == 0) record.not_after = now() - Seconds(10);
    store.put(record);
  }
  EXPECT_EQ(store.sweep_expired(), 5u);
  EXPECT_EQ(store.size(), 5u);
  // Replacing a record re-keys its expiry entry: the old expiry must not
  // linger and sweep the replacement.
  CredentialRecord replaced = make_record("user1");
  replaced.not_after = now() - Seconds(10);
  store.put(replaced);
  CredentialRecord fresh = make_record("user1");
  store.put(fresh);
  EXPECT_EQ(store.sweep_expired(), 0u);
  EXPECT_TRUE(store.get("user1", "").has_value());
}

TEST_F(ShardedStoreTest, UnparsableRecordSkippedNotServed) {
  std::filesystem::create_directories(dir_);
  {
    std::ofstream out(dir_ / "deadbeef-.cred");
    out << "not a record";
  }
  FileCredentialStore store(dir_);
  EXPECT_EQ(store.scan_report().skipped, 1u);
  EXPECT_EQ(store.size(), 0u);
  // The file is left in place for operator inspection.
  EXPECT_TRUE(std::filesystem::exists(dir_ / "deadbeef-.cred"));
}

TEST(FlatFileCredentialStore, DirectoryIterationErrorsSurface) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "myproxy-flat-iter-error-test";
  std::filesystem::remove_all(dir);
  FlatFileCredentialStore store(dir);
  store.put(make_record("alice"));
  // Yank the directory out from under the store: iteration must report the
  // failure instead of silently returning an empty/partial result.
  std::filesystem::remove_all(dir);
  EXPECT_THROW(store.list("alice"), IoError);
  EXPECT_THROW(static_cast<void>(store.size()), IoError);
  EXPECT_THROW(store.remove_all("alice"), IoError);
  EXPECT_THROW(store.sweep_expired(), IoError);
}

}  // namespace
}  // namespace myproxy::repository
