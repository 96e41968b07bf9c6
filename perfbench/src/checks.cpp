#include "checks.hpp"

#include <atomic>
#include <mutex>
#include <thread>

namespace perfbench {

namespace mp = myproxy;

std::string check_delegation(const mp::pki::TrustStore& trust,
                             const DelegationCheck& check,
                             mp::Seconds max_lifetime) {
  try {
    const mp::pki::VerifiedIdentity verified =
        trust.verify(check.credential.full_chain());
    if (verified.identity.str() != check.owner_dn) {
      return "delegated identity '" + verified.identity.str() +
             "' is not the stored owner '" + check.owner_dn + "'";
    }
  } catch (const std::exception& e) {
    return std::string("delegated chain does not verify: ") + e.what();
  }
  const mp::Seconds remaining = check.credential.remaining_lifetime();
  // One minute of slack covers the time between signing and this check.
  if (remaining <= mp::Seconds(0) ||
      remaining > max_lifetime + mp::Seconds(60)) {
    return "delegated lifetime " + std::to_string(remaining.count()) +
           " s is outside policy (max " +
           std::to_string(max_lifetime.count()) + " s)";
  }
  if (!check.credential.certificate().public_key().same_public_key(
          check.credential.key())) {
    return "delegated leaf certificate does not certify the generated key";
  }
  return {};
}

std::vector<std::string> check_records(
    mp::repository::Repository& primary, mp::repository::Repository* replica,
    const std::vector<ExpectedRecord>& expected, std::size_t threads) {
  constexpr std::size_t kMaxReported = 32;
  std::mutex mutex;
  std::vector<std::string> errors;
  auto fail = [&](const std::string& message) {
    const std::scoped_lock lock(mutex);
    if (errors.size() < kMaxReported) errors.push_back(message);
  };
  auto check_one = [&](const ExpectedRecord& want) {
    const auto record = primary.record(want.username);
    const auto copy =
        replica != nullptr ? replica->record(want.username) : std::nullopt;
    if (!want.present) {
      if (record.has_value()) fail("destroyed '" + want.username + "' still on the primary");
      if (copy.has_value()) fail("destroyed '" + want.username + "' still on the replica");
      return;
    }
    if (!record.has_value()) {
      fail("acknowledged '" + want.username + "' missing on the primary");
      return;
    }
    if (record->owner_dn != want.owner_dn) {
      fail("'" + want.username + "' has owner '" + record->owner_dn + "'");
    }
    try {
      (void)primary.open(want.username, want.pass_phrase);
    } catch (const std::exception& e) {
      fail("'" + want.username + "' does not open: " + e.what());
    }
    if (replica == nullptr) return;
    if (!copy.has_value()) {
      fail("acknowledged '" + want.username + "' missing on the replica");
    } else if (copy->blob != record->blob || copy->owner_dn != record->owner_dn) {
      fail("replica copy of '" + want.username + "' differs from the primary");
    }
  };

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < expected.size(); i = next++) {
        try {
          check_one(expected[i]);
        } catch (const std::exception& e) {
          fail("checking '" + expected[i].username + "': " + e.what());
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return errors;
}

}  // namespace perfbench
