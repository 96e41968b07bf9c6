// Output checks. A run that fails any of them reports no metrics.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "gsi/credential.hpp"
#include "pki/trust_store.hpp"
#include "repository/repository.hpp"

namespace perfbench {

/// A credential delegated to the benchmark by GET or RENEW, and the owner
/// DN of the stored credential it was delegated from.
struct DelegationCheck {
  myproxy::gsi::Credential credential;
  std::string owner_dn;
};

/// Empty when `check` passes: the chain verifies to the VO CA through
/// TrustStore::verify, carries the stored owner's DN, lives no longer than
/// `max_lifetime`, and its leaf certificate certifies the key the receiver
/// generated.
[[nodiscard]] std::string check_delegation(const myproxy::pki::TrustStore& trust,
                                           const DelegationCheck& check,
                                           myproxy::Seconds max_lifetime);

/// What the repository must hold for one username once the run is over:
/// the last acknowledged write decides.
struct ExpectedRecord {
  std::string username;
  std::string pass_phrase;
  std::string owner_dn;
  bool present = true;
};

/// Every violation found (at most a few dozen): a present record must
/// exist with its owner and open with its pass phrase on the primary and,
/// when `replica` is given, be on the replica byte for byte; an absent one
/// must be on neither.
[[nodiscard]] std::vector<std::string> check_records(
    myproxy::repository::Repository& primary,
    myproxy::repository::Repository* replica,
    const std::vector<ExpectedRecord>& expected, std::size_t threads);

}  // namespace perfbench
