// The benchmark's own self-tests: its inputs are reproducible, its output
// checks catch what they claim to catch, its percentile reporter refuses
// tails it has too few samples for, and it picks the quiet seconds of a
// window by host steal. Run before every measurement
// and on their own with --self-test.
#include "selftest.hpp"

#include <numeric>

#include "checks.hpp"
#include "gsi/proxy.hpp"
#include "pki/certificate_authority.hpp"
#include "repository/repository.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace mp = myproxy;

namespace {

mp::gsi::Credential enroll(mp::pki::CertificateAuthority& ca,
                           const std::string& dn) {
  auto key = mp::crypto::KeyPair::generate(mp::crypto::KeySpec::ec());
  auto cert = ca.issue(mp::pki::DistinguishedName::parse(dn), key,
                       mp::Seconds(24 * 3600));
  return mp::gsi::Credential(std::move(cert), std::move(key));
}

mp::pki::CertificateAuthority make_ca() {
  return mp::pki::CertificateAuthority::create(
      mp::pki::DistinguishedName::parse("/C=US/O=Grid/CN=Self-test CA"),
      mp::crypto::KeySpec::ec());
}

/// Retrieve a delegation from `stored` the way a portal does.
mp::gsi::Credential delegate_from(const mp::gsi::Credential& stored) {
  auto request = mp::gsi::begin_delegation(mp::crypto::KeySpec::ec());
  const std::string chain =
      mp::gsi::delegate_credential(stored, request.csr_pem);
  return mp::gsi::complete_delegation(std::move(request.key), chain);
}

void check_inputs_are_seeded(std::vector<std::string>& failures) {
  for (const WorkloadSpec& spec : all_workloads()) {
    const std::string name(spec.name);
    if (spec.open_loop) {
      const auto a = make_schedule(spec, 7, 3.0);
      if (a.empty() || a != make_schedule(spec, 7, 3.0)) {
        failures.push_back(name + ": same seed gave a different schedule");
      }
      if (a == make_schedule(spec, 8, 3.0)) {
        failures.push_back(name + ": another seed gave the same schedule");
      }
    } else if (closed_loop_user(spec, 7, 1, 5) !=
               closed_loop_user(spec, 7, 1, 5)) {
      failures.push_back(name + ": closed-loop sequence is not seeded");
    }
    if (cache_warmup_users(spec, 7, 64) != cache_warmup_users(spec, 7, 64)) {
      failures.push_back(name + ": cache warm-up draws are not seeded");
    }
  }
  const UserNaming a{7}, b{7}, c{8};
  if (a.username(3) != b.username(3) || a.pass_phrase(3) != b.pass_phrase(3) ||
      a.username(3) == c.username(3)) {
    failures.push_back("usernames / pass phrases are not a function of the seed");
  }
}

void check_delegation_check(std::vector<std::string>& failures) {
  auto ca = make_ca();
  mp::pki::TrustStore trust;
  trust.add_root(ca.certificate());
  const std::string owner_dn = "/C=US/O=Grid/OU=People/CN=self-test";
  const auto stored = mp::gsi::create_proxy(enroll(ca, owner_dn));
  const mp::Seconds max_lifetime = mp::kDefaultDelegatedLifetime;

  const DelegationCheck good{delegate_from(stored), owner_dn};
  if (const auto error = check_delegation(trust, good, max_lifetime);
      !error.empty()) {
    failures.push_back("a sound delegation failed the check: " + error);
  }
  // Same DNs, but issued by a CA the VO does not trust: the chain is
  // tampered as far as the VO is concerned.
  auto rogue = make_ca();
  const DelegationCheck tampered{
      delegate_from(mp::gsi::create_proxy(enroll(rogue, owner_dn))), owner_dn};
  if (check_delegation(trust, tampered, max_lifetime).empty()) {
    failures.push_back("a tampered chain passed the delegation check");
  }
  const DelegationCheck wrong_owner{delegate_from(stored),
                                    "/C=US/O=Grid/OU=People/CN=someone-else"};
  if (check_delegation(trust, wrong_owner, max_lifetime).empty()) {
    failures.push_back("a delegation of another owner passed the check");
  }
  if (check_delegation(trust, good, mp::Seconds(60)).empty()) {
    failures.push_back("a delegation beyond the lifetime policy passed");
  }
}

void check_record_check(std::vector<std::string>& failures) {
  auto ca = make_ca();
  const std::string owner_dn = "/C=US/O=Grid/OU=People/CN=self-test";
  const auto stored = mp::gsi::create_proxy(enroll(ca, owner_dn));
  mp::repository::Repository primary(
      std::make_unique<mp::repository::MemoryCredentialStore>(), {});
  mp::repository::Repository replica(
      std::make_unique<mp::repository::MemoryCredentialStore>(), {});
  const std::vector<ExpectedRecord> expected = {
      {"alice", "pw:phrase-one", owner_dn, true},
      {"bob", "pw:phrase-two", owner_dn, true}};
  for (const auto& want : expected) {
    primary.store(want.username, want.pass_phrase, owner_dn, stored);
  }
  replica.store_mutable().put(*primary.record("alice"));
  replica.store_mutable().put(*primary.record("bob"));
  if (!check_records(primary, &replica, expected, 2).empty()) {
    failures.push_back("a fully replicated store failed the record check");
  }
  replica.store_mutable().remove("bob", "");
  if (check_records(primary, &replica, expected, 2).empty()) {
    failures.push_back("a record missing on the replica passed the check");
  }
  if (check_records(primary, nullptr,
                    {{"carol", "pw:phrase-three", owner_dn, true}}, 1)
          .empty()) {
    failures.push_back("an acknowledged PUT that is not readable passed");
  }
}

void check_percentiles(std::vector<std::string>& failures) {
  std::vector<double> samples(999);
  std::iota(samples.begin(), samples.end(), 1.0);
  if (percentile(samples, 0.99).has_value()) {
    failures.push_back("p99 of 999 samples (9 beyond it) was reported");
  }
  samples.push_back(1000.0);
  if (percentile(samples, 0.99) != std::optional<double>(990.0)) {
    failures.push_back("p99 of 1000 samples is not the 990th");
  }
  if (percentile(samples, 0.5) != std::optional<double>(500.0)) {
    failures.push_back("p50 of 1000 samples is not the 500th");
  }
  if (percentile(std::vector<double>(10, 1.0), 0.5).has_value()) {
    failures.push_back("p50 of 10 samples (5 beyond it) was reported");
  }
}

void check_quiet_seconds(std::vector<std::string>& failures) {
  // Enough quiet seconds: exactly those; -1 (unknown) counts as quiet.
  if (quiet_seconds({0.0, 0.2, -1.0, 0.01}) !=
      std::vector<bool>{true, false, true, true}) {
    failures.push_back(
        "quiet seconds were not those at or below the steal limit");
  }
  // Too few: the least stolen quarter, ties in window order.
  if (quiet_seconds({0.3, 0.1, 0.2, 0.1, 0.5, 0.4, 0.6, 0.7}) !=
      std::vector<bool>{false, true, false, true, false, false, false, false}) {
    failures.push_back(
        "a stolen window did not fall back to its quietest quarter");
  }
}

}  // namespace

std::vector<std::string> run_self_tests() {
  std::vector<std::string> failures;
  try {
    check_inputs_are_seeded(failures);
    check_delegation_check(failures);
    check_record_check(failures);
    check_percentiles(failures);
    check_quiet_seconds(failures);
  } catch (const std::exception& e) {
    failures.push_back(std::string("self-test threw: ") + e.what());
  }
  return failures;
}

}  // namespace perfbench
