// Workload definitions and the seeded input generator.
//
// Everything a run sends is a pure function of (workload, seed, seconds):
// usernames, pass phrases, zipf draws, the op sequence and the open-loop
// arrival schedule. The server under test only ever sees the generated
// inputs. Offered rates are constants here (and in BENCHMARK.json's
// workload descriptions); they are never calibrated from the build under
// test.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class WorkloadKind { kPortalGetHot, kUserInitReplicated, kZipfMixedCold };

enum class OpType : std::uint8_t { kGet, kPut, kDestroy, kRenew, kInfo };

[[nodiscard]] std::string_view to_string(OpType type) noexcept;

/// Generator threads and client connections in flight (one per thread).
inline constexpr std::size_t kGeneratorThreads = 4;

struct WorkloadSpec {
  WorkloadKind kind;
  std::string_view name;
  bool open_loop;
  double offered_rps;        ///< open loop only; frozen
  std::size_t preloaded;     ///< credentials stored before the run
  std::size_t name_space;    ///< usernames the run may touch
  std::size_t portals;       ///< retriever identities (GET / INFO)
  std::size_t writers;       ///< owner identities (PUT / DESTROY / RENEW)
  double zipf_s;             ///< 0 = uniform / round-robin
  bool replicated;           ///< ReplicatedStore + one replica
  bool admission_limits;     ///< sample config's admission limits
  OpType measured;           ///< op whose latency is the end-to-end metric
  /// Mix in percent, indexed by OpType.
  std::uint32_t mix[5];
  std::size_t setup_repeats;  ///< set-ups per run (median reported)
};

[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
[[nodiscard]] const std::vector<WorkloadSpec>& all_workloads();

/// One scheduled operation. `actor` indexes the portal list for GET/INFO
/// and the writer list for PUT/DESTROY/RENEW.
struct Op {
  std::int64_t due_us = 0;  ///< offset from the start of the window
  OpType type = OpType::kGet;
  std::uint32_t user = 0;
  std::uint32_t actor = 0;

  friend bool operator==(const Op&, const Op&) = default;
};

/// Deterministic username / pass phrase / ownership of user index `u`.
struct UserNaming {
  std::uint64_t seed;
  [[nodiscard]] std::string username(std::uint32_t u) const;
  [[nodiscard]] std::string pass_phrase(std::uint32_t u) const;
};

/// User index of the k-th preloaded credential. The replicated workload
/// preloads the first quarter of every identity's block of names.
[[nodiscard]] std::uint32_t preloaded_user(const WorkloadSpec& spec,
                                           std::size_t k);

/// Owner (writer index) of user `u`.
[[nodiscard]] std::uint32_t owner_of(const WorkloadSpec& spec,
                                     std::uint32_t u);
/// Preloaded users stored renewable (§6.6) so that RENEW has targets.
[[nodiscard]] bool renewable(std::uint32_t u);

/// Open-loop schedule for `seconds` of traffic: exactly
/// round(rate * seconds) arrivals, uniform (a Poisson process conditioned
/// on its count), op types in exact mix proportions, shuffled.
[[nodiscard]] std::vector<Op> make_schedule(const WorkloadSpec& spec,
                                            std::uint64_t seed,
                                            double seconds);

/// Closed loop: the k-th GET of portal `portal` (round-robin over the
/// preloaded users from a seeded starting offset).
[[nodiscard]] std::uint32_t closed_loop_user(const WorkloadSpec& spec,
                                             std::uint64_t seed,
                                             std::size_t portal,
                                             std::uint64_t k);

/// Zipf draws used to bring the read cache to its steady state before the
/// window (store reads only; no crypto). Empty unless the workload draws
/// users from a zipf.
[[nodiscard]] std::vector<std::uint32_t> cache_warmup_users(
    const WorkloadSpec& spec, std::uint64_t seed, std::size_t count);

}  // namespace perfbench
