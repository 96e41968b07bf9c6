// The load generator: up to kGeneratorThreads threads, one connection in
// flight each. Untraced phases drive the server through MyProxyClient; the
// traced phase speaks the same protocol through the public net / tls /
// pki / protocol / gsi calls with a span around each one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "client/myproxy_client.hpp"
#include "stack.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Aggregate CPU tick counters of the host (the first line of
/// /proc/stat), to tell how much CPU the hypervisor took away; empty where
/// unavailable.
[[nodiscard]] std::vector<double> host_cpu_ticks();

/// Share of host CPU time stolen between two host_cpu_ticks() samples
/// (field 8 is steal), or -1 when unknown.
[[nodiscard]] double steal_share(const std::vector<double>& before,
                                 const std::vector<double>& after);

struct OpRecord {
  std::size_t seq = 0;  ///< position in the phase's schedule
  OpType type = OpType::kGet;
  bool traced = false;
  std::uint32_t user = 0;
  bool ok = false;
  std::int64_t due_ns = 0;  ///< since the phase origin
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Server-side counters sampled at the edges of a phase.
struct ServerSnapshot {
  std::uint64_t gets = 0, puts = 0;
  std::uint64_t get_open_us = 0, put_store_us = 0;
  std::uint64_t keypool_hits = 0, keypool_misses = 0;
  std::uint64_t peak_in_flight = 0;
  std::uint64_t admission_shed = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  TimedStore::Totals top, backing, inner;
};

struct PhaseResult {
  std::vector<OpRecord> ops;  ///< every thread's ops, thread by thread
  std::vector<DelegationCheck> delegations;
  std::vector<std::string> errors;    ///< wrong answers seen inline
  std::vector<std::string> failures;  ///< first few failed-op messages
  double wall_s = 0.0;                ///< origin to last completion
  double process_cpu_s = 0.0;
  double generator_cpu_s = 0.0;
  double keep_awake_cpu_s = 0.0;  ///< CPU of the idle spinners
  /// Host CPU steal share of each whole second of the window, in order
  /// (-1 where /proc/stat cannot be read).
  std::vector<double> second_steal;
  std::vector<std::unique_ptr<SpanBuffer>> spans;  ///< traced phase only
  std::vector<double> replication_lag_ms;  ///< traced phase, replicated
  ServerSnapshot before, after;
};

/// Everything the generator threads share. Built once per run. Each
/// generator thread has its own client objects for every identity, so an
/// open-loop op can run on whichever thread is free.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, std::uint64_t seed, const Vo& vo,
            Stack& stack);
  ~Generator();

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Untimed: fill the read cache and open the portals' TLS sessions on
  /// both client paths.
  void warm_up();

  /// Run one measured phase. Open loop: `schedule` (due times relative to
  /// the phase start), each op taken by the next free thread, writes to
  /// one user kept in schedule order. Closed loop: `seconds` of
  /// back-to-back GETs, one portal per thread. With `traced`, every other
  /// op takes the traced path, so traced and untraced ops share the same
  /// window and server state (their p50 ratio is the tracing overhead).
  [[nodiscard]] PhaseResult run_phase(const std::vector<Op>& schedule,
                                      double seconds, bool traced);

 private:
  struct TracedActor;
  struct ThreadClients;
  struct Worker;

  [[nodiscard]] ServerSnapshot snapshot() const;
  void execute(Worker& worker, const Op& op, std::size_t seq, bool traced,
               Clock::time_point due, Clock::time_point start);
  void client_op(const Op& op, Worker& worker);
  void traced_op(const Op& op, Worker& worker, std::uint64_t request,
                 std::uint64_t root);
  [[nodiscard]] std::string owner_dn(std::uint32_t user) const;
  [[nodiscard]] myproxy::protocol::Request put_request(std::uint32_t user) const;

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  UserNaming naming_;
  const Vo& vo_;
  Stack& stack_;
  std::vector<std::unique_ptr<ThreadClients>> clients_;  ///< per thread
  std::vector<std::uint64_t> next_round_robin_;  ///< per portal
};

}  // namespace perfbench
