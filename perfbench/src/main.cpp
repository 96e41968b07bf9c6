// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit SHA]
//   perfbench --self-test
//
// --trace 0 prints the end-to-end metrics of one run; --trace 1 sends every
// other operation down the traced path and prints the per-layer metrics. The last line of standard output is the result
// object; a run that fails an output check exits non-zero without one.
// See perfbench/METHOD.md.
#include <openssl/crypto.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checks.hpp"
#include "common/logging.hpp"
#include "crypto/kdf.hpp"
#include "crypto/random.hpp"
#include "loadgen.hpp"
#include "selftest.hpp"
#include "stack.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {
namespace {

namespace mp = myproxy;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  bool self_test = false;
  std::filesystem::path out_dir = ".";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit SHA] | --self-test\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!args.self_test && (args.workload.empty() || !have_seconds ||
                          args.seconds <= 0.0)) {
    usage("--workload and a positive --seconds are required");
  }
  return args;
}

/// Timings from an unoptimised or instrumented build are not reported.
std::optional<std::string> build_problem() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#ifndef NDEBUG
  return "assertions enabled (NDEBUG unset)";
#endif
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    return "build type '" + std::string(PERFBENCH_BUILD_TYPE) +
           "' is not Release";
  }
  return std::nullopt;
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

/// Tail percentile of the bounded end-to-end metric. Higher ones (p90,
/// p95, p99 go to the report with their sample counts) moved between runs
/// by more than any allowed bound on the replicated workload, with host
/// CPU steal; p75 has 240 or more samples beyond it.
constexpr double kTailQuantile = 0.75;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string provenance_json(const Args& args, const WorkloadSpec& spec) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
      << ", \"compiler\": \"" << json_escape(__VERSION__) << "\""
      << ", \"openssl_runtime\": \""
      << json_escape(OpenSSL_version(OPENSSL_VERSION)) << "\""
      << ", \"openssl_headers\": \"" << json_escape(OPENSSL_VERSION_TEXT)
      << "\""
      << ", \"commit\": \"" << json_escape(args.commit) << "\""
      << ", \"workload\": \"" << spec.name << "\""
      << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"offered_rps\": {";
  bool first = true;
  for (const WorkloadSpec& w : all_workloads()) {
    out << (first ? "" : ", ") << "\"" << w.name << "\": "
        << (w.open_loop ? number(w.offered_rps) : "\"closed loop\"");
    first = false;
  }
  out << "}}";
  return out.str();
}

/// Whether `op` was due in one of the `seconds` marked true (all ops when
/// `seconds` is empty). An op due after the last whole second counts with
/// the last one.
bool due_in(const OpRecord& op, const std::vector<bool>& seconds) {
  if (seconds.empty()) return true;
  const auto k = std::min<std::size_t>(
      static_cast<std::size_t>(std::max<std::int64_t>(op.due_ns, 0) /
                               1'000'000'000),
      seconds.size() - 1);
  return seconds[k];
}

/// Latency samples in ms from the due time of the `type` ops on the
/// chosen path that were due in `seconds` (all when empty); a failed op
/// counts as missing every limit (it reads as the whole window).
std::vector<double> latencies_ms(const PhaseResult& phase, OpType type,
                                 bool traced, double window_s,
                                 const std::vector<bool>& seconds = {}) {
  std::vector<double> out;
  for (const OpRecord& op : phase.ops) {
    if (op.type != type || op.traced != traced || !due_in(op, seconds)) {
      continue;
    }
    out.push_back(op.ok ? static_cast<double>(op.end_ns - op.due_ns) / 1e6
                        : window_s * 1000.0);
  }
  return out;
}

std::size_t ok_ops(const PhaseResult& phase) {
  std::size_t n = 0;
  for (const OpRecord& op : phase.ops) n += op.ok ? 1 : 0;
  return n;
}

double median_kdf_ms() {
  const auto salt = mp::crypto::random_bytes(16);
  std::vector<double> samples;
  for (int i = 0; i < 9; ++i) {
    const auto start = Clock::now();
    (void)mp::crypto::pbkdf2("kdf reference phrase", salt,
                             mp::repository::RepositoryPolicy{}.kdf_iterations,
                             32);
    samples.push_back(static_cast<double>(ns_since(start, Clock::now())) / 1e6);
  }
  return median(samples);
}

/// Per-layer metrics of a traced phase (see METHOD.md for the table).
std::vector<Metric> layer_metrics(const WorkloadSpec& spec,
                                  const PhaseResult& traced, double seconds,
                                  std::vector<LayerTotals>& totals_out) {
  std::vector<const std::vector<Span>*> buffers;
  for (const auto& buffer : traced.spans) buffers.push_back(&buffer->spans());
  totals_out = layer_totals(buffers);

  // Root name per request, so child spans can be split by op type.
  std::unordered_map<std::uint64_t, std::string_view> root_of;
  for (const auto* spans : buffers) {
    for (const Span& span : *spans) {
      if (span.parent == 0) root_of[span.request] = span.name;
    }
  }
  const std::string measured_root = "op." + std::string(to_string(spec.measured));
  std::map<std::string, Mean> all, measured;
  std::map<std::string, double> root_ms, child_ms;
  for (const auto* spans : buffers) {
    for (const Span& span : *spans) {
      const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      const std::string_view root = root_of[span.request];
      if (span.parent == 0) {
        root_ms[std::string(root)] += ms;
        continue;
      }
      all[span.name].add(ms);
      child_ms[std::string(root)] += ms;
      if (root == measured_root) measured[span.name].add(ms);
    }
  }
  auto mean_of = [&](const char* name) { return all[name].mean(); };
  const double resumed = static_cast<double>(all["tls.handshake_resumed"].count);
  const double full = static_cast<double>(all["tls.handshake_full"].count);

  const ServerSnapshot& b = traced.before;
  const ServerSnapshot& a = traced.after;
  auto per = [](std::uint64_t after, std::uint64_t before, std::uint64_t n1,
                std::uint64_t n0) {
    return ratio(static_cast<double>(after - before),
                 static_cast<double>(n1 - n0));
  };
  const double open_ms = per(a.get_open_us, b.get_open_us, a.gets, b.gets) / 1e3;
  const double seal_ms =
      per(a.put_store_us, b.put_store_us, a.puts, b.puts) / 1e3;
  const double store_get_us =
      per(a.top.get_ns, b.top.get_ns, a.top.gets, b.top.gets) / 1e3;
  const double backing_get_us = per(a.backing.get_ns, b.backing.get_ns,
                                    a.backing.gets, b.backing.gets) / 1e3;
  const double backing_put_us = per(a.backing.put_ns, b.backing.put_ns,
                                    a.backing.puts, b.backing.puts) / 1e3;
  const double inner_put_us =
      per(a.inner.put_ns, b.inner.put_ns, a.inner.puts, b.inner.puts) / 1e3;
  const double journal_append_us =
      spec.replicated ? backing_put_us - inner_put_us : 0.0;
  const double cache_hits = static_cast<double>(a.cache_hits - b.cache_hits);
  const double cache_misses =
      static_cast<double>(a.cache_misses - b.cache_misses);
  const double pool_hits = static_cast<double>(a.keypool_hits - b.keypool_hits);
  const double pool_misses =
      static_cast<double>(a.keypool_misses - b.keypool_misses);

  // The GET request round trip contains the server's record lookup and
  // Repository::open; what those in-situ timings do not explain is
  // admission, queueing, dispatch and transport.
  const double request_rtt_ms = measured["protocol.request_rtt"].mean();
  const double explained_ms =
      spec.measured == OpType::kGet ? open_ms + store_get_us / 1e3 : 0.0;

  std::vector<double> late_ms;
  for (const OpRecord& op : traced.ops) {
    late_ms.push_back(static_cast<double>(op.start_ns - op.due_ns) / 1e6);
  }
  const double late_p99 =
      spec.open_loop ? percentile(late_ms, 0.99).value_or(0.0) : 0.0;

  auto attributed = [&](const char* root) {
    return ratio(child_ms[root], root_ms[root]);
  };
  const double traced_p50 =
      median(latencies_ms(traced, spec.measured, true, seconds));
  const double untraced_p50 =
      median(latencies_ms(traced, spec.measured, false, seconds));

  return {
      {"net.connect_ms", mean_of("net.connect"), "ms"},
      {"tls.handshake_resumed_ms", mean_of("tls.handshake_resumed"), "ms"},
      {"tls.handshake_full_ms", mean_of("tls.handshake_full"), "ms"},
      {"tls.resumed_ratio", ratio(resumed, resumed + full), "ratio"},
      {"pki.verify_server_ms", mean_of("pki.verify_server"), "ms"},
      {"protocol.request_rtt_ms", request_rtt_ms, "ms"},
      {"protocol.put_commit_rtt_ms", mean_of("protocol.put_commit_rtt"), "ms"},
      {"protocol.request_rtt_explained_ratio",
       ratio(explained_ms, request_rtt_ms), "ratio"},
      {"gsi.begin_delegation_ms", mean_of("gsi.begin_delegation"), "ms"},
      {"gsi.delegation_rtt_ms", mean_of("gsi.delegation_rtt"), "ms"},
      {"gsi.complete_delegation_ms", mean_of("gsi.complete_delegation"), "ms"},
      {"gsi.put_sign_ms", mean_of("gsi.put_sign"), "ms"},
      {"repository.open_ms", open_ms, "ms"},
      {"repository.seal_store_ms", seal_ms, "ms"},
      {"crypto.kdf_ms", median_kdf_ms(), "ms"},
      {"repository.store_get_us", store_get_us, "us"},
      {"repository.backing_get_us", backing_get_us, "us"},
      {"repository.backing_put_us", backing_put_us, "us"},
      {"repository.cache_hit_ratio",
       ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"replication.journal_append_us", journal_append_us, "us"},
      {"replication.lag_ms",
       [&] {
         Mean lag;
         for (const double v : traced.replication_lag_ms) lag.add(v);
         return lag.mean();
       }(),
       "ms"},
      {"server.residual_ms",
       request_rtt_ms > 0.0 ? request_rtt_ms - explained_ms : 0.0, "ms"},
      {"server.peak_in_flight", static_cast<double>(a.peak_in_flight),
       "count"},
      {"server.keypool_hit_ratio", ratio(pool_hits, pool_hits + pool_misses),
       "ratio"},
      {"server.admission_shed",
       static_cast<double>(a.admission_shed - b.admission_shed), "count"},
      {"loadgen.late_p99_ms", late_p99, "ms"},
      {"loadgen.cpu_ms_per_op",
       ratio(traced.generator_cpu_s * 1e3,
             static_cast<double>(traced.ops.size())),
       "ms"},
      {"trace.get_attributed_ratio", attributed("op.get"), "ratio"},
      {"trace.put_attributed_ratio", attributed("op.put"), "ratio"},
      {"trace.overhead_ratio", ratio(traced_p50, untraced_p50), "ratio"},
  };
}

struct RunOutcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< output-check failures
  std::string report;                 ///< JSON object for the report file
};

/// Expected final repository state from the ops as executed: the last
/// write per user decides; a user whose last write failed is unknown.
std::vector<ExpectedRecord> expected_records(const WorkloadSpec& spec,
                                             const Vo& vo,
                                             const UserNaming& naming,
                                             const PhaseResult& phase) {
  std::vector<const OpRecord*> writes;
  for (const OpRecord& op : phase.ops) {
    if (op.type == OpType::kPut || op.type == OpType::kDestroy) {
      writes.push_back(&op);
    }
  }
  // Writes to one user ran in schedule order.
  std::sort(writes.begin(), writes.end(),
            [](const OpRecord* a, const OpRecord* b) { return a->seq < b->seq; });
  std::map<std::uint32_t, std::optional<bool>> last;  // present / unknown
  for (const OpRecord* op : writes) {
    last[op->user] = op->ok ? std::optional<bool>(op->type == OpType::kPut)
                            : std::nullopt;
  }
  std::vector<ExpectedRecord> out;
  for (const auto& [user, present] : last) {
    if (!present.has_value()) continue;
    out.push_back({naming.username(user), naming.pass_phrase(user),
                   vo.writer_dns[owner_of(spec, user)], *present});
  }
  return out;
}

RunOutcome run(const WorkloadSpec& spec, const Args& args,
               const std::filesystem::path& work_dir,
               std::ostream& spans_out) {
  RunOutcome outcome;
  const UserNaming naming{args.seed};
  const Vo vo(spec);

  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; i < spec.setup_repeats; ++i) {
    stack.reset();
    const auto start = Clock::now();
    stack = std::make_unique<Stack>(spec, vo, naming,
                                    work_dir / ("stack-" + std::to_string(i)),
                                    args.trace);
    setups.push_back(static_cast<double>(ns_since(start, Clock::now())) / 1e9);
    std::cerr << "perfbench: set-up " << i + 1 << " took "
              << number(setups.back()) << " s\n";
  }

  Generator generator(spec, args.seed, vo, *stack);
  generator.warm_up();
  const auto ticks_before = host_cpu_ticks();
  const PhaseResult phase = generator.run_phase(
      make_schedule(spec, args.seed, args.seconds), args.seconds, args.trace);
  const double host_steal = steal_share(ticks_before, host_cpu_ticks());

  // Output checks, after the window so they cost it nothing.
  outcome.attempted = phase.ops.size();
  outcome.failed = phase.ops.size() - ok_ops(phase);
  outcome.problems = phase.errors;
  for (const auto& failure : phase.failures) {
    std::cerr << "perfbench: failed op: " << failure << "\n";
  }
  const mp::Seconds max_lifetime =
      mp::repository::RepositoryPolicy{}.default_delegation_lifetime;
  for (const DelegationCheck& check : phase.delegations) {
    if (auto error = check_delegation(vo.trust, check, max_lifetime);
        !error.empty() && outcome.problems.size() < 32) {
      outcome.problems.push_back(std::move(error));
    }
  }
  if (!stack->wait_for_replica(std::chrono::milliseconds(10000))) {
    outcome.problems.push_back("replica did not catch up with the journal");
  }
  for (auto& problem :
       check_records(stack->repository(), stack->replica_repository(),
                     expected_records(spec, vo, naming, phase),
                     kGeneratorThreads)) {
    outcome.problems.push_back(std::move(problem));
  }

  std::ostringstream report;
  report << "{\"setup_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    report << (i ? ", " : "") << number(setups[i]);
  }
  report << "], \"ops\": " << phase.ops.size()
         << ", \"ok\": " << ok_ops(phase)
         << ", \"wall_s\": " << number(phase.wall_s)
         << ", \"process_cpu_s\": " << number(phase.process_cpu_s)
         << ", \"generator_cpu_s\": " << number(phase.generator_cpu_s)
         << ", \"keep_awake_cpu_s\": " << number(phase.keep_awake_cpu_s)
         << ", \"host_cpu_steal_share\": " << number(host_steal)
         << ", \"second_steal\": [";
  const std::vector<bool> quiet = quiet_seconds(phase.second_steal);
  std::size_t quiet_count = 0;
  for (std::size_t k = 0; k < phase.second_steal.size(); ++k) {
    report << (k ? ", " : "") << number(phase.second_steal[k]);
    quiet_count += quiet[k] ? 1 : 0;
  }
  report << "], \"quiet_seconds\": " << quiet_count
         << ", \"measured_op\": \"" << to_string(spec.measured) << "\"";
  // Whole-window percentiles of both paths, for comparison with the
  // quiet-second metrics.
  for (const bool traced : {false, true}) {
    const auto lat = latencies_ms(phase, spec.measured, traced, args.seconds);
    if (lat.empty()) continue;
    const std::string path = traced ? "traced" : "untraced";
    report << ", \"" << path << "_samples\": " << lat.size() << ", \""
           << path << "_p50_ms\": " << number(median(lat));
    for (const double q : {0.75, 0.9, 0.95, 0.99}) {
      if (const auto v = percentile(lat, q)) {
        report << ", \"" << path << "_p" << static_cast<int>(q * 100)
               << "_ms\": " << number(*v);
      }
    }
  }

  if (!args.trace) {
    const auto lat =
        latencies_ms(phase, spec.measured, false, args.seconds, quiet);
    const auto tail = percentile(lat, kTailQuantile);
    if (!tail.has_value()) {
      throw std::runtime_error(
          "too few " + std::string(to_string(spec.measured)) + " samples (" +
          std::to_string(lat.size()) + ") for a p" +
          std::to_string(static_cast<int>(kTailQuantile * 100)) + " with " +
          std::to_string(kMinSamplesBeyond) + " beyond it");
    }
    report << ", \"quiet_samples\": " << lat.size();
    const double ok = static_cast<double>(ok_ops(phase));
    // An open loop's rate is its schedule's, so its ops_s only shows that
    // the server kept up; a closed loop's is its capacity, read from the
    // quiet seconds like its latency.
    double ops_s = ratio(ok, phase.wall_s);
    if (!spec.open_loop) {
      std::size_t quiet_ok = 0;
      for (const OpRecord& op : phase.ops) {
        quiet_ok += op.ok && due_in(op, quiet) ? 1 : 0;
      }
      ops_s = ratio(static_cast<double>(quiet_ok),
                    static_cast<double>(quiet_count));
    }
    outcome.metrics = {
        {"op_p50_ms", median(lat), "ms"},
        {"op_p75_ms", *tail, "ms"},
        {"ops_s", ops_s, "1/s"},
        {"server_cpu_ms_per_op",
         ratio((phase.process_cpu_s - phase.generator_cpu_s -
                phase.keep_awake_cpu_s) * 1e3,
               ok),
         "ms"},
        {"setup_s", median(setups), "s"},
    };
  } else {
    std::vector<LayerTotals> totals;
    outcome.metrics = layer_metrics(spec, phase, args.seconds, totals);
    report << ", \"layers\": [";
    for (std::size_t i = 0; i < totals.size(); ++i) {
      const auto& t = totals[i];
      const double n = static_cast<double>(t.count);
      report << (i ? ", " : "") << "{\"name\": \"" << t.name
             << "\", \"count\": " << t.count
             << ", \"mean_ms\": " << number(ratio(t.total_ms, n))
             << ", \"self_mean_ms\": " << number(ratio(t.self_ms, n)) << "}";
    }
    report << "]";
    std::vector<const std::vector<Span>*> buffers;
    for (const auto& buffer : phase.spans) buffers.push_back(&buffer->spans());
    write_spans(spans_out, buffers);
  }
  report << ", \"metrics\": " << metrics_json(outcome.metrics) << "}";
  outcome.report = report.str();
  return outcome;
}

int real_main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (const auto problem = build_problem()) {
    std::cerr << "perfbench: refusing to measure: " << *problem << "\n";
    return 3;
  }
  mp::log::Logger::instance().set_level(mp::log::Level::kError);

  const auto failures = run_self_tests();
  for (const auto& failure : failures) {
    std::cerr << "perfbench: self-test failed: " << failure << "\n";
  }
  if (!failures.empty()) return 1;
  if (args.self_test) {
    std::cout << "perfbench: self-tests passed\n";
    return 0;
  }

  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage("unknown workload " + args.workload);

  const std::string provenance = provenance_json(args, *spec);
  std::cout << "{\"provenance\": " << provenance << "}\n";

  const std::string stem = std::string(spec->name) + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  std::filesystem::create_directories(args.out_dir);
  const std::filesystem::path work_dir =
      args.out_dir / ("work-" + std::to_string(::getpid()));
  std::ofstream spans_out;
  if (args.trace) spans_out.open(args.out_dir / (stem + ".spans.jsonl"));

  RunOutcome outcome;
  try {
    outcome = run(*spec, args, work_dir, spans_out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
    std::filesystem::remove_all(work_dir);
    return 1;
  }
  std::filesystem::remove_all(work_dir);

  std::ofstream(args.out_dir / (stem + ".report.json"))
      << "{\"provenance\": " << provenance << ", \"correct\": "
      << (outcome.problems.empty() ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed
      << ", \"run\": " << outcome.report << "}\n";
  if (!outcome.problems.empty()) {
    for (const auto& problem : outcome.problems) {
      std::cerr << "perfbench: output check failed: " << problem << "\n";
    }
    return 1;
  }
  std::cout << "{\"correct\": true, \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << metrics_json(outcome.metrics) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::real_main(argc, argv); }
