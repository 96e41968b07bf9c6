#include "loadgen.hpp"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cmath>
#include <deque>
#include <fstream>
#include <unordered_map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "gsi/proxy.hpp"
#include "net/socket.hpp"
#include "protocol/message.hpp"
#include "tls/tls_channel.hpp"

namespace perfbench {

namespace mp = myproxy;
using namespace std::chrono_literals;
using mp::protocol::Command;
using mp::protocol::Request;
using mp::protocol::Response;

namespace {

constexpr std::chrono::milliseconds kConnectTimeout{10000};
constexpr std::chrono::milliseconds kIoTimeout{30000};
constexpr std::size_t kMaxFailureMessages = 5;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

const char* root_name(OpType type) {
  switch (type) {
    case OpType::kGet: return "op.get";
    case OpType::kPut: return "op.put";
    case OpType::kDestroy: return "op.destroy";
    case OpType::kRenew: return "op.renew";
    case OpType::kInfo: return "op.info";
  }
  return "op.?";
}

void require_ok(const Response& response) {
  if (!response.ok()) {
    throw std::runtime_error("server refused: " + response.error);
  }
}

/// Times PUT ack -> the replica has applied the journal entry (its
/// ReplicaSession reports the sequence applied to the replica's store).
class LagWatcher {
 public:
  LagWatcher(const mp::replication::ReplicaSession& session,
             const mp::replication::ReplicationJournal& journal)
      : session_(session), journal_(journal), thread_([this] { run(); }) {}

  ~LagWatcher() { finish(); }
  LagWatcher(const LagWatcher&) = delete;
  LagWatcher& operator=(const LagWatcher&) = delete;

  /// Called right after a PUT was acknowledged. The journal tip read here
  /// is at or after the PUT's own entry, so the lag is never understated.
  void acked(Clock::time_point ack) {
    const std::uint64_t sequence = journal_.last_sequence();
    {
      const std::scoped_lock lock(mutex_);
      pending_.push_back({sequence, ack});
    }
    cv_.notify_one();
  }

  void finish() {
    {
      const std::scoped_lock lock(mutex_);
      if (done_) return;
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  std::vector<double> lags_ms;
  std::size_t timeouts = 0;
  double cpu_s = 0.0;

 private:
  struct Pending {
    std::uint64_t sequence;
    Clock::time_point ack;
  };

  void run() {
    const double cpu0 = thread_cpu_s();
    for (;;) {
      Pending next{};
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return done_ || !pending_.empty(); });
        if (pending_.empty()) break;
        next = pending_.front();
        pending_.pop_front();
      }
      if (session_.wait_for_sequence(next.sequence, 10000ms)) {
        lags_ms.push_back(
            static_cast<double>(ns_since(next.ack, Clock::now())) / 1e6);
      } else {
        ++timeouts;
      }
    }
    cpu_s = thread_cpu_s() - cpu0;
  }

  const mp::replication::ReplicaSession& session_;
  const mp::replication::ReplicationJournal& journal_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  bool done_ = false;
  std::thread thread_;  // last: started after the members it uses
};

/// One SCHED_IDLE thread per CPU that spins for the whole window, so no
/// CPU of the (virtual) host goes idle. On an oversubscribed hypervisor an
/// idle vCPU halts, and waking it waits for a physical CPU: that wake-up
/// delay, which depends on other tenants' load, would otherwise land on
/// the requests of open-loop workloads, which leave CPUs idle between
/// arrivals. SCHED_IDLE threads run only when no other thread is
/// runnable, so they never delay the work measured.
class CpuKeepAwake {
 public:
  CpuKeepAwake() {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < cpus; ++i) {
      threads_.emplace_back([this] {
        // Spinning at normal priority would compete with the server.
        const sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;
        }
        const double cpu0 = thread_cpu_s();
        while (!stop_.load(std::memory_order_relaxed)) {
        }
        const double used = thread_cpu_s() - cpu0;
        const std::scoped_lock lock(mutex_);
        cpu_s_ += used;
      });
    }
  }
  ~CpuKeepAwake() { stop(); }
  CpuKeepAwake(const CpuKeepAwake&) = delete;
  CpuKeepAwake& operator=(const CpuKeepAwake&) = delete;

  /// Stop spinning; returns the CPU time the spinners used.
  double stop() {
    stop_.store(true);
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    return cpu_s_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  double cpu_s_ = 0.0;
  std::vector<std::thread> threads_;  // last: started after the rest
};

}  // namespace

std::vector<double> host_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  std::vector<double> ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  double value = 0;
  while (ticks.size() < 8 && stat >> value) ticks.push_back(value);
  return ticks;
}

double steal_share(const std::vector<double>& before,
                   const std::vector<double>& after) {
  if (before.size() < 8 || after.size() < 8) return -1.0;
  double total = 0.0;
  for (std::size_t i = 0; i < 8; ++i) total += after[i] - before[i];
  return total > 0.0 ? (after[7] - before[7]) / total : -1.0;
}

/// One identity on the traced path: its TLS context and, when it resumes,
/// the session cached from its last successful operation.
struct Generator::TracedActor {
  const mp::gsi::Credential* credential;
  mp::tls::TlsContext context;
  bool resume;
  mp::tls::TlsSession session;
};

/// One generator thread's client objects, one per identity and path.
struct Generator::ThreadClients {
  std::vector<std::unique_ptr<mp::client::MyProxyClient>> portals;
  std::vector<std::unique_ptr<mp::client::MyProxyClient>> writers;
  std::vector<std::unique_ptr<TracedActor>> traced_portals;
  std::vector<std::unique_ptr<TracedActor>> traced_writers;
};

/// One generator thread's state for one phase.
struct Generator::Worker {
  std::size_t index = 0;
  ThreadClients* clients = nullptr;
  SpanBuffer* spans = nullptr;  ///< null unless the phase is traced
  LagWatcher* lag = nullptr;
  std::vector<OpRecord> ops;
  std::vector<DelegationCheck> delegations;
  std::vector<std::string> errors;
  std::vector<std::string> failures;
  std::uint64_t requests = 0;
  double cpu_s = 0.0;
};

Generator::Generator(const WorkloadSpec& spec, std::uint64_t seed,
                     const Vo& vo, Stack& stack)
    : spec_(spec),
      seed_(seed),
      naming_{seed},
      vo_(vo),
      stack_(stack),
      next_round_robin_(spec.portals, 0) {
  // Refusals and transport errors count as failures instead of being
  // retried away.
  mp::client::RetryPolicy policy;
  policy.max_attempts = 1;
  policy.connect_timeout = kConnectTimeout;
  policy.io_timeout = kIoTimeout;
  for (std::size_t t = 0; t < kGeneratorThreads; ++t) {
    auto clients = std::make_unique<ThreadClients>();
    for (const auto& portal : vo.portals) {
      clients->portals.push_back(std::make_unique<mp::client::MyProxyClient>(
          portal, vo.trust, stack.port(), policy));
      clients->traced_portals.push_back(std::make_unique<TracedActor>(
          TracedActor{&portal, mp::tls::TlsContext::make(portal), true, {}}));
    }
    // Writers are one-shot command-line tools: no session resumption.
    for (const auto& proxy : vo.writer_proxies) {
      auto client = std::make_unique<mp::client::MyProxyClient>(
          proxy, vo.trust, stack.port(), policy);
      client->set_session_resumption(false);
      clients->writers.push_back(std::move(client));
      clients->traced_writers.push_back(std::make_unique<TracedActor>(
          TracedActor{&proxy, mp::tls::TlsContext::make(proxy), false, {}}));
    }
    clients_.push_back(std::move(clients));
  }
}

Generator::~Generator() = default;

std::string Generator::owner_dn(std::uint32_t user) const {
  return vo_.writer_dns[owner_of(spec_, user)];
}

void Generator::warm_up() {
  // Bring the read cache to the steady state the workload's draws imply
  // (store reads only: no KDF, no network).
  for (const std::uint32_t u :
       cache_warmup_users(spec_, seed_, 2 * spec_.preloaded)) {
    (void)stack_.repository().record(naming_.username(u));
  }
  // Open every portal's TLS session on every thread and both client
  // paths; on the closed loop also retrieve each preloaded user once.
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kGeneratorThreads);
  for (std::size_t t = 0; t < kGeneratorThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        Worker worker;
        worker.clients = clients_[t].get();
        SpanBuffer unused_spans(t, Clock::now());
        worker.spans = &unused_spans;
        for (std::size_t p = 0; p < spec_.portals; ++p) {
          const Op info{0, OpType::kInfo, static_cast<std::uint32_t>(p),
                        static_cast<std::uint32_t>(p)};
          client_op(info, worker);
          traced_op(info, worker, 0, 0);
        }
        if (!worker.errors.empty()) throw std::runtime_error(worker.errors[0]);
        if (!spec_.open_loop) {
          for (std::size_t u = t; u < spec_.preloaded; u += kGeneratorThreads) {
            const auto user = static_cast<std::uint32_t>(u);
            (void)worker.clients->portals[t]->get(naming_.username(user),
                                                  naming_.pass_phrase(user));
          }
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors) {
    if (!error.empty()) throw std::runtime_error("warm-up failed: " + error);
  }
}

ServerSnapshot Generator::snapshot() const {
  ServerSnapshot s;
  const auto& stats = stack_.server().stats();
  s.gets = stats.gets.load();
  s.puts = stats.puts.load();
  s.get_open_us = stats.get_open_us.load();
  s.put_store_us = stats.put_store_us.load();
  s.keypool_hits = stats.keypool_hits.load();
  s.keypool_misses = stats.keypool_misses.load();
  s.peak_in_flight = stats.peak_in_flight.load();
  const auto admission = stack_.server().admission().counters();
  s.admission_shed =
      admission.shed_rate + admission.shed_queue + admission.preauth_shed;
  const StoreProbes& probes = stack_.probes();
  const auto cache = probes.cache->stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  if (probes.top != nullptr) s.top = probes.top->totals();
  if (probes.backing != nullptr) s.backing = probes.backing->totals();
  if (probes.inner != nullptr) s.inner = probes.inner->totals();
  return s;
}

Request Generator::put_request(std::uint32_t user) const {
  // Field for field what MyProxyClient::put sends with default PutOptions
  // plus the workload's renewer patterns.
  Request request;
  request.command = Command::kPut;
  request.username = naming_.username(user);
  request.passphrase = naming_.pass_phrase(user);
  request.renewer_patterns = renewer_patterns(spec_, vo_, user);
  return request;
}

void Generator::client_op(const Op& op, Worker& worker) {
  const std::string username = naming_.username(op.user);
  switch (op.type) {
    case OpType::kGet:
      worker.delegations.push_back(
          {worker.clients->portals[op.actor]->get(username,
                                          naming_.pass_phrase(op.user)),
           owner_dn(op.user)});
      return;
    case OpType::kInfo: {
      const auto info = worker.clients->portals[op.actor]->info(username);
      if (info.owner_dn != owner_dn(op.user)) {
        worker.errors.push_back("INFO for '" + username + "' named owner '" +
                                info.owner_dn + "'");
      }
      return;
    }
    case OpType::kPut: {
      mp::client::PutOptions options;
      options.renewer_patterns = renewer_patterns(spec_, vo_, op.user);
      worker.clients->writers[op.actor]->put(username, naming_.pass_phrase(op.user),
                                     vo_.writer_proxies[op.actor], options);
      if (worker.lag != nullptr) worker.lag->acked(Clock::now());
      return;
    }
    case OpType::kDestroy:
      worker.clients->writers[op.actor]->destroy(username);
      return;
    case OpType::kRenew:
      worker.delegations.push_back(
          {worker.clients->writers[op.actor]->renew(username), owner_dn(op.user)});
      return;
  }
}

void Generator::traced_op(const Op& op, Worker& worker, std::uint64_t request,
                          std::uint64_t root) {
  SpanBuffer& spans = *worker.spans;
  const bool reader = op.type == OpType::kGet || op.type == OpType::kInfo;
  TracedActor& actor =
      reader ? *worker.clients->traced_portals[op.actor]
             : *worker.clients->traced_writers[op.actor];

  mp::net::Socket socket = spans.timed(request, root, "net.connect", [&] {
    return mp::net::tcp_connect(stack_.port(), kConnectTimeout);
  });
  const auto handshake_start = Clock::now();
  auto channel = mp::tls::TlsChannel::connect(
      actor.context, std::move(socket), kIoTimeout,
      actor.resume && actor.session.valid() ? &actor.session : nullptr);
  spans.add(request, root,
            channel->resumed() ? "tls.handshake_resumed" : "tls.handshake_full",
            handshake_start, Clock::now());
  if (!channel->resumed()) {
    spans.timed(request, root, "pki.verify_server",
                [&] { (void)vo_.trust.verify(channel->peer_chain()); });
  }

  Request message;
  if (op.type == OpType::kPut) {
    message = put_request(op.user);
  } else {
    message.username = naming_.username(op.user);
    switch (op.type) {
      case OpType::kGet:
        message.command = Command::kGet;
        message.passphrase = naming_.pass_phrase(op.user);
        break;
      case OpType::kInfo: message.command = Command::kInfo; break;
      case OpType::kDestroy: message.command = Command::kDestroy; break;
      case OpType::kRenew: message.command = Command::kRenew; break;
      case OpType::kPut: break;
    }
  }
  const Response first = spans.timed(request, root, "protocol.request_rtt", [&] {
    channel->send(message.serialize());
    return Response::parse(channel->receive());
  });
  require_ok(first);

  switch (op.type) {
    case OpType::kGet:
    case OpType::kRenew: {
      auto delegation = spans.timed(request, root, "gsi.begin_delegation", [] {
        return mp::gsi::begin_delegation(mp::crypto::KeySpec::ec());
      });
      const std::string chain = spans.timed(request, root, "gsi.delegation_rtt", [&] {
        channel->send(delegation.csr_pem);
        return channel->receive();
      });
      auto credential =
          spans.timed(request, root, "gsi.complete_delegation", [&] {
            return mp::gsi::complete_delegation(std::move(delegation.key),
                                                chain);
          });
      worker.delegations.push_back({std::move(credential), owner_dn(op.user)});
      break;
    }
    case OpType::kPut: {
      const std::string csr = spans.timed(request, root, "protocol.csr_recv",
                                          [&] { return channel->receive(); });
      const std::string chain = spans.timed(request, root, "gsi.put_sign", [&] {
        mp::gsi::ProxyOptions options;
        options.lifetime = mp::kDefaultRepositoryLifetime;
        return mp::gsi::delegate_credential(*actor.credential, csr, options);
      });
      const Response done =
          spans.timed(request, root, "protocol.put_commit_rtt", [&] {
            channel->send(chain);
            return Response::parse(channel->receive());
          });
      require_ok(done);
      if (worker.lag != nullptr) worker.lag->acked(Clock::now());
      break;
    }
    case OpType::kInfo: {
      const auto owner = first.fields.find("OWNER");
      if (owner == first.fields.end() || owner->second != owner_dn(op.user)) {
        worker.errors.push_back("INFO for '" + message.username +
                                "' named the wrong owner");
      }
      break;
    }
    case OpType::kDestroy: break;
  }
  spans.timed(request, root, "tls.close", [&] {
    if (actor.resume) {
      mp::tls::TlsSession session = channel->session();
      if (session.valid()) actor.session = std::move(session);
    }
    channel.reset();
  });
}

void Generator::execute(Worker& worker, const Op& op, std::size_t seq,
                        bool traced, Clock::time_point due,
                        Clock::time_point start) {
  OpRecord record;
  record.seq = seq;
  record.type = op.type;
  record.user = op.user;
  record.traced = traced;
  const std::uint64_t request =
      (static_cast<std::uint64_t>(worker.index + 1) << 48) | ++worker.requests;
  std::uint64_t root = 0;
  if (traced) {
    root = worker.spans->begin(request, 0, root_name(op.type), due);
    if (start > due) {
      worker.spans->add(request, root, "loadgen.queue", due, start);
    }
  }
  try {
    if (traced) {
      traced_op(op, worker, request, root);
    } else {
      client_op(op, worker);
    }
    record.ok = true;
  } catch (const std::exception& e) {
    if (worker.failures.size() < kMaxFailureMessages) {
      worker.failures.push_back(std::string(to_string(op.type)) + " '" +
                                naming_.username(op.user) + "': " + e.what());
    }
  }
  const auto end = Clock::now();
  if (traced) worker.spans->end(root, end);
  record.due_ns = ns_since({}, due);
  record.start_ns = ns_since({}, start);
  record.end_ns = ns_since({}, end);
  worker.ops.push_back(record);
}

PhaseResult Generator::run_phase(const std::vector<Op>& schedule,
                                 double seconds, bool traced) {
  if (!spec_.open_loop && spec_.portals != kGeneratorThreads) {
    throw std::logic_error("closed loop needs one portal per thread");
  }
  // A write waits for the previous write to the same user (one user's
  // tools do not overlap); everything else starts when due.
  const std::size_t n = schedule.size();
  std::vector<std::ptrdiff_t> waits_for(n, -1);
  {
    std::unordered_map<std::uint32_t, std::size_t> last_write;
    for (std::size_t i = 0; i < n; ++i) {
      const OpType type = schedule[i].type;
      if (type != OpType::kPut && type != OpType::kDestroy) continue;
      const auto it = last_write.find(schedule[i].user);
      if (it != last_write.end()) {
        waits_for[i] = static_cast<std::ptrdiff_t>(it->second);
      }
      last_write[schedule[i].user] = i;
    }
  }
  std::unique_ptr<std::atomic<bool>[]> done(new std::atomic<bool>[n]);
  for (std::size_t i = 0; i < n; ++i) done[i].store(false);
  std::atomic<std::size_t> next_op{0};

  PhaseResult result;
  std::unique_ptr<LagWatcher> lag;
  if (traced && stack_.replica() != nullptr) {
    lag = std::make_unique<LagWatcher>(*stack_.replica()->replica_session(),
                                       *stack_.journal());
  }
  // Threads start sleeping well before the origin so that thread start-up
  // is outside the window.
  const Clock::time_point origin = Clock::now() + 100ms;
  const Clock::time_point window_end =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  std::vector<Worker> workers(kGeneratorThreads);
  for (std::size_t t = 0; t < kGeneratorThreads; ++t) {
    workers[t].index = t;
    workers[t].clients = clients_[t].get();
    workers[t].lag = lag.get();
    if (traced) {
      result.spans.push_back(std::make_unique<SpanBuffer>(t, origin));
      workers[t].spans = result.spans.back().get();
    }
  }

  result.before = snapshot();
  const double cpu0 = process_cpu_s();
  CpuKeepAwake keep_awake;
  // Host steal of every second of the window, read on the second.
  double sampler_cpu_s = 0.0;
  std::thread steal_sampler([&] {
    const double cpu0 = thread_cpu_s();
    const auto whole_seconds = static_cast<std::size_t>(std::ceil(seconds));
    std::this_thread::sleep_until(origin);
    std::vector<double> previous = host_cpu_ticks();
    for (std::size_t k = 1; k <= whole_seconds; ++k) {
      std::this_thread::sleep_until(origin + std::chrono::seconds(k));
      std::vector<double> now = host_cpu_ticks();
      result.second_steal.push_back(steal_share(previous, now));
      previous = std::move(now);
    }
    sampler_cpu_s = thread_cpu_s() - cpu0;
  });
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kGeneratorThreads; ++t) {
    threads.emplace_back([&, t] {
      Worker& worker = workers[t];
      const double thread_cpu0 = thread_cpu_s();
      std::this_thread::sleep_until(origin);
      if (spec_.open_loop) {
        for (std::size_t i = next_op++; i < n; i = next_op++) {
          const Op& op = schedule[i];
          const auto due = origin + std::chrono::microseconds(op.due_us);
          std::this_thread::sleep_until(due);
          if (waits_for[i] >= 0) done[waits_for[i]].wait(false);
          execute(worker, op, i, traced && i % 2 == 1, due, Clock::now());
          done[i].store(true);
          done[i].notify_all();
        }
      } else {
        while (Clock::now() < window_end) {
          const Op op{0, OpType::kGet,
                      closed_loop_user(spec_, seed_, t, next_round_robin_[t]++),
                      static_cast<std::uint32_t>(t)};
          const auto start = Clock::now();
          execute(worker, op, 0, traced && worker.requests % 2 == 1,
                        start, start);
        }
      }
      worker.cpu_s = thread_cpu_s() - thread_cpu0;
    });
  }
  for (auto& thread : threads) thread.join();
  steal_sampler.join();
  if (lag != nullptr) lag->finish();
  result.keep_awake_cpu_s = keep_awake.stop();
  result.process_cpu_s = process_cpu_s() - cpu0;
  result.after = snapshot();

  const std::int64_t origin_ns = ns_since({}, origin);
  std::int64_t last_end = origin_ns;
  result.generator_cpu_s += sampler_cpu_s;
  for (Worker& worker : workers) {
    result.generator_cpu_s += worker.cpu_s;
    for (OpRecord& record : worker.ops) {
      record.due_ns -= origin_ns;
      record.start_ns -= origin_ns;
      record.end_ns -= origin_ns;
      last_end = std::max(last_end, record.end_ns + origin_ns);
      result.ops.push_back(record);
    }
    for (auto& check : worker.delegations) {
      result.delegations.push_back(std::move(check));
    }
    for (auto& e : worker.errors) result.errors.push_back(std::move(e));
    for (auto& f : worker.failures) result.failures.push_back(std::move(f));
  }
  if (lag != nullptr) {
    result.generator_cpu_s += lag->cpu_s;
    result.replication_lag_ms = std::move(lag->lags_ms);
    if (lag->timeouts > 0) {
      result.errors.push_back(std::to_string(lag->timeouts) +
                              " acknowledged PUT(s) never reached the replica");
    }
  }
  result.wall_s = static_cast<double>(last_end - origin_ns) / 1e9;
  return result;
}

}  // namespace perfbench
