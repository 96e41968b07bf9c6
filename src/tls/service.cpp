#include "tls/service.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "net/channel.hpp"

namespace myproxy::tls {

namespace {

/// Write deadline for a best-effort refusal.
constexpr std::chrono::milliseconds kShedWriteTimeout{100};

}  // namespace

struct Service::Connection {
  Service* service = nullptr;
  std::size_t loop_index = 0;
  std::unique_ptr<TlsChannel> channel;
  std::string request;

  enum class State { kHandshake, kRequest };
  State state = State::kHandshake;

  net::EventLoop::TimerId deadline_timer = 0;
  bool timer_armed = false;
  std::uint32_t interest = 0;
  bool registered = false;

  /// Set when responsibility for the in-flight slot moved to a worker (or
  /// was released explicitly); otherwise the destructor releases it, so
  /// every admitted connection releases exactly once on every exit path.
  bool slot_transferred = false;

  ~Connection() {
    if (!slot_transferred) service->release_slot();
  }
};

Service::Service(TlsContext context, ServiceConfig config, Handler handler,
                 HandOffHook hook, ServiceStats* stats)
    : context_(std::move(context)),
      config_(std::move(config)),
      handler_(std::move(handler)),
      hook_(std::move(hook)),
      stats_(stats != nullptr ? *stats : own_stats_) {}

Service::~Service() { stop(); }

void Service::start() {
  listener_.emplace(net::TcpListener::bind(config_.port));
  port_ = listener_->port();
  listener_->set_nonblocking(true);
  pool_ = std::make_unique<ThreadPool>(config_.worker_threads,
                                       config_.max_pending);
  const std::size_t count = std::max<std::size_t>(config_.loops, 1);
  for (std::size_t i = 0; i < count; ++i) {
    loops_.push_back(std::make_unique<net::EventLoop>());
  }
  loops_[0]->add_fd(listener_->fd(), net::EventLoop::kRead,
                    [this](std::uint32_t) { on_accept_ready(); });
  for (auto& loop : loops_) {
    threads_.emplace_back([raw = loop.get()] { raw->run(); });
  }
}

void Service::stop() {
  // Loops first (eventfd wakeup + join): nothing is accepted or handed off
  // after this. Destroying the loops drops every callback and timer, which
  // drops the last references to parked connections: sockets close and
  // their slots release via ~Connection. Then the pool drains what was
  // already handed off. The listener closes last, when no thread can still
  // be reading its descriptor.
  for (auto& loop : loops_) loop->stop();
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  loops_.clear();
  pool_.reset();
  listener_.reset();
}

bool Service::reserve_slot() {
  const std::size_t current =
      in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.max_connections != 0 && current > config_.max_connections) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  std::uint64_t peak = stats_.peak_in_flight.load(std::memory_order_relaxed);
  while (current > peak &&
         !stats_.peak_in_flight.compare_exchange_weak(
             peak, current, std::memory_order_relaxed)) {
  }
  return true;
}

void Service::release_slot() {
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

void Service::on_accept_ready() {
  while (true) {
    std::optional<net::Socket> socket;
    try {
      socket = listener_->try_accept();
    } catch (const IoError&) {
      return;  // listener shut down
    }
    if (!socket.has_value()) return;
    if (!reserve_slot()) {
      shed(std::move(*socket), "connection limit reached");
      continue;
    }
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    const std::size_t target = next_loop_;
    next_loop_ = (next_loop_ + 1) % loops_.size();
    if (target == 0) {
      begin_connection(0, std::move(*socket));
    } else {
      auto shared = std::make_shared<net::Socket>(std::move(*socket));
      loops_[target]->post([this, target, shared]() mutable {
        begin_connection(target, std::move(*shared));
      });
    }
  }
}

void Service::begin_connection(std::size_t loop_index, net::Socket socket) {
  // The Connection owns the in-flight slot from here on (~Connection
  // releases it), so any failure below cannot leak the reservation.
  auto conn = std::make_shared<Connection>();
  conn->service = this;
  conn->loop_index = loop_index;
  try {
    socket.set_nonblocking(true);
    conn->channel = TlsChannel::accept_async(context_, std::move(socket));
  } catch (const std::exception& e) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    log::warn(config_.name, "connection setup failed: {}", e.what());
    return;
  }
  arm_deadline(conn, config_.handshake_timeout, "TLS handshake");
  advance(conn);
}

void Service::arm_deadline(const std::shared_ptr<Connection>& conn,
                           std::chrono::milliseconds budget,
                           const char* phase) {
  auto& loop = *loops_[conn->loop_index];
  if (conn->timer_armed) {
    loop.cancel_timer(conn->deadline_timer);
    conn->timer_armed = false;
  }
  if (budget.count() <= 0) return;
  conn->deadline_timer = loop.add_timer(budget, [this, conn, phase] {
    conn->timer_armed = false;
    stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    log::warn(config_.name, "connection timed out: {} deadline expired",
              phase);
    detach(conn);
  });
  conn->timer_armed = true;
}

void Service::advance(const std::shared_ptr<Connection>& conn) {
  auto& loop = *loops_[conn->loop_index];
  try {
    while (true) {
      IoWant want;
      if (conn->state == Connection::State::kHandshake) {
        want = conn->channel->handshake_step();
        if (want == IoWant::kDone) {
          // Handshake done: swap its budget for the request budget.
          conn->state = Connection::State::kRequest;
          arm_deadline(conn, config_.request_timeout, "request");
          continue;
        }
      } else {
        want = conn->channel->receive_step(conn->request);
        if (want == IoWant::kDone) {
          hand_off(conn);
          return;
        }
      }
      const std::uint32_t interest = want == IoWant::kRead
                                         ? net::EventLoop::kRead
                                         : net::EventLoop::kWrite;
      if (!conn->registered) {
        loop.add_fd(conn->channel->fd(), interest,
                    [this, conn](std::uint32_t) { advance(conn); });
        conn->registered = true;
        conn->interest = interest;
      } else if (conn->interest != interest) {
        loop.mod_fd(conn->channel->fd(), interest);
        conn->interest = interest;
      }
      return;
    }
  } catch (const std::exception& e) {
    // Garbage instead of TLS, a torn connection, or an oversized frame.
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    log::warn(config_.name, "connection aborted: {}", e.what());
    detach(conn);
  }
}

void Service::detach(const std::shared_ptr<Connection>& conn) {
  auto& loop = *loops_[conn->loop_index];
  if (conn->registered) {
    loop.del_fd(conn->channel->fd());
    conn->registered = false;
  }
  if (conn->timer_armed) {
    loop.cancel_timer(conn->deadline_timer);
    conn->timer_armed = false;
  }
}

void Service::hand_off(const std::shared_ptr<Connection>& conn) {
  detach(conn);
  conn->channel->make_blocking();
  std::shared_ptr<TlsChannel> channel(std::move(conn->channel));
  if (hook_) {
    if (auto refusal = hook_(*channel); refusal.has_value()) {
      shed(*channel, *refusal);  // the slot releases with conn
      return;
    }
  }
  conn->slot_transferred = true;
  const bool queued = pool_->try_submit(
      [this, channel, frame = std::move(conn->request)]() mutable {
        serve(std::move(channel), std::move(frame));
        release_slot();
      });
  if (!queued) {
    release_slot();
    log::warn(config_.name, "shedding connection: worker queue full");
    shed(*channel, config_.busy_reply);
  }
}

void Service::serve(std::shared_ptr<TlsChannel> channel,
                    std::string first_frame) {
  try {
    channel->set_deadlines(config_.request_timeout, config_.request_timeout);
    handler_(std::move(channel), std::move(first_frame));
  } catch (const IoTimeout& e) {
    // Slow, silent, or stalled peer past the hand-off: the socket deadline
    // fired and the worker is free again.
    stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    log::warn(config_.name, "connection timed out: {}", e.what());
  } catch (const std::exception& e) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    log::warn(config_.name, "connection aborted: {}", e.what());
  }
}

void Service::shed(net::Socket socket, std::string_view reason) {
  stats_.shed_connections.fetch_add(1, std::memory_order_relaxed);
  log::warn(config_.name, "shedding connection: {}", reason);
  try {
    // Plaintext, before any TLS work: a TLS client sees the connection fail
    // its handshake, which its retry logic treats as transient.
    socket.set_write_timeout(kShedWriteTimeout);
    net::PlainChannel plain(std::move(socket));
    plain.send(config_.busy_reply);
    plain.close();
  } catch (const std::exception&) {
    // Shedding is advisory; failure to notify the peer is acceptable.
  }
}

void Service::shed(TlsChannel& channel, std::string_view reply) {
  stats_.shed_connections.fetch_add(1, std::memory_order_relaxed);
  try {
    channel.set_deadlines(kShedWriteTimeout, kShedWriteTimeout);
    channel.send(reply);
  } catch (const std::exception&) {
    // Best-effort, as above.
  }
  channel.close();
}

}  // namespace myproxy::tls
