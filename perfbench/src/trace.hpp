// Tracing from outside the program: spans around calls into each layer's
// public functions, and timing decorators around the server's
// CredentialStore chain. Nothing here reaches inside the library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "repository/credential_store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since `origin`.
[[nodiscard]] inline std::int64_t ns_since(Clock::time_point origin,
                                           Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a request's root span
  std::uint64_t request = 0;  ///< shared by every span of one request
  const char* name = "";      ///< static string: "<layer>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans of one generator thread, kept in memory until the run ends.
class SpanBuffer {
 public:
  SpanBuffer(std::size_t thread, Clock::time_point origin)
      : thread_(thread), origin_(origin) {
    spans_.reserve(1 << 16);
  }

  /// Record a finished span and return its id.
  std::uint64_t add(std::uint64_t request, std::uint64_t parent,
                    const char* name, Clock::time_point start,
                    Clock::time_point end) {
    Span span;
    span.id = (static_cast<std::uint64_t>(thread_ + 1) << 40) |
              (spans_.size() + 1);
    span.parent = parent;
    span.request = request;
    span.name = name;
    span.start_ns = ns_since(origin_, start);
    span.end_ns = ns_since(origin_, end);
    spans_.push_back(span);
    return span.id;
  }

  /// Open a span whose end is set later by end(); returns its id.
  std::uint64_t begin(std::uint64_t request, std::uint64_t parent,
                      const char* name, Clock::time_point start) {
    return add(request, parent, name, start, start);
  }
  void end(std::uint64_t id, Clock::time_point end) {
    spans_[(id & ((std::uint64_t{1} << 40) - 1)) - 1].end_ns =
        ns_since(origin_, end);
  }

  /// Run `fn` inside a child span of `parent`.
  template <typename Fn>
  auto timed(std::uint64_t request, std::uint64_t parent, const char* name,
             Fn&& fn) {
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(request, parent, name, start, Clock::now());
    } else {
      auto result = fn();
      add(request, parent, name, start, Clock::now());
      return result;
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::size_t thread_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-name totals over a set of spans. Self time is a span's duration
/// minus what its children cover (children of one span never overlap:
/// every request is sequential on its thread).
struct LayerTotals {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

[[nodiscard]] std::vector<LayerTotals> layer_totals(
    const std::vector<const std::vector<Span>*>& buffers);

/// One JSON object per line: id, parent, request, name, start_us, end_us.
void write_spans(std::ostream& out,
                 const std::vector<const std::vector<Span>*>& buffers);

/// Counts and busy time of get() and put() on the wrapped store.
class TimedStore final : public myproxy::repository::CredentialStore {
 public:
  explicit TimedStore(
      std::unique_ptr<myproxy::repository::CredentialStore> inner)
      : inner_(std::move(inner)) {}

  struct Totals {
    std::uint64_t get_ns = 0;
    std::uint64_t gets = 0;
    std::uint64_t put_ns = 0;
    std::uint64_t puts = 0;
  };
  [[nodiscard]] Totals totals() const {
    return {get_ns_.load(), gets_.load(), put_ns_.load(), puts_.load()};
  }

  void put(const myproxy::repository::CredentialRecord& record) override {
    const auto start = Clock::now();
    inner_->put(record);
    note(put_ns_, puts_, start);
  }
  [[nodiscard]] std::optional<myproxy::repository::CredentialRecord> get(
      std::string_view username, std::string_view name) const override {
    const auto start = Clock::now();
    auto record = inner_->get(username, name);
    note(get_ns_, gets_, start);
    return record;
  }
  bool remove(std::string_view username, std::string_view name) override {
    return inner_->remove(username, name);
  }
  std::size_t remove_all(std::string_view username) override {
    return inner_->remove_all(username);
  }
  [[nodiscard]] std::vector<myproxy::repository::CredentialRecord> list(
      std::string_view username) const override {
    return inner_->list(username);
  }
  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  std::size_t sweep_expired() override { return inner_->sweep_expired(); }
  [[nodiscard]] std::vector<std::string> usernames() const override {
    return inner_->usernames();
  }

 private:
  static void note(std::atomic<std::uint64_t>& ns,
                   std::atomic<std::uint64_t>& count,
                   Clock::time_point start) {
    ns.fetch_add(static_cast<std::uint64_t>(ns_since(start, Clock::now())),
                 std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
  }

  std::unique_ptr<myproxy::repository::CredentialStore> inner_;
  mutable std::atomic<std::uint64_t> get_ns_{0};
  mutable std::atomic<std::uint64_t> gets_{0};
  mutable std::atomic<std::uint64_t> put_ns_{0};
  mutable std::atomic<std::uint64_t> puts_{0};
};

}  // namespace perfbench
