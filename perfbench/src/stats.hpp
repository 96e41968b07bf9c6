// Summary statistics for the report.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail it claims to describe is a guess.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank q-quantile of `samples`, or nullopt when fewer than
/// kMinSamplesBeyond samples lie above its rank.
[[nodiscard]] inline std::optional<double> percentile(
    std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Running sum/count; mean() is 0 for an empty series (a layer the
/// workload does not exercise).
struct Mean {
  double sum = 0.0;
  std::size_t count = 0;
  void add(double v) {
    sum += v;
    ++count;
  }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Host steal at or below which a second of the window counts as quiet.
constexpr double kQuietSteal = 0.03;
/// Share of the window's seconds the end-to-end latencies always rest on:
/// when fewer seconds are quiet, the least stolen ones make up the share.
constexpr double kMinQuietShare = 0.25;

/// Which seconds of the window the end-to-end metrics are taken from.
/// Other guests' load takes CPU away from this one in episodes of seconds
/// to minutes (CPU steal; 10-25% of the host's CPU at times), and every
/// request in a stolen second is slower by a multiple of the share stolen.
/// So the latency of a run is read from its quiet seconds, chosen by host
/// steal alone; the whole-window figures go to the report as well. Where
/// steal cannot be read, every second counts.
[[nodiscard]] inline std::vector<bool> quiet_seconds(
    const std::vector<double>& steal) {
  std::vector<bool> quiet(steal.size());
  std::size_t count = 0;
  for (std::size_t k = 0; k < steal.size(); ++k) {
    quiet[k] = steal[k] <= kQuietSteal;
    count += quiet[k] ? 1 : 0;
  }
  const auto wanted = static_cast<std::size_t>(
      std::ceil(kMinQuietShare * static_cast<double>(steal.size())));
  if (count >= wanted) return quiet;
  std::vector<std::size_t> order(steal.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  for (std::size_t i = 0; i < wanted; ++i) quiet[order[i]] = true;
  return quiet;
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace perfbench
