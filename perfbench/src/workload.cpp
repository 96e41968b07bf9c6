#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

namespace perfbench {

namespace {

// Mix columns follow OpType: get, put, destroy, renew, info.
const std::vector<WorkloadSpec> kWorkloads = {
    // Figure 2/3 fast path: 4 resumed portals, 256 users that fit the
    // 2,048-entry read cache, capacity measured in a closed loop.
    {WorkloadKind::kPortalGetHot, "portal_get_hot", false, 0.0, 256, 256, 4,
     8, 0.0, false, false, OpType::kGet, {100, 0, 0, 0, 0}, 3},
    // Figure 1 writes: one-shot myproxy-init / myproxy-destroy from 64
    // users, replicated to one in-process replica.
    {WorkloadKind::kUserInitReplicated, "user_init_replicated", true, 60.0,
     1024, 4096, 0, 64, 0.0, true, false, OpType::kPut, {0, 80, 20, 0, 0},
     3},
    // Mixed traffic over 4x the cache under the sample admission limits.
    {WorkloadKind::kZipfMixedCold, "zipf_mixed_cold", true, 80.0, 8192, 8192,
     4, 8, 0.8, false, true, OpType::kGet, {80, 10, 0, 5, 5}, 1},
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Own uniform/bounded draws over mt19937_64 (whose output sequence the
// standard fixes), so a seed means the same inputs on every standard
// library.
double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::uint32_t below(std::mt19937_64& rng, std::uint64_t n) {
  return static_cast<std::uint32_t>(rng() % n);
}

template <typename T>
void shuffle(std::vector<T>& items, std::mt19937_64& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[below(rng, i)]);
  }
}

std::uint64_t stream_seed(const WorkloadSpec& spec, std::uint64_t seed,
                          std::uint64_t stream) {
  return splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(spec.kind) +
                                      (stream << 8)));
}

/// Zipf(s) over `n` ranks, ranks mapped to users through a seeded
/// permutation so the hot set differs between seeds.
class ZipfUsers {
 public:
  ZipfUsers(const WorkloadSpec& spec, std::uint64_t seed)
      : cdf_(spec.name_space), users_(spec.name_space) {
    double total = 0.0;
    for (std::size_t r = 0; r < cdf_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    for (std::size_t u = 0; u < users_.size(); ++u) {
      users_[u] = static_cast<std::uint32_t>(u);
    }
    std::mt19937_64 rng(stream_seed(spec, seed, 1));
    shuffle(users_, rng);
  }

  std::uint32_t draw(std::mt19937_64& rng) const {
    const double x = uniform01(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
    const auto rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return users_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> users_;
};

}  // namespace

std::string_view to_string(OpType type) noexcept {
  switch (type) {
    case OpType::kGet: return "get";
    case OpType::kPut: return "put";
    case OpType::kDestroy: return "destroy";
    case OpType::kRenew: return "renew";
    case OpType::kInfo: return "info";
  }
  return "?";
}

const std::vector<WorkloadSpec>& all_workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string UserNaming::username(std::uint32_t u) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "user-%012llx",
                static_cast<unsigned long long>(
                    splitmix64(seed * 2 + 1 + (std::uint64_t{u} << 20)) &
                    0xffffffffffffULL));
  return buf;
}

std::string UserNaming::pass_phrase(std::uint32_t u) const {
  char buf[40];
  std::snprintf(buf, sizeof buf, "pw:%016llx",
                static_cast<unsigned long long>(
                    splitmix64(~seed ^ (std::uint64_t{u} << 24))));
  return buf;
}

std::uint32_t owner_of(const WorkloadSpec& spec, std::uint32_t u) {
  if (spec.kind == WorkloadKind::kUserInitReplicated) {
    // Each identity owns a contiguous block of the name space.
    return static_cast<std::uint32_t>(u / (spec.name_space / spec.writers));
  }
  return static_cast<std::uint32_t>(u % spec.writers);
}

bool renewable(std::uint32_t u) { return u % 16 == 0; }

std::uint32_t preloaded_user(const WorkloadSpec& spec, std::size_t k) {
  if (spec.kind != WorkloadKind::kUserInitReplicated) {
    return static_cast<std::uint32_t>(k);
  }
  const std::size_t per_identity = spec.preloaded / spec.writers;
  const std::size_t block = spec.name_space / spec.writers;
  return static_cast<std::uint32_t>((k / per_identity) * block +
                                    k % per_identity);
}

std::vector<Op> make_schedule(const WorkloadSpec& spec, std::uint64_t seed,
                              double seconds) {
  if (!spec.open_loop) return {};
  const auto count = static_cast<std::size_t>(
      std::llround(spec.offered_rps * seconds));
  std::mt19937_64 rng(stream_seed(spec, seed, 2));

  std::vector<std::int64_t> due(count);
  for (auto& d : due) {
    d = static_cast<std::int64_t>(uniform01(rng) * seconds * 1e6);
  }
  std::sort(due.begin(), due.end());

  // Exact mix proportions; rounding leftovers go to the dominant op.
  const auto dominant = static_cast<OpType>(
      std::max_element(spec.mix, spec.mix + 5) - spec.mix);
  std::vector<OpType> types;
  types.reserve(count);
  for (std::size_t t = 0; t < 5; ++t) {
    types.insert(types.end(), count * spec.mix[t] / 100,
                 static_cast<OpType>(t));
  }
  types.resize(count, dominant);
  shuffle(types, rng);

  std::vector<Op> ops(count);
  if (spec.kind == WorkloadKind::kUserInitReplicated) {
    // Simulate which names each identity has stored so that a DESTROY
    // always names a stored credential (an identity with none stores one
    // instead). Writes to one user execute in schedule order, so the
    // simulation is the state the server will see.
    const std::size_t block = spec.name_space / spec.writers;
    std::vector<std::vector<std::uint32_t>> stored(spec.writers);
    for (std::size_t k = 0; k < spec.preloaded; ++k) {
      const std::uint32_t u = preloaded_user(spec, k);
      stored[owner_of(spec, u)].push_back(u);
    }
    for (std::size_t i = 0; i < count; ++i) {
      Op& op = ops[i];
      op.due_us = due[i];
      op.actor = below(rng, spec.writers);
      auto& mine = stored[op.actor];
      op.type = types[i];
      if (op.type == OpType::kDestroy && mine.empty()) op.type = OpType::kPut;
      if (op.type == OpType::kDestroy) {
        const std::size_t pick = below(rng, mine.size());
        op.user = mine[pick];
        mine[pick] = mine.back();
        mine.pop_back();
      } else {
        op.user = static_cast<std::uint32_t>(op.actor * block +
                                             below(rng, block));
        if (std::find(mine.begin(), mine.end(), op.user) == mine.end()) {
          mine.push_back(op.user);
        }
      }
    }
    return ops;
  }

  const ZipfUsers zipf(spec, seed);
  for (std::size_t i = 0; i < count; ++i) {
    Op& op = ops[i];
    op.due_us = due[i];
    op.type = types[i];
    op.user = zipf.draw(rng);
    if (op.type == OpType::kRenew) {
      while (!renewable(op.user)) op.user = zipf.draw(rng);
    }
    if (op.type == OpType::kGet || op.type == OpType::kInfo) {
      op.actor = below(rng, spec.portals);
    } else {
      op.actor = owner_of(spec, op.user);
    }
  }
  return ops;
}

std::uint32_t closed_loop_user(const WorkloadSpec& spec, std::uint64_t seed,
                               std::size_t portal, std::uint64_t k) {
  const std::uint64_t offset =
      stream_seed(spec, seed, 3 + portal) % spec.preloaded;
  return static_cast<std::uint32_t>((offset + k) % spec.preloaded);
}

std::vector<std::uint32_t> cache_warmup_users(const WorkloadSpec& spec,
                                              std::uint64_t seed,
                                              std::size_t count) {
  if (spec.zipf_s == 0.0) return {};
  std::vector<std::uint32_t> users(count);
  const ZipfUsers zipf(spec, seed);
  std::mt19937_64 rng(stream_seed(spec, seed, 9));
  for (auto& u : users) u = zipf.draw(rng);
  return users;
}

}  // namespace perfbench
