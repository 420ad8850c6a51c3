// Workload definitions and seed-driven request streams.
#include <stdexcept>
#include <unordered_set>

#include "perfbench.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// Offered rates are constants, calibrated once on the seed (model-path
// capacity ~7-11k req/s in every workload, measured by the saturation phase
// on a 4-vCPU AVX-512 host). A rate that followed each build's own capacity
// would move the load with the code under test. The steady rate is about a
// tenth of capacity: the host's speed varies by up to ~40%, and at 2000-3000
// req/s a slow spell pushed the busier shard toward its queueing knee, so
// the steady tail spread across seeds (p99 IQR up to 1.2x its median at
// 3000, p90 IQR 0.25x at 2000).
const WorkloadSpec kWorkloads[] = {
    // Zipf reruns of a fixed pool of recurring instances: scores hit the
    // cache, so exploration and queueing dominate the decision.
    {"recurring", Traffic::kRecurring, 1, 1000.0, 20000.0},
    // Never-repeated instances of project3's wide schema: only structural
    // plan reuse hits, so encoding and inference weigh more.
    {"adhoc", Traffic::kAdhoc, 2, 1000.0, 20000.0},
    // Natural project5 traffic with live feedback and background retrains.
    {"learn", Traffic::kLearn, 4, 600.0, 12000.0},
};

// Recurring pool: small and fixed, far inside each shard's score cache.
constexpr std::size_t kRecurringInstances = 512;
constexpr double kRecurringZipf = 0.9;
constexpr std::uint64_t kRecurringPoolSeed = 0x2ec0221ull;

}  // namespace

loam::obs::FixedBucketQuantile make_quantile() {
  return loam::obs::FixedBucketQuantile(
      loam::obs::Histogram::exponential_bounds(1e-4, 1.04, 590));
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t identity(const Query& query) {
  return loam::hash64(query.template_id, 0x1de7ull) ^
         loam::mix64(query.param_signature);
}

Streams make_streams(const WorkloadSpec& spec,
                     const loam::warehouse::Project& project, int first_day,
                     std::uint64_t seed, const StreamSizes& sizes) {
  // The generator's own stream only builds projects; instantiation draws from
  // `rng`, so the requests depend on the seed and nothing else.
  const loam::warehouse::WorkloadGenerator gen(loam::mix64(seed));
  loam::Rng rng(loam::mix64(seed ^ 0x5eedull));
  const std::size_t total =
      sizes.warmup + sizes.steady + sizes.steady_traced + sizes.saturation;

  int day = first_day;
  std::vector<Query> source;
  std::size_t cursor = 0;
  auto next_query = [&]() -> Query {
    while (cursor >= source.size()) {
      source = gen.day_workload(project, day++, rng);
      cursor = 0;
      if (day > first_day + 100000) {
        throw std::runtime_error("workload generator produced no queries");
      }
    }
    return source[cursor++];
  };

  std::vector<Query> stream;
  stream.reserve(total);
  if (spec.traffic == Traffic::kRecurring) {
    // The recurring jobs themselves are part of the workload, not the seed:
    // the pool comes from a fixed stream, the seed orders the reruns.
    loam::Rng pool_rng(kRecurringPoolSeed);
    std::vector<Query> pool;
    std::unordered_set<std::uint64_t> seen;
    for (int d = first_day; pool.size() < kRecurringInstances; ++d) {
      for (Query& q : gen.day_workload(project, d, pool_rng)) {
        if (pool.size() < kRecurringInstances && seen.insert(identity(q)).second) {
          pool.push_back(std::move(q));
        }
      }
    }
    for (std::size_t i = 0; i < total; ++i) {
      const std::int64_t rank =
          rng.zipf(static_cast<std::int64_t>(pool.size()), kRecurringZipf);
      stream.push_back(pool[static_cast<std::size_t>(rank - 1)]);
    }
  } else if (spec.traffic == Traffic::kAdhoc) {
    std::unordered_set<std::uint64_t> seen;
    while (stream.size() < total) {
      Query q = next_query();
      if (seen.insert(identity(q)).second) stream.push_back(std::move(q));
    }
  } else {
    while (stream.size() < total) stream.push_back(next_query());
  }

  Streams s;
  std::size_t at = 0;
  auto slice = [&](std::size_t n) {
    std::vector<Query> out(stream.begin() + static_cast<std::ptrdiff_t>(at),
                           stream.begin() + static_cast<std::ptrdiff_t>(at + n));
    at += n;
    return out;
  };
  s.warmup = slice(sizes.warmup);
  s.steady = slice(sizes.steady);
  s.steady_traced = slice(sizes.steady_traced);
  s.saturation = slice(sizes.saturation);

  std::unordered_set<std::uint64_t> seen;
  for (const Query& q : s.warmup) seen.insert(identity(q));
  std::size_t repeats = 0;
  for (const Query& q : s.steady) repeats += !seen.insert(identity(q)).second;
  s.steady_repeat_share =
      s.steady.empty() ? 0.0
                       : static_cast<double>(repeats) /
                             static_cast<double>(s.steady.size());
  return s;
}

}  // namespace perfbench
