// The open-loop generator and what it does as decisions resolve.
#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <thread>

#include "perfbench.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return 1e-9 * static_cast<double>(now_ns() - start_ns);
}

void ExecTable::add(std::uint64_t id, const Plan& plan, ExecutionResult exec) {
  table_.emplace(std::make_pair(id, plan.signature()), std::move(exec));
}

const ExecutionResult* ExecTable::find(std::uint64_t id, const Plan& plan) const {
  const auto it = table_.find(std::make_pair(id, plan.signature()));
  return it == table_.end() ? nullptr : &it->second;
}

void CostSample::add(const Query& query, const ServeDecision& d) {
  const Plan& served = d.generation.plans.at(static_cast<std::size_t>(d.chosen));
  const auto key = std::make_pair(identity(query), served.signature());
  if (const auto it = index.find(key); it != index.end()) {
    ++entries[it->second].count;
    return;
  }
  if (entries.size() >= max_keys) return;
  index.emplace(key, entries.size());
  entries.push_back(Entry{
      key.first, 1, served,
      d.generation.plans.at(static_cast<std::size_t>(d.generation.default_index))});
}

std::uint64_t FeedbackLoop::outcomes(const OptimizerService& service) {
  const OptimizerService::Stats s = service.stats();
  return s.retrain_approved + s.retrain_rejected + s.retrain_skipped;
}

bool FeedbackLoop::record(OptimizerService& service, const Query& query,
                          const ServeDecision& d) {
  const Plan& served = d.generation.plans.at(static_cast<std::size_t>(d.chosen));
  const ExecutionResult* exec = execs_->find(identity(query), served);
  if (exec == nullptr) return false;
  const std::int64_t t0 = now_ns();
  service.record_feedback(d, *exec);
  const std::int64_t t1 = now_ns();
  feedback_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
  // Mirror of the service's cadence: every `retrain_every` executed records
  // schedule one retrain unless one is already in flight.
  if (retrain_every_ > 0 && ++since_retrain_ >= retrain_every_) {
    since_retrain_ = 0;
    if (!inflight_) {
      inflight_ = true;
      outcomes_at_start_ = outcomes(service);
      started_s_ = 1e-9 * static_cast<double>(t0);
    }
  }
  return true;
}

void FeedbackLoop::poll(const OptimizerService& service) {
  if (inflight_ && outcomes(service) > outcomes_at_start_) {
    retrain_s.push_back(1e-9 * static_cast<double>(now_ns()) - started_s_);
    inflight_ = false;
  }
}

void FeedbackLoop::finish(const OptimizerService& service) {
  const std::int64_t start = now_ns();
  while (inflight_ && seconds_since(start) < 120.0) {
    poll(service);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double chunked_quantile(const std::vector<double>& samples, std::size_t chunk,
                        double q) {
  std::vector<double> per_chunk;
  for (std::size_t at = 0; at < samples.size(); at += chunk) {
    const std::size_t end = std::min(samples.size(), at + chunk);
    // A short trailing chunk would carry a percentile it cannot support.
    if (end - at < chunk && at > 0) break;
    loam::obs::FixedBucketQuantile fq = make_quantile();
    for (std::size_t i = at; i < end; ++i) fq.observe(samples[i]);
    per_chunk.push_back(fq.quantile(q));
  }
  return median(per_chunk);
}

double binned_rate(const std::vector<double>& at_s, double window_s,
                   double bin_s) {
  const std::size_t bins =
      std::max<std::size_t>(1, static_cast<std::size_t>(window_s / bin_s));
  std::vector<double> counts(bins, 0.0);
  for (const double t : at_s) {
    if (t < 0.0) continue;
    const std::size_t b = static_cast<std::size_t>(t / bin_s);
    if (b < bins) counts[b] += 1.0;
  }
  for (double& c : counts) c /= bin_s;
  return median(counts);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

CacheDelta cache_totals(const OptimizerService& service) {
  CacheDelta c;
  for (int k = 0; k < service.num_shards(); ++k) {
    const loam::cache::InferenceCache& ic = service.shard(k).inference_cache();
    const loam::cache::CacheStats s = ic.score_stats();
    const loam::cache::CacheStats e = ic.encoding_stats();
    c.score_hits += s.hits;
    c.score_lookups += s.hits + s.misses;
    c.enc_hits += e.hits;
    c.enc_lookups += e.hits + e.misses;
  }
  return c;
}

}  // namespace

PhaseResult run_phase(OptimizerService& service, const char* name,
                      const std::vector<Query>& queries, double rps,
                      PhaseSinks sinks) {
  PhaseResult r;
  r.name = name;
  r.offered_rps = rps;
  const OptimizerService::Stats stats0 = service.stats();
  const CacheDelta cache0 = cache_totals(service);

  struct InFlight {
    std::size_t index = 0;
    double due_s = 0.0;
    double late_s = 0.0;
    std::future<ServeDecision> future;
  };
  std::deque<InFlight> pending;
  std::size_t model_seen = 0;

  auto settle = [&](InFlight& f) {
    ServeDecision d;
    try {
      d = f.future.get();
    } catch (...) {
      ++r.failed;
      return;
    }
    const double decide_ms = 1e3 * (f.late_s + d.total_seconds);
    r.decide_ms.observe(decide_ms);
    r.decide_ms_seq.push_back(decide_ms);
    const Query& query = queries[f.index];
    if (d.shed) {
      ++r.shed;
    } else if (d.model_version < 0) {
      ++r.fallback;
    } else {
      ++r.model_served;
      r.model_done_s.push_back(f.due_s + f.late_s + d.total_seconds);
      r.queue_ms.observe(1e3 * d.queue_seconds);
      r.candidates_sum += static_cast<double>(d.generation.plans.size());
      if (sinks.cost != nullptr) sinks.cost->add(query, d);
    }
    if (sinks.feedback != nullptr && !sinks.feedback->record(service, query, d)) {
      ++r.failed;
    }
    if (d.model_version >= 0 && !d.shed) {
      const bool first = model_seen < sinks.keep_first;
      const bool strided = sinks.check_stride > 0 &&
                           model_seen % sinks.check_stride == 0 &&
                           r.kept.size() < sinks.check_max + sinks.keep_first;
      ++model_seen;
      if (first || strided) r.kept.push_back(KeptDecision{query, std::move(d)});
    }
  };

  const std::int64_t start = now_ns();
  const double period_ns = 1e9 / rps;
  std::size_t i = 0;
  while (i < queries.size()) {
    const std::int64_t due =
        start + static_cast<std::int64_t>(period_ns * static_cast<double>(i));
    const std::int64_t now = now_ns();
    if (now >= due) {
      InFlight f;
      f.index = i;
      f.due_s = 1e-9 * static_cast<double>(due - start);
      f.late_s = 1e-9 * static_cast<double>(now - due);
      r.late_ms.observe(1e3 * f.late_s);
      if (service.try_submit(queries[i], &f.future)) {
        pending.push_back(std::move(f));
      } else {
        ++r.rejected;
      }
      ++i;
      continue;
    }
    // Idle until the next due time: settle what has resolved, in order.
    bool settled = false;
    while (!pending.empty() &&
           pending.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      settle(pending.front());
      pending.pop_front();
      settled = true;
    }
    if (sinks.feedback != nullptr) sinks.feedback->poll(service);
    if (settled) continue;
    // Sleep through long gaps (a wake-up overshoots by ~60 us) and spin the
    // rest: the generator should not hold a core the service could use.
    const std::int64_t wait = due - now_ns();
    if (wait > 100'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait - 80'000));
    }
  }
  r.window_s = seconds_since(start);
  while (!pending.empty()) {
    pending.front().future.wait();
    settle(pending.front());
    pending.pop_front();
  }
  r.sent = queries.size();

  const OptimizerService::Stats stats1 = service.stats();
  r.batches = stats1.batches - stats0.batches;
  const CacheDelta cache1 = cache_totals(service);
  r.cache.score_hits = cache1.score_hits - cache0.score_hits;
  r.cache.score_lookups = cache1.score_lookups - cache0.score_lookups;
  r.cache.enc_hits = cache1.enc_hits - cache0.enc_hits;
  r.cache.enc_lookups = cache1.enc_lookups - cache0.enc_lookups;
  for (int k = 0; k < service.num_shards(); ++k) {
    r.swap_pause_max_ns =
        std::max(r.swap_pause_max_ns, service.shard_stats(k).swap_pause_max_ns);
  }
  return r;
}

}  // namespace perfbench
