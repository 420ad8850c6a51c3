// Steering knobs exposed by the native optimizer.
//
// MaxCompute exposes 75 tunable optimizer flags across six categories; LOAM's
// plan explorer restricts itself to six expert-selected flags spanning join,
// shuffling, spool and filter-related optimizations (Section 3), plus the
// Lero-style scaled-cardinality knob applied to subqueries with at least
// three inputs. This header defines the corresponding knob surface of our
// native optimizer.
#ifndef LOAM_WAREHOUSE_FLAGS_H_
#define LOAM_WAREHOUSE_FLAGS_H_

#include <array>
#include <bit>
#include <cstdint>
#include <string>

namespace loam::warehouse {

enum class Flag : int {
  kPreferHashJoin = 0,         // physical impl: force hash over sort-merge
  kEnableBroadcastJoin = 1,    // shuffling: replicate small build sides
  kPartialAggregation = 2,     // push partial aggregates below the shuffle
  kSpoolReuse = 3,             // spool: share repeated scans of one table
  kAggressiveFilterPushdown = 4,  // filter-related: push filters through joins
  kMergeJoinForSorted = 5,     // physical impl: sort-merge when inputs sorted
  kCount = 6,
};

inline const char* flag_name(Flag f) {
  switch (f) {
    case Flag::kPreferHashJoin: return "prefer_hash_join";
    case Flag::kEnableBroadcastJoin: return "enable_broadcast_join";
    case Flag::kPartialAggregation: return "partial_aggregation";
    case Flag::kSpoolReuse: return "spool_reuse";
    case Flag::kAggressiveFilterPushdown: return "aggressive_filter_pushdown";
    case Flag::kMergeJoinForSorted: return "merge_join_for_sorted";
    default: return "unknown";
  }
}

struct FlagSet {
  std::array<bool, static_cast<std::size_t>(Flag::kCount)> bits{};

  bool test(Flag f) const { return bits[static_cast<std::size_t>(f)]; }
  FlagSet& set(Flag f, bool v = true) {
    bits[static_cast<std::size_t>(f)] = v;
    return *this;
  }
  FlagSet with(Flag f, bool v = true) const {
    FlagSet out = *this;
    out.set(f, v);
    return out;
  }
  FlagSet toggled(Flag f) const { return with(f, !test(f)); }

  bool operator==(const FlagSet&) const = default;

  std::uint64_t signature() const {
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) s |= (1ull << i);
    }
    return s;
  }

  std::string to_string() const {
    std::string out;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (!bits[i]) continue;
      if (!out.empty()) out += ",";
      out += flag_name(static_cast<Flag>(i));
    }
    return out.empty() ? "(default)" : out;
  }

  // MaxCompute's shipping defaults for our simulated optimizer.
  static FlagSet defaults() {
    FlagSet f;
    f.set(Flag::kPreferHashJoin, true);
    f.set(Flag::kAggressiveFilterPushdown, true);
    f.set(Flag::kEnableBroadcastJoin, true);
    return f;
  }
};

// The complete knob vector a plan-explorer trial hands to the native
// optimizer: flag settings plus the scaled-cardinality multiplier that is
// applied to the estimated cardinality of every join subquery with >= 3 base
// inputs (following Lero).
struct PlannerKnobs {
  FlagSet flags = FlagSet::defaults();
  double card_scale = 1.0;
  // Steering knob that re-enables join reordering even when per-table
  // statistics are missing (the engine then orders joins on its coarse
  // metadata estimates). Risky as a default — the estimates can be wildly
  // stale — but a prolific source of candidate-plan diversity, which is why
  // the explorer pairs it with cardinality scaling.
  bool force_reorder = false;

  bool operator==(const PlannerKnobs&) const = default;

  std::uint64_t signature() const {
    std::uint64_t scale_bits = 0;
    static_assert(sizeof(scale_bits) == sizeof(card_scale));
    __builtin_memcpy(&scale_bits, &card_scale, sizeof(scale_bits));
    return (flags.signature() * 2 + (force_reorder ? 1 : 0)) *
               0x9e3779b97f4a7c15ull ^
           scale_bits;
  }

  std::string to_string() const {
    std::string out = flags.to_string();
    if (card_scale != 1.0) {
      out += " card_scale=" + std::to_string(card_scale);
    }
    if (force_reorder) out += " force_reorder";
    return out;
  }
};

// The knob fields one NativeOptimizer::optimize call actually consulted (its
// read-set). optimize is a deterministic function of the query and of the
// knob values it reads, so a knob vector that agrees with an earlier call's
// knobs on every field of that call's read-set yields the identical plan.
struct KnobReads {
  std::uint64_t flags = 0;  // bit f set = Flag f was tested
  bool card_scale = false;
  bool force_reorder = false;

  // True when `a` and `b` agree on every field of this read-set; scales are
  // compared by their bits.
  bool agree(const PlannerKnobs& a, const PlannerKnobs& b) const {
    if (((a.flags.signature() ^ b.flags.signature()) & flags) != 0) return false;
    if (force_reorder && a.force_reorder != b.force_reorder) return false;
    return !card_scale || std::bit_cast<std::uint64_t>(a.card_scale) ==
                              std::bit_cast<std::uint64_t>(b.card_scale);
  }
};

}  // namespace loam::warehouse

#endif  // LOAM_WAREHOUSE_FLAGS_H_
