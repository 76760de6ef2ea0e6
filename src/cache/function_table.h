// Node-wide per-function state: the one table a cache node keys its automatic management on
// (the MAKE-CACHEABLE function, i.e. CacheKeyFunction of the key).
//
// The admission gate interns each function once, at its first fill, to a dense id (0 =
// none). The id's entry holds everything the node learns about the function: the admission
// profile (fills, declines, benefit-per-byte EWMA), TTL learning (stream truncations and the
// EWMA of the realized lifetimes they revealed) and the latest published AdvisoryHints
// snapshot. Shards store the id on each version, so hit attribution, lifetime observations at
// truncation, the eviction fold-back and the TTL pass all index the table by id and never hash
// a name; names are read back only by the stats export.
//
// Bounded by CacheOptions::max_function_profiles: once full, unseen functions get id 0 and
// are neither profiled (so never watermark-declined), TTL-learned, nor hit-attributed.
//
// Locking: one leaf mutex. Shards call in under their own lock, so the table never calls out
// and nothing may call into a shard while holding it. No method is on the lookup hot path.
#ifndef SRC_CACHE_FUNCTION_TABLE_H_
#define SRC_CACHE_FUNCTION_TABLE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/cache_types.h"

namespace txcache {

class FunctionTable {
 public:
  // One function's state. `stats.hits` stays zero here: hits are counted shard-side by id.
  struct Entry {
    FunctionStatsEntry stats;
    std::shared_ptr<const AdvisoryHints> hints;
  };

  explicit FunctionTable(const CacheOptions& options)
      : lifetime_alpha_(options.lifetime_ewma_alpha),
        lifetime_min_samples_(options.lifetime_min_samples),
        max_functions_(options.max_function_profiles) {
    entries_.emplace_back();  // id 0: the unattributed function
  }

  FunctionTable(const FunctionTable&) = delete;
  FunctionTable& operator=(const FunctionTable&) = delete;

  // Applies `update(Entry&)` to `name`'s entry under the lock, creating the entry on first
  // sight, then republishes the entry's hints into `*hints`. Returns the id; over the cap it
  // returns 0 and neither calls `update` nor touches `*hints`.
  template <typename Fn>
  uint32_t Update(const std::string& name, Fn&& update,
                  std::shared_ptr<const AdvisoryHints>* hints) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ids_.find(name);
    if (it == ids_.end()) {
      if (entries_.size() > max_functions_) {
        return 0;
      }
      it = ids_.emplace(name, static_cast<uint32_t>(entries_.size())).first;
      entries_.emplace_back().stats.function = name;
    }
    Entry& e = entries_[it->second];
    update(e);
    PublishLocked(&e);
    *hints = e.hints;
    return it->second;
  }

  // The same for an id a previous Update returned; id 0 is a no-op.
  template <typename Fn>
  void Update(uint32_t id, Fn&& update) {
    if (id == 0) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    update(entries_[id]);
    PublishLocked(&entries_[id]);
  }

  // One realized lifetime: the invalidation stream truncated a still-valid entry of function
  // `id` that had been resident for `lifetime_us` of wall-clock time. Id 0 learns nothing.
  void ObserveLifetime(uint32_t id, uint64_t lifetime_us) {
    if (id == 0) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    FunctionStatsEntry& s = entries_[id].stats;
    ++s.truncations;
    s.ewma_lifetime_us = s.truncations == 1
                             ? static_cast<double>(lifetime_us)
                             : lifetime_alpha_ * static_cast<double>(lifetime_us) +
                                   (1.0 - lifetime_alpha_) * s.ewma_lifetime_us;
  }

  // The TTL pass's input, indexed by id: the age (µs) past which a still-valid entry of the
  // function is demoted, slack x its learned lifetime. A learned lifetime may be exactly 0
  // (a ManualClock that never advanced), so "not learned" — fewer than lifetime_min_samples
  // truncations, and id 0 — is +infinity, never 0. Empty when no function has learned one.
  std::vector<double> DemotionLimits(double slack) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> limits;
    for (size_t id = 1; id < entries_.size(); ++id) {
      const FunctionStatsEntry& s = entries_[id].stats;
      if (s.truncations >= lifetime_min_samples_) {
        limits.resize(entries_.size(), std::numeric_limits<double>::infinity());
        limits[id] = slack * s.ewma_lifetime_us;
      }
    }
    return limits;
  }

  // Every entry's stats, indexed by id (slot 0 is the unattributed function).
  std::vector<FunctionStatsEntry> Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<FunctionStatsEntry> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) {
      out.push_back(e.stats);
    }
    return out;
  }

 private:
  // Rebuilds the entry's advisory snapshot from its own numbers. The snapshot is replaced
  // only when a field changed: readers holding the old shared_ptr keep a stable view either
  // way, and an unchanged republish costs no allocation.
  void PublishLocked(Entry* e) const {
    const FunctionStatsEntry& s = e->stats;
    AdvisoryHints h;
    h.learned_lifetime_us = s.truncations >= lifetime_min_samples_
                                ? static_cast<uint64_t>(s.ewma_lifetime_us)
                                : 0;
    h.observed_bpb = s.ewma_benefit_per_byte;
    h.decline_rate = s.fills == 0 ? 0.0
                                  : static_cast<double>(s.admission_rejects +
                                                        s.declined_too_large) /
                                        static_cast<double>(s.fills);
    if (e->hints == nullptr || e->hints->learned_lifetime_us != h.learned_lifetime_us ||
        e->hints->observed_bpb != h.observed_bpb || e->hints->decline_rate != h.decline_rate) {
      e->hints = std::make_shared<const AdvisoryHints>(h);
    }
  }

  const double lifetime_alpha_;
  const uint64_t lifetime_min_samples_;
  const size_t max_functions_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<Entry> entries_;
};

}  // namespace txcache

#endif  // SRC_CACHE_FUNCTION_TABLE_H_
