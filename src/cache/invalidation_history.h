// Node-wide invalidation history for insert-time replay (paper §4.2).
//
// A late insert claims still-valid from its computed_at; Insert replays the invalidations
// after it to bound that claim. The node's StreamSequencer puts every message in one total
// order, so the node keeps one history — per concrete tag, per table for wildcard messages,
// per table for any message touching it — and its shards share it by pointer.
//
// The sequencer sink records each message here BEFORE fanning it out. An insert that misses
// message M in the history still holds its shard's lock, so M reaches that shard only after
// the version is registered, and truncates it there.
//
// The floor is max(newest ts - retention, every raised floor); a replay from below it is
// bounded at after + 1. Expired entries are erased in batches, once the floor has moved by
// half the retention since the last erase; a replay from at or above the floor never reads
// them, so every answer is as if they were erased at once.
//
// Locking: one leaf shared mutex (shard mu_ -> history). Writers hold no shard lock.
#ifndef SRC_CACHE_INVALIDATION_HISTORY_H_
#define SRC_CACHE_INVALIDATION_HISTORY_H_

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/bus/invalidation.h"
#include "src/util/types.h"

namespace txcache {

class InvalidationHistory {
 public:
  // `retention`: CacheOptions::history_retention, in commit timestamps.
  explicit InvalidationHistory(Timestamp retention)
      : retention_(retention), prune_step_(std::max<Timestamp>(retention / 2, 1)) {}

  // Records one in-order stream message. Called once per message by the node's sequencer sink.
  void Record(const InvalidationMessage& msg) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    for (const InvalidationTag& tag : msg.tags) {
      if (tag.wildcard) {
        InsertSorted(table_wildcard_[tag.table], msg.ts);
      } else {
        InsertSorted(tag_[tag], msg.ts);
      }
      InsertSorted(table_any_[tag.table], msg.ts);
    }
    if (msg.ts > retention_) {
      RaiseFloorLocked(msg.ts - retention_);
    }
  }

  // Lifts the floor to `ts` (never lowers it). Join adopts a stream position whose preceding
  // messages this node never applied: the history has a gap below it, so a replay from
  // inside the gap must be bounded conservatively rather than trusted.
  void RaiseFloor(Timestamp ts) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    RaiseFloorLocked(ts);
  }

  // The earliest invalidation affecting `tags` with timestamp > `after`: kTimestampInfinity if
  // none, and after + 1 when `after` lies below the floor (the history no longer covers the
  // gap, so nothing after what the database vouched for can be trusted).
  Timestamp FirstInvalidationAfter(const std::vector<InvalidationTag>& tags,
                                   Timestamp after) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (after < floor_) {
      return after + 1;
    }
    Timestamp earliest = kTimestampInfinity;
    auto scan = [&](const auto& map, const auto& key) {
      auto it = map.find(key);
      if (it != map.end()) {
        earliest = std::min(earliest, FirstAfter(it->second, after));
      }
    };
    for (const InvalidationTag& tag : tags) {
      if (tag.wildcard) {
        // An entry depending on the whole table is invalidated by any message touching it.
        scan(table_any_, tag.table);
      } else {
        scan(tag_, tag);
        scan(table_wildcard_, tag.table);
      }
    }
    return earliest;
  }

 private:
  static void InsertSorted(std::vector<Timestamp>& history, Timestamp ts) {
    auto it = std::lower_bound(history.begin(), history.end(), ts);
    if (it == history.end() || *it != ts) {
      history.insert(it, ts);
    }
  }

  static Timestamp FirstAfter(const std::vector<Timestamp>& history, Timestamp after) {
    auto it = std::upper_bound(history.begin(), history.end(), after);
    return it == history.end() ? kTimestampInfinity : *it;
  }

  void RaiseFloorLocked(Timestamp floor) {
    if (floor <= floor_) {
      return;
    }
    floor_ = floor;
    if (floor_ - erased_below_ < prune_step_) {
      return;
    }
    erased_below_ = floor_;
    auto prune = [floor = floor_](auto& map) {
      for (auto it = map.begin(); it != map.end();) {
        auto& vec = it->second;
        vec.erase(vec.begin(), std::lower_bound(vec.begin(), vec.end(), floor));
        if (vec.empty()) {
          it = map.erase(it);
        } else {
          ++it;
        }
      }
    };
    prune(tag_);
    prune(table_wildcard_);
    prune(table_any_);
  }

  const Timestamp retention_;
  const Timestamp prune_step_;  // floor movement that triggers a physical erase
  mutable std::shared_mutex mu_;
  std::unordered_map<InvalidationTag, std::vector<Timestamp>, TagHasher> tag_;
  std::unordered_map<std::string, std::vector<Timestamp>> table_wildcard_;
  std::unordered_map<std::string, std::vector<Timestamp>> table_any_;
  Timestamp floor_ = kTimestampZero;         // replays from below this are bounded at after + 1
  Timestamp erased_below_ = kTimestampZero;  // entries below this are physically gone
};

}  // namespace txcache

#endif  // SRC_CACHE_INVALIDATION_HISTORY_H_
