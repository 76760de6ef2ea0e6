#include "src/pincushion/pincushion.h"

#include <algorithm>

namespace txcache {

std::vector<PinInfo> Pincushion::AcquireFreshPins(WallClock staleness) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.fresh_requests;
  const WallClock cutoff = clock_->Now() - staleness;
  std::vector<PinInfo> out;
  for (auto& [ts, entry] : pins_) {
    if (entry.pinned_at >= cutoff) {
      ++entry.in_use;
      out.push_back(PinInfo{ts, entry.pinned_at});
      ++stats_.pins_handed_out;
    }
  }
  return out;
}

void Pincushion::Register(const PinInfo& pin) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = pins_[pin.ts];
  // A re-pin of a known timestamp is as fresh as its latest PIN: keeping the first pinned_at
  // would leave it stale, and every later transaction would pin the same snapshot again.
  entry.pinned_at = std::max(entry.pinned_at, pin.pinned_at);
  ++entry.db_pin_count;
  ++entry.in_use;
  ++stats_.registrations;
}

void Pincushion::Release(const std::vector<PinInfo>& pins) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const PinInfo& pin : pins) {
    auto it = pins_.find(pin.ts);
    if (it != pins_.end() && it->second.in_use > 0) {
      --it->second.in_use;
    }
  }
}

size_t Pincushion::Sweep() {
  std::vector<std::pair<Timestamp, int>> to_unpin;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.sweeps;
    const WallClock cutoff = clock_->Now() - options_.unpin_after;
    for (auto it = pins_.begin(); it != pins_.end();) {
      if (it->second.in_use == 0 && it->second.pinned_at < cutoff) {
        to_unpin.emplace_back(it->first, it->second.db_pin_count);
        it = pins_.erase(it);
      } else {
        ++it;
      }
    }
    stats_.unpinned += to_unpin.size();
  }
  // UNPIN outside our lock; the database serializes internally.
  size_t count = 0;
  for (const auto& [ts, db_pins] : to_unpin) {
    for (int i = 0; i < db_pins; ++i) {
      db_->Unpin(ts);
    }
    ++count;
  }
  return count;
}

size_t Pincushion::pinned_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pins_.size();
}

PincushionStats Pincushion::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace txcache
