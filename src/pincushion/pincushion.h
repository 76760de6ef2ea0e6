// The pincushion (paper §5.4): a lightweight daemon that tracks which snapshots are pinned on
// the database, hands out sufficiently fresh pins to read-only transactions, and unpins old
// snapshots once no running transaction can still use them.
//
// The TxCache library asks for all pins within its staleness limit at BEGIN-RO; the pincushion
// marks them in use for the duration of the transaction. If none are fresh enough, the library
// pins a new snapshot on the database and registers it here.
#ifndef SRC_PINCUSHION_PINCUSHION_H_
#define SRC_PINCUSHION_PINCUSHION_H_

#include <map>
#include <mutex>
#include <vector>

#include "src/db/database.h"
#include "src/util/clock.h"
#include "src/util/types.h"

namespace txcache {

struct PinInfo {
  Timestamp ts = kTimestampZero;
  WallClock pinned_at = 0;  // database-reported wall-clock time of the pin
};

struct PincushionStats {
  uint64_t fresh_requests = 0;
  uint64_t pins_handed_out = 0;
  uint64_t registrations = 0;
  uint64_t sweeps = 0;
  uint64_t unpinned = 0;
};

class Pincushion {
 public:
  struct Options {
    // A pin older than this with no users is unpinned by Sweep. Should exceed the largest
    // staleness limit in use so fresh transactions can still find old-enough pins.
    WallClock unpin_after = Seconds(120);
  };

  Pincushion(Database* db, const Clock* clock) : Pincushion(db, clock, Options{}) {}
  Pincushion(Database* db, const Clock* clock, Options options)
      : db_(db), clock_(clock), options_(options) {}

  // Returns every pinned snapshot not older than `staleness`, newest last, and marks each as
  // in use. The caller must pass the same list to Release when its transaction ends.
  std::vector<PinInfo> AcquireFreshPins(WallClock staleness);

  // Records a snapshot the library just pinned on the database, already marked in use once.
  // (Two libraries may race to pin the same timestamp; the database refcounts, and so do we.)
  // Re-pinning a known timestamp refreshes its pinned_at to the later of the two.
  void Register(const PinInfo& pin);

  // Drops one use of each listed pin.
  void Release(const std::vector<PinInfo>& pins);

  // Unpins unused snapshots older than the threshold. Returns the number unpinned.
  size_t Sweep();

  size_t pinned_count() const;
  PincushionStats stats() const;

 private:
  struct Entry {
    WallClock pinned_at = 0;
    int in_use = 0;        // running transactions that may read this snapshot
    int db_pin_count = 0;  // times the database was asked to PIN this snapshot
  };

  Database* db_;
  const Clock* clock_;
  Options options_;

  mutable std::mutex mu_;
  std::map<Timestamp, Entry> pins_;
  PincushionStats stats_;
};

}  // namespace txcache

#endif  // SRC_PINCUSHION_PINCUSHION_H_
