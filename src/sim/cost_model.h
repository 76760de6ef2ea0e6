// Service-time cost model for the simulated cluster.
//
// Calibrated against the paper's testbed (§8: 3.2 GHz Xeons, gigabit Ethernet with 0.1 ms RTT,
// 7200 RPM disks; baseline peaks of ~930 req/s in-memory and ~140 req/s disk-bound with one
// database server and seven web servers). Absolute values are estimates; the benchmarks report
// *shapes* (speedups, crossovers), which depend on the ratios, not the absolute scale.
#ifndef SRC_SIM_COST_MODEL_H_
#define SRC_SIM_COST_MODEL_H_

#include <cstddef>

#include "src/core/fill_cost.h"
#include "src/util/types.h"

namespace txcache::sim {

struct CostModel {
  // Network.
  WallClock network_rtt = Millis(0.1);

  // Database server.
  WallClock db_begin = Millis(0.02);        // BEGIN/snapshot setup
  WallClock db_query_base = kFillCostPerQuery;  // parse/plan/executor setup per query
  WallClock db_per_tuple = kFillCostPerTuple;   // per heap version examined
  WallClock db_per_probe = kFillCostPerProbe;   // per index descent
  WallClock db_per_write = Millis(0.15);    // per INSERT/UPDATE/DELETE statement
  WallClock db_commit = Millis(0.25);       // commit incl. invalidation publication

  // Disk (only charged when the working set exceeds the buffer cache).
  WallClock disk_access = Millis(4.0);      // average positioning + transfer per random access
  size_t buffer_cache_bytes = 0;            // 0 => sized automatically by the simulator
  double disk_accesses_per_probe = 1.0;     // index descent leaf touch
  double tuples_per_page = 64.0;            // heap tuples per disk page (for scans)
  // Hot/hot correlation between the application cache and the database buffer cache (§8.1:
  // frequent queries "are also likely to be in the database's buffer cache"). Queries that
  // still reach the database under caching are biased cold, so their buffer miss probability
  // rises as the cache hit rate grows: p_miss' = min(1, p_miss / (1 - hit_rate * overlap)).
  double buffer_cache_overlap = 0.85;

  // Cache server: per LOOKUP/PUT, including the kernel/TCP overhead the paper observed.
  WallClock cache_op = Millis(0.06);
  // Per-shard contention term. A cache node stripes its state over `cache_shards_per_node`
  // lock shards (CacheOptions::num_shards); `cache_lock_fraction` is the share of cache_op
  // spent inside a shard's critical section. That serialized share is amortized across the
  // stripes, so the effective service demand per op is
  //   cache_op * ((1 - f) + f / shards)
  // — one shard reproduces the old single-mutex node, more shards asymptotically strip the
  // lock out of the op cost. The parallel share is unchanged: it scales with the node count
  // already modeled by the tier resource.
  double cache_lock_fraction = 0.6;
  size_t cache_shards_per_node = 8;
  // Eviction-policy term: extra service demand per PUT under the cost-aware policy — the
  // admission-gate profile update (one small mutex-protected map touch) plus the amortized
  // score-index maintenance and victim selection an insert-triggered eviction performs.
  // Charged only when the simulated fleet runs EvictionPolicy::kCostAware; plain LRU keeps
  // the unadorned cache_op cost.
  WallClock cache_insert_policy_op = Millis(0.004);

  // Web/application server CPU.
  WallClock web_base = Millis(1.0);             // per interaction: dispatch + page assembly
  WallClock web_per_cacheable = Millis(0.05);   // serialize args, hash key, marshal result
  WallClock web_per_db_query = Millis(0.03);    // driver marshaling

  // Pincushion round trip (paper: ~0.2 ms including network).
  WallClock pincushion_op = Millis(0.05);
};

}  // namespace txcache::sim

#endif  // SRC_SIM_COST_MODEL_H_
