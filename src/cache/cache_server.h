// The versioned cache server (paper §4) — a thin frontend over lock-striped shards.
//
// Each key maps to a chain of versions with pairwise-disjoint validity intervals. A version
// whose interval is unbounded is "still valid": it is registered in the tag index and will be
// truncated when a matching invalidation-stream message arrives. Lookups carry a timestamp
// range (the caller's pin-set bounds) and return the most recent version whose interval
// intersects it.
//
// Node-internal architecture (see docs/architecture.md): keys are partitioned over
// Options::num_shards CacheShards by hash(key) % N; each shard owns its version chains, tag
// index, LRU slice and stats behind its own mutex, so operations on different shards never
// contend. The invalidation stream is sequenced once per node by a StreamSequencer
// (duplicates dropped, gaps held in a reorder buffer), recorded once in the node's
// InvalidationHistory, and then fanned out to every shard in strict seqno order. Inserts on
// every shard replay that one history under their own shard lock; recording before the
// fan-out is what closes the §4.2 insert/invalidate race per shard. Eviction is node-global: shards share an atomic byte counter and a
// monotone touch tick, and the frontend evicts the globally least-recently-used version, so
// capacity behavior matches the old single-mutex server.
//
// MultiLookup answers a batch of lookups in one call, grouping the batch per shard and taking
// each shard lock once; responses are positionally aligned with the request and byte-identical
// to issuing the lookups one at a time.
//
// Membership lifecycle (docs/architecture.md §"Membership and recovery"): a node is kServing,
// kJoining, or kDown. Crash() models a failure or partition — the node answers every request
// with a kNodeUnavailable miss and loses stream deliveries. Join() is the rejoin barrier: the
// node re-subscribes, reads the stream's current position as its join target, and either
// catch-up-replays the missed messages from the bus's bounded history (cached data survives,
// properly truncated) or — when the history no longer reaches back — flushes everything and
// adopts the live position (raising the node's history floor so late inserts computed inside
// the gap are conservatively truncated). It serves only once its sequencer reaches the join
// target, so a rejoined node can never answer with state that missed an invalidation.
#ifndef SRC_CACHE_CACHE_SERVER_H_
#define SRC_CACHE_CACHE_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/bus/bus.h"
#include "src/bus/sequencer.h"
#include "src/cache/cache_shard.h"
#include "src/cache/cache_types.h"
#include "src/cache/function_table.h"
#include "src/cache/invalidation_history.h"
#include "src/cache/snapshot_store.h"
#include "src/util/clock.h"
#include "src/util/status.h"

namespace txcache {

// Lifecycle of a cache node under dynamic membership. A freshly constructed server is
// kServing (fixed-membership deployments never touch the state machine).
enum class NodeState : uint8_t {
  kServing,  // caught up with the invalidation stream; answering normally
  kJoining,  // join barrier: catching up; every request answers kNodeUnavailable
  kDown,     // crashed/partitioned: requests answer kNodeUnavailable, deliveries are lost
};

class CacheServer : public InvalidationSubscriber {
 public:
  using Options = CacheOptions;

  CacheServer(std::string name, const Clock* clock) : CacheServer(std::move(name), clock, Options{}) {}
  CacheServer(std::string name, const Clock* clock, Options options);
  ~CacheServer() override;

  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  LookupResponse Lookup(const LookupRequest& req);
  // Batched lookups: one shard-lock acquisition per shard touched. responses[i] answers
  // lookups[i].
  MultiLookupResponse MultiLookup(const MultiLookupRequest& req);
  // Scatter form used by cluster routing: answers only req.lookups[i] for i in `indices`,
  // writing each result to out->responses[i] (which must be pre-sized). Avoids copying
  // sub-batches on the hot path.
  void MultiLookup(const MultiLookupRequest& req, const std::vector<uint32_t>& indices,
                   MultiLookupResponse* out);
  // Stores one filled result. Under the cost-aware policy an insert may be refused by the
  // admission gate: kDeclined when the owning function's observed benefit-per-byte sits below
  // the adaptive watermark, kDeclinedTooLarge when the entry fails the size-aware gate (it
  // exceeds its shard's max_entry_fraction slice, or — at byte pressure, for fills >=
  // displacement_check_bytes — its benefit loses to the summed benefit of the victims its
  // bytes would displace). Both are policy outcomes, not errors. `hints_out`, when non-null,
  // receives the function's fresh advisory snapshot (accepts and declines alike).
  Status Insert(const InsertRequest& req) { return Insert(req, nullptr); }
  Status Insert(const InsertRequest& req, std::shared_ptr<const AdvisoryHints>* hints_out);

  // InvalidationSubscriber: called by the bus (possibly out of order in tests/simulation).
  // Messages are dropped while the node is kDown — a crashed process loses them, which is
  // exactly the gap Join() must close before the node may serve again.
  void Deliver(const InvalidationMessage& msg) override;

  // --- dynamic membership ---
  // Models a crash or partition: stop serving and stop consuming the stream. Cached data and
  // the stream position are deliberately kept — the worst case Join() must handle is a node
  // that comes back with pre-crash state (warm restart, healed partition).
  void Crash();
  // Rejoin barrier. Re-subscribes to the stream, records the current publish position as the
  // join target, then closes the gap between our sequencer position and the target: replay
  // the missed messages from the bus's bounded history if it still covers them (cached
  // entries survive, truncated exactly as live delivery would have). When replay fails, a
  // snapshot store (if attached) is tried first — restoring a snapshot ahead of our position
  // shrinks the gap to [snapshot seqno, target), which history usually still covers — and
  // only as a last resort is everything flushed and the live position adopted. The node
  // starts serving only once its sequencer reaches the join target — with the simulator's
  // delivery hook, replayed messages arrive with latency and the barrier stays up until
  // they do.
  Status Join(InvalidationBus* bus);
  NodeState state() const { return state_.load(std::memory_order_acquire); }
  bool serving() const { return state() == NodeState::kServing; }
  // Next invalidation seqno this node expects (its position in the stream).
  uint64_t stream_position() const { return sequencer_.next_expected_seqno(); }

  // Drops all cached data (not the stream position). Used between benchmark runs.
  void Flush();

  // Cache warm-up via snapshots (paper §8: "we ensured the cache was warm by restoring its
  // contents from a snapshot"). The snapshot serializes every resident version (values,
  // intervals, tags, computed_at) plus the stream position; importing replays each entry
  // through the normal Insert path so invalidation-history checks still apply.
  //
  // Caveat (pre-existing, inherited from the monolithic server): importing into a NON-empty
  // cache that lags the snapshot's stream position fast-forwards past messages this node
  // never applied — the importer's own pre-existing still-valid entries skip those
  // truncations, because the snapshot carries the exporter's data but not its replay
  // history. The §8 deployment pattern (restore into a fresh node before serving) is safe.
  std::string ExportSnapshot() const;
  Status ImportSnapshot(const std::string& snapshot);

  // --- warm rejoin (snapshot persistence) ---
  // Attaches a snapshot store. While serving, the node persists ExportSnapshot() under its
  // own name every Options::snapshot_interval_messages applied invalidations (plus on demand
  // via PersistSnapshot). On Join(), when catch-up replay fails, the freshest stored snapshot
  // — if it is AHEAD of our stream position, i.e. we are a cold restart with less state than
  // the store holds — is restored first, its stream position adopted, and only the residual
  // gap closed by replay (or, when history no longer covers even that, by administratively
  // closing the imported still-valid entries and raising the history floor). Either way the
  // node rejoins warm instead of flushing; CacheStats::join_snapshot_restores counts it.
  // The store must outlive the server; pass nullptr to detach.
  void set_snapshot_store(SnapshotStore* store) { snapshot_store_ = store; }
  // Exports and saves a snapshot now (no-op without a store or while not serving).
  void PersistSnapshot();

  // --- write intents (optimistic read-write transactions) ---
  // Check-and-acquire / release of the advisory per-key write intent (see IntentRequest).
  // Both are gated by the serving barrier: a node that is down or joining answers
  // kUnavailable, which callers treat as vacuous success — a node serving no reads protects
  // nothing. Intents never survive Crash(), Join(), Flush() or a CacheCluster ring change:
  // they are dropped wholesale (CacheStats::intents_cleared), which is safe because
  // serializability comes from the database's commit-time read validation, not from the
  // intents.
  IntentResponse AcquireIntent(const IntentRequest& req);
  IntentResponse ReleaseIntent(const IntentRequest& req);
  // Drops every intent on the node. Returns how many were held.
  size_t ClearIntents();

  // --- hot-key replication ---
  // Attaches the background replication hook, fired from the Deliver tail every
  // Options::replication_interval_messages applied deliveries (same shape as the
  // snapshot-persistence cadence, and like it the hook runs outside the sequencer's critical
  // section on one arbitrary delivering thread). CacheCluster::EnableAutoReplication installs
  // a hook that pushes this node's hot keys to its ring replicas. Pass nullptr to detach.
  // The hook must not call back into Deliver.
  void set_replication_hook(std::function<void(CacheServer*)> hook);
  // Drains the per-thread hot-key sketches and exports the newest still-valid version of the
  // `max_keys` hottest keys as replication-ready InsertRequests (key_hash carried, interval
  // re-opened, computed_at capped so a replica that lags this node's invalidation history
  // truncates conservatively at insert time). The sketch counters reset on harvest, so each
  // call reflects roughly the traffic since the previous one (a sliding window, not a
  // lifetime ranking). Ordering: hottest first.
  std::vector<InsertRequest> ExportHotKeys(size_t max_keys);

  const std::string& name() const { return name_; }
  CacheStats stats() const;  // aggregated over shards; safe under concurrent load
  // Per-function cost/benefit profiles (fills, hits, rejects, EWMA benefit-per-byte), sorted
  // by function name; hits are merged from the shards' counters. Safe under concurrent load.
  std::vector<FunctionStatsEntry> FunctionStats() const;
  // Current GreedyDual aging floor: the highest benefit score evicted so far. The admission
  // watermark is a fraction of this. Zero until the first still-valid entry is evicted.
  double aging_floor() const { return aging_floor_.load(std::memory_order_relaxed); }
  // Lock-free total of capacity evictions (all policies). At rest it equals the shard-derived
  // CacheStats::capacity_evictions(); under load it is safe to poll without touching a shard.
  uint64_t capacity_eviction_count() const {
    return capacity_evictions_.load(std::memory_order_relaxed);
  }
  void ResetStats();
  size_t bytes_used() const;
  size_t version_count() const;
  size_t key_count() const;
  Timestamp last_invalidation_ts() const;

  size_t num_shards() const { return shards_.size(); }
  // Which shard a key (hash) routes to. Exposed for tests and for benchmarks that model
  // per-shard queueing. The hash form is the hot path: the carried Fnv1a key hash is reused,
  // never recomputed.
  size_t ShardIndexForHash(uint64_t key_hash) const;
  size_t ShardIndexForKey(const std::string& key) const;
  // Lifetime total of exclusive shard-lock acquisitions across the node. Tests assert the
  // read fast path's "a hit takes no exclusive lock" claim against this.
  uint64_t exclusive_lock_acquisitions() const;

 private:
  CacheShard* ShardForHash(uint64_t key_hash) const;
  // Applies one in-order message: record it in history_, then fan out to every shard (strict
  // order is guaranteed by the sequencer serializing this sink).
  void ApplySequenced(const InvalidationMessage& msg);
  void SweepAllShards();
  // Capacity eviction until the node fits its byte budget. Under kLru: the globally
  // least-recently-used version (comparing shard LRU tails by touch tick). Under kCostAware:
  // stale (closed-interval) versions first in the order they went stale, then the still-valid
  // version with the globally lowest benefit-per-byte score; each eviction folds the victim's
  // realized benefit back into its function's admission profile.
  void EvictToFit();
  // Returns kDeclined / kDeclinedTooLarge when the admission gate refuses this fill; Ok to
  // proceed. Under kCostAware, `*fn_id` receives the function's id in functions_ (0 over the
  // profile cap) and `*hints` its freshly published advisory snapshot.
  Status AdmitInsert(const InsertRequest& req, uint32_t* fn_id,
                     std::shared_ptr<const AdvisoryHints>* hints);
  // Summed remaining benefit (µs) of the victims the policy would evict to free
  // `bytes_needed`: every stale-listed victim is free; scored victims charge
  // max(0, score - aging floor) x bytes, cheapest first across all shards.
  double DisplacementCost(size_t bytes_needed) const;
  // Insert body shared by the public (serving-gated) Insert and ImportSnapshot, which must
  // bypass the gate: warm rejoin imports while the join barrier is still up.
  Status InsertImpl(const InsertRequest& req, std::shared_ptr<const AdvisoryHints>* hints_out);
  // Join()'s warm path: restore the freshest stored snapshot if it is ahead of `position`,
  // then close the residual gap up to `target` (replay, or degraded close + floor raise).
  // Returns true iff the node was restored (counted in join_snapshot_restores_); false means
  // the caller falls through to the cold flush path with node state untouched or re-flushed.
  bool TryRestoreFromSnapshot(InvalidationBus* bus, uint64_t target, uint64_t position);
  // True iff the node may answer requests. Promotes kJoining to kServing when the sequencer
  // has reached the join target (the barrier drops itself as catch-up completes).
  bool CheckServing();
  // Answers one refused lookup position: kNodeUnavailable miss, counted.
  void FillUnavailable(LookupResponse* resp);

  const std::string name_;
  const Clock* clock_;
  const Options options_;

  std::atomic<size_t> bytes_used_{0};     // shared with shards
  std::atomic<uint64_t> touch_ticker_{1};  // node-global LRU clock, shared with shards
  std::atomic<double> aging_floor_{0.0};   // shared GreedyDual aging value
  // Per-function profiles, TTL learning and hints, shared with the shards (which store each
  // version's function id). Declared before shards_: they capture a pointer.
  FunctionTable functions_;
  // The one insert-time replay history, shared with the shards. Written by the sequencer sink
  // (before each fan-out) and the join paths (floor raises), read by shard inserts.
  InvalidationHistory history_;
  std::vector<std::unique_ptr<CacheShard>> shards_;
  StreamSequencer sequencer_;

  // Membership state. join_target_ is the stream position read at Join() time; serving is
  // allowed only once the sequencer catches up to it.
  std::atomic<NodeState> state_{NodeState::kServing};
  std::atomic<uint64_t> join_target_{0};
  std::atomic<uint64_t> unavailable_misses_{0};
  std::atomic<uint64_t> join_catchups_{0};
  std::atomic<uint64_t> join_flushes_{0};
  std::atomic<uint64_t> join_snapshot_restores_{0};

  // Warm-rejoin persistence: optional, not owned. messages_since_snapshot_ drives the
  // periodic PersistSnapshot cadence from Deliver.
  SnapshotStore* snapshot_store_ = nullptr;
  std::atomic<uint64_t> messages_since_snapshot_{0};

  // Background hot-key replication: the hook (usually installed by CacheCluster) fires from
  // the Deliver tail every replication_interval_messages deliveries. Guarded by a leaf mutex
  // (copied out before invocation, so the hook itself runs unlocked).
  mutable std::mutex replication_hook_mu_;
  std::function<void(CacheServer*)> replication_hook_;
  std::atomic<uint64_t> messages_since_replication_{0};

  // Eviction/admission counters are node-level atomics (not per-shard, mutex-guarded partials)
  // so stats() stays safe to call while the stress tests hammer Insert/EvictToFit.
  std::atomic<uint64_t> capacity_evictions_{0};
  std::atomic<uint64_t> eviction_bytes_reclaimed_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  std::atomic<uint64_t> admission_probes_{0};
  std::atomic<uint64_t> admission_rejects_too_large_{0};

  // Messages applied in order (counted once per message, not per shard).
  std::atomic<uint64_t> invalidation_messages_{0};
  // Set by the sequencer sink when a shard's op counter fires; the sweep itself runs in
  // Deliver, outside the sequencer's critical section.
  std::atomic<bool> sweep_pending_{false};
};

}  // namespace txcache

#endif  // SRC_CACHE_CACHE_SERVER_H_
