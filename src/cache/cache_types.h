// Wire-level request/response types and statistics for the cache server.
#ifndef SRC_CACHE_CACHE_TYPES_H_
#define SRC_CACHE_CACHE_TYPES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/bus/invalidation.h"
#include "src/util/hash.h"
#include "src/util/interval.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace txcache {

// LOOKUP: find the most recent version of `key` whose validity interval intersects
// [bounds_lo, bounds_hi] — the bounds of the caller's pin set (§6.2). `fresh_lo` is the oldest
// timestamp the caller's staleness limit would accept; it is used only to classify misses
// (consistency vs staleness, §8.3), never to widen matches.
struct LookupRequest {
  std::string key;
  // Hash-once contract: Fnv1a(key), computed by the outermost caller (TxCacheClient) and
  // reused unchanged for ring routing, node grouping, shard selection and the shard's map
  // probe — the layers below never rehash the key. Zero means "not computed" (raw callers,
  // tests): each layer then derives it on demand via RequestKeyHash. A wrong hash can only
  // misroute the key into a miss, never violate consistency, so carriers may trust it.
  uint64_t key_hash = 0;
  Timestamp bounds_lo = kTimestampZero;
  Timestamp bounds_hi = kTimestampInfinity;  // kTimestampInfinity when * is in the pin set
  Timestamp fresh_lo = kTimestampZero;

  // Serde hook (src/util/serde.h) for the binary wire protocol (src/net/wire.h).
  template <typename F>
  void ForEachField(F&& f) {
    f(key);
    f(key_hash);
    f(bounds_lo);
    f(bounds_hi);
    f(fresh_lo);
  }
  template <typename F>
  void ForEachField(F&& f) const {
    f(key);
    f(key_hash);
    f(bounds_lo);
    f(bounds_hi);
    f(fresh_lo);
  }
};

enum class MissKind : uint8_t {
  kNone = 0,     // hit
  kCompulsory,   // key never inserted
  kStaleness,    // versions exist but all are older than the staleness limit
  kCapacity,     // key was present but every version has been evicted
  kConsistency,  // a sufficiently fresh version exists but is inconsistent with the pin set
  // The owning node is down, joining (not yet caught up with the invalidation stream), or the
  // ring could not route the key. Under churn a vanished node is just misses (paper §4) — the
  // caller recomputes; it is never an error that fails a whole batch.
  kNodeUnavailable,
};

const char* MissKindName(MissKind kind);

// Advisory per-function feedback the cache attaches to its responses (automatic-management
// feedback loop). Strictly advisory: a client may use hints to size fills, skip fills it
// expects to be declined, or pace re-fetches of short-lived results — but it must NOT derive
// validity from them. Consistency comes only from validity intervals and the invalidation
// stream; hints are allowed to be stale, partial, or absent at any time, and a client that
// ignores them is always correct.
struct AdvisoryHints {
  // EWMA of the function's realized lifetime (wall-clock µs from insert until the
  // invalidation stream truncated the entry). Zero until the serving node has observed
  // enough truncations to trust the estimate. A caller re-fetching faster than this is
  // mostly refreshing bytes the stream is about to kill anyway.
  uint64_t learned_lifetime_us = 0;
  // The function's EWMA benefit-per-byte at the serving node (µs of recompute saved per
  // byte), the same quantity the admission watermark judges.
  double observed_bpb = 0.0;
  // Fraction of this function's fills the node refused to store (watermark declines plus
  // size-aware declines, probes included). A rate near 1 means fills of this shape are
  // wasted work: shrink them or stop offering them.
  double decline_rate = 0.0;
};

struct LookupResponse {
  bool hit = false;
  MissKind miss = MissKind::kNone;
  // Membership epoch the routing decision was made at (stamped by cluster-level routing; zero
  // when the server was addressed directly). A client seeing it change knows its cached view
  // of the fleet is stale and refreshes routing state instead of treating churn as an error.
  uint64_t ring_epoch = 0;
  // Name of the node that produced this response (stamped by cluster-level routing; empty
  // when the server was addressed directly). With hot-key replication a lookup may be served
  // by a replica rather than the primary, and clients keying per-node state — notably the
  // advisory-hint observations — need the true origin, not the routing decision.
  std::string served_by;
  // Zero-copy payload: on a hit this aliases the shard-resident buffer — never a copy. The
  // shared_ptr keeps the bytes alive and bitwise stable even after the version is evicted,
  // truncated, flushed or the owning node is destroyed; readers therefore never observe a
  // value changing under them. Null on a miss.
  std::shared_ptr<const std::string> value;
  // Fill cost (µs of compute/DB time) the caller reported when this entry was inserted; on a
  // hit this is the recomputation the cache just saved. Clients aggregate it into
  // ClientStats::saved_recompute_cost_us.
  uint64_t fill_cost_us = 0;
  // Effective validity interval of the returned version. For still-valid entries the upper
  // bound is the timestamp of the last invalidation applied before this lookup (§4.2), so the
  // interval is always concrete and race-free.
  Interval interval;
  bool still_valid = false;
  // Dependency tags of a still-valid hit, aliasing the resident tag block (same lifetime
  // rules as `value`). A cacheable function that consumed this value inherits them, so its
  // own cached result is invalidated when this one would be (§6.3). Null when absent.
  std::shared_ptr<const std::vector<InvalidationTag>> tags;
  // Advisory hints for the hit entry's function, aliasing the snapshot bundled with the
  // entry at insert time (hints are advisory and allowed to lag, see AdvisoryHints; fresh
  // snapshots flow to fillers via InsertResponse). Null on misses, under plain LRU, and for
  // unprofiled functions.
  std::shared_ptr<const AdvisoryHints> hints;
  // Write-intent owner token stamped on the served version (optimistic read-write
  // transactions): nonzero when some transaction holds a write intent covering this key —
  // i.e. it is about to invalidate what was just read. A reader inside an optimistic RW
  // transaction that sees a foreign token aborts early instead of discovering the conflict
  // at commit validation. Advisory only: correctness comes from commit-time validation.
  uint64_t intent_owner = 0;

  // Borrow-style accessors for callers that just want to read the payload.
  const std::string& value_ref() const {
    static const std::string kEmpty;
    return value ? *value : kEmpty;
  }
  const std::vector<InvalidationTag>& tags_ref() const {
    static const std::vector<InvalidationTag> kNone;
    return tags ? *tags : kNone;
  }
};

// MULTILOOKUP: a batch of lookups resolved in one round-trip. The server partitions the batch
// across its shards and answers each entry exactly as a standalone LOOKUP would; responses are
// returned in request order. Cluster routing groups entries per owning node before dispatch,
// so a cacheable call fanning out to many keys costs one round-trip per node, not per key.
struct MultiLookupRequest {
  std::vector<LookupRequest> lookups;

  template <typename F>
  void ForEachField(F&& f) {
    f(lookups);
  }
  template <typename F>
  void ForEachField(F&& f) const {
    f(lookups);
  }
};

struct MultiLookupResponse {
  std::vector<LookupResponse> responses;
  uint64_t ring_epoch = 0;  // membership epoch the batch was routed at
};

// PUT: store the result of a cacheable-function call. `computed_at` is the snapshot the value
// was computed from; the database vouches for validity through that timestamp, so the server
// only needs to replay invalidations later than it when the entry claims to be still valid.
struct InsertRequest {
  std::string key;
  // Fnv1a(key); same hash-once contract as LookupRequest::key_hash (zero = not computed).
  uint64_t key_hash = 0;
  std::string value;
  Interval interval;  // unbounded upper => still valid, subscribe to invalidations
  Timestamp computed_at = kTimestampZero;
  std::vector<InvalidationTag> tags;
  // Wall-clock compute/DB time (µs) the client spent producing this value at miss-fill time.
  // The cost-aware policy keys admission and eviction off benefit-per-byte derived from it;
  // zero (legacy callers) is always safe — it can never trigger an admission reject on its own
  // because the adaptive watermark stays at zero until priced entries start being evicted.
  uint64_t fill_cost_us = 0;

  // Serde hook (src/util/serde.h) for the binary wire protocol (src/net/wire.h).
  template <typename F>
  void ForEachField(F&& f) {
    f(key);
    f(key_hash);
    f(value);
    f(interval);
    f(computed_at);
    f(tags);
    f(fill_cost_us);
  }
  template <typename F>
  void ForEachField(F&& f) const {
    f(key);
    f(key_hash);
    f(value);
    f(interval);
    f(computed_at);
    f(tags);
    f(fill_cost_us);
  }
};

// PUT acknowledgement from cluster-level routing: the storage/admission outcome plus the
// membership epoch the routing decision was made at. kUnavailable means the owning node is
// down/joining or the key was unroutable — the fill is simply not stored, never an error.
struct InsertResponse {
  Status status;
  uint64_t ring_epoch = 0;
  // Name of the node that stored (or declined) the fill; same contract as
  // LookupResponse::served_by. Empty when the server was addressed directly.
  std::string served_by;
  // Advisory hints for the inserted function, fresh as of this admission decision (attached
  // to accepts AND declines — a declined caller is exactly the one that should adapt its
  // fill sizing). Null when the node keeps no profile for the function.
  std::shared_ptr<const AdvisoryHints> hints;
};

// WRITE INTENT: check-and-acquire / release of per-key write-intent ownership (optimistic
// read-write transactions, ClusterSTM-style). A transaction that will invalidate a key
// acquires an intent on it before writing; a concurrent acquirer or an in-transaction reader
// that encounters a foreign intent aborts early with backoff instead of paying for a doomed
// commit. Intents are strictly advisory — serializability comes from commit-time read-set
// validation in the database — so a node may drop them wholesale on crash, flush, or rejoin
// without any correctness consequence (only a briefly higher abort rate).
struct IntentRequest {
  std::string key;
  // Fnv1a(key); same hash-once contract as LookupRequest::key_hash (zero = not computed).
  uint64_t key_hash = 0;
  // Owner token (the client's database transaction id); nonzero.
  uint64_t txn_id = 0;

  // Serde hook (src/util/serde.h) for the binary wire protocol (src/net/wire.h).
  template <typename F>
  void ForEachField(F&& f) {
    f(key);
    f(key_hash);
    f(txn_id);
  }
  template <typename F>
  void ForEachField(F&& f) const {
    f(key);
    f(key_hash);
    f(txn_id);
  }
};

struct IntentResponse {
  // Ok = acquired/released (idempotent re-acquire by the same owner is Ok too); kConflict =
  // held by another transaction; kUnavailable = owning node down/joining/unroutable — treated
  // as vacuous success by callers, since a node serving no reads protects nothing.
  Status status;
  uint64_t ring_epoch = 0;  // membership epoch the routing decision was made at
  std::string served_by;
  uint64_t holder = 0;  // on kConflict: the token that owns the intent
};

// The function-name prefix of a cache key built by MakeCacheKey (length-prefixed serde
// string). Falls back to the whole key when the prefix does not parse (raw keys used by tests
// and tools), so every key always maps to exactly one "function" for cost accounting.
std::string CacheKeyFunction(const std::string& key);

// The request's carried key hash, or a freshly computed one when the caller did not fill it
// (see LookupRequest::key_hash for the contract). On the production hot path the client
// computes the hash exactly once and every layer below lands here on the carried value.
inline uint64_t RequestKeyHash(const LookupRequest& req) {
  return req.key_hash != 0 ? req.key_hash : Fnv1a(req.key);
}
inline uint64_t RequestKeyHash(const InsertRequest& req) {
  return req.key_hash != 0 ? req.key_hash : Fnv1a(req.key);
}
inline uint64_t RequestKeyHash(const IntentRequest& req) {
  return req.key_hash != 0 ? req.key_hash : Fnv1a(req.key);
}

// Capacity replacement policy for a cache node.
enum class EvictionPolicy : uint8_t {
  kLru,       // classic least-recently-used (the pre-cost-aware behavior)
  // Automatic management (paper title, §7 of the roadmap): evict versions whose validity
  // interval is already closed first (they can only serve pinned old snapshots), then the
  // still-valid entry with the lowest benefit-per-byte score; admission declines functions
  // whose observed benefit-per-byte sits below an adaptive watermark.
  kCostAware,
};

// How lookups traverse a shard. kSharedZeroCopy is the production path; kExclusiveCopy
// reproduces the pre-fast-path behavior and exists so benchmarks can measure the difference
// inside one binary.
enum class ReadPath : uint8_t {
  // Hits take the shard lock's SHARED side, alias the resident value/tag buffers (no deep
  // copy) and defer all LRU/score/profile bookkeeping into a bounded per-shard touch buffer
  // drained by the next exclusive-section operation.
  kSharedZeroCopy,
  // Baseline: exclusive lock per lookup, deep-copied payloads, inline LRU/score maintenance.
  kExclusiveCopy,
};

// Tuning knobs for a cache node. Shared by the thin CacheServer frontend and its shards.
struct CacheOptions {
  size_t capacity_bytes = 64 << 20;
  // Versions invalidated more than this long ago (wall clock) cannot satisfy any transaction
  // and are eagerly evicted. Matches the largest staleness limit the deployment uses.
  WallClock max_staleness = Seconds(120);
  // How many commit timestamps of per-tag invalidation history the node retains for
  // insert-time replay (one InvalidationHistory per node, shared by its shards). Inserts whose
  // computed_at is older than the retained floor have their still-valid claim truncated
  // conservatively.
  Timestamp history_retention = 100'000;
  // Run the staleness sweep after any one shard has seen this many mutating operations. The
  // counter is per shard (not global) so skewed traffic concentrated on one shard still
  // triggers eager eviction promptly.
  uint64_t sweep_interval_ops = 2048;
  // Lock stripes inside one cache node. Each shard owns its own version chains, tag index
  // and LRU list, keyed by hash(key) % num_shards.
  size_t num_shards = 8;

  // --- read fast path ---
  ReadPath read_path = ReadPath::kSharedZeroCopy;
  // Per-shard capacity of the deferred-touch buffer. A hit whose record does not fit still
  // refreshes the version's recency tick atomically; the dropped policy refresh is repaired
  // at the next drain, which re-sorts the LRU order from the ticks (see docs/architecture.md
  // §"Read fast path").
  size_t touch_buffer_capacity = 1024;
  // Touch-buffer / lookup-counter stripes per shard. Threads map to stripes by a stable
  // per-thread seed, so concurrent hitters spread over distinct cache lines. Each stripe gets
  // the full touch_buffer_capacity (single-threaded behavior is unchanged by striping).
  // 0 = auto: min(hardware_concurrency, 16).
  size_t touch_buffer_stripes = 0;

  // --- automatic management (cost-aware admission + eviction) ---
  EvictionPolicy policy = EvictionPolicy::kCostAware;
  // EWMA smoothing for the per-function realized benefit-per-byte, updated when an entry of
  // that function is evicted (realized = hits * fill_cost / bytes over the entry's lifetime).
  double benefit_ewma_alpha = 0.3;
  // Admission gate: a function is declined only once it has been observed at least this many
  // times (optimistic start for new functions)...
  uint64_t admission_min_samples = 16;
  // ...and its EWMA benefit-per-byte has fallen below this fraction of the node's aging floor
  // (the score at which entries are currently being evicted — entries below it would be
  // evicted almost immediately, so storing them is wasted work).
  double admission_watermark_fraction = 0.5;
  // Every Nth fill of a rejected function is admitted anyway as a probe, so a function whose
  // workload turned hot can re-earn admission through realized hits. 0 disables probing.
  uint64_t admission_probe_interval = 16;
  // Upper bound on tracked function profiles (and per-shard hit counters). Real deployments
  // have a fixed set of MAKE-CACHEABLE registrations, far below this; the cap exists so raw
  // ad-hoc keys (each its own accounting bucket) cannot grow the side maps without bound.
  // Functions beyond the cap are simply not profiled — and never declined.
  size_t max_function_profiles = 4096;

  // --- size-aware admission ---
  // No single entry may exceed this fraction of one shard's slice of the byte budget
  // (capacity_bytes / num_shards): a multi-MB value that would monopolize its shard is
  // declined kDeclinedTooLarge regardless of benefit. <= 0 disables the guard.
  double max_entry_fraction = 0.5;
  // Fills at least this large additionally run the displacement comparison when the node is
  // at byte pressure: the fill's benefit (its fill cost — what a future hit would save) is
  // compared against the summed remaining benefit of the victims its bytes would displace,
  // and a fill that loses is declined kDeclinedTooLarge. Small fills keep the cheaper
  // watermark-only gate (they displace at most ~one victim, which the aging floor already
  // approximates); SIZE_MAX disables the comparison entirely (the PR-2 behavior).
  size_t displacement_check_bytes = 16 << 10;

  // --- per-function TTL learning ---
  // EWMA smoothing for realized lifetimes (wall clock from insert until the invalidation
  // stream truncates the entry), learned per CacheKeyFunction.
  double lifetime_ewma_alpha = 0.3;
  // A function's learned lifetime is advisory-only (zero) until this many truncations have
  // been observed — young functions must not be TTL-demoted off one unlucky sample.
  uint64_t lifetime_min_samples = 4;
  // A still-valid entry resident longer than slack x its function's learned lifetime is
  // demoted (at the next staleness sweep) to a stale-first eviction candidate: the stream
  // will almost certainly kill it soon, so under capacity pressure it goes before younger
  // entries. Demotion never touches the entry's validity — it still serves hits with its
  // true interval until genuinely invalidated or evicted. <= 0 disables TTL demotion.
  double ttl_expiry_slack = 1.5;

  // --- warm rejoin (snapshot persistence) ---
  // With a SnapshotStore attached (CacheServer::set_snapshot_store), persist a full snapshot
  // after every N applied invalidation messages. A cold-restarted node then rejoins at most N
  // stream messages behind its snapshot instead of empty; the residual gap is catch-up
  // replayed from the bus history (or floored conservatively when even that is gone).
  // 0 disables periodic persistence (explicit PersistSnapshot() still works).
  uint64_t snapshot_interval_messages = 256;

  // --- hot-key replication ---
  // Sample every Nth lookup hit into the per-stripe hot-key sketch that feeds top-k hot-key
  // replication (CacheServer::HarvestHotKeys). Sampling keeps the hit path at one extra
  // relaxed counter per hit; the sketch itself is touched only on the sampled ones.
  // 0 disables hot-key tracking.
  uint64_t hot_key_sample_interval = 16;
  // With a replication hook attached (CacheServer::set_replication_hook — CacheCluster
  // installs one per node under EnableAutoReplication), fire it after every N applied
  // invalidation deliveries, exactly like the snapshot-persistence cadence: replication then
  // rides the stream traffic itself, with no driver pumping ReplicateHotKeys. 0 disables the
  // cadence (explicit ReplicateHotKeys calls still work).
  uint64_t replication_interval_messages = 128;
};

// Per-function cost/benefit profile surfaced through CacheServer::FunctionStats(). `hits` is
// merged from the shards' per-function hit counters; the rest is maintained by the frontend's
// admission bookkeeping.
struct FunctionStatsEntry {
  std::string function;
  uint64_t fills = 0;            // insert attempts observed (accepted or declined)
  // Watermark triggers for this function, INCLUDING the every-Nth triggers admitted as
  // probes. The node-level CacheStats::admission_rejects counts only actual declines, so the
  // two differ by exactly the probe count.
  uint64_t admission_rejects = 0;
  // Size-aware declines (max_entry_fraction guard or lost displacement comparison).
  uint64_t declined_too_large = 0;
  uint64_t hits = 0;
  uint64_t bytes_inserted = 0;   // estimated bytes of all attempted fills
  uint64_t fill_cost_total_us = 0;
  double ewma_benefit_per_byte = 0.0;  // µs of recompute saved per byte-lifetime, smoothed
  // TTL learning: stream truncations observed for this function and the EWMA of the
  // realized lifetimes they revealed (wall-clock µs from insert to truncation). Zero
  // truncations means the function has never been invalidated while resident.
  uint64_t truncations = 0;
  double ewma_lifetime_us = 0.0;
};

struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t miss_compulsory = 0;
  uint64_t miss_staleness = 0;
  uint64_t miss_capacity = 0;
  uint64_t miss_consistency = 0;
  uint64_t inserts = 0;
  uint64_t duplicate_inserts = 0;
  uint64_t invalidation_messages = 0;
  uint64_t invalidation_truncations = 0;
  uint64_t insert_time_truncations = 0;  // still-valid claims cut by replayed history
  uint64_t evictions_lru = 0;
  uint64_t evictions_stale = 0;
  // Cost-aware capacity evictions: a closed-interval version evicted by the stale-first
  // preference, and a still-valid version evicted for having the lowest benefit-per-byte.
  uint64_t evictions_capacity_stale = 0;
  uint64_t evictions_cost = 0;
  uint64_t eviction_bytes_reclaimed = 0;  // bytes freed by capacity evictions (all policies)
  uint64_t admission_rejects = 0;  // fills declined by the benefit-per-byte watermark
  uint64_t admission_probes = 0;   // fills of rejected functions admitted as re-measurement probes
  // Size-aware admission declines (kDeclinedTooLarge): the entry exceeded its shard's
  // max_entry_fraction slice, or its benefit lost the displacement comparison against the
  // victims it would evict. Counted separately from the watermark's admission_rejects.
  uint64_t admission_rejects_too_large = 0;
  // Still-valid versions demoted to stale-first eviction candidates because they outlived
  // their function's learned lifetime (validity untouched; eviction preference only).
  uint64_t ttl_demotions = 0;
  uint64_t reorder_buffered = 0;  // out-of-order stream messages held back
  // Membership churn: lookups answered as misses because the owning node was down, joining,
  // or unroutable (counted by the refusing node and by cluster routing), plus how each rejoin
  // resolved — catch-up replay from the bus history vs. flush-and-adopt.
  uint64_t nodes_unavailable = 0;
  uint64_t join_catchups = 0;
  uint64_t join_flushes = 0;
  // Rejoins that restored cached state from a persisted snapshot (warm rejoin) instead of
  // flushing: the snapshot's stream position was adopted and only the residual gap was
  // replayed or conservatively floored.
  uint64_t join_snapshot_restores = 0;
  // Write-intent traffic (optimistic read-write transactions): successful check-and-acquires,
  // acquires refused because another transaction held the key, releases, and intents dropped
  // wholesale by flush/crash/rejoin (advisory state only — see IntentRequest).
  uint64_t intent_acquires = 0;
  uint64_t intent_conflicts = 0;
  uint64_t intent_releases = 0;
  uint64_t intents_cleared = 0;

  // Counter-wise accumulation (fleet aggregation) and difference (measurement-window deltas:
  // end snapshot minus start snapshot). Both walk the single field list below, so a counter
  // added to the struct but missed there is one local omission — not a silently wrong window
  // delta hand-maintained in some distant benchmark.
  CacheStats& operator+=(const CacheStats& o) {
    ForEachPair(o, [](uint64_t& a, uint64_t b) { a += b; });
    return *this;
  }
  CacheStats& operator-=(const CacheStats& o) {
    ForEachPair(o, [](uint64_t& a, uint64_t b) { a -= b; });
    return *this;
  }

  uint64_t capacity_evictions() const {
    return evictions_lru + evictions_capacity_stale + evictions_cost;
  }

  uint64_t misses() const {
    return miss_compulsory + miss_staleness + miss_capacity + miss_consistency +
           nodes_unavailable;
  }
  double hit_rate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }

 private:
  template <typename Fn>
  void ForEachPair(const CacheStats& o, Fn fn) {
    uint64_t CacheStats::*fields[] = {
        &CacheStats::lookups, &CacheStats::hits, &CacheStats::miss_compulsory,
        &CacheStats::miss_staleness, &CacheStats::miss_capacity, &CacheStats::miss_consistency,
        &CacheStats::inserts, &CacheStats::duplicate_inserts,
        &CacheStats::invalidation_messages, &CacheStats::invalidation_truncations,
        &CacheStats::insert_time_truncations, &CacheStats::evictions_lru,
        &CacheStats::evictions_stale, &CacheStats::evictions_capacity_stale,
        &CacheStats::evictions_cost, &CacheStats::eviction_bytes_reclaimed,
        &CacheStats::admission_rejects, &CacheStats::admission_probes,
        &CacheStats::admission_rejects_too_large, &CacheStats::ttl_demotions,
        &CacheStats::reorder_buffered, &CacheStats::nodes_unavailable,
        &CacheStats::join_catchups, &CacheStats::join_flushes,
        &CacheStats::join_snapshot_restores, &CacheStats::intent_acquires,
        &CacheStats::intent_conflicts, &CacheStats::intent_releases,
        &CacheStats::intents_cleared};
    for (auto field : fields) {
      fn(this->*field, o.*field);
    }
  }
};

}  // namespace txcache

#endif  // SRC_CACHE_CACHE_TYPES_H_
