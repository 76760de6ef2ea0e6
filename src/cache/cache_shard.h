// One lock-striped partition of a cache node (paper §4, sharded).
//
// A shard owns every mutable structure for the keys that hash to it: the version chains, the
// still-valid tag index, its slice of the LRU order and its own stats counters. Mutations
// (insert, invalidation, eviction, sweep, flush) serialize on the shard's exclusive lock. The
// invalidation history that insert-time replay reads is the node's (InvalidationHistory): a
// shard only reads it, under its own lock.
//
// Read fast path (docs/architecture.md §"Memory reclamation and the flat shard table"): a
// zero-copy lookup holds NO shard lock at all. It enters an epoch-based-reclamation critical
// region (EbrDomain::Guard — one seq_cst RMW on the calling thread's own epoch slot), probes
// an open-addressing flat table with the request's carried Fnv1a hash (memcmp only on a full
// 64-bit hash match), walks an immutable copy-on-write version array, and aliases the hit's
// resident block. Writers never free anything a reader might still reach: removed versions,
// superseded version arrays, displaced flat-table arrays and flushed key slots are RETIRED
// into the EBR domain and reclaimed only after every pinned reader epoch has moved on.
//
// What a hit writes: its own thread's epoch slot, the winning version's recency tick +
// hit counter (per-version lines, contended only by hitters of the same key), one slot in its
// thread-stripe of the touch buffer, and its thread-stripe of the lookup counters. It bumps
// ONE shared_ptr refcount — the hit's resident block bundles value + tags + hints into a
// single control block, so the response's three aliases share one count. The node-global LRU
// tick is handed out in thread-local batches, so the shared ticker is touched once per batch,
// not once per hit. Nothing else a hit touches is shared-writable — no lock word, no shard-
// wide counter — which is what lets hit throughput scale with cores.
//
// Deferred hit maintenance is unchanged in spirit: the LRU splice, score refresh and
// per-function attribution a hit owes are queued in per-thread-stripe touch buffers and
// applied by the next exclusive section (insert, invalidation, sweep, eviction). Because
// readers no longer quiesce (they hold no lock), a drained record may point at a version an
// earlier exclusive section already removed — the drain validates every record against the
// shard's live-version set before dereferencing, making stale records inert.
//
// Cross-shard concerns live in the CacheServer frontend:
//   * the invalidation stream is sequenced once per node (StreamSequencer), recorded once in
//     the node's InvalidationHistory, and only then fanned out to every shard in strict seqno
//     order. An insert holds its shard's lock while it replays the history and registers its
//     version, so a message is either already in the history it read or reaches the shard
//     after the version is registered and truncates it — the §4.2 insert/invalidate race
//     closes per shard against one node-wide history;
//   * eviction is node-global: shards share an atomic byte counter and a monotonically
//     increasing touch tick, and the frontend evicts from whichever shard holds the globally
//     least-recently-used tail, preserving the monolithic server's LRU behavior;
//   * the staleness sweep fires from any one shard's op counter but sweeps all shards, so
//     garbage in cold shards is still collected when traffic is skewed.
#ifndef SRC_CACHE_CACHE_SHARD_H_
#define SRC_CACHE_CACHE_SHARD_H_

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/bus/invalidation.h"
#include "src/cache/cache_types.h"
#include "src/cache/flat_table.h"
#include "src/cache/function_table.h"
#include "src/cache/invalidation_history.h"
#include "src/util/clock.h"
#include "src/util/ebr.h"
#include "src/util/hash.h"
#include "src/util/serde.h"
#include "src/util/shared_mutex.h"
#include "src/util/status.h"

namespace txcache {

// What a capacity eviction freed. The frontend uses it to maintain the node-level atomic
// eviction stats and to fold the entry's realized benefit-per-byte (hits * fill_cost / bytes
// over its lifetime) back into the owning function's admission profile.
struct EvictedVersion {
  size_t bytes = 0;
  uint64_t fill_cost_us = 0;
  uint64_t hits = 0;
  uint32_t fn_id = 0;  // the evicted version's FunctionTable id (0: unprofiled)
};

// Cheapest victim this shard could offer right now; the frontend compares candidates across
// shards to reconstruct a node-global eviction order (stale-first, then lowest score).
struct EvictionCandidate {
  bool has_stale = false;
  uint64_t stale_seq = 0;  // node-global ordinal assigned when the version went stale
  bool has_scored = false;
  double score = 0.0;
  uint64_t tick = 0;  // tie-break: older touch evicted first
};

// One victim of a hypothetical eviction, as previewed by the size-aware admission gate. The
// frontend pools stale previews (their relative order cannot change the sum of zero-benefit
// bytes), then merges scored previews cheapest-score first, summing `benefit_us` until the
// candidate fill's bytes are covered — the fill's displacement cost.
struct VictimPreview {
  bool stale = false;      // listed stale (closed interval or TTL-demoted): evicted first
  double score = 0.0;      // eviction order among scored victims
  size_t bytes = 0;
  // Remaining benefit: max(0, score - aging floor) * bytes for scored victims — the µs of
  // recompute the entry is still expected to save beyond what the policy would already evict
  // at. Stale-listed victims are worthless by definition (they can only serve pinned old
  // snapshots), so displacing them is free.
  double benefit_us = 0.0;
};

class CacheShard {
 public:
  // `functions` is the node-wide per-function table (shared across shards so ids agree) and
  // `history` the node's invalidation history, read by insert-time replay; both must outlive
  // the shard.
  CacheShard(const Clock* clock, const CacheOptions& options,
             std::atomic<size_t>* global_bytes, std::atomic<uint64_t>* touch_ticker,
             std::atomic<double>* aging_floor, FunctionTable* functions,
             const InvalidationHistory* history);
  ~CacheShard();

  // Byte cost a version created from `req` would be charged against the node budget. Public so
  // the frontend's admission gate and the tests price entries with the same formula.
  static size_t EstimateBytes(const InsertRequest& req);

  CacheShard(const CacheShard&) = delete;
  CacheShard& operator=(const CacheShard&) = delete;

  // `key_hash` is the request's carried (or frontend-computed) Fnv1a key hash; the shard
  // reuses it for the flat-table probe, so a hit never rehashes nor materializes a key copy.
  LookupResponse Lookup(const LookupRequest& req, uint64_t key_hash);
  // Answers req.lookups[i] for every i in `indices` inside a single EBR critical region,
  // writing each result to out->responses[i]. Byte-identical to issuing the lookups one at a
  // time.
  void LookupBatch(const MultiLookupRequest& req, const std::vector<uint32_t>& indices,
                   MultiLookupResponse* out);
  // `fn_id` is the key's FunctionTable id, interned once by the frontend's admission gate (0
  // under plain LRU and over the profile cap); `hints` is the function's current advisory
  // snapshot, copied into the stored version's resident block so the zero-copy hit path can
  // serve it without a map probe. `*sweep_due` is set when this shard's mutating-op counter
  // crossed the sweep interval; the caller (frontend) then sweeps all shards without any
  // shard lock held.
  Status Insert(const InsertRequest& req, uint64_t key_hash, uint32_t fn_id,
                std::shared_ptr<const AdvisoryHints> hints, bool* sweep_due);

  // Applies one invalidation message. The caller (the node's sequencer sink) guarantees
  // strict seqno order and no concurrent invocations.
  void ApplyInvalidation(const InvalidationMessage& msg, bool* sweep_due);

  // Eager eviction of versions invalidated longer ago than any staleness limit accepts,
  // followed by the TTL-expiry demotion pass. `ttl_limits` is FunctionTable::DemotionLimits,
  // read once by the caller for the whole all-shards sweep; empty skips the pass.
  void SweepStale(const std::vector<double>& ttl_limits);

  // Node-global eviction support. Under kLru the frontend compares OldestTick across shards
  // and evicts from the globally least-recently-used tail; under kCostAware it compares
  // PeekVictim candidates (stale-first, then lowest benefit-per-byte score). EvictOne evicts
  // this shard's cheapest victim per the configured policy and reports what was freed. The
  // peeks read under the shared lock against possibly-undrained touches, so the cross-shard
  // choice is best-effort; EvictOne drains first, so within the chosen shard the policy
  // order is exact.
  std::optional<uint64_t> OldestTick() const;
  std::optional<EvictionCandidate> PeekVictim() const;
  std::optional<EvictedVersion> EvictOne();
  // Size-aware admission support: the victims this shard would offer, in its own eviction
  // order (stale list front-to-back, then score index ascending), until their summed bytes
  // reach `bytes_needed` or the shard runs out. Shared-lock read against possibly-undrained
  // touches — best-effort, like PeekVictim; the admission decision it feeds is a policy
  // heuristic, never a correctness question.
  std::vector<VictimPreview> PreviewVictims(size_t bytes_needed) const;

  // Per-function hit counters indexed by FunctionTable id (attributed at touch-buffer drain
  // time from the id stored on each version), merged by the frontend into FunctionStats().
  // Drains pending touches so the profile is current as of this call.
  std::vector<uint64_t> FunctionHits();

  // Write-intent ownership (optimistic read-write transactions). AcquireIntent is
  // check-and-acquire under the exclusive lock: Ok when the key was free or already held by
  // this token (idempotent), kConflict (with the holder's token) when another transaction
  // owns it. Acquisition stamps the key's still-valid version's ownership bit so lock-free
  // readers see the intent without a map probe; Insert re-stamps a fresh version while its
  // key's intent is held. ReleaseIntent is idempotent and only honors the owning token.
  // ClearIntents drops every intent wholesale (flush/crash/rejoin — advisory state, see
  // IntentRequest) and returns how many were dropped.
  IntentResponse AcquireIntent(const IntentRequest& req, uint64_t key_hash);
  void ReleaseIntent(const IntentRequest& req, uint64_t key_hash);
  size_t ClearIntents();

  void Flush();  // drops cached data; keeps the stream position

  // Snapshot/rejoin support. ExportEntries serializes this shard's resident versions (same
  // record format the monolithic server used); AdoptStreamPosition fast-forwards the shard's
  // view of the last applied invalidation timestamp (snapshot import, flush-rejoin). Raising
  // the history floor over an adopted gap is the node's job (InvalidationHistory::RaiseFloor).
  std::pair<uint64_t, std::string> ExportEntries() const;
  void AdoptStreamPosition(Timestamp last_invalidation_ts);

  // Degraded warm rejoin: closes every still-valid version at max(its known_valid_through,
  // `through`) — the data survives for reads pinned inside its proven validity window, but
  // nothing claims to be current. Used when a restored snapshot's residual stream gap cannot
  // be replayed: the entries were provably valid through the snapshot position and nothing
  // later can be vouched for. Validity only narrows, so no-stale-read holds by construction.
  void CloseAllStillValid(Timestamp through);

  // Hot-key replication support. HarvestHotHashes folds the per-stripe sketches (clearing
  // them, so each harvest reflects traffic since the last) into hash -> sampled-hit-count.
  // ExportForReplication builds replica InsertRequests for the wanted key hashes: for each
  // matching key, the newest still-valid version, with computed_at advanced to this shard's
  // last applied invalidation timestamp — the entry is provably valid through it, and a
  // replica behind that position will re-check the claim against its own replay history
  // while a replica ahead truncates it at insert time. Both are shared-lock cold paths.
  std::unordered_map<uint64_t, uint64_t> HarvestHotHashes();
  std::vector<InsertRequest> ExportForReplication(const std::vector<uint64_t>& hashes) const;

  CacheStats stats() const;  // this shard's partial counters
  void ResetStats();
  size_t version_count() const;
  size_t key_count() const;
  Timestamp last_invalidation_ts() const;

  // Lifetime count of exclusive acquisitions of this shard's lock. The read fast path's "a
  // hit takes no exclusive lock" claim is asserted against this by tests and benchmarks.
  uint64_t exclusive_lock_acquisitions() const { return mu_.exclusive_acquisitions(); }
  uint64_t shared_lock_acquisitions() const { return mu_.shared_acquisitions(); }
  // True when any touch-buffer stripe has overflowed since the last drain (diagnostic; tests
  // use it to force-cover the overflow repair path).
  bool touch_buffer_overflowed() const {
    return touch_overflow_.load(std::memory_order_relaxed);
  }

 private:
  struct KeySlot;

  // The bytes a hit hands out, bundled so one control block covers the value, the tags and
  // the advisory hints: a zero-copy response carries three aliasing shared_ptrs but bumps a
  // single refcount. The block is immutable from publication to destruction — truncation
  // narrows the version's validity, never the payload — which is what keeps held aliases
  // bitwise-stable across truncate/evict/flush and lets lock-free readers copy `block`
  // concurrently. The hints are a value copy of the function's advisory snapshot at insert
  // time (the contract has always allowed hints to lag; fresh ones flow via InsertResponse).
  struct ResidentBlock {
    std::string value;
    std::vector<InvalidationTag> tags;
    AdvisoryHints hints{};
    bool has_hints = false;
  };

  struct Version {
    // Immutable after publication (a reader acquires the version array that exposes them).
    Timestamp lower = kTimestampZero;
    Timestamp known_valid_through = kTimestampZero;  // max(lower, computed_at)
    std::shared_ptr<const ResidentBlock> block;      // destroyed only with the version (EBR)
    size_t bytes = 0;
    uint64_t fill_cost_us = 0;
    uint32_t fn_id = 0;       // FunctionTable id of CacheKeyFunction; 0 = none
    KeySlot* owner = nullptr; // the slot whose array publishes this version
    uint64_t insert_seq = 0;  // this shard's insertion ordinal: orders a message's truncations
    WallClock inserted_wallclock = 0;  // TTL learning: residency start

    // Reader-visible mutable state. Truncation stores `upper` (relaxed) and THEN
    // `still_valid = false` (release); a reader that loads still_valid == false (acquire)
    // therefore sees the final upper. While still_valid is true the effective upper is
    // derived from known_valid_through and the reader's last-invalidation snapshot instead.
    std::atomic<Timestamp> upper{kTimestampInfinity};
    std::atomic<bool> still_valid{false};
    std::atomic<uint64_t> touch_tick{0};  // node-global LRU ordinal of the last touch
    std::atomic<uint64_t> hit_count{0};
    // Write-intent ownership bit (ClusterSTM-style): the token of the transaction that
    // acquired a write intent on this version's key, 0 when free. Stamped/cleared under the
    // exclusive lock, read lock-free by the zero-copy hit path (relaxed — the bit is advisory
    // early-conflict detection; serializability comes from commit-time validation, so a torn
    // or lagging read can only cost an extra abort or a later-detected conflict).
    std::atomic<uint64_t> intent_owner{0};

    // Exclusive-lock-only state.
    WallClock invalidated_wallclock = 0;  // set when truncated
    std::list<Version*>::iterator lru_it;  // position in lru_

    // Cost-aware policy state. A resident version is in exactly one of the two structures:
    // still-valid versions carry a GreedyDual-style score (aging floor + fill_cost/bytes,
    // refreshed at drain time for every hit batch) in score_index_; closed-interval versions
    // — plus still-valid versions demoted for outliving their function's learned lifetime
    // (ttl_demoted) — sit in stale_lru_ in the order they went stale and are evicted first.
    uint64_t attributed_hits = 0;  // hit_count already folded into fn_hits_ (drain-side)
    double score = 0.0;
    std::multimap<double, Version*>::iterator score_it;  // valid iff in_score_index
    std::list<Version*>::iterator stale_it;              // valid iff in_stale_list
    bool in_score_index = false;
    bool in_stale_list = false;
    bool ttl_demoted = false;  // in stale_lru_ while still_valid (learned-TTL expiry)
    uint64_t stale_seq = 0;  // node-global ordinal taken when listed stale
  };

  // Immutable snapshot of a key's version chain, sorted by `lower`, intervals pairwise
  // disjoint. Writers publish a fresh array on every insert/remove and retire the old one;
  // readers walk whichever snapshot they acquired.
  struct VersionArray {
    std::vector<Version*> items;
  };

  // One key's flat-table record. Created by the first insert for the key and kept for the
  // shard's lifetime (its existence is what distinguishes a capacity/staleness miss from a
  // compulsory one — the old map kept empty KeyEntries for the same reason); retired only by
  // Flush and destruction. `versions` may be null (all versions removed).
  struct KeySlot {
    uint64_t hash = 0;  // Fnv1a(key); field required by FlatHashTable
    std::string key;
    std::atomic<VersionArray*> versions{nullptr};
  };

  // Per-thread-stripe touch queues. Producers (hits) hold no lock: they claim a slot in their
  // own stripe with an atomic ticket and store the version pointer. The consumer
  // (DrainTouchesLocked, exclusive lock held) is NOT quiesced against producers — a straggler
  // may publish into a stripe mid-drain — so the drain treats slot contents as hints: every
  // drained pointer is validated against the shard's live-version set, and lost or duplicate
  // touches are self-correcting (recency truth lives in the per-version ticks; the overflow
  // repair re-sorts from them).
  class StripedTouchBuffer {
   public:
    // Each stripe gets the full per-drain capacity, so single-threaded behavior (and the
    // overflow tests built on tiny capacities) is identical to the old single buffer.
    StripedTouchBuffer(size_t stripes, size_t capacity)
        : stripe_count_(stripes < 1 ? 1 : stripes),
          capacity_(capacity < 1 ? 1 : capacity),
          stripes_(std::make_unique<Stripe[]>(stripe_count_)) {
      for (size_t s = 0; s < stripe_count_; ++s) {
        stripes_[s].slots = std::make_unique<std::atomic<Version*>[]>(capacity_);
      }
    }

    // Returns false when the stripe is full (the ticket is NOT handed back: a concurrent
    // Reset could otherwise underflow the counter; unclaimed growth past capacity is
    // harmless and clears at the next drain).
    bool Record(Version* v, size_t stripe) {
      Stripe& st = stripes_[stripe % stripe_count_];
      const uint64_t ticket = st.tickets.fetch_add(1, std::memory_order_relaxed);
      if (ticket >= capacity_) {
        return false;
      }
      st.slots[ticket].store(v, std::memory_order_release);
      return true;
    }

    size_t stripe_count() const { return stripe_count_; }
    size_t pending(size_t s) const {
      const uint64_t n = stripes_[s].tickets.load(std::memory_order_acquire);
      return n < capacity_ ? static_cast<size_t>(n) : capacity_;
    }
    Version* slot(size_t s, size_t i) const {
      return stripes_[s].slots[i].load(std::memory_order_acquire);
    }
    void Reset() {
      for (size_t s = 0; s < stripe_count_; ++s) {
        stripes_[s].tickets.store(0, std::memory_order_relaxed);
      }
    }

   private:
    struct alignas(64) Stripe {
      std::atomic<uint64_t> tickets{0};
      std::unique_ptr<std::atomic<Version*>[]> slots;
    };

    const size_t stripe_count_;
    const size_t capacity_;
    std::unique_ptr<Stripe[]> stripes_;
  };

  // Per-thread-stripe lookup counters: the hit path bumps only its own stripe's cache line;
  // stats() folds the stripes under the shared lock.
  //
  // The stripe also carries a tiny space-saving sketch of the hottest key hashes seen by its
  // threads, fed by every hot_key_sample_interval-th hit (one extra relaxed counter on the
  // unsampled hits). All sketch fields are racy-by-design approximations — hot-key harvesting
  // is a replication heuristic, never a correctness input — so plain relaxed atomics suffice.
  struct HotSample {
    std::atomic<uint64_t> hash{0};  // 0 = empty slot (Fnv1a/Mix64 of a real key is never 0)
    std::atomic<uint32_t> count{0};
  };
  static constexpr size_t kHotSlotsPerStripe = 8;
  struct alignas(64) LookupStatsStripe {
    std::atomic<uint64_t> lookups{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> miss_compulsory{0};
    std::atomic<uint64_t> miss_staleness{0};
    std::atomic<uint64_t> miss_capacity{0};
    std::atomic<uint64_t> miss_consistency{0};
    std::atomic<uint64_t> sample_ticker{0};
    HotSample hot[kHotSlotsPerStripe];
  };

  // Mutating *Locked helpers assume the EXCLUSIVE side of mu_ is held. MatchVersions and
  // EffectiveUpper are the shared matching core: lock-free readers call them inside an EBR
  // critical region with `last_ts` snapshotted ONCE before walking (so a racing truncation
  // can only make the claimed upper more conservative); exclusive-side callers pass the
  // current value.
  Version* MatchVersions(const LookupRequest& req, uint64_t key_hash, Timestamp last_ts,
                         LookupResponse* resp) const;
  static Timestamp EffectiveUpper(const Version& v, Timestamp last_ts);
  void CountMiss(MissKind kind, LookupStatsStripe* st);
  // Space-saving update of the stripe's hot-key sketch (relaxed, racy-by-design).
  static void RecordHotSample(LookupStatsStripe& st, uint64_t key_hash);
  LookupResponse LookupRead(const LookupRequest& req, uint64_t key_hash);  // EBR, no lock
  LookupResponse LookupExclusive(const LookupRequest& req, uint64_t key_hash);
  void TruncateLocked(Version* v, Timestamp ts, WallClock wallclock);
  // Stores `token` into the ownership bit of every version published for `slot` (0 clears).
  void StampIntentLocked(KeySlot* slot, uint64_t token);
  void RegisterTagsLocked(Version* v);
  void UnregisterTagsLocked(Version* v);
  void RemoveVersionLocked(Version* v);
  // Applies every deferred hit: LRU front-moves in touch order, score refreshes, and
  // per-function hit attribution. MUST run at the top of any exclusive section that may
  // remove a version; records pointing outside live_ (removed since recording, or a
  // straggler's torn slot) are discarded unread.
  void DrainTouchesLocked();
  void SweepStaleLocked();
  // TTL-expiry pass (cost-aware only): demotes still-valid versions older than their
  // function's limit in `ttl_limits` (slack x learned lifetime, by id) from the score index to
  // the stale list. Validity is untouched — this is an eviction preference, so the
  // no-resurrect/no-widen property holds trivially across demotions.
  void DemoteTtlExpiredLocked(const std::vector<double>& ttl_limits);
  bool CountOpLocked();  // bumps the mutating-op counter; true when a sweep is due
  bool cost_aware() const { return options_.policy == EvictionPolicy::kCostAware; }
  void AddToScoreIndexLocked(Version* v);
  void AddToStaleListLocked(Version* v);
  void DetachPolicyStateLocked(Version* v);
  void AttributeHitsLocked(Version* v);
  EvictedVersion MakeEvictedLocked(const Version& v) const;
  // Republishes `owner`'s version array without `v` and retires the old array + the version.
  void UnpublishVersionLocked(Version* v);
  size_t StripeIndex() const;  // this thread's stripe (stats + touch buffer)

  const Clock* clock_;
  const CacheOptions options_;
  std::atomic<size_t>* const global_bytes_;    // shared across the node's shards
  std::atomic<uint64_t>* const touch_ticker_;  // shared monotone LRU clock
  std::atomic<double>* const aging_floor_;     // shared GreedyDual aging value (max evicted score)
  FunctionTable* const functions_;             // node-global per-function state (TTL learning)
  const InvalidationHistory* const history_;   // node-global replay history (insert-time §4.2)
  EbrDomain* const domain_;                    // process-global reclamation domain

  // Writers (insert, invalidation, sweep, eviction, flush, reset) take the exclusive side;
  // the cold read-only accessors (PeekVictim, OldestTick, stats, ExportEntries, counts) take
  // the shared side. Zero-copy lookups take NEITHER — they run under EBR. The instrumentation
  // still backs the "a hit acquires no exclusive lock" acceptance test.
  mutable InstrumentedSharedMutex mu_;
  FlatHashTable<KeySlot> table_;
  std::list<Version*> lru_;  // front = most recently used within this shard
  // Cost-aware structures (maintained only under EvictionPolicy::kCostAware).
  std::multimap<double, Version*> score_index_;  // still-valid versions by benefit score
  std::list<Version*> stale_lru_;                // closed-interval versions, oldest-stale first
  std::vector<uint64_t> fn_hits_;                // per-function hit counters, by interned id
  // Every resident version. The drain's membership oracle: a touch record whose pointer is
  // not in here was removed (or never completed) since it was recorded and must not be
  // dereferenced. Maintained exclusively alongside lru_.
  std::unordered_set<Version*> live_;
  size_t version_count_ = 0;

  // Deferred hit maintenance (see class comment). touch_overflow_ marks that at least one
  // hit could not be recorded since the last drain; the drain then repairs the full LRU
  // order from the per-version ticks instead of trusting the (incomplete) queues.
  const size_t stripe_count_;
  StripedTouchBuffer touch_buffer_;
  std::atomic<bool> touch_overflow_{false};
  // (touch tick snapshot, version) pairs, reused across drains; exclusive-lock-only.
  using TickedVersion = std::pair<uint64_t, Version*>;
  std::vector<TickedVersion> drain_scratch_;
  std::unique_ptr<LookupStatsStripe[]> lookup_stats_;

  // Still-valid version registry: concrete tag -> versions carrying it; table -> versions
  // carrying any tag of that table (serves wildcard invalidation messages); table -> versions
  // holding a wildcard tag on that table (invalidated by any message touching the table).
  std::unordered_map<InvalidationTag, std::unordered_set<Version*>, TagHasher> tag_index_;
  std::unordered_map<std::string, std::unordered_set<Version*>> table_index_;
  std::unordered_map<std::string, std::unordered_set<Version*>> wildcard_holders_;

  // Timestamp of the last invalidation fanned out to this shard. Written under the exclusive
  // lock AFTER the message's truncations land (release); a lock-free reader snapshots it
  // (acquire) once per lookup BEFORE walking versions, so a still-valid observation can only
  // pair with an equal-or-older snapshot — the claimed upper bound is never wider than what
  // a lock-holding reader would have computed. Mid-fan-out lag only narrows claims.
  std::atomic<Timestamp> last_invalidation_ts_{kTimestampZero};

  // Write intents held on this shard's keys: key -> owner token. Exclusive-lock-only; the
  // per-version ownership bits mirror it for lock-free readers. Keyed by the full key (not
  // the hash) so a hash collision can never make two keys share an intent.
  std::unordered_map<std::string, uint64_t> intents_;

  uint64_t ops_since_sweep_ = 0;
  uint64_t insert_seq_ = 0;  // last Version::insert_seq handed out
  CacheStats stats_;
};

}  // namespace txcache

#endif  // SRC_CACHE_CACHE_SHARD_H_
