// The TxCache application-side library (paper §2.1, §6).
//
// Applications see the paper's five-call API — BEGIN-RO(staleness), BEGIN-RW, COMMIT, ABORT and
// MAKE-CACHEABLE — and nothing else: cache servers, validity intervals, pin sets and
// invalidation tags are all handled here.
//
//   TxCacheClient client(&db, &pincushion, &cluster, &clock);
//   auto get_user = client.MakeCacheable<UserInfo, int64_t>("get_user", [&](int64_t id) {...});
//   client.BeginRO(Seconds(30));
//   UserInfo u = get_user(42);        // cache hit or transparent recompute+insert
//   Timestamp ts = client.Commit().value();
//
// Read/write transactions bypass the cache entirely (§2.2). Read-only transactions choose their
// serialization timestamp lazily (§6.2): the pin set starts as every sufficiently fresh pinned
// snapshot plus * ("the present") and narrows as cached values and query results are observed;
// the first real database query forces a concrete snapshot.
//
// A client instance drives one session at a time and is not thread-safe; the shared components
// it talks to (database, cache servers, pincushion) are.
#ifndef SRC_CORE_TXCACHE_CLIENT_H_
#define SRC_CORE_TXCACHE_CLIENT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cache/cache_cluster.h"
#include "src/core/pin_set.h"
#include "src/db/database.h"
#include "src/pincushion/pincushion.h"
#include "src/util/clock.h"
#include "src/util/serde.h"

namespace txcache {

// Evaluation modes (paper §8): kConsistent is TxCache; kNoConsistency keeps the invalidation
// machinery but serves any sufficiently fresh version, ignoring transactional consistency;
// kNoCache is the no-caching baseline (every call executes against the database).
enum class ClientMode : uint8_t { kConsistent, kNoConsistency, kNoCache };

struct ClientStats {
  uint64_t ro_txns = 0;
  uint64_t rw_txns = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t cacheable_calls = 0;
  uint64_t bypassed_calls = 0;  // executed directly: RW transaction or kNoCache mode
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t miss_compulsory = 0;
  uint64_t miss_staleness = 0;
  uint64_t miss_capacity = 0;
  uint64_t miss_consistency = 0;
  // The owning cache node was down, joining, or unroutable (membership churn): the call
  // degraded to a recompute instead of failing (paper §4's failure model).
  uint64_t miss_node_unavailable = 0;
  // Server-side bounds matched but the exact pin-set intersection was empty; treated as a
  // consistency miss (see PinSet::NarrowTo).
  uint64_t pin_set_rejects = 0;
  uint64_t cache_inserts = 0;
  uint64_t inserts_skipped = 0;  // empty accumulated validity (possible under kNoConsistency)
  uint64_t db_queries = 0;
  uint64_t db_tuples_examined = 0;
  uint64_t db_index_probes = 0;
  uint64_t db_writes = 0;  // INSERT/UPDATE/DELETE statements issued
  uint64_t pins_created = 0;
  uint64_t multi_lookup_batches = 0;  // batched cache round-trips issued
  uint64_t multi_lookup_keys = 0;     // keys resolved through batched round-trips
  // Cost pipeline (automatic management): recompute_cost_us is the measured fill cost of every
  // cacheable-function miss this client had to recompute; saved_recompute_cost_us is the
  // stored fill cost of every hit (the recompute the cache saved); inserts_declined counts
  // fills the server's admission gate refused to store.
  uint64_t recompute_cost_us = 0;
  uint64_t saved_recompute_cost_us = 0;
  uint64_t inserts_declined = 0;
  // Size-aware declines (kDeclinedTooLarge), counted separately from the watermark's
  // inserts_declined: the value was too big for its shard slice or lost the displacement
  // comparison — the signal MAKE-CACHEABLE call sites adapt fill sizing to.
  uint64_t inserts_declined_too_large = 0;
  uint64_t inserts_unavailable = 0;  // fills not stored because the owning node was down/joining
  // Times a cluster response carried a different membership epoch than the last one observed:
  // the client refreshed its routing view instead of erroring (re-route events under churn).
  uint64_t ring_epoch_changes = 0;
  // Optimistic read-write transactions (BeginRw/ReadInTx/WriteIntent/CommitRw).
  // rw_optimistic_txns counts BeginRw calls; rw_commits/rw_aborts split their outcomes
  // (both also feed the generic commits/aborts totals). rw_retries counts abort-and-retry
  // rounds taken by RunRwTransaction; rw_intent_conflicts counts early aborts triggered by a
  // foreign write intent (an acquire refused, or an in-transaction read that saw one);
  // rw_intents_acquired counts successful check-and-acquires.
  uint64_t rw_optimistic_txns = 0;
  uint64_t rw_commits = 0;
  uint64_t rw_aborts = 0;
  uint64_t rw_retries = 0;
  uint64_t rw_intent_conflicts = 0;
  uint64_t rw_intents_acquired = 0;

  // Counter-wise accumulation and difference (fleet aggregation, measurement-window deltas).
  // Kept here so the compiler owns the field list: a counter added to the struct but missed
  // below is a local asymmetry, not a silently wrong aggregate in some distant benchmark.
  ClientStats& operator+=(const ClientStats& o) {
    ForEachPair(o, [](uint64_t& a, uint64_t b) { a += b; });
    return *this;
  }
  ClientStats& operator-=(const ClientStats& o) {
    ForEachPair(o, [](uint64_t& a, uint64_t b) { a -= b; });
    return *this;
  }

 private:
  template <typename Fn>
  void ForEachPair(const ClientStats& o, Fn fn) {
    uint64_t ClientStats::*fields[] = {
        &ClientStats::ro_txns, &ClientStats::rw_txns, &ClientStats::commits,
        &ClientStats::aborts, &ClientStats::cacheable_calls, &ClientStats::bypassed_calls,
        &ClientStats::cache_hits, &ClientStats::cache_misses, &ClientStats::miss_compulsory,
        &ClientStats::miss_staleness, &ClientStats::miss_capacity,
        &ClientStats::miss_consistency, &ClientStats::miss_node_unavailable,
        &ClientStats::pin_set_rejects, &ClientStats::cache_inserts,
        &ClientStats::inserts_skipped, &ClientStats::db_queries,
        &ClientStats::db_tuples_examined, &ClientStats::db_index_probes,
        &ClientStats::db_writes, &ClientStats::pins_created,
        &ClientStats::multi_lookup_batches, &ClientStats::multi_lookup_keys,
        &ClientStats::recompute_cost_us, &ClientStats::saved_recompute_cost_us,
        &ClientStats::inserts_declined, &ClientStats::inserts_declined_too_large,
        &ClientStats::inserts_unavailable, &ClientStats::ring_epoch_changes,
        &ClientStats::rw_optimistic_txns, &ClientStats::rw_commits, &ClientStats::rw_aborts,
        &ClientStats::rw_retries, &ClientStats::rw_intent_conflicts,
        &ClientStats::rw_intents_acquired};
    for (auto field : fields) {
      fn(this->*field, o.*field);
    }
  }
};

// Atomic mirror of ClientStats. A client session is single-threaded, but its counters are
// routinely read while the session is running (benchmarks, the simulator's monitors, the
// stress tests) — plain uint64_t fields would make that a data race once the cache fleet is
// under real concurrent load. Increment sites use the atomics' built-in operators (seq_cst;
// the session thread is the only writer, readers need only atomicity); Snapshot/Reset read
// and clear with relaxed ordering.
struct AtomicClientStats {
  std::atomic<uint64_t> ro_txns{0};
  std::atomic<uint64_t> rw_txns{0};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> aborts{0};
  std::atomic<uint64_t> cacheable_calls{0};
  std::atomic<uint64_t> bypassed_calls{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> miss_compulsory{0};
  std::atomic<uint64_t> miss_staleness{0};
  std::atomic<uint64_t> miss_capacity{0};
  std::atomic<uint64_t> miss_consistency{0};
  std::atomic<uint64_t> miss_node_unavailable{0};
  std::atomic<uint64_t> pin_set_rejects{0};
  std::atomic<uint64_t> cache_inserts{0};
  std::atomic<uint64_t> inserts_skipped{0};
  std::atomic<uint64_t> db_queries{0};
  std::atomic<uint64_t> db_tuples_examined{0};
  std::atomic<uint64_t> db_index_probes{0};
  std::atomic<uint64_t> db_writes{0};
  std::atomic<uint64_t> pins_created{0};
  std::atomic<uint64_t> multi_lookup_batches{0};
  std::atomic<uint64_t> multi_lookup_keys{0};
  std::atomic<uint64_t> recompute_cost_us{0};
  std::atomic<uint64_t> saved_recompute_cost_us{0};
  std::atomic<uint64_t> inserts_declined{0};
  std::atomic<uint64_t> inserts_declined_too_large{0};
  std::atomic<uint64_t> inserts_unavailable{0};
  std::atomic<uint64_t> ring_epoch_changes{0};
  std::atomic<uint64_t> rw_optimistic_txns{0};
  std::atomic<uint64_t> rw_commits{0};
  std::atomic<uint64_t> rw_aborts{0};
  std::atomic<uint64_t> rw_retries{0};
  std::atomic<uint64_t> rw_intent_conflicts{0};
  std::atomic<uint64_t> rw_intents_acquired{0};

  ClientStats Snapshot() const {
    ClientStats s;
    s.ro_txns = ro_txns.load(std::memory_order_relaxed);
    s.rw_txns = rw_txns.load(std::memory_order_relaxed);
    s.commits = commits.load(std::memory_order_relaxed);
    s.aborts = aborts.load(std::memory_order_relaxed);
    s.cacheable_calls = cacheable_calls.load(std::memory_order_relaxed);
    s.bypassed_calls = bypassed_calls.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits.load(std::memory_order_relaxed);
    s.cache_misses = cache_misses.load(std::memory_order_relaxed);
    s.miss_compulsory = miss_compulsory.load(std::memory_order_relaxed);
    s.miss_staleness = miss_staleness.load(std::memory_order_relaxed);
    s.miss_capacity = miss_capacity.load(std::memory_order_relaxed);
    s.miss_consistency = miss_consistency.load(std::memory_order_relaxed);
    s.miss_node_unavailable = miss_node_unavailable.load(std::memory_order_relaxed);
    s.pin_set_rejects = pin_set_rejects.load(std::memory_order_relaxed);
    s.cache_inserts = cache_inserts.load(std::memory_order_relaxed);
    s.inserts_skipped = inserts_skipped.load(std::memory_order_relaxed);
    s.db_queries = db_queries.load(std::memory_order_relaxed);
    s.db_tuples_examined = db_tuples_examined.load(std::memory_order_relaxed);
    s.db_index_probes = db_index_probes.load(std::memory_order_relaxed);
    s.db_writes = db_writes.load(std::memory_order_relaxed);
    s.pins_created = pins_created.load(std::memory_order_relaxed);
    s.multi_lookup_batches = multi_lookup_batches.load(std::memory_order_relaxed);
    s.multi_lookup_keys = multi_lookup_keys.load(std::memory_order_relaxed);
    s.recompute_cost_us = recompute_cost_us.load(std::memory_order_relaxed);
    s.saved_recompute_cost_us = saved_recompute_cost_us.load(std::memory_order_relaxed);
    s.inserts_declined = inserts_declined.load(std::memory_order_relaxed);
    s.inserts_declined_too_large =
        inserts_declined_too_large.load(std::memory_order_relaxed);
    s.inserts_unavailable = inserts_unavailable.load(std::memory_order_relaxed);
    s.ring_epoch_changes = ring_epoch_changes.load(std::memory_order_relaxed);
    s.rw_optimistic_txns = rw_optimistic_txns.load(std::memory_order_relaxed);
    s.rw_commits = rw_commits.load(std::memory_order_relaxed);
    s.rw_aborts = rw_aborts.load(std::memory_order_relaxed);
    s.rw_retries = rw_retries.load(std::memory_order_relaxed);
    s.rw_intent_conflicts = rw_intent_conflicts.load(std::memory_order_relaxed);
    s.rw_intents_acquired = rw_intents_acquired.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    for (std::atomic<uint64_t>* c :
         {&ro_txns, &rw_txns, &commits, &aborts, &cacheable_calls, &bypassed_calls,
          &cache_hits, &cache_misses, &miss_compulsory, &miss_staleness, &miss_capacity,
          &miss_consistency, &miss_node_unavailable, &pin_set_rejects, &cache_inserts,
          &inserts_skipped, &db_queries, &db_tuples_examined, &db_index_probes, &db_writes,
          &pins_created, &multi_lookup_batches, &multi_lookup_keys, &recompute_cost_us,
          &saved_recompute_cost_us, &inserts_declined, &inserts_declined_too_large,
          &inserts_unavailable, &ring_epoch_changes, &rw_optimistic_txns, &rw_commits,
          &rw_aborts, &rw_retries, &rw_intent_conflicts, &rw_intents_acquired}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
};

// Validity/tag accumulation for one cacheable function on the call stack (§6.3), plus the
// fill-cost meter: FrameBegin stamps the wall clock and the database work counters, FrameEnd
// converts the deltas into the µs of compute/DB time this fill cost — the benefit a future
// cache hit on it would deliver.
struct Frame {
  Interval validity = Interval::All();
  std::set<InvalidationTag> tags;
  WallClock started_wall = 0;
  uint64_t start_db_queries = 0;
  uint64_t start_db_tuples = 0;
  uint64_t start_db_probes = 0;
};

// What a finished frame learned; passed to CacheStore.
struct FrameOutcome {
  Interval validity = Interval::All();
  std::vector<InvalidationTag> tags;
  Timestamp computed_at = kTimestampZero;
  uint64_t fill_cost_us = 0;  // measured cost of producing this value (wall + weighted DB work)
};

class TxCacheClient {
 public:
  struct Options {
    WallClock default_staleness = Seconds(30);
    // Policy knob from §6.2: at the first database query, pin a fresh snapshot (choose *) only
    // if the newest pin in the pin set is older than this; otherwise reuse the newest pin.
    WallClock new_pin_threshold = Seconds(5);
    ClientMode mode = ClientMode::kConsistent;

    // --- optimistic read-write transactions (BeginRw / RunRwTransaction) ---
    // Abort-and-retry budget of RunRwTransaction: after this many conflict aborts the last
    // conflict status is returned to the caller instead of retrying again.
    uint64_t rw_max_retries = 12;
    // Capped exponential backoff between retries: attempt k waits roughly
    // min(rw_backoff_cap, rw_backoff_base << k), half fixed and half deterministic jitter
    // drawn from a SplitMix64 stream seeded with rw_backoff_seed (so a seeded test replays
    // the exact same delay sequence).
    WallClock rw_backoff_base = Millis(0.2);
    WallClock rw_backoff_cap = Millis(10);
    uint64_t rw_backoff_seed = 0x9e3779b97f4a7c15ull;
    // Injectable delay hook: called with each computed backoff (µs). When unset the client
    // sleeps for real (std::this_thread). Tests inject a recorder for determinism; the
    // simulator injects a virtual-clock advance so backoff costs simulated time, not wall
    // time.
    std::function<void(WallClock)> rw_backoff_sleep;
  };

  TxCacheClient(Database* db, Pincushion* pincushion, CacheCluster* cache, const Clock* clock)
      : TxCacheClient(db, pincushion, cache, clock, Options{}) {}
  TxCacheClient(Database* db, Pincushion* pincushion, CacheCluster* cache, const Clock* clock,
                Options options);
  ~TxCacheClient();

  TxCacheClient(const TxCacheClient&) = delete;
  TxCacheClient& operator=(const TxCacheClient&) = delete;

  // --- transactions ---
  Status BeginRO() { return BeginRO(options_.default_staleness); }
  Status BeginRO(WallClock staleness);
  Status BeginRW();
  // Commits and reports the timestamp the transaction ran at (§2.2) — usable as the staleness
  // bound of a later transaction to guarantee monotonic reads.
  Result<Timestamp> Commit();
  Status Abort();

  bool in_transaction() const { return state_ != TxnState::kNone; }
  bool in_read_only() const { return state_ == TxnState::kReadOnly; }
  bool in_optimistic_rw() const { return state_ == TxnState::kOptimisticRw; }

  // A cached payload handed back by the lookup paths. Zero-copy: it aliases the buffer
  // resident in the cache node (see LookupResponse::value); holding it keeps the bytes alive
  // and bitwise stable regardless of later evictions or invalidations.
  using CachedValue = std::shared_ptr<const std::string>;

  // --- optimistic read-write transactions through the cache ---
  // Unlike BeginRW (which bypasses the cache entirely, §2.2), an optimistic read-write
  // transaction READS through the cache and validates those reads at commit:
  //   - ReadInTx serves cached values valid at the transaction's snapshot and records their
  //     invalidation tags plus the timestamp they are known unchanged through (a still-valid
  //     hit's applied-invalidation position) into the transaction's read set. Cacheable
  //     functions called inside the transaction route through it automatically.
  //   - Database reads (direct or via recomputed cacheable functions) are tag-tracked by the
  //     engine and recorded with the snapshot as their known-unchanged point.
  //   - WriteIntent(key) announces that this transaction is about to invalidate `key`:
  //     check-and-acquire of the advisory per-key intent on the owning cache node. A refused
  //     acquire (kConflict) — or a ReadInTx that runs into a foreign intent — is an early
  //     abort signal; correctness never depends on it.
  //   - CommitRw commits through Database::CommitValidated: every recorded read is checked
  //     against the engine's exact last-invalidation bookkeeping inside the commit critical
  //     section, so a committed transaction is strictly serializable at its commit timestamp
  //     (its snapshot, when it wrote nothing). A stale read aborts with kConflict.
  //   - Results computed inside an optimistic transaction are never stored in the cache (its
  //     own uncommitted writes may have dirtied them).
  // RunRwTransaction wraps the begin/body/commit cycle in the canonical retry loop: on
  // kConflict (from the body or from commit validation) it aborts, waits a capped-exponential
  // jittered backoff, and retries up to Options::rw_max_retries times.
  Status BeginRw();
  Result<CachedValue> ReadInTx(const std::string& key, const std::string* function = nullptr);
  Status WriteIntent(const std::string& key);
  Result<Timestamp> CommitRw();
  Result<Timestamp> RunRwTransaction(const std::function<Status()>& body);

  // --- database access (bare queries/DML inside the current transaction) ---
  Result<QueryResult> ExecuteQuery(const Query& query);
  // Like ExecuteQuery, but `tags` — a statically derived superset of the access tags the
  // executor will attach (src/sql/tag_deriver.h) — is what flows into enclosing cacheable
  // frames and, in optimistic read-write transactions, into the commit-time read set, in
  // place of the executor's dynamically observed tags. Broader tags can only cause extra
  // invalidations or validation conflicts, never a stale read, so any superset is safe.
  // Validity intervals are never overridden (they come from the engine), and the returned
  // QueryResult still carries the executor's own tags so callers can diff the two sets.
  Result<QueryResult> ExecuteQueryTagged(const Query& query,
                                         const std::vector<InvalidationTag>& tags);
  Status Insert(const std::string& table, Row row);
  Result<size_t> Update(const std::string& table, const AccessPath& path,
                        const PredicatePtr& where,
                        const std::vector<std::pair<ColumnId, Value>>& sets);
  Result<size_t> Delete(const std::string& table, const AccessPath& path,
                        const PredicatePtr& where);

  // --- cacheable functions (MAKE-CACHEABLE) ---
  // Declared here, defined in cacheable_function.h to keep template machinery out of the way:
  //   template <typename Ret, typename... Args>
  //   CacheableFunction<Ret, Args...> MakeCacheable(std::string name,
  //                                                 std::function<Ret(Args...)> fn);
  template <typename Ret, typename... Args, typename Fn>
  auto MakeCacheable(std::string name, Fn&& fn);

  // --- cacheable-call plumbing (used by CacheableFunction; not application-facing) ---
  bool ShouldUseCache() const { return state_ == TxnState::kReadOnly && options_.mode != ClientMode::kNoCache; }
  // `function` is the MAKE-CACHEABLE name the key was built from, when the caller has it
  // (CacheableFunction does): advisory hints on the response are then recorded without
  // re-parsing the key's function prefix. Null: the prefix is parsed on demand.
  Result<CachedValue> CacheLookup(const std::string& key,
                                  const std::string* function = nullptr);
  // Batched variant: resolves `keys` in one MULTILOOKUP round-trip per cache node (the
  // cluster groups keys per owning node). Results are positionally aligned with `keys`.
  // Pin-set narrowing is threaded through the responses in order: each hit narrows the pin
  // set exactly as a standalone lookup would, and a hit whose interval no longer intersects
  // the (already narrowed) pin set is demoted to a consistency miss. Because every entry is
  // probed with the bounds the pin set had when the batch was issued, a batch can classify a
  // borderline entry as a miss where sequential lookups (whose later probes carry narrower
  // bounds) might have found an older compatible version — never the reverse, so consistency
  // is unaffected; only the hit rate can differ marginally.
  std::vector<Result<CachedValue>> CacheMultiLookup(const std::vector<std::string>& keys,
                                                    const std::string* function = nullptr);
  void FrameBegin();
  FrameOutcome FrameEnd();
  void FrameAbandon();
  void CacheStore(const std::string& key, std::string value, const FrameOutcome& outcome,
                  const std::string* function = nullptr);
  void CountCacheableCall() { ++stats_.cacheable_calls; }
  void CountBypassedCall() { ++stats_.bypassed_calls; }

  // Merged advisory hints observed from the cache fleet for a MAKE-CACHEABLE function
  // (updated from Lookup/Insert responses; see AdvisoryHints for what a caller may and may
  // not assume). Observations are kept per responding NODE and merged here: decline_rate is
  // the max across nodes (one node refusing this function's fills is already a reason to
  // shrink them), learned_lifetime_us and observed_bpb are weighted by each node's share of
  // the function's observed traffic. Last-writer-wins across nodes — the previous behavior —
  // made the hints flap with routing: under hot-key replication or a sharded key space,
  // consecutive responses come from different nodes with different learned state, and
  // whichever answered last erased the rest. nullopt until any response for the function
  // carried hints. Thread-safe.
  std::optional<AdvisoryHints> AdvisoryHintsFor(const std::string& function) const;

  // Records the advisory snapshot a response carried (no-op on null), bucketed under the
  // responding node (`served_by`; empty for direct/unrouted responses, which share one
  // bucket). `function` is the caller-known MAKE-CACHEABLE name; when null it is parsed
  // from the key's prefix. Called internally from every lookup/insert response; public so
  // out-of-band drivers (and the hints-merge regression tests) can feed observations.
  void ObserveHints(const std::string& key, const std::string* function,
                    const std::string& served_by,
                    const std::shared_ptr<const AdvisoryHints>& hints);

  ClientStats stats() const { return stats_.Snapshot(); }  // safe under concurrent load
  void ResetStats() { stats_.Reset(); }
  const PinSet& pin_set() const { return pin_set_; }  // exposed for invariant tests
  std::optional<Timestamp> chosen_timestamp() const { return chosen_ts_; }
  const Options& options() const { return options_; }
  // Newest membership epoch observed on any cluster response — the client's view of the
  // fleet; ClientStats::ring_epoch_changes counts how often it moved (re-route events).
  uint64_t ring_epoch() const { return ring_epoch_.load(std::memory_order_relaxed); }

 private:
  enum class TxnState : uint8_t {
    kNone,
    kReadOnly,
    kReadWrite,     // legacy BEGIN-RW: bypasses the cache entirely (§2.2)
    kOptimisticRw,  // BeginRw: reads through the cache, commit-time read validation
  };

  // Shared body of ExecuteQuery/ExecuteQueryTagged: null override_tags means "use the
  // executor's observed tags".
  Result<QueryResult> ExecuteQueryInternal(const Query& query,
                                           const std::vector<InvalidationTag>* override_tags);
  // Makes sure the pin set holds at least one concrete pin (pinning a fresh snapshot if the
  // pincushion had nothing fresh enough), so cache lookups have usable bounds (§5.4).
  Status EnsurePinnedSnapshot();
  // Bounds a cache lookup probes, derived from the pin set / chosen timestamp (§6.2).
  void LookupBounds(Timestamp* lo, Timestamp* hi) const;
  void RecordMiss(MissKind kind);
  // Folds a response's membership epoch into our routing view; a change is a re-route event.
  void ObserveRingEpoch(uint64_t epoch);
  // Lazily begins the underlying database transaction, choosing the serialization timestamp
  // from the pin set per the §6.2 policy.
  Status EnsureDbTxn();
  PinInfo PinNewSnapshot();
  void PropagateToFrames(const Interval& validity, const std::vector<InvalidationTag>& tags);
  void EndTransactionCleanup();
  // Releases every intent this optimistic transaction acquired (no-op otherwise). Safe on any
  // path — commit, abort, destructor — and against crashed owners, whose intents were already
  // dropped wholesale (release answers kUnavailable, a vacuous success).
  void ReleaseRwIntents();
  // Sleeps (or invokes Options::rw_backoff_sleep with) the capped-exponential jittered delay
  // for retry round `attempt`.
  void RwBackoff(uint64_t attempt);

  Database* db_;
  Pincushion* pincushion_;
  CacheCluster* cache_;
  const Clock* clock_;
  Options options_;

  TxnState state_ = TxnState::kNone;
  WallClock staleness_ = 0;
  PinSet pin_set_;
  std::vector<PinInfo> acquired_pins_;  // released to the pincushion at transaction end
  std::optional<TxnId> db_txn_;
  std::optional<Timestamp> chosen_ts_;
  std::vector<Frame> frames_;

  // Optimistic read-write transaction state (kOptimisticRw only). The read set feeds
  // Database::CommitValidated; rw_intents_ remembers the (key, hash) pairs whose advisory
  // intents this transaction acquired, released on every exit path under rw_intent_token_
  // (the transaction id the intents were stamped with). rw_backoff_state_ is the SplitMix64
  // jitter stream, seeded once from Options::rw_backoff_seed.
  Timestamp rw_snapshot_ = kTimestampZero;
  std::vector<ReadValidationEntry> rw_read_set_;
  std::vector<std::pair<std::string, uint64_t>> rw_intents_;
  uint64_t rw_intent_token_ = 0;
  uint64_t rw_backoff_state_ = 0;

  AtomicClientStats stats_;
  std::atomic<uint64_t> ring_epoch_{0};  // newest membership epoch observed (0 = none yet)

  // Advisory hints per function, bucketed per responding node (AdvisoryHintsFor merges the
  // buckets; observations counts the responses that fed each one, weighting the merge by the
  // node's share of the function's traffic). Mutex-guarded because benchmarks/monitors may
  // read while the session runs; bounded like the server's profile maps so raw ad-hoc keys
  // cannot grow it without bound.
  struct NodeHintObservation {
    AdvisoryHints hints;
    uint64_t observations = 0;
  };
  static constexpr size_t kMaxHintFunctions = 1024;
  mutable std::mutex hints_mu_;
  std::unordered_map<std::string, std::unordered_map<std::string, NodeHintObservation>>
      observed_hints_;
};

}  // namespace txcache

#endif  // SRC_CORE_TXCACHE_CLIENT_H_
