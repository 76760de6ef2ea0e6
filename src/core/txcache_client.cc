#include "src/core/txcache_client.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "src/core/fill_cost.h"

namespace txcache {

TxCacheClient::TxCacheClient(Database* db, Pincushion* pincushion, CacheCluster* cache,
                             const Clock* clock, Options options)
    : db_(db), pincushion_(pincushion), cache_(cache), clock_(clock), options_(options) {
  rw_backoff_state_ = options_.rw_backoff_seed;
}

TxCacheClient::~TxCacheClient() {
  if (in_transaction()) {
    Abort();
  }
}

Status TxCacheClient::BeginRO(WallClock staleness) {
  if (in_transaction()) {
    return Status::FailedPrecondition("transaction already active");
  }
  state_ = TxnState::kReadOnly;
  staleness_ = staleness;
  chosen_ts_.reset();
  db_txn_.reset();
  frames_.clear();
  acquired_pins_.clear();
  if (options_.mode == ClientMode::kNoCache) {
    pin_set_.Reset({}, /*with_star=*/true);
  } else {
    // The pin set starts as every pinned snapshot within the staleness limit, plus * ("run in
    // the present") — §6.2.
    acquired_pins_ = pincushion_->AcquireFreshPins(staleness);
    pin_set_.Reset(acquired_pins_, /*with_star=*/true);
  }
  ++stats_.ro_txns;
  return Status::Ok();
}

Status TxCacheClient::BeginRW() {
  if (in_transaction()) {
    return Status::FailedPrecondition("transaction already active");
  }
  state_ = TxnState::kReadWrite;
  frames_.clear();
  // Read/write transactions run directly on the database, bypassing the cache (§2.2).
  db_txn_ = db_->BeginReadWrite();
  chosen_ts_.reset();
  ++stats_.rw_txns;
  return Status::Ok();
}

Status TxCacheClient::BeginRw() {
  if (in_transaction()) {
    return Status::FailedPrecondition("transaction already active");
  }
  state_ = TxnState::kOptimisticRw;
  frames_.clear();
  // track_reads: queries inside this transaction collect invalidation tags, which ReadInTx
  // and ExecuteQuery fold into the read set CommitRw validates.
  db_txn_ = db_->BeginReadWrite(/*track_reads=*/true);
  auto snap_or = db_->SnapshotOf(*db_txn_);
  rw_snapshot_ = snap_or.ok() ? snap_or.value() : db_->LatestCommitTs();
  rw_intent_token_ = *db_txn_;
  rw_read_set_.clear();
  rw_intents_.clear();
  chosen_ts_.reset();
  ++stats_.rw_txns;
  ++stats_.rw_optimistic_txns;
  return Status::Ok();
}

Result<TxCacheClient::CachedValue> TxCacheClient::ReadInTx(const std::string& key,
                                                           const std::string* function) {
  if (state_ != TxnState::kOptimisticRw) {
    return Status::FailedPrecondition("no optimistic read-write transaction");
  }
  LookupRequest req;
  req.key = key;
  req.key_hash = Fnv1a(key);  // hash-once, as on the read-only path
  // Bound to the transaction snapshot: only a version valid at exactly the snapshot can be
  // consistent with the reads the engine itself will serve this transaction.
  req.bounds_lo = rw_snapshot_;
  req.bounds_hi = rw_snapshot_;
  req.fresh_lo = rw_snapshot_;
  LookupResponse resp = cache_->Lookup(req);
  ObserveRingEpoch(resp.ring_epoch);
  ObserveHints(key, function, resp.served_by, resp.hints);
  if (resp.hit && resp.intent_owner != 0 && resp.intent_owner != rw_intent_token_) {
    // A foreign write intent covers this key: its holder is about to invalidate what we just
    // read, so a commit racing it is likely doomed. Abort early (advisory — the caller
    // retries with backoff); commit validation would catch the stale read regardless.
    ++stats_.rw_intent_conflicts;
    RecordMiss(MissKind::kConsistency);
    return Status::Conflict("cached read covered by a foreign write intent");
  }
  if (!resp.hit) {
    RecordMiss(resp.miss);
    return Status::NotFound("cache miss");
  }
  // Record the read for commit-time validation. The response's exclusive upper converts to
  // the last timestamp the value is known unchanged through: a still-valid hit reports the
  // shard's applied-invalidation position, a closed hit the truncation point (such a read
  // will fail a writer's validation — correctly, the value IS stale at any later commit —
  // while a write-free transaction, serializing at its snapshot, passes).
  ReadValidationEntry entry;
  entry.tags = resp.tags_ref();
  entry.valid_through = resp.interval.unbounded() ? rw_snapshot_ : resp.interval.upper - 1;
  if (!entry.tags.empty()) {
    rw_read_set_.push_back(std::move(entry));
  }
  ++stats_.cache_hits;
  stats_.saved_recompute_cost_us += resp.fill_cost_us;
  return std::move(resp.value);  // zero-copy alias, same contract as CacheLookup
}

Status TxCacheClient::WriteIntent(const std::string& key) {
  if (state_ != TxnState::kOptimisticRw) {
    return Status::FailedPrecondition("no optimistic read-write transaction");
  }
  IntentRequest req;
  req.key = key;
  req.key_hash = Fnv1a(key);
  req.txn_id = rw_intent_token_;
  IntentResponse resp = cache_->AcquireIntent(req);
  ObserveRingEpoch(resp.ring_epoch);
  if (resp.status.ok()) {
    rw_intents_.emplace_back(key, req.key_hash);
    ++stats_.rw_intents_acquired;
    return Status::Ok();
  }
  if (resp.status.code() == StatusCode::kConflict) {
    ++stats_.rw_intent_conflicts;
    return resp.status;  // early abort signal: another transaction got there first
  }
  // kUnavailable (down/joining/unroutable owner): the node serves no reads, so there is
  // nothing to protect — vacuous success, nothing to release later.
  return Status::Ok();
}

Result<Timestamp> TxCacheClient::CommitRw() {
  if (state_ != TxnState::kOptimisticRw) {
    return Status::FailedPrecondition("no optimistic read-write transaction");
  }
  auto info_or = db_->CommitValidated(*db_txn_, rw_read_set_);
  if (!info_or.ok()) {
    if (info_or.status().code() != StatusCode::kConflict) {
      // Validation conflicts abort in place inside CommitValidated; anything else (bad txn
      // id, engine error) still needs the explicit abort.
      db_->Abort(*db_txn_);
    }
    EndTransactionCleanup();  // releases the intents
    ++stats_.aborts;
    ++stats_.rw_aborts;
    return info_or.status();
  }
  const Timestamp ts = info_or.value().ts;
  EndTransactionCleanup();
  ++stats_.commits;
  ++stats_.rw_commits;
  return ts;
}

Result<Timestamp> TxCacheClient::RunRwTransaction(const std::function<Status()>& body) {
  for (uint64_t attempt = 0;; ++attempt) {
    Status begin = BeginRw();
    if (!begin.ok()) {
      return begin;
    }
    Status body_st = body();
    Status outcome;
    if (body_st.ok()) {
      auto ts_or = CommitRw();
      if (ts_or.ok()) {
        return ts_or;
      }
      outcome = ts_or.status();
    } else {
      Abort();
      outcome = body_st;
    }
    if (outcome.code() != StatusCode::kConflict || attempt + 1 >= options_.rw_max_retries) {
      return outcome;  // non-retryable failure, or the retry budget is spent
    }
    ++stats_.rw_retries;
    RwBackoff(attempt);
  }
}

void TxCacheClient::RwBackoff(uint64_t attempt) {
  // Capped exponential: attempt k targets base << k, clamped to the cap. Half the delay is
  // fixed, half jitter from a deterministic SplitMix64 stream — two clients seeded apart
  // desynchronize their retries, and a seeded test replays the exact delay sequence.
  const WallClock base = std::max<WallClock>(options_.rw_backoff_base, 1);
  const uint64_t shift = std::min<uint64_t>(attempt, 20);
  const WallClock target =
      std::min(options_.rw_backoff_cap, static_cast<WallClock>(base << shift));
  rw_backoff_state_ += 0x9e3779b97f4a7c15ull;  // SplitMix64 increment
  const WallClock half = std::max<WallClock>(target / 2, 1);
  const WallClock delay =
      half + static_cast<WallClock>(Mix64(rw_backoff_state_) % static_cast<uint64_t>(half + 1));
  if (options_.rw_backoff_sleep) {
    options_.rw_backoff_sleep(delay);
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(delay));
}

void TxCacheClient::ReleaseRwIntents() {
  for (const auto& [key, hash] : rw_intents_) {
    IntentRequest req;
    req.key = key;
    req.key_hash = hash;
    req.txn_id = rw_intent_token_;
    // kUnavailable is fine: a crashed/rejoined owner already dropped its intents wholesale.
    cache_->ReleaseIntent(req);
  }
  rw_intents_.clear();
}

Result<Timestamp> TxCacheClient::Commit() {
  if (!in_transaction()) {
    return Status::FailedPrecondition("no active transaction");
  }
  if (state_ == TxnState::kOptimisticRw) {
    // A generic Commit on an optimistic transaction must never skip read validation.
    return CommitRw();
  }
  Timestamp report;
  if (db_txn_.has_value()) {
    auto info_or = db_->Commit(*db_txn_);
    if (!info_or.ok()) {
      // Commit-time failure (e.g. serialization conflict): the transaction is gone.
      db_->Abort(*db_txn_);
      EndTransactionCleanup();
      ++stats_.aborts;
      return info_or.status();
    }
    report = info_or.value().ts;
    if (state_ == TxnState::kReadOnly) {
      // Report a serialization point from the FINAL pin set (Invariant 1 holds at every one of
      // its timestamps); the snapshot chosen for database queries is always still in it.
      report = pin_set_.has_pins() ? pin_set_.newest().ts
                                   : chosen_ts_.value_or(info_or.value().ts);
    }
  } else {
    // Never touched the database: served entirely from the cache (or empty). The transaction
    // is serializable at any pin-set timestamp; report the newest.
    report = pin_set_.has_pins() ? pin_set_.newest().ts : db_->LatestCommitTs();
  }
  EndTransactionCleanup();
  ++stats_.commits;
  return report;
}

Status TxCacheClient::Abort() {
  if (!in_transaction()) {
    return Status::FailedPrecondition("no active transaction");
  }
  if (db_txn_.has_value()) {
    db_->Abort(*db_txn_);
  }
  if (state_ == TxnState::kOptimisticRw) {
    // An optimistic round abandoned before commit (intent conflict, read conflict surfaced by
    // the body) is an rw abort just like a failed validation.
    ++stats_.rw_aborts;
  }
  EndTransactionCleanup();
  ++stats_.aborts;
  return Status::Ok();
}

void TxCacheClient::EndTransactionCleanup() {
  // Intents first (they are keyed by the still-live transaction id): EVERY exit path funnels
  // through here — commit, validation abort, explicit abort, destructor — so no intent can
  // outlive its transaction on this client.
  ReleaseRwIntents();
  rw_read_set_.clear();
  rw_snapshot_ = kTimestampZero;
  rw_intent_token_ = 0;
  if (!acquired_pins_.empty()) {
    pincushion_->Release(acquired_pins_);
    acquired_pins_.clear();
  }
  pin_set_.Reset({}, false);
  db_txn_.reset();
  chosen_ts_.reset();
  frames_.clear();
  state_ = TxnState::kNone;
}

PinInfo TxCacheClient::PinNewSnapshot() {
  PinnedSnapshot snap = db_->Pin();
  PinInfo pin{snap.ts, snap.wallclock};
  pincushion_->Register(pin);  // marks it in use once on our behalf
  acquired_pins_.push_back(pin);
  ++stats_.pins_created;
  return pin;
}

Status TxCacheClient::EnsurePinnedSnapshot() {
  if (pin_set_.has_pins()) {
    return Status::Ok();
  }
  // No sufficiently fresh pinned snapshot exists: pin the latest one (§5.4).
  pin_set_.AddPin(PinNewSnapshot());
  return Status::Ok();
}

Status TxCacheClient::EnsureDbTxn() {
  if (db_txn_.has_value()) {
    return Status::Ok();
  }
  assert(state_ == TxnState::kReadOnly);
  if (options_.mode == ClientMode::kNoCache) {
    auto txn_or = db_->BeginReadOnly();
    if (!txn_or.ok()) {
      return txn_or.status();
    }
    db_txn_ = txn_or.value();
    auto snap_or = db_->SnapshotOf(*db_txn_);
    chosen_ts_ = snap_or.ok() ? snap_or.value() : db_->LatestCommitTs();
    return Status::Ok();
  }
  // §6.2 policy: choose * (pin a brand-new snapshot) only when the freshest pin is older than
  // the threshold; otherwise run on the newest pinned snapshot. This bounds pinned-snapshot
  // churn on the database.
  Timestamp chosen;
  const bool stale_pins =
      !pin_set_.has_pins() ||
      clock_->Now() - pin_set_.newest().pinned_at > options_.new_pin_threshold;
  if (pin_set_.has_star() && stale_pins) {
    PinInfo pin = PinNewSnapshot();
    pin_set_.AddPin(pin);  // reify *: "the present" becomes a concrete timestamp
    chosen = pin.ts;
  } else if (pin_set_.has_pins()) {
    chosen = pin_set_.newest().ts;
  } else {
    return Status::Internal("pin set empty with no star");  // Invariant 2 violation
  }
  auto txn_or = db_->BeginReadOnly(chosen);
  if (!txn_or.ok()) {
    return txn_or.status();
  }
  db_txn_ = txn_or.value();
  chosen_ts_ = chosen;
  return Status::Ok();
}

void TxCacheClient::PropagateToFrames(const Interval& validity,
                                      const std::vector<InvalidationTag>& tags) {
  // Every cacheable function on the call stack depends on this observation (§6.3).
  for (Frame& frame : frames_) {
    frame.validity = frame.validity.Intersect(validity);
    frame.tags.insert(tags.begin(), tags.end());
  }
}

Result<QueryResult> TxCacheClient::ExecuteQuery(const Query& query) {
  return ExecuteQueryInternal(query, /*override_tags=*/nullptr);
}

Result<QueryResult> TxCacheClient::ExecuteQueryTagged(const Query& query,
                                                      const std::vector<InvalidationTag>& tags) {
  return ExecuteQueryInternal(query, &tags);
}

Result<QueryResult> TxCacheClient::ExecuteQueryInternal(
    const Query& query, const std::vector<InvalidationTag>* override_tags) {
  if (!in_transaction()) {
    return Status::FailedPrecondition("no active transaction");
  }
  if (state_ == TxnState::kReadWrite || state_ == TxnState::kOptimisticRw) {
    ++stats_.db_queries;
    auto rw_result = db_->Execute(*db_txn_, query);
    if (rw_result.ok()) {
      stats_.db_tuples_examined += rw_result.value().stats.tuples_examined;
      stats_.db_index_probes += rw_result.value().stats.index_probes;
      if (state_ == TxnState::kOptimisticRw && !rw_result.value().tags.empty()) {
        // Optimistic transactions validate their engine reads too: the db vouches for the
        // result through the transaction snapshot (the engine tag-tracked the query under
        // track_reads; validity intervals stay unbounded because the snapshot sees our own
        // uncommitted writes). With override_tags (statically derived, a superset of the
        // engine's), validation keys off the broader set — strictly more conflict-prone,
        // never less safe.
        ReadValidationEntry entry;
        entry.tags = override_tags != nullptr ? *override_tags : rw_result.value().tags;
        entry.valid_through = rw_snapshot_;
        rw_read_set_.push_back(std::move(entry));
      }
    }
    return rw_result;
  }
  Status st = EnsureDbTxn();
  if (!st.ok()) {
    return st;
  }
  auto result_or = db_->Execute(*db_txn_, query);
  ++stats_.db_queries;
  if (!result_or.ok()) {
    return result_or;
  }
  const QueryResult& result = result_or.value();
  stats_.db_tuples_examined += result.stats.tuples_examined;
  stats_.db_index_probes += result.stats.index_probes;
  if (options_.mode != ClientMode::kNoCache) {
    if (options_.mode == ClientMode::kConsistent) {
      // The result's validity interval contains the chosen snapshot, so narrowing cannot empty
      // the pin set (Invariant 2); it also drops * (§6.2).
      bool ok = pin_set_.NarrowTo(result.validity);
      assert(ok && "query validity must contain the chosen snapshot");
      (void)ok;
    } else {
      pin_set_.DropStar();
    }
    PropagateToFrames(result.validity,
                      override_tags != nullptr ? *override_tags : result.tags);
  }
  return result_or;
}

Status TxCacheClient::Insert(const std::string& table, Row row) {
  if (state_ != TxnState::kReadWrite && state_ != TxnState::kOptimisticRw) {
    return Status::FailedPrecondition("writes require a read/write transaction");
  }
  ++stats_.db_writes;
  return db_->Insert(*db_txn_, table, std::move(row));
}

Result<size_t> TxCacheClient::Update(const std::string& table, const AccessPath& path,
                                     const PredicatePtr& where,
                                     const std::vector<std::pair<ColumnId, Value>>& sets) {
  if (state_ != TxnState::kReadWrite && state_ != TxnState::kOptimisticRw) {
    return Status::FailedPrecondition("writes require a read/write transaction");
  }
  ++stats_.db_writes;
  return db_->Update(*db_txn_, table, path, where, sets);
}

Result<size_t> TxCacheClient::Delete(const std::string& table, const AccessPath& path,
                                     const PredicatePtr& where) {
  if (state_ != TxnState::kReadWrite && state_ != TxnState::kOptimisticRw) {
    return Status::FailedPrecondition("writes require a read/write transaction");
  }
  ++stats_.db_writes;
  return db_->Delete(*db_txn_, table, path, where);
}

void TxCacheClient::LookupBounds(Timestamp* lo, Timestamp* hi) const {
  if (chosen_ts_.has_value() && options_.mode == ClientMode::kConsistent) {
    // The serialization timestamp is already fixed (a database query ran at it). Invariant 2's
    // proof (§6.2.1) relies on the chosen timestamp remaining in the pin set — a later query
    // executes at that snapshot and narrows the pin set to its validity interval — so a cached
    // value is only usable if it was valid at exactly that timestamp.
    *lo = *chosen_ts_;
    *hi = *chosen_ts_;
  } else {
    *lo = pin_set_.BoundsLo();
    *hi = pin_set_.BoundsHi();
  }
}

void TxCacheClient::RecordMiss(MissKind kind) {
  ++stats_.cache_misses;
  switch (kind) {
    case MissKind::kCompulsory:
      ++stats_.miss_compulsory;
      break;
    case MissKind::kStaleness:
      ++stats_.miss_staleness;
      break;
    case MissKind::kCapacity:
      ++stats_.miss_capacity;
      break;
    case MissKind::kConsistency:
      ++stats_.miss_consistency;
      break;
    case MissKind::kNodeUnavailable:
      ++stats_.miss_node_unavailable;
      break;
    case MissKind::kNone:
      break;
  }
}

void TxCacheClient::ObserveHints(const std::string& key, const std::string* function,
                                 const std::string& served_by,
                                 const std::shared_ptr<const AdvisoryHints>& hints) {
  if (hints == nullptr) {
    return;
  }
  // The function name is the hint bucket. CacheableFunction passes its own name down, so
  // the hot path never re-parses the key; raw callers fall back to the MakeCacheKey prefix,
  // exactly as the server's cost accounting does — either way hints line up 1:1 with
  // MAKE-CACHEABLE names. Within a function, observations are kept per responding node
  // (served_by; direct unrouted responses share the "" bucket): each node publishes its OWN
  // learned state, and overwriting one node's observation with another's — the old behavior
  // — made the merged view whatever node happened to answer last.
  std::string parsed;
  if (function == nullptr) {
    parsed = CacheKeyFunction(key);
    function = &parsed;
  }
  std::lock_guard<std::mutex> lock(hints_mu_);
  auto it = observed_hints_.find(*function);
  if (it == observed_hints_.end()) {
    if (observed_hints_.size() >= kMaxHintFunctions) {
      return;
    }
    it = observed_hints_.emplace(*function,
                                 std::unordered_map<std::string, NodeHintObservation>{})
             .first;
  }
  NodeHintObservation& obs = it->second[served_by];
  obs.hints = *hints;
  ++obs.observations;
}

std::optional<AdvisoryHints> TxCacheClient::AdvisoryHintsFor(const std::string& function) const {
  std::lock_guard<std::mutex> lock(hints_mu_);
  auto it = observed_hints_.find(function);
  if (it == observed_hints_.end() || it->second.empty()) {
    return std::nullopt;
  }
  // Merge the per-node observations into one fleet view. decline_rate takes the max: one
  // node refusing this function's fills is already actionable (that node owns a share of the
  // key space, and fills routed there are wasted work). The learned lifetime and
  // benefit-per-byte are averaged weighted by each node's observation count — a node that
  // served most of the function's traffic taught us most of what we know — skipping nodes
  // that have not learned a value yet (zero means "no estimate", not "short").
  AdvisoryHints merged;
  uint64_t lifetime_weight = 0;
  double lifetime_sum = 0.0;
  double bpb_weight = 0.0;
  double bpb_sum = 0.0;
  for (const auto& [node, obs] : it->second) {
    merged.decline_rate = std::max(merged.decline_rate, obs.hints.decline_rate);
    if (obs.hints.learned_lifetime_us > 0) {
      lifetime_weight += obs.observations;
      lifetime_sum += static_cast<double>(obs.hints.learned_lifetime_us) *
                      static_cast<double>(obs.observations);
    }
    if (obs.hints.observed_bpb > 0.0) {
      bpb_weight += static_cast<double>(obs.observations);
      bpb_sum += obs.hints.observed_bpb * static_cast<double>(obs.observations);
    }
  }
  if (lifetime_weight > 0) {
    merged.learned_lifetime_us =
        static_cast<uint64_t>(lifetime_sum / static_cast<double>(lifetime_weight));
  }
  if (bpb_weight > 0.0) {
    merged.observed_bpb = bpb_sum / bpb_weight;
  }
  return merged;
}

void TxCacheClient::ObserveRingEpoch(uint64_t epoch) {
  if (epoch == 0) {
    return;  // response was not routed through the cluster
  }
  const uint64_t prev = ring_epoch_.exchange(epoch, std::memory_order_relaxed);
  if (prev != 0 && prev != epoch) {
    // Membership moved under us: the next keys may route to different nodes. In-process the
    // refresh is implicit (routing always reads the live ring); the counter records that the
    // client re-routed instead of erroring.
    ++stats_.ring_epoch_changes;
  }
}

Result<TxCacheClient::CachedValue> TxCacheClient::CacheLookup(const std::string& key,
                                                              const std::string* function) {
  assert(ShouldUseCache());
  Status st = EnsurePinnedSnapshot();
  if (!st.ok()) {
    return st;
  }
  LookupRequest req;
  req.key = key;
  // Hash-once: computed here, reused by ring routing, shard selection and the shard's map
  // probe — no layer below rehashes the key.
  req.key_hash = Fnv1a(key);
  LookupBounds(&req.bounds_lo, &req.bounds_hi);
  req.fresh_lo = pin_set_.BoundsLo();
  // Routed through the cluster: a down/departed owner degrades to a miss (recompute), never
  // an error (§4 failure model), and the response's epoch refreshes our routing view.
  LookupResponse resp = cache_->Lookup(req);
  ObserveRingEpoch(resp.ring_epoch);
  ObserveHints(key, function, resp.served_by, resp.hints);
  if (!resp.hit) {
    RecordMiss(resp.miss);
    return Status::NotFound("cache miss");
  }
  if (options_.mode == ClientMode::kConsistent) {
    // Exact narrowing against the actual pin set (the server only checked bounds). An empty
    // intersection means using this value could break serializability: treat it as a miss.
    if (!pin_set_.NarrowTo(resp.interval)) {
      ++stats_.pin_set_rejects;
      RecordMiss(MissKind::kConsistency);
      return Status::NotFound("cache hit rejected by pin set");
    }
  }
  PropagateToFrames(resp.interval, resp.tags_ref());
  ++stats_.cache_hits;
  stats_.saved_recompute_cost_us += resp.fill_cost_us;
  return std::move(resp.value);  // zero-copy: hand the resident-buffer alias to the caller
}

std::vector<Result<TxCacheClient::CachedValue>> TxCacheClient::CacheMultiLookup(
    const std::vector<std::string>& keys, const std::string* function) {
  assert(ShouldUseCache());
  std::vector<Result<CachedValue>> out;
  out.reserve(keys.size());
  Status st = EnsurePinnedSnapshot();
  if (!st.ok()) {
    out.assign(keys.size(), Result<CachedValue>(st));
    return out;
  }
  MultiLookupRequest req;
  req.lookups.resize(keys.size());
  // Every entry probes with the bounds the pin set has *now*; the authoritative per-hit
  // narrowing below handles the entries whose server-side check went stale mid-batch.
  Timestamp lo, hi;
  LookupBounds(&lo, &hi);
  for (size_t i = 0; i < keys.size(); ++i) {
    req.lookups[i].key = keys[i];
    req.lookups[i].key_hash = Fnv1a(keys[i]);  // hash-once for the whole batch pipeline
    req.lookups[i].bounds_lo = lo;
    req.lookups[i].bounds_hi = hi;
    req.lookups[i].fresh_lo = pin_set_.BoundsLo();
  }
  ++stats_.multi_lookup_batches;
  stats_.multi_lookup_keys += keys.size();
  auto resp_or = cache_->MultiLookup(req);
  if (!resp_or.ok()) {
    // Whole-fleet outage (empty ring): every position degrades to a miss and the caller
    // recomputes — churn never fails a batch.
    for (size_t i = 0; i < keys.size(); ++i) {
      RecordMiss(MissKind::kNodeUnavailable);
      out.push_back(Result<CachedValue>(Status::NotFound("cache unavailable")));
    }
    return out;
  }
  ObserveRingEpoch(resp_or.value().ring_epoch);
  // Thread the pin-set intersection through the batch in request order: each accepted hit
  // narrows the pin set, and later hits must intersect the already-narrowed set — exactly the
  // serializability rule sequential lookups enforce (§6.2).
  for (size_t i = 0; i < resp_or.value().responses.size(); ++i) {
    LookupResponse& resp = resp_or.value().responses[i];
    ObserveHints(keys[i], function, resp.served_by, resp.hints);
    if (!resp.hit) {
      RecordMiss(resp.miss);
      out.push_back(Result<CachedValue>(Status::NotFound("cache miss")));
      continue;
    }
    if (options_.mode == ClientMode::kConsistent && !pin_set_.NarrowTo(resp.interval)) {
      ++stats_.pin_set_rejects;
      RecordMiss(MissKind::kConsistency);
      out.push_back(Result<CachedValue>(Status::NotFound("cache hit rejected by pin set")));
      continue;
    }
    PropagateToFrames(resp.interval, resp.tags_ref());
    ++stats_.cache_hits;
    stats_.saved_recompute_cost_us += resp.fill_cost_us;
    out.push_back(Result<CachedValue>(std::move(resp.value)));
  }
  return out;
}

void TxCacheClient::FrameBegin() {
  Frame frame;
  frame.started_wall = clock_->Now();
  frame.start_db_queries = stats_.db_queries.load(std::memory_order_relaxed);
  frame.start_db_tuples = stats_.db_tuples_examined.load(std::memory_order_relaxed);
  frame.start_db_probes = stats_.db_index_probes.load(std::memory_order_relaxed);
  frames_.push_back(std::move(frame));
}

FrameOutcome TxCacheClient::FrameEnd() {
  assert(!frames_.empty());
  Frame frame = std::move(frames_.back());
  frames_.pop_back();
  FrameOutcome outcome;
  outcome.validity = frame.validity;
  outcome.tags.assign(frame.tags.begin(), frame.tags.end());
  // Fill-cost meter: wall-clock elapsed plus weighted database work performed inside the
  // frame. A nested frame's work is deliberately included in its parent — recomputing the
  // parent really does redo the child's work (or re-fetch it, which the weights approximate).
  const WallClock elapsed = clock_->Now() - frame.started_wall;
  const uint64_t dq = stats_.db_queries.load(std::memory_order_relaxed) - frame.start_db_queries;
  const uint64_t dt =
      stats_.db_tuples_examined.load(std::memory_order_relaxed) - frame.start_db_tuples;
  const uint64_t dp =
      stats_.db_index_probes.load(std::memory_order_relaxed) - frame.start_db_probes;
  outcome.fill_cost_us =
      static_cast<uint64_t>(std::max<WallClock>(elapsed, 0)) +
      dq * static_cast<uint64_t>(kFillCostPerQuery) +
      dt * static_cast<uint64_t>(kFillCostPerTuple) +
      dp * static_cast<uint64_t>(kFillCostPerProbe);
  if (chosen_ts_.has_value()) {
    outcome.computed_at = *chosen_ts_;
  } else if (pin_set_.has_pins()) {
    // The pin set always lies within every frame's validity interval (§6.2), so the newest pin
    // is a timestamp the database implicitly vouched for.
    outcome.computed_at = pin_set_.newest().ts;
  } else {
    outcome.computed_at = outcome.validity.lower;
  }
  return outcome;
}

void TxCacheClient::FrameAbandon() {
  assert(!frames_.empty());
  frames_.pop_back();
}

void TxCacheClient::CacheStore(const std::string& key, std::string value,
                               const FrameOutcome& outcome, const std::string* function) {
  // Every stored-or-not fill was a recompute this client actually paid for.
  stats_.recompute_cost_us += outcome.fill_cost_us;
  if (outcome.validity.empty()) {
    // Possible under kNoConsistency, where observations are not forced to stay consistent.
    ++stats_.inserts_skipped;
    return;
  }
  InsertRequest req;
  req.key = key;
  req.key_hash = Fnv1a(key);  // hash-once: ring routing and shard probe reuse it
  req.value = std::move(value);
  req.interval = outcome.validity;
  req.computed_at = outcome.computed_at;
  req.tags = outcome.tags;
  req.fill_cost_us = outcome.fill_cost_us;
  InsertResponse resp = cache_->Insert(req);
  ObserveRingEpoch(resp.ring_epoch);
  ObserveHints(key, function, resp.served_by, resp.hints);
  if (resp.status.ok()) {
    ++stats_.cache_inserts;
  } else if (resp.status.code() == StatusCode::kDeclined) {
    // The admission gate judged this function not worth its bytes right now; the recompute
    // already happened, only the store was refused.
    ++stats_.inserts_declined;
  } else if (resp.status.code() == StatusCode::kDeclinedTooLarge) {
    // Size-aware refusal: the value is too big for its shard slice or lost the displacement
    // comparison. Counted separately so call sites (and their hints) can adapt fill sizing.
    // Nothing is retried — the caller already has its computed result.
    ++stats_.inserts_declined_too_large;
  } else if (resp.status.code() == StatusCode::kUnavailable) {
    // The owning node is down/joining or the key was unroutable: the fill simply is not
    // cached this time (churn is a hit-rate event, not an error).
    ++stats_.inserts_unavailable;
  }
}

}  // namespace txcache
