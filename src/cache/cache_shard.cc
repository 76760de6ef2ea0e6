#include "src/cache/cache_shard.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <iterator>
#include <thread>

namespace txcache {

namespace {

// Fixed per-version bookkeeping overhead charged against the byte budget.
constexpr size_t kVersionOverhead = 96;

size_t TagBytes(const std::vector<InvalidationTag>& tags) {
  size_t n = 0;
  for (const InvalidationTag& t : tags) {
    n += t.table.size() + t.index.size() + t.key.size() + 8;
  }
  return n;
}

// Stable per-thread stripe seed; each thread maps to one touch-buffer / stats stripe via
// seed % stripe_count, so concurrent hitters spread over stripes without coordination.
uint32_t ThreadStripeSeed() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t seed = next.fetch_add(1, std::memory_order_relaxed);
  return seed;
}

size_t DefaultStripes(const CacheOptions& options) {
  if (options.touch_buffer_stripes > 0) {
    return options.touch_buffer_stripes;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc < 1 ? 1 : (hc > 16 ? 16 : hc);
}

// Node-global LRU ticks, handed out in thread-local batches so a hit touches the shared
// ticker once per kTickBatch allocations instead of once per hit. Ticks stay strictly
// monotone per (thread, ticker) — which is exactly what the single-threaded LRU model tests
// require — while cross-thread ordering is approximate within a batch, matching the already
// best-effort cross-shard eviction comparisons. The small cache is keyed by ticker address
// (one node = one ticker); rotation evicts the least recently added entry.
uint64_t NextTick(std::atomic<uint64_t>* ticker) {
  constexpr uint64_t kTickBatch = 64;
  struct Entry {
    std::atomic<uint64_t>* ticker = nullptr;
    uint64_t next = 0;
    uint64_t end = 0;
  };
  thread_local Entry entries[4];
  thread_local uint32_t victim = 0;
  for (Entry& e : entries) {
    if (e.ticker == ticker) {
      // A ticker that carved out this batch is always >= the batch end; a smaller value
      // means the address was reused by a fresh ticker (new server at a recycled address)
      // and the cached batch is stale.
      if (e.next == e.end || ticker->load(std::memory_order_relaxed) < e.end) {
        e.next = ticker->fetch_add(kTickBatch, std::memory_order_relaxed);
        e.end = e.next + kTickBatch;
      }
      return e.next++;
    }
  }
  Entry& e = entries[victim++ % 4];
  e.ticker = ticker;
  e.next = ticker->fetch_add(kTickBatch, std::memory_order_relaxed);
  e.end = e.next + kTickBatch;
  return e.next++;
}

}  // namespace

CacheShard::CacheShard(const Clock* clock, const CacheOptions& options,
                       std::atomic<size_t>* global_bytes, std::atomic<uint64_t>* touch_ticker,
                       std::atomic<double>* aging_floor, FunctionTable* functions,
                       const InvalidationHistory* history)
    : clock_(clock),
      options_(options),
      global_bytes_(global_bytes),
      touch_ticker_(touch_ticker),
      aging_floor_(aging_floor),
      functions_(functions),
      history_(history),
      domain_(&EbrDomain::Global()),
      table_(domain_),
      stripe_count_(DefaultStripes(options)),
      touch_buffer_(stripe_count_, options.touch_buffer_capacity),
      lookup_stats_(std::make_unique<LookupStatsStripe[]>(stripe_count_)) {}

CacheShard::~CacheShard() {
  Flush();
  // Best-effort reclaim of everything just retired (and anything older): with no readers
  // active this empties the domain's lists, so sanitized test runs exit with nothing held
  // back. Leftovers (a live reader elsewhere) are freed by the domain at process teardown.
  domain_->Synchronize();
}

size_t CacheShard::EstimateBytes(const InsertRequest& req) {
  return kVersionOverhead + req.key.size() + req.value.size() + TagBytes(req.tags);
}

size_t CacheShard::StripeIndex() const { return ThreadStripeSeed() % stripe_count_; }

void CacheShard::AddToScoreIndexLocked(Version* v) {
  // GreedyDual-Size score: the node's aging floor (score of the most valuable entry evicted so
  // far) plus this entry's benefit-per-byte. Refreshed to the current floor when a hit batch
  // drains, so entries that stop earning hits sink back toward the floor and get evicted.
  const double bpb =
      v->bytes == 0 ? 0.0 : static_cast<double>(v->fill_cost_us) / static_cast<double>(v->bytes);
  v->score = aging_floor_->load(std::memory_order_relaxed) + bpb;
  v->score_it = score_index_.emplace(v->score, v);
  v->in_score_index = true;
}

void CacheShard::AddToStaleListLocked(Version* v) {
  v->stale_seq = NextTick(touch_ticker_);
  stale_lru_.push_back(v);
  v->stale_it = std::prev(stale_lru_.end());
  v->in_stale_list = true;
}

void CacheShard::DetachPolicyStateLocked(Version* v) {
  if (v->in_score_index) {
    score_index_.erase(v->score_it);
    v->in_score_index = false;
  }
  if (v->in_stale_list) {
    stale_lru_.erase(v->stale_it);
    v->in_stale_list = false;
  }
}

void CacheShard::AttributeHitsLocked(Version* v) {
  if (!cost_aware() || v->fn_id == 0) {
    return;
  }
  const uint64_t total = v->hit_count.load(std::memory_order_relaxed);
  if (total == v->attributed_hits) {
    return;
  }
  // Per-function hit attribution into a dense vector indexed by the function id (bounded by
  // the function table's cap).
  if (v->fn_id >= fn_hits_.size()) {
    fn_hits_.resize(v->fn_id + 1, 0);
  }
  fn_hits_[v->fn_id] += total - v->attributed_hits;
  v->attributed_hits = total;
}

void CacheShard::DrainTouchesLocked() {
  const bool overflowed = touch_overflow_.exchange(false, std::memory_order_relaxed);
  drain_scratch_.clear();
  for (size_t s = 0; s < touch_buffer_.stripe_count(); ++s) {
    const size_t n = touch_buffer_.pending(s);
    for (size_t i = 0; i < n; ++i) {
      Version* v = touch_buffer_.slot(s, i);
      // Readers are not quiesced against this drain: a slot may hold null (claimed but not
      // yet written), a pointer a previous exclusive section removed, or a stale value from
      // an earlier round (Reset raced a straggler). The live-set check makes all of those
      // inert; a stale-but-live pointer just re-touches at the version's own current tick.
      if (v != nullptr && live_.count(v) != 0) {
        drain_scratch_.emplace_back(0, v);
      }
    }
  }
  touch_buffer_.Reset();
  if (drain_scratch_.empty() && !overflowed) {
    return;
  }
  // Unique versions, oldest tick first: splicing to the front in ascending-tick order leaves
  // lru_ fully sorted by last touch among the drained set. Lock-free hitters keep storing
  // ticks while we sort, so each version's tick is snapshotted once and the sort compares the
  // snapshots: a comparator re-reading the live atomics can see an inconsistent order, which
  // std::sort's unguarded insertion pass turns into reads outside the buffer. The dedup runs
  // while every snapshot slot is still 0, so it orders and compares by version alone.
  std::sort(drain_scratch_.begin(), drain_scratch_.end());
  drain_scratch_.erase(std::unique(drain_scratch_.begin(), drain_scratch_.end()),
                       drain_scratch_.end());
  for (TickedVersion& tv : drain_scratch_) {
    tv.first = tv.second->touch_tick.load(std::memory_order_relaxed);
  }
  std::sort(drain_scratch_.begin(), drain_scratch_.end());
  for (const TickedVersion& tv : drain_scratch_) {
    Version* v = tv.second;
    lru_.erase(v->lru_it);
    lru_.push_front(v);
    v->lru_it = lru_.begin();
    if (v->in_score_index) {
      // One refresh per hit batch instead of one per hit; the resulting score (current floor
      // + benefit-per-byte) is identical either way.
      score_index_.erase(v->score_it);
      AddToScoreIndexLocked(v);
    }
    AttributeHitsLocked(v);
  }
  if (overflowed) {
    // Some touches never made it into the buffers; their recency lives only in the
    // per-version ticks. Re-sort the whole list, newest first, so LRU monotonicity (never
    // evict a more recently touched version while a less recently touched one stays
    // resident) survives the overflow. The ticks are snapshotted for the same reason as
    // above; splicing each node to the back relinks it, so every Version::lru_it stays valid.
    drain_scratch_.clear();
    for (Version* v : lru_) {
      drain_scratch_.emplace_back(v->touch_tick.load(std::memory_order_relaxed), v);
    }
    std::sort(drain_scratch_.begin(), drain_scratch_.end(), std::greater<>());
    for (const TickedVersion& tv : drain_scratch_) {
      lru_.splice(lru_.end(), lru_, tv.second->lru_it);
    }
    if (cost_aware()) {
      // Dropped records also skipped their per-function attribution; the hit_count deltas
      // still know about those hits, so a full fold keeps the profiles lossless.
      for (Version* v : lru_) {
        AttributeHitsLocked(v);
      }
    }
  }
  drain_scratch_.clear();
}

EvictedVersion CacheShard::MakeEvictedLocked(const Version& v) const {
  EvictedVersion out;
  out.bytes = v.bytes;
  out.fill_cost_us = v.fill_cost_us;
  out.hits = v.hit_count.load(std::memory_order_relaxed);
  out.fn_id = v.fn_id;
  return out;
}

Timestamp CacheShard::EffectiveUpper(const Version& v, Timestamp last_ts) {
  if (!v.still_valid.load(std::memory_order_acquire)) {
    // The acquire above pairs with truncation's release store of still_valid, making the
    // final upper visible.
    return v.upper.load(std::memory_order_relaxed);
  }
  // A still-valid entry is known valid through the later of (a) the snapshot it was computed
  // from (the database vouches for it) and (b) the last invalidation this caller observed
  // applied (the stream would have truncated it otherwise). +1 converts an inclusive
  // timestamp to the exclusive upper bound.
  return std::max(v.known_valid_through, last_ts) + 1;
}

LookupResponse CacheShard::Lookup(const LookupRequest& req, uint64_t key_hash) {
  if (options_.read_path == ReadPath::kExclusiveCopy) {
    std::unique_lock<InstrumentedSharedMutex> lock(mu_);
    return LookupExclusive(req, key_hash);
  }
  EbrDomain::Guard guard(domain_);
  return LookupRead(req, key_hash);
}

void CacheShard::LookupBatch(const MultiLookupRequest& req, const std::vector<uint32_t>& indices,
                             MultiLookupResponse* out) {
  if (options_.read_path == ReadPath::kExclusiveCopy) {
    std::unique_lock<InstrumentedSharedMutex> lock(mu_);
    for (uint32_t i : indices) {
      out->responses[i] = LookupExclusive(req.lookups[i], RequestKeyHash(req.lookups[i]));
    }
    return;
  }
  EbrDomain::Guard guard(domain_);
  for (uint32_t i : indices) {
    out->responses[i] = LookupRead(req.lookups[i], RequestKeyHash(req.lookups[i]));
  }
}

CacheShard::Version* CacheShard::MatchVersions(const LookupRequest& req, uint64_t key_hash,
                                               Timestamp last_ts, LookupResponse* resp) const {
  const KeySlot* slot = table_.Find(key_hash, req.key);
  if (slot == nullptr) {
    resp->miss = MissKind::kCompulsory;
    return nullptr;
  }
  const VersionArray* arr = slot->versions.load(std::memory_order_acquire);

  const Interval want{req.bounds_lo,
                      req.bounds_hi == kTimestampInfinity ? kTimestampInfinity
                                                          : req.bounds_hi + 1};
  const Interval fresh_want{req.fresh_lo, std::max(req.fresh_lo, last_ts) + 1};
  Version* best = nullptr;
  Interval best_effective;
  bool any_fresh = false;  // some version intersects [fresh_lo, last_inval]: staleness is fine
  if (arr != nullptr) {
    for (Version* v : arr->items) {
      const Interval effective{v->lower, EffectiveUpper(*v, last_ts)};
      if (effective.Overlaps(fresh_want)) {
        any_fresh = true;
      }
      if (!effective.Overlaps(want)) {
        continue;
      }
      if (best == nullptr || effective.lower > best_effective.lower) {
        best = v;
        best_effective = effective;
      }
    }
  }
  if (best != nullptr) {
    resp->interval = best_effective;
    return best;
  }
  if (any_fresh) {
    // Something fresh enough existed, just not consistent with the caller's pin set.
    resp->miss = MissKind::kConsistency;
  } else if (arr == nullptr || arr->items.empty()) {
    resp->miss = MissKind::kCapacity;
  } else {
    resp->miss = MissKind::kStaleness;
  }
  return nullptr;
}

void CacheShard::CountMiss(MissKind kind, LookupStatsStripe* st) {
  switch (kind) {
    case MissKind::kCompulsory:
      st->miss_compulsory.fetch_add(1, std::memory_order_relaxed);
      break;
    case MissKind::kConsistency:
      st->miss_consistency.fetch_add(1, std::memory_order_relaxed);
      break;
    case MissKind::kCapacity:
      st->miss_capacity.fetch_add(1, std::memory_order_relaxed);
      break;
    case MissKind::kStaleness:
      st->miss_staleness.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
}

LookupResponse CacheShard::LookupRead(const LookupRequest& req, uint64_t key_hash) {
  // Caller holds an EBR guard; nothing reachable below can be freed under us. The
  // last-invalidation snapshot is taken ONCE, before any version state is read: a racing
  // truncation can only leave us with an equal-or-older snapshot, so a still-valid
  // observation yields an upper bound no wider than the truncating message's timestamp.
  LookupStatsStripe& st = lookup_stats_[StripeIndex()];
  st.lookups.fetch_add(1, std::memory_order_relaxed);
  LookupResponse resp;
  const Timestamp last_ts = last_invalidation_ts_.load(std::memory_order_acquire);
  Version* best = MatchVersions(req, key_hash, last_ts, &resp);
  if (best == nullptr) {
    CountMiss(resp.miss, &st);
    return resp;
  }
  st.hits.fetch_add(1, std::memory_order_relaxed);
  // Deferred touch: recency is published immediately through the atomic tick; the LRU splice,
  // score refresh and per-function attribution are queued for the next exclusive drain. When
  // the stripe is full the tick alone carries the recency and the drain repairs the order.
  best->touch_tick.store(NextTick(touch_ticker_), std::memory_order_relaxed);
  best->hit_count.fetch_add(1, std::memory_order_relaxed);
  if (!touch_buffer_.Record(best, ThreadStripeSeed())) {
    touch_overflow_.store(true, std::memory_order_relaxed);
  }
  // Hot-key sampling for replication: every Nth hit lands in the stripe's space-saving
  // sketch; the other N-1 pay exactly one relaxed counter bump.
  if (options_.hot_key_sample_interval != 0 &&
      st.sample_ticker.fetch_add(1, std::memory_order_relaxed) %
              options_.hot_key_sample_interval ==
          0) {
    RecordHotSample(st, key_hash);
  }
  resp.hit = true;
  // One control block for value + tags + hints: the aliases below share the resident block's
  // refcount, so a hit bumps a single count instead of three. Copying `block` is safe under
  // the guard — the version (and with it this shared_ptr instance) is destroyed only through
  // EBR retire, never while a reader pins it.
  const std::shared_ptr<const ResidentBlock>& block = best->block;
  resp.value = std::shared_ptr<const std::string>(block, &block->value);
  if (block->has_hints) {
    resp.hints = std::shared_ptr<const AdvisoryHints>(block, &block->hints);
  }
  resp.fill_cost_us = best->fill_cost_us;
  resp.intent_owner = best->intent_owner.load(std::memory_order_relaxed);
  const bool sv = best->still_valid.load(std::memory_order_acquire);
  resp.still_valid = sv;
  if (sv) {
    resp.tags = std::shared_ptr<const std::vector<InvalidationTag>>(block, &block->tags);
  }
  return resp;
}

void CacheShard::RecordHotSample(LookupStatsStripe& st, uint64_t key_hash) {
  // Space-saving over a fixed slot array: a tracked hash increments its counter; an untracked
  // one claims an empty slot, else displaces the minimum-count slot inheriting its count + 1
  // (the classic overestimate bound). Races between samplers can lose or double an update —
  // the sketch only steers which keys get replicated, so approximate is fine.
  size_t min_i = 0;
  uint32_t min_count = UINT32_MAX;
  for (size_t i = 0; i < kHotSlotsPerStripe; ++i) {
    HotSample& slot = st.hot[i];
    const uint64_t h = slot.hash.load(std::memory_order_relaxed);
    if (h == key_hash) {
      slot.count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (h == 0) {
      slot.hash.store(key_hash, std::memory_order_relaxed);
      slot.count.store(1, std::memory_order_relaxed);
      return;
    }
    const uint32_t c = slot.count.load(std::memory_order_relaxed);
    if (c < min_count) {
      min_count = c;
      min_i = i;
    }
  }
  st.hot[min_i].hash.store(key_hash, std::memory_order_relaxed);
  st.hot[min_i].count.store(min_count + 1, std::memory_order_relaxed);
}

std::unordered_map<uint64_t, uint64_t> CacheShard::HarvestHotHashes() {
  std::unordered_map<uint64_t, uint64_t> out;
  for (size_t s = 0; s < stripe_count_; ++s) {
    LookupStatsStripe& st = lookup_stats_[s];
    for (size_t i = 0; i < kHotSlotsPerStripe; ++i) {
      const uint64_t h = st.hot[i].hash.load(std::memory_order_relaxed);
      const uint32_t c = st.hot[i].count.exchange(0, std::memory_order_relaxed);
      // Clear the slot so the next harvest window starts fresh (sliding-window decay: a key
      // that cooled off stops being harvested instead of coasting on stale counts).
      st.hot[i].hash.store(0, std::memory_order_relaxed);
      if (h != 0 && c != 0) {
        out[h] += c;
      }
    }
  }
  return out;
}

std::vector<InsertRequest> CacheShard::ExportForReplication(
    const std::vector<uint64_t>& hashes) const {
  std::shared_lock<InstrumentedSharedMutex> lock(mu_);
  std::vector<InsertRequest> out;
  if (hashes.empty()) {
    return out;
  }
  const Timestamp last_ts = last_invalidation_ts_.load(std::memory_order_relaxed);
  table_.ForEach([&](KeySlot* slot) {
    bool wanted = false;
    for (uint64_t h : hashes) {
      if (h == slot->hash) {
        wanted = true;
        break;
      }
    }
    if (!wanted) {
      return;
    }
    const VersionArray* arr = slot->versions.load(std::memory_order_relaxed);
    if (arr == nullptr) {
      return;
    }
    // Only the newest still-valid version is worth pushing: closed-interval versions serve a
    // shrinking set of pinned-old readers and would age out on the replica anyway.
    const Version* best = nullptr;
    for (const Version* v : arr->items) {
      if (v->still_valid.load(std::memory_order_relaxed) &&
          (best == nullptr || v->lower > best->lower)) {
        best = v;
      }
    }
    if (best == nullptr) {
      return;
    }
    InsertRequest req;
    req.key = slot->key;
    req.key_hash = slot->hash;
    req.value = best->block->value;
    req.interval = {best->lower, kTimestampInfinity};
    // The entry survived every invalidation this shard applied, so it is provably valid
    // through the later of what the database vouched for and our applied stream position.
    // A replica ahead of that position re-checks the claim against its own replay history
    // at insert time; a replica behind it truncates when the killing message arrives.
    req.computed_at = std::max(best->known_valid_through, last_ts);
    req.tags = best->block->tags;
    req.fill_cost_us = best->fill_cost_us;
    out.push_back(std::move(req));
  });
  return out;
}

LookupResponse CacheShard::LookupExclusive(const LookupRequest& req, uint64_t key_hash) {
  // Benchmark baseline (ReadPath::kExclusiveCopy): the pre-fast-path cost profile — inline
  // LRU/score/profile maintenance and deep-copied payloads under the exclusive lock.
  LookupStatsStripe& st = lookup_stats_[StripeIndex()];
  st.lookups.fetch_add(1, std::memory_order_relaxed);
  LookupResponse resp;
  const Timestamp last_ts = last_invalidation_ts_.load(std::memory_order_relaxed);
  Version* best = MatchVersions(req, key_hash, last_ts, &resp);
  if (best == nullptr) {
    CountMiss(resp.miss, &st);
    return resp;
  }
  st.hits.fetch_add(1, std::memory_order_relaxed);
  lru_.erase(best->lru_it);
  lru_.push_front(best);
  best->lru_it = lru_.begin();
  best->touch_tick.store(NextTick(touch_ticker_), std::memory_order_relaxed);
  best->hit_count.fetch_add(1, std::memory_order_relaxed);
  AttributeHitsLocked(best);
  if (best->in_score_index) {
    score_index_.erase(best->score_it);
    AddToScoreIndexLocked(best);
  }
  resp.hit = true;
  resp.value = std::make_shared<const std::string>(best->block->value);
  if (best->block->has_hints) {
    resp.hints = std::make_shared<const AdvisoryHints>(best->block->hints);
  }
  resp.fill_cost_us = best->fill_cost_us;
  resp.intent_owner = best->intent_owner.load(std::memory_order_relaxed);
  resp.still_valid = best->still_valid.load(std::memory_order_relaxed);
  if (resp.still_valid) {
    resp.tags = std::shared_ptr<const std::vector<InvalidationTag>>(best->block,
                                                                    &best->block->tags);
  }
  return resp;
}

bool CacheShard::CountOpLocked() {
  if (++ops_since_sweep_ >= options_.sweep_interval_ops) {
    ops_since_sweep_ = 0;
    return true;
  }
  return false;
}

Status CacheShard::Insert(const InsertRequest& req, uint64_t key_hash, uint32_t fn_id,
                          std::shared_ptr<const AdvisoryHints> hints, bool* sweep_due) {
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  DrainTouchesLocked();
  if (req.interval.empty()) {
    *sweep_due = CountOpLocked();
    return Status::InvalidArgument("empty validity interval");
  }
  KeySlot* slot = table_.Find(key_hash, req.key);
  if (slot == nullptr) {
    // The slot outlives its versions deliberately: its existence records "this key was
    // inserted at some point", which classifies later misses as capacity/staleness rather
    // than compulsory (the old map kept empty KeyEntries for the same purpose).
    slot = new KeySlot{key_hash, req.key};
    table_.InsertIfAbsent(key_hash, slot);
  }

  Interval interval = req.interval;
  Timestamp known_through = std::max(interval.lower, req.computed_at);
  bool still_valid = interval.unbounded();
  WallClock invalidated_at = 0;

  if (still_valid) {
    // Replay invalidations that arrived before this insert (§4.2): anything later than the
    // snapshot the value was computed at may have changed the result. Read under this shard's
    // lock: a message the history does not hold yet has not reached this shard either, and
    // truncates the version registered below when it does. Below the history's floor the
    // answer is known_through + 1 — validity bounded at what the database vouched for.
    const Timestamp first = history_->FirstInvalidationAfter(req.tags, known_through);
    if (first != kTimestampInfinity) {
      interval.upper = first;
      still_valid = false;
      invalidated_at = clock_->Now();
      ++stats_.insert_time_truncations;
      if (interval.empty()) {
        // Invalidated at or before it became valid; nothing worth storing.
        ++stats_.inserts;
        *sweep_due = CountOpLocked();
        return Status::Ok();
      }
    }
  }

  // Preserve the disjointness invariant: if any stored version already covers part of this
  // interval, keep the existing one (same key + overlapping validity implies equal value).
  const Timestamp last_ts = last_invalidation_ts_.load(std::memory_order_relaxed);
  const VersionArray* existing = slot->versions.load(std::memory_order_relaxed);
  if (existing != nullptr) {
    for (Version* v : existing->items) {
      const Interval effective{v->lower, EffectiveUpper(*v, last_ts)};
      const Interval raw{v->lower, v->upper.load(std::memory_order_relaxed)};
      if (effective.Overlaps(interval) || raw.Overlaps(interval)) {
        ++stats_.duplicate_inserts;
        *sweep_due = CountOpLocked();
        return Status::Ok();
      }
    }
  }

  auto* version = new Version();
  version->lower = interval.lower;
  version->known_valid_through = known_through;
  version->upper.store(interval.upper, std::memory_order_relaxed);
  version->still_valid.store(still_valid, std::memory_order_relaxed);
  auto block = std::make_shared<ResidentBlock>();
  block->value = req.value;
  block->tags = req.tags;
  if (hints != nullptr) {
    block->hints = *hints;
    block->has_hints = true;
  }
  version->block = std::move(block);
  version->invalidated_wallclock = invalidated_at;
  version->bytes = EstimateBytes(req);
  version->touch_tick.store(NextTick(touch_ticker_), std::memory_order_relaxed);
  version->fill_cost_us = req.fill_cost_us;
  version->fn_id = fn_id;
  version->inserted_wallclock = clock_->Now();
  version->owner = slot;
  version->insert_seq = ++insert_seq_;
  // A fresh version for a key whose write intent is held inherits the ownership bit, so
  // lock-free readers keep seeing the intent across the fill.
  if (!intents_.empty()) {
    auto intent_it = intents_.find(req.key);
    if (intent_it != intents_.end()) {
      version->intent_owner.store(intent_it->second, std::memory_order_relaxed);
    }
  }

  lru_.push_front(version);
  version->lru_it = lru_.begin();
  global_bytes_->fetch_add(version->bytes, std::memory_order_relaxed);
  ++version_count_;
  live_.insert(version);
  if (still_valid) {
    RegisterTagsLocked(version);
  }
  if (cost_aware()) {
    if (still_valid) {
      AddToScoreIndexLocked(version);
    } else {
      AddToStaleListLocked(version);
    }
  }

  // Publish: copy-on-write the version array (sorted by lower) and retire the superseded
  // snapshot — a concurrent reader keeps walking whichever array it acquired.
  auto* next = new VersionArray();
  const VersionArray* old = slot->versions.load(std::memory_order_relaxed);
  next->items.reserve((old == nullptr ? 0 : old->items.size()) + 1);
  if (old != nullptr) {
    next->items = old->items;
  }
  auto pos = std::lower_bound(next->items.begin(), next->items.end(), version->lower,
                              [](const Version* a, Timestamp t) { return a->lower < t; });
  next->items.insert(pos, version);
  slot->versions.store(next, std::memory_order_release);
  if (old != nullptr) {
    domain_->RetireObject(const_cast<VersionArray*>(old));
  }
  ++stats_.inserts;

  *sweep_due = CountOpLocked();
  return Status::Ok();
}

void CacheShard::ApplyInvalidation(const InvalidationMessage& msg, bool* sweep_due) {
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  DrainTouchesLocked();
  const WallClock now = clock_->Now();
  std::vector<Version*> affected;
  for (const InvalidationTag& tag : msg.tags) {
    if (tag.wildcard) {
      auto it = table_index_.find(tag.table);
      if (it != table_index_.end()) {
        affected.insert(affected.end(), it->second.begin(), it->second.end());
      }
    } else {
      auto it = tag_index_.find(tag);
      if (it != tag_index_.end()) {
        affected.insert(affected.end(), it->second.begin(), it->second.end());
      }
      // Entries that carry a wildcard tag on this table depend on everything in it.
      auto wit = wildcard_holders_.find(tag.table);
      if (wit != wildcard_holders_.end()) {
        affected.insert(affected.end(), wit->second.begin(), wit->second.end());
      }
    }
  }
  // Truncation order decides stale-list order, hence which stale version is evicted first, so
  // it follows insertion order rather than heap addresses (sequences are unique per shard, so
  // duplicates sort adjacent).
  std::sort(affected.begin(), affected.end(),
            [](const Version* a, const Version* b) { return a->insert_seq < b->insert_seq; });
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
  for (Version* v : affected) {
    TruncateLocked(v, msg.ts, now);
  }
  // Published AFTER the truncations (release): a reader whose snapshot includes this
  // timestamp is guaranteed to see every truncation the message caused.
  const Timestamp cur = last_invalidation_ts_.load(std::memory_order_relaxed);
  last_invalidation_ts_.store(std::max(cur, msg.ts), std::memory_order_release);
  *sweep_due = CountOpLocked();
}

void CacheShard::TruncateLocked(Version* v, Timestamp ts, WallClock wallclock) {
  if (!v->still_valid.load(std::memory_order_relaxed)) {
    return;
  }
  // The database accounted for everything up to known_valid_through when it computed the
  // interval; a coarser-granularity tag match in that range does not bound this value.
  if (ts <= v->known_valid_through) {
    return;
  }
  UnregisterTagsLocked(v);
  // Store order matters for lock-free readers: final upper first, then the release store of
  // still_valid — a reader that observes still_valid == false (acquire) sees the new upper.
  v->upper.store(ts, std::memory_order_relaxed);
  v->still_valid.store(false, std::memory_order_release);
  v->invalidated_wallclock = wallclock;
  if (cost_aware()) {
    // TTL learning: the stream just revealed how long this function's result actually
    // stayed valid while resident. (Insert-time truncations never reach here — they carry no
    // residency interval worth learning from.)
    const WallClock lived =
        wallclock > v->inserted_wallclock ? wallclock - v->inserted_wallclock : WallClock{0};
    functions_->ObserveLifetime(v->fn_id, static_cast<uint64_t>(lived));
    if (v->ttl_demoted) {
      // Already parked in the stale list by learned-TTL expiry — the prediction just came
      // true. Keep its (earlier) stale position; it is now genuinely stale.
      v->ttl_demoted = false;
    } else {
      // The version can now only serve pinned old snapshots: demote it from the score index
      // to the stale list, where the capacity policy evicts it before any still-valid entry.
      DetachPolicyStateLocked(v);
      AddToStaleListLocked(v);
    }
  }
  ++stats_.invalidation_truncations;
}

void CacheShard::RegisterTagsLocked(Version* v) {
  for (const InvalidationTag& tag : v->block->tags) {
    if (tag.wildcard) {
      wildcard_holders_[tag.table].insert(v);
    } else {
      tag_index_[tag].insert(v);
    }
    table_index_[tag.table].insert(v);
  }
}

void CacheShard::UnregisterTagsLocked(Version* v) {
  for (const InvalidationTag& tag : v->block->tags) {
    if (tag.wildcard) {
      auto it = wildcard_holders_.find(tag.table);
      if (it != wildcard_holders_.end()) {
        it->second.erase(v);
        if (it->second.empty()) {
          wildcard_holders_.erase(it);
        }
      }
    } else {
      auto it = tag_index_.find(tag);
      if (it != tag_index_.end()) {
        it->second.erase(v);
        if (it->second.empty()) {
          tag_index_.erase(it);
        }
      }
    }
    auto tit = table_index_.find(tag.table);
    if (tit != table_index_.end()) {
      tit->second.erase(v);
      if (tit->second.empty()) {
        table_index_.erase(tit);
      }
    }
  }
}

void CacheShard::UnpublishVersionLocked(Version* v) {
  KeySlot* slot = v->owner;
  VersionArray* old = slot->versions.load(std::memory_order_relaxed);
  assert(old != nullptr);
  VersionArray* next = nullptr;
  if (old->items.size() > 1) {
    next = new VersionArray();
    next->items.reserve(old->items.size() - 1);
    for (Version* u : old->items) {
      if (u != v) {
        next->items.push_back(u);
      }
    }
  }
  slot->versions.store(next, std::memory_order_release);
  domain_->RetireObject(old);
  // The version itself is retired too: a pinned reader may hold it (and, through its block
  // member, the payload an outstanding response aliases).
  domain_->RetireObject(v);
}

void CacheShard::RemoveVersionLocked(Version* v) {
  if (v->still_valid.load(std::memory_order_relaxed)) {
    UnregisterTagsLocked(v);
  }
  DetachPolicyStateLocked(v);
  lru_.erase(v->lru_it);
  global_bytes_->fetch_sub(v->bytes, std::memory_order_relaxed);
  --version_count_;
  live_.erase(v);
  UnpublishVersionLocked(v);
  // Keep the KeySlot itself (its existence distinguishes capacity from compulsory misses).
}

std::optional<uint64_t> CacheShard::OldestTick() const {
  std::shared_lock<InstrumentedSharedMutex> lock(mu_);
  if (lru_.empty()) {
    return std::nullopt;
  }
  return lru_.back()->touch_tick.load(std::memory_order_relaxed);
}

std::optional<EvictionCandidate> CacheShard::PeekVictim() const {
  std::shared_lock<InstrumentedSharedMutex> lock(mu_);
  if (stale_lru_.empty() && score_index_.empty()) {
    return std::nullopt;
  }
  EvictionCandidate c;
  if (!stale_lru_.empty()) {
    c.has_stale = true;
    c.stale_seq = stale_lru_.front()->stale_seq;
  }
  if (!score_index_.empty()) {
    c.has_scored = true;
    c.score = score_index_.begin()->first;
    c.tick = score_index_.begin()->second->touch_tick.load(std::memory_order_relaxed);
  }
  return c;
}

std::vector<VictimPreview> CacheShard::PreviewVictims(size_t bytes_needed) const {
  std::shared_lock<InstrumentedSharedMutex> lock(mu_);
  std::vector<VictimPreview> out;
  const double floor = aging_floor_->load(std::memory_order_relaxed);
  size_t covered = 0;
  // This shard's own eviction order: the stale list front-to-back (all stale victims
  // precede all scored ones node-globally), then the score index ascending.
  for (const Version* v : stale_lru_) {
    if (covered >= bytes_needed) {
      return out;
    }
    VictimPreview p;
    p.stale = true;
    p.bytes = v->bytes;
    out.push_back(p);  // benefit 0: stale-listed bytes are free to displace
    covered += v->bytes;
  }
  const uint64_t now_tick = touch_ticker_->load(std::memory_order_relaxed);
  for (const auto& [score, v] : score_index_) {
    if (covered >= bytes_needed) {
      break;
    }
    VictimPreview p;
    p.score = score;
    p.bytes = v->bytes;
    p.benefit_us = std::max(0.0, score - floor) * static_cast<double>(v->bytes);
    // GreedyDual's score sinks toward the floor for any entry that stopped being REFRESHED,
    // even one that keeps serving hits — the drain re-bases the score but the margin decays
    // as the floor ratchets. Fold in a recency-decayed estimate of the recompute the victim
    // is still saving (hits x fill cost, halved every kRecencyHalfLifeTicks of touch-tick
    // idleness), so a quiet-but-alive victim is not priced near zero and displaced by a
    // marginal large fill. Never-hit entries contribute nothing, keeping the original
    // score-margin formula (and the admission-oracle model built on it) exact for them.
    const uint64_t hits = v->hit_count.load(std::memory_order_relaxed);
    if (hits > 0) {
      constexpr double kRecencyHalfLifeTicks = 1024.0;
      const uint64_t tick = v->touch_tick.load(std::memory_order_relaxed);
      const uint64_t idle = now_tick > tick ? now_tick - tick : 0;
      const double recency = std::exp2(-static_cast<double>(idle) / kRecencyHalfLifeTicks);
      p.benefit_us +=
          recency * static_cast<double>(hits) * static_cast<double>(v->fill_cost_us);
    }
    out.push_back(p);
    covered += v->bytes;
  }
  return out;
}

std::optional<EvictedVersion> CacheShard::EvictOne() {
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  // Apply pending touches first: within this shard the eviction decision is then exact with
  // respect to every hit that completed before the lock was acquired.
  DrainTouchesLocked();
  if (!cost_aware()) {
    if (lru_.empty()) {
      return std::nullopt;
    }
    EvictedVersion out = MakeEvictedLocked(*lru_.back());
    RemoveVersionLocked(lru_.back());
    ++stats_.evictions_lru;
    return out;
  }
  // Stale-first: a closed-interval version can only serve pinned old snapshots, so it always
  // goes before any still-valid entry; among stale versions, the longest-stale goes first.
  if (!stale_lru_.empty()) {
    Version* v = stale_lru_.front();
    EvictedVersion out = MakeEvictedLocked(*v);
    RemoveVersionLocked(v);
    ++stats_.evictions_capacity_stale;
    return out;
  }
  if (score_index_.empty()) {
    return std::nullopt;
  }
  // Lowest benefit-per-byte score goes first (equal scores evict in insertion order, which is
  // oldest-touched first since every drained hit batch reinserts). Evicting at score s raises
  // the node's aging floor to s: surviving entries must re-earn their margin through hits.
  Version* v = score_index_.begin()->second;
  const double evicted_score = v->score;
  double cur = aging_floor_->load(std::memory_order_relaxed);
  while (cur < evicted_score &&
         !aging_floor_->compare_exchange_weak(cur, evicted_score, std::memory_order_relaxed)) {
  }
  EvictedVersion out = MakeEvictedLocked(*v);
  RemoveVersionLocked(v);
  ++stats_.evictions_cost;
  return out;
}

std::vector<uint64_t> CacheShard::FunctionHits() {
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  // Fold pending touches in first so profiles reflect every completed hit (the overflow
  // repair folds the whole LRU list, so dropped touch records cannot lose attribution).
  DrainTouchesLocked();
  return fn_hits_;
}

void CacheShard::SweepStale(const std::vector<double>& ttl_limits) {
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  DrainTouchesLocked();
  SweepStaleLocked();
  if (!ttl_limits.empty()) {
    DemoteTtlExpiredLocked(ttl_limits);
  }
}

void CacheShard::DemoteTtlExpiredLocked(const std::vector<double>& ttl_limits) {
  // Scan the score index: only still-valid, score-indexed versions are demotion candidates.
  // Functions with no learned lifetime have an infinite limit (never demote on guesswork), as
  // do ids interned after the caller read the limits.
  const WallClock now = clock_->Now();
  std::vector<Version*> expired;
  for (const auto& [_, v] : score_index_) {
    if (v->fn_id < ttl_limits.size() &&
        static_cast<double>(now - v->inserted_wallclock) > ttl_limits[v->fn_id]) {
      expired.push_back(v);
    }
  }
  for (Version* v : expired) {
    // Eviction preference only: the version stays registered in the tag index and keeps
    // serving hits with its true validity until genuinely truncated or evicted. Demotion is
    // sticky — later hits do not re-promote it (monotone, like real staleness).
    DetachPolicyStateLocked(v);
    AddToStaleListLocked(v);
    v->ttl_demoted = true;
    ++stats_.ttl_demotions;
  }
}

void CacheShard::SweepStaleLocked() {
  const WallClock cutoff = clock_->Now() - options_.max_staleness;
  std::vector<Version*> victims;
  for (Version* v : lru_) {
    if (!v->still_valid.load(std::memory_order_relaxed) && v->invalidated_wallclock > 0 &&
        v->invalidated_wallclock < cutoff) {
      victims.push_back(v);
    }
  }
  for (Version* v : victims) {
    RemoveVersionLocked(v);
    ++stats_.evictions_stale;
  }
}

std::pair<uint64_t, std::string> CacheShard::ExportEntries() const {
  std::shared_lock<InstrumentedSharedMutex> lock(mu_);
  Writer w;
  // The shared lock excludes writers, so the writer-side iteration over the flat table is
  // stable here.
  table_.ForEach([&w](KeySlot* slot) {
    const VersionArray* arr = slot->versions.load(std::memory_order_relaxed);
    if (arr == nullptr) {
      return;
    }
    for (const Version* v : arr->items) {
      const bool sv = v->still_valid.load(std::memory_order_relaxed);
      w.PutString(slot->key);
      w.PutString(v->block->value);
      w.PutU64(v->lower);
      w.PutU64(sv ? kTimestampInfinity : v->upper.load(std::memory_order_relaxed));
      w.PutU64(v->known_valid_through);
      w.PutU64(v->fill_cost_us);
      w.PutU32(static_cast<uint32_t>(v->block->tags.size()));
      for (const InvalidationTag& tag : v->block->tags) {
        w.PutString(tag.table);
        w.PutString(tag.index);
        w.PutString(tag.key);
        w.PutBool(tag.wildcard);
      }
    }
  });
  return {version_count_, w.Take()};
}

void CacheShard::AdoptStreamPosition(Timestamp last_invalidation_ts) {
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  const Timestamp cur = last_invalidation_ts_.load(std::memory_order_relaxed);
  last_invalidation_ts_.store(std::max(cur, last_invalidation_ts), std::memory_order_release);
}

void CacheShard::CloseAllStillValid(Timestamp through) {
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  DrainTouchesLocked();
  const WallClock now = clock_->Now();
  std::vector<Version*> open;
  for (Version* v : lru_) {
    if (v->still_valid.load(std::memory_order_relaxed)) {
      open.push_back(v);
    }
  }
  for (Version* v : open) {
    // Same store order as TruncateLocked (upper, then the release-clear of still_valid) so
    // lock-free readers racing this closure observe a consistent narrowed interval. No
    // lifetime is reported to the function table — this is a join-time administrative
    // closure, not a stream-revealed lifetime — and invalidation_truncations stays untouched
    // for the same reason.
    UnregisterTagsLocked(v);
    v->upper.store(std::max(v->known_valid_through, through) + 1, std::memory_order_relaxed);
    v->still_valid.store(false, std::memory_order_release);
    v->invalidated_wallclock = now;
    if (cost_aware()) {
      if (v->ttl_demoted) {
        v->ttl_demoted = false;
      } else {
        DetachPolicyStateLocked(v);
        AddToStaleListLocked(v);
      }
    }
  }
}

void CacheShard::StampIntentLocked(KeySlot* slot, uint64_t token) {
  if (slot == nullptr) {
    return;
  }
  const VersionArray* arr = slot->versions.load(std::memory_order_relaxed);
  if (arr == nullptr) {
    return;
  }
  for (Version* v : arr->items) {
    v->intent_owner.store(token, std::memory_order_relaxed);
  }
}

IntentResponse CacheShard::AcquireIntent(const IntentRequest& req, uint64_t key_hash) {
  IntentResponse resp;
  if (req.txn_id == 0) {
    resp.status = Status::InvalidArgument("intent needs a nonzero owner token");
    return resp;
  }
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  auto [it, inserted] = intents_.try_emplace(req.key, req.txn_id);
  if (!inserted && it->second != req.txn_id) {
    ++stats_.intent_conflicts;
    resp.holder = it->second;
    resp.status = Status::Conflict("write intent held by another transaction");
    return resp;
  }
  if (inserted) {
    StampIntentLocked(table_.Find(key_hash, req.key), req.txn_id);
    ++stats_.intent_acquires;
  }
  resp.status = Status::Ok();
  return resp;
}

void CacheShard::ReleaseIntent(const IntentRequest& req, uint64_t key_hash) {
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  auto it = intents_.find(req.key);
  if (it == intents_.end() || it->second != req.txn_id) {
    return;  // idempotent: already released, or cleared wholesale by flush/crash/rejoin
  }
  intents_.erase(it);
  StampIntentLocked(table_.Find(key_hash, req.key), 0);
  ++stats_.intent_releases;
}

size_t CacheShard::ClearIntents() {
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  const size_t dropped = intents_.size();
  if (dropped == 0) {
    return 0;
  }
  intents_.clear();
  // Clear every ownership bit in one table walk instead of one Find per dropped intent.
  table_.ForEach([this](KeySlot* slot) { StampIntentLocked(slot, 0); });
  stats_.intents_cleared += dropped;
  return dropped;
}

void CacheShard::Flush() {
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  // Intents die with the data: advisory state only, so dropping them wholesale is safe (the
  // owning transactions discover the loss at commit validation, not as staleness).
  stats_.intents_cleared += intents_.size();
  intents_.clear();
  // Everything the touch buffers point at dies below; discard the records rather than apply
  // them. Readers that already hold value aliases keep their buffers — the versions (and the
  // blocks they own) are retired through the EBR domain, not freed in place.
  touch_buffer_.Reset();
  touch_overflow_.store(false, std::memory_order_relaxed);
  size_t freed = 0;
  for (const Version* v : lru_) {
    freed += v->bytes;
  }
  // Unlink before retire: swap in the fresh empty table FIRST, so no reader can reach a slot
  // through the published table once it sits in a retire list (Retire may advance the epoch
  // mid-loop on a large flush, which would otherwise free still-reachable records).
  std::vector<KeySlot*> flushed;
  flushed.reserve(table_.size());
  table_.ForEach([&flushed](KeySlot* slot) { flushed.push_back(slot); });
  table_.Clear();  // publishes a fresh empty table; the old slot array is retired
  for (KeySlot* slot : flushed) {
    VersionArray* arr = slot->versions.load(std::memory_order_relaxed);
    if (arr != nullptr) {
      for (Version* v : arr->items) {
        domain_->RetireObject(v);
      }
      domain_->RetireObject(arr);
    }
    domain_->RetireObject(slot);
  }
  lru_.clear();
  score_index_.clear();
  stale_lru_.clear();
  tag_index_.clear();
  table_index_.clear();
  wildcard_holders_.clear();
  live_.clear();
  global_bytes_->fetch_sub(freed, std::memory_order_relaxed);
  version_count_ = 0;
}

CacheStats CacheShard::stats() const {
  std::shared_lock<InstrumentedSharedMutex> lock(mu_);
  CacheStats s = stats_;
  for (size_t i = 0; i < stripe_count_; ++i) {
    const LookupStatsStripe& st = lookup_stats_[i];
    s.lookups += st.lookups.load(std::memory_order_relaxed);
    s.hits += st.hits.load(std::memory_order_relaxed);
    s.miss_compulsory += st.miss_compulsory.load(std::memory_order_relaxed);
    s.miss_staleness += st.miss_staleness.load(std::memory_order_relaxed);
    s.miss_capacity += st.miss_capacity.load(std::memory_order_relaxed);
    s.miss_consistency += st.miss_consistency.load(std::memory_order_relaxed);
  }
  return s;
}

void CacheShard::ResetStats() {
  std::unique_lock<InstrumentedSharedMutex> lock(mu_);
  // Drain so pending per-function attribution lands before the profile counters are cleared,
  // then mark every resident version fully attributed — pre-reset hits must not leak into the
  // next window's profiles at a later drain.
  DrainTouchesLocked();
  stats_ = CacheStats{};
  for (size_t i = 0; i < stripe_count_; ++i) {
    LookupStatsStripe& st = lookup_stats_[i];
    st.lookups.store(0, std::memory_order_relaxed);
    st.hits.store(0, std::memory_order_relaxed);
    st.miss_compulsory.store(0, std::memory_order_relaxed);
    st.miss_staleness.store(0, std::memory_order_relaxed);
    st.miss_capacity.store(0, std::memory_order_relaxed);
    st.miss_consistency.store(0, std::memory_order_relaxed);
  }
  fn_hits_.clear();
  for (Version* v : lru_) {
    v->attributed_hits = v->hit_count.load(std::memory_order_relaxed);
  }
}

size_t CacheShard::version_count() const {
  std::shared_lock<InstrumentedSharedMutex> lock(mu_);
  return version_count_;
}

size_t CacheShard::key_count() const {
  std::shared_lock<InstrumentedSharedMutex> lock(mu_);
  return table_.size();
}

Timestamp CacheShard::last_invalidation_ts() const {
  std::shared_lock<InstrumentedSharedMutex> lock(mu_);
  return last_invalidation_ts_.load(std::memory_order_relaxed);
}

}  // namespace txcache
