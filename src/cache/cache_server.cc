#include "src/cache/cache_server.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <optional>

#include "src/util/hash.h"
#include "src/util/serde.h"

namespace txcache {

namespace {

// Decorrelates shard routing from the consistent-hash ring (which also hashes the key): a
// node must not see all its keys land on one shard because the ring already filtered them.
constexpr uint64_t kShardSeed = 0x7c15'cafe'f00d'9e37ull;

// Snapshot wire format. v2 added fill_cost_us to each entry record; the explicit version
// field makes a cross-build snapshot handoff fail loudly instead of misparsing.
constexpr uint32_t kSnapshotFormatVersion = 2;

}  // namespace

std::string CacheKeyFunction(const std::string& key) {
  // Keys built by MakeCacheKey start with the function name as a length-prefixed serde string.
  Reader r(key);
  std::string name;
  if (r.GetString(&name) && !name.empty()) {
    return name;
  }
  return key;  // raw key (tests/tools): the key is its own cost-accounting bucket
}

const char* MissKindName(MissKind kind) {
  switch (kind) {
    case MissKind::kNone:
      return "hit";
    case MissKind::kCompulsory:
      return "compulsory";
    case MissKind::kStaleness:
      return "staleness";
    case MissKind::kCapacity:
      return "capacity";
    case MissKind::kConsistency:
      return "consistency";
    case MissKind::kNodeUnavailable:
      return "node_unavailable";
  }
  return "?";
}

CacheServer::CacheServer(std::string name, const Clock* clock, Options options)
    : name_(std::move(name)),
      clock_(clock),
      options_(options),
      functions_(options),
      history_(options.history_retention),
      sequencer_([this](const InvalidationMessage& msg) { ApplySequenced(msg); }) {
  const size_t n = std::max<size_t>(options_.num_shards, 1);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<CacheShard>(clock_, options_, &bytes_used_,
                                                   &touch_ticker_, &aging_floor_, &functions_,
                                                   &history_));
  }
}

CacheServer::~CacheServer() = default;

size_t CacheServer::ShardIndexForHash(uint64_t key_hash) const {
  return static_cast<size_t>(Mix64(key_hash ^ kShardSeed) % shards_.size());
}

size_t CacheServer::ShardIndexForKey(const std::string& key) const {
  return ShardIndexForHash(Fnv1a(key));
}

CacheShard* CacheServer::ShardForHash(uint64_t key_hash) const {
  return shards_[ShardIndexForHash(key_hash)].get();
}

uint64_t CacheServer::exclusive_lock_acquisitions() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->exclusive_lock_acquisitions();
  }
  return n;
}

bool CacheServer::CheckServing() {
  NodeState s = state_.load(std::memory_order_acquire);
  if (s == NodeState::kServing) {
    return true;
  }
  if (s == NodeState::kDown) {
    return false;
  }
  // Joining: the barrier drops itself once the sequencer has caught up to the join target.
  if (sequencer_.next_expected_seqno() >= join_target_.load(std::memory_order_acquire)) {
    NodeState expected = NodeState::kJoining;
    state_.compare_exchange_strong(expected, NodeState::kServing, std::memory_order_acq_rel);
    return state_.load(std::memory_order_acquire) == NodeState::kServing;
  }
  return false;
}

void CacheServer::FillUnavailable(LookupResponse* resp) {
  *resp = LookupResponse{};
  resp->miss = MissKind::kNodeUnavailable;
  unavailable_misses_.fetch_add(1, std::memory_order_relaxed);
}

void CacheServer::Crash() {
  state_.store(NodeState::kDown, std::memory_order_release);
  // A crashed process holds no advisory state: every write intent dies with it. (Cached DATA
  // is deliberately kept — Join() decides its fate — but intents guard in-flight transactions
  // whose clients will observe the crash as kUnavailable and treat their operations as
  // vacuously complete, so a surviving intent could only wedge later writers.)
  ClearIntents();
}

Status CacheServer::Join(InvalidationBus* bus) {
  // Raise the barrier before touching the stream: nothing may be served until the node has
  // seen every invalidation it missed. The sentinel target makes the barrier unconditional —
  // a concurrent request's CheckServing must not promote us against a stale (or zero) target
  // before the catch-up/flush work below has finished; the real target is published last.
  join_target_.store(std::numeric_limits<uint64_t>::max(), std::memory_order_release);
  state_.store(NodeState::kJoining, std::memory_order_release);
  // Any intent that survived in pre-crash state is from a transaction that has long since
  // aborted or committed (its release bounced off the down node): drop them all before
  // serving resumes, so a rejoined node never blocks fresh writers on dead owners.
  ClearIntents();
  // Subscribe BEFORE reading the join target: a message published in between is then either
  // inside the replayed range or delivered live (and held by the sequencer's reorder buffer
  // until replay fills the gap) — never lost.
  bus->Subscribe(this);
  const uint64_t target = bus->next_seqno();
  const uint64_t position = sequencer_.next_expected_seqno();
  if (position < target) {
    Status replay = bus->ReplayFrom(this, position);
    if (!replay.ok() && !TryRestoreFromSnapshot(bus, target, position)) {
      // Catch-up impossible and no snapshot helped: the bounded history no longer reaches
      // back to our position. Discard everything rather than risk serving an entry whose
      // invalidation fell in the gap, and adopt the live position (draining any
      // live-delivered messages the reorder buffer already holds at/after it). Raising the
      // node's history floor makes later inserts computed inside the gap truncate
      // conservatively instead of claiming still-valid (the no-stale-read analogue of the
      // snapshot-import caveat).
      Flush();
      sequencer_.AdoptPosition(target);
      const Timestamp adopted_ts = bus->last_published_ts();
      history_.RaiseFloor(adopted_ts);
      for (auto& shard : shards_) {
        shard->AdoptStreamPosition(adopted_ts);
      }
      join_flushes_.fetch_add(1, std::memory_order_relaxed);
    } else if (replay.ok()) {
      join_catchups_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Only now may the barrier drop: every flush/floor side effect above is complete, so a
  // concurrent CheckServing that observes this target cannot expose partial join state.
  join_target_.store(target, std::memory_order_release);
  CheckServing();
  return Status::Ok();
}

bool CacheServer::TryRestoreFromSnapshot(InvalidationBus* bus, uint64_t target,
                                         uint64_t position) {
  if (snapshot_store_ == nullptr) {
    return false;
  }
  std::optional<std::string> snap = snapshot_store_->LoadFreshest(name_);
  if (!snap.has_value()) {
    return false;
  }
  // Peek the header without importing: the decision needs only the snapshot's stream
  // position. Restoring helps exactly when the snapshot is AHEAD of us — a cold restart
  // (fresh process at position 1) behind a store that kept persisting. A snapshot at or
  // behind our own position adds nothing: our residual gap would be unchanged.
  Reader r(*snap);
  uint32_t version = 0;
  uint64_t snap_seqno = 0;
  uint64_t snap_last_ts = 0;
  if (!r.GetU32(&version) || version != kSnapshotFormatVersion || !r.GetU64(&snap_seqno) ||
      !r.GetU64(&snap_last_ts) || snap_seqno <= position) {
    return false;
  }
  // Drop whatever (stale, uncovered) state we hold, then import. The fresh-node precondition
  // of ImportSnapshot (see the caveat on its declaration) is established by this flush: no
  // pre-existing still-valid entry can skip a truncation the snapshot fast-forwards past.
  Flush();
  if (!ImportSnapshot(*snap).ok()) {
    Flush();  // half-imported state is unusable; the caller's flush path adopts the target
    return false;
  }
  if (snap_seqno < target) {
    Status residual = bus->ReplayFrom(this, snap_seqno);
    if (!residual.ok()) {
      // Even the post-snapshot gap outran the bounded history. Keep the imported data — its
      // closed intervals are correct regardless — but administratively close every imported
      // still-valid version at what the exporter had seen: an invalidation inside the gap
      // can then never be skipped, because nothing claims validity beyond the snapshot.
      // Adopt the live position and raise the history floor, exactly like the flush path.
      const Timestamp adopted_ts = bus->last_published_ts();
      sequencer_.AdoptPosition(target);
      history_.RaiseFloor(adopted_ts);
      for (auto& shard : shards_) {
        shard->CloseAllStillValid(snap_last_ts);
        shard->AdoptStreamPosition(adopted_ts);
      }
    }
  }
  join_snapshot_restores_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void CacheServer::PersistSnapshot() {
  if (snapshot_store_ == nullptr ||
      state_.load(std::memory_order_acquire) != NodeState::kServing) {
    return;
  }
  snapshot_store_->Save(name_, ExportSnapshot());
}

LookupResponse CacheServer::Lookup(const LookupRequest& req) {
  if (!CheckServing()) {
    LookupResponse resp;
    FillUnavailable(&resp);
    return resp;
  }
  // Hash-once: the client-carried hash routes the shard AND probes its map; nothing below
  // this point rehashes the key.
  const uint64_t key_hash = RequestKeyHash(req);
  return ShardForHash(key_hash)->Lookup(req, key_hash);
}

IntentResponse CacheServer::AcquireIntent(const IntentRequest& req) {
  if (!CheckServing()) {
    IntentResponse resp;
    resp.status = Status::Unavailable("cache node not serving (down or joining)");
    return resp;
  }
  const uint64_t key_hash = RequestKeyHash(req);
  return ShardForHash(key_hash)->AcquireIntent(req, key_hash);
}

IntentResponse CacheServer::ReleaseIntent(const IntentRequest& req) {
  IntentResponse resp;
  if (!CheckServing()) {
    // A node that went down holding intents has already dropped them (Crash/Join clear
    // wholesale); release against a non-serving node is a vacuous success.
    resp.status = Status::Unavailable("cache node not serving (down or joining)");
    return resp;
  }
  const uint64_t key_hash = RequestKeyHash(req);
  ShardForHash(key_hash)->ReleaseIntent(req, key_hash);
  resp.status = Status::Ok();
  return resp;
}

size_t CacheServer::ClearIntents() {
  size_t dropped = 0;
  for (auto& shard : shards_) {
    dropped += shard->ClearIntents();
  }
  return dropped;
}

void CacheServer::set_replication_hook(std::function<void(CacheServer*)> hook) {
  std::lock_guard<std::mutex> lock(replication_hook_mu_);
  replication_hook_ = std::move(hook);
}

MultiLookupResponse CacheServer::MultiLookup(const MultiLookupRequest& req) {
  MultiLookupResponse resp;
  resp.responses.resize(req.lookups.size());
  std::vector<uint32_t> all(req.lookups.size());
  for (uint32_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  MultiLookup(req, all, &resp);
  return resp;
}

void CacheServer::MultiLookup(const MultiLookupRequest& req, const std::vector<uint32_t>& indices,
                              MultiLookupResponse* out) {
  if (!CheckServing()) {
    // A down/joining node degrades its batch positions to misses; the rest of the batch (on
    // other nodes) is unaffected and request-order reassembly still holds.
    for (uint32_t i : indices) {
      FillUnavailable(&out->responses[i]);
    }
    return;
  }
  // Group request positions per shard, then take each shard lock once for its whole group.
  // Buckets reserve an even-split hint up front so skew only costs one regrow, not many.
  std::vector<std::vector<uint32_t>> by_shard(shards_.size());
  const size_t per_shard_hint = indices.size() / shards_.size() + 1;
  for (uint32_t i : indices) {
    auto& bucket = by_shard[ShardIndexForHash(RequestKeyHash(req.lookups[i]))];
    if (bucket.empty()) {
      bucket.reserve(per_shard_hint + 3);
    }
    bucket.push_back(i);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!by_shard[s].empty()) {
      shards_[s]->LookupBatch(req, by_shard[s], out);
    }
  }
}

double CacheServer::DisplacementCost(size_t bytes_needed) const {
  // Global eviction order: every stale-listed victim (free) goes before any scored one;
  // scored victims then charge cheapest-score first. Previews read shards under shared
  // locks one at a time — best-effort against concurrent mutation, like eviction itself.
  size_t covered = 0;
  std::vector<VictimPreview> scored;
  for (const auto& shard : shards_) {
    for (VictimPreview& p : shard->PreviewVictims(bytes_needed)) {
      if (p.stale) {
        covered += p.bytes;
      } else {
        scored.push_back(p);
      }
    }
  }
  if (covered >= bytes_needed) {
    return 0.0;  // the fill can be absorbed by evicting already-worthless bytes
  }
  std::sort(scored.begin(), scored.end(),
            [](const VictimPreview& a, const VictimPreview& b) { return a.score < b.score; });
  double cost = 0.0;
  for (const VictimPreview& p : scored) {
    if (covered >= bytes_needed) {
      break;
    }
    covered += p.bytes;
    cost += p.benefit_us;
  }
  return cost;
}

Status CacheServer::AdmitInsert(const InsertRequest& req, uint32_t* fn_id,
                                std::shared_ptr<const AdvisoryHints>* hints) {
  if (options_.policy != EvictionPolicy::kCostAware) {
    // Plain LRU keeps the PR-1 insert path untouched: no node-global lock, no profiling.
    return Status::Ok();
  }
  const size_t est_bytes = CacheShard::EstimateBytes(req);
  const double bpb = est_bytes == 0 ? 0.0
                                    : static_cast<double>(req.fill_cost_us) /
                                          static_cast<double>(est_bytes);
  // One snapshot of the byte usage for the whole decision: pressure and the displacement
  // `need` below must come from the same load, or a concurrent eviction between two loads
  // could underflow `need` into a near-2^64 full-cache victim scan and a spurious decline.
  const size_t used = bytes_used_.load(std::memory_order_relaxed);
  const bool pressure = used + est_bytes > options_.capacity_bytes;

  // Size-aware gate, judged per entry before the per-function bookkeeping (a declined fill
  // still updates the profile, so decline_rate hints and EWMAs keep learning).
  Status size_gate = Status::Ok();
  const size_t shard_slice = options_.capacity_bytes / std::max<size_t>(shards_.size(), 1);
  if (options_.max_entry_fraction > 0.0 &&
      static_cast<double>(est_bytes) >
          options_.max_entry_fraction * static_cast<double>(shard_slice)) {
    // The guard: one entry may never monopolize its shard's slice of the byte budget,
    // benefit notwithstanding — a 4 MB value on an 8 MB slice would make the shard's
    // residency a coin flip between it and everything else.
    size_gate = Status::DeclinedTooLarge("entry exceeds max_entry_fraction of a shard slice");
  } else if (pressure && est_bytes >= options_.displacement_check_bytes) {
    // Displacement comparison: what this fill would earn (its fill cost — the recompute one
    // future hit saves) against the summed remaining benefit of the victims its bytes would
    // displace. The aging floor approximates this for small fills (they displace ~one
    // victim); a multi-MB fill displaces thousands of entries whose summed benefit the
    // floor never sees, which is exactly the comparison run here.
    const size_t need = used + est_bytes - options_.capacity_bytes;
    const double displaced = DisplacementCost(need);
    if (displaced > static_cast<double>(req.fill_cost_us)) {
      size_gate = Status::DeclinedTooLarge("fill benefit below displacement cost");
    }
  }

  if (!size_gate.ok()) {
    admission_rejects_too_large_.fetch_add(1, std::memory_order_relaxed);
  }
  // Per-function bookkeeping. Over the profile cap nothing is recorded and only the size gate
  // applies (it needs no profile).
  Status verdict = size_gate;
  *fn_id = functions_.Update(
      CacheKeyFunction(req.key),
      [&](FunctionTable::Entry& e) {
        FunctionStatsEntry& p = e.stats;
        if (p.fills == 0) {
          p.ewma_benefit_per_byte = bpb;  // first sight, optimistic prior: one hit per fill
        }
        ++p.fills;
        p.bytes_inserted += est_bytes;
        p.fill_cost_total_us += req.fill_cost_us;
        if (!size_gate.ok()) {
          ++p.declined_too_large;
          return;
        }
        // Decline only when (a) the node is under byte pressure (this insert forces an
        // eviction), (b) the function has been observed enough to trust its profile, and (c)
        // its realized benefit-per-byte sits below the watermark — a fraction of the aging
        // floor, i.e. of the score entries are currently being evicted at. Such an entry
        // would be evicted almost immediately, so storing it only displaces more valuable
        // bytes.
        const double floor = aging_floor_.load(std::memory_order_relaxed);
        if (floor > 0.0 && pressure && p.fills > options_.admission_min_samples &&
            p.ewma_benefit_per_byte < floor * options_.admission_watermark_fraction) {
          ++p.admission_rejects;
          if (options_.admission_probe_interval != 0 &&
              p.admission_rejects % options_.admission_probe_interval == 0) {
            // Periodic probe: admit anyway so a function whose workload turned hot can
            // re-earn admission through the realized hits of this entry.
            admission_probes_.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          admission_rejects_.fetch_add(1, std::memory_order_relaxed);
          verdict = Status::Declined("benefit-per-byte below admission watermark");
        }
      },
      hints);
  return verdict;
}

Status CacheServer::Insert(const InsertRequest& req,
                           std::shared_ptr<const AdvisoryHints>* hints_out) {
  if (!CheckServing()) {
    // Refusing fills while down/joining keeps the join barrier simple: nothing enters the
    // cache until the node provably holds the complete invalidation history behind it.
    // (Warm rejoin is the one exception — ImportSnapshot inserts through InsertImpl below,
    // because the snapshot's entries carry their own provably-consistent stream position.)
    return Status::Unavailable("cache node not serving (down or joining)");
  }
  return InsertImpl(req, hints_out);
}

Status CacheServer::InsertImpl(const InsertRequest& req,
                               std::shared_ptr<const AdvisoryHints>* hints_out) {
  // Hash and intern once per insert: the key hash routes the shard and probes its map; the
  // function id (0 under plain LRU, which never parses the function) feeds the shard's
  // per-function hit bookkeeping, TTL learning and the eviction fold-back.
  const uint64_t key_hash = RequestKeyHash(req);
  uint32_t fn_id = 0;
  std::shared_ptr<const AdvisoryHints> hints;
  Status admitted = AdmitInsert(req, &fn_id, &hints);
  if (hints_out != nullptr) {
    *hints_out = hints;
  }
  if (!admitted.ok()) {
    return admitted;
  }
  bool sweep_due = false;
  Status st = ShardForHash(key_hash)->Insert(req, key_hash, fn_id, std::move(hints), &sweep_due);
  if (!st.ok()) {
    return st;
  }
  // Sweep and evict with no shard lock held (both take shard locks one at a time).
  if (sweep_due) {
    SweepAllShards();
  }
  EvictToFit();
  return Status::Ok();
}

void CacheServer::Deliver(const InvalidationMessage& msg) {
  if (state_.load(std::memory_order_acquire) == NodeState::kDown) {
    return;  // a crashed process loses stream traffic; Join() closes the gap on rejoin
  }
  sequencer_.Deliver(msg);
  // Join barrier: this message may have been the one that brings the stream position up to
  // the join target, in which case the node may start serving.
  CheckServing();
  // Sweep outside the sequencer's critical section: a full-node sweep inside the sink would
  // stall every concurrent Deliver for its whole duration.
  if (sweep_pending_.exchange(false, std::memory_order_relaxed)) {
    SweepAllShards();
  }
  // Periodic warm-rejoin persistence, also outside the sequencer: every
  // snapshot_interval_messages deliveries one (arbitrary) delivering thread exports and
  // saves. PersistSnapshot itself refuses while joining — a snapshot taken behind the join
  // barrier could capture a position ahead of entries the barrier hasn't admitted yet.
  if (snapshot_store_ != nullptr && options_.snapshot_interval_messages != 0 &&
      messages_since_snapshot_.fetch_add(1, std::memory_order_relaxed) + 1 >=
          options_.snapshot_interval_messages) {
    messages_since_snapshot_.store(0, std::memory_order_relaxed);
    PersistSnapshot();
  }
  // Background hot-key replication rides the same tail: every replication_interval_messages
  // deliveries, one (arbitrary) delivering thread pushes this node's hot keys to its replicas
  // via the installed hook — no driver needs to pump ReplicateHotKeys. Only while serving: a
  // joining node's entries are behind the barrier and must not propagate.
  if (options_.replication_interval_messages != 0 &&
      messages_since_replication_.fetch_add(1, std::memory_order_relaxed) + 1 >=
          options_.replication_interval_messages &&
      state_.load(std::memory_order_acquire) == NodeState::kServing) {
    messages_since_replication_.store(0, std::memory_order_relaxed);
    std::function<void(CacheServer*)> hook;
    {
      std::lock_guard<std::mutex> lock(replication_hook_mu_);
      hook = replication_hook_;
    }
    if (hook) {
      hook(this);
    }
  }
}

void CacheServer::ApplySequenced(const InvalidationMessage& msg) {
  invalidation_messages_.fetch_add(1, std::memory_order_relaxed);
  // Record BEFORE the fan-out: an insert whose replay misses this message still holds its
  // shard's lock, so its version is registered before the message reaches that shard.
  history_.Record(msg);
  for (auto& shard : shards_) {
    bool due = false;
    shard->ApplyInvalidation(msg, &due);
    if (due) {
      sweep_pending_.store(true, std::memory_order_relaxed);
    }
  }
}

void CacheServer::SweepAllShards() {
  // The trigger is a per-shard op counter (so skewed traffic still fires), but the sweep
  // itself covers every shard: stale garbage parked in a cold shard would otherwise never be
  // collected, since cold shards by definition see no ops of their own. The TTL-expiry
  // pass's per-function demotion limits are read once here and shared by every shard.
  std::vector<double> ttl_limits;
  if (options_.policy == EvictionPolicy::kCostAware && options_.ttl_expiry_slack > 0.0) {
    ttl_limits = functions_.DemotionLimits(options_.ttl_expiry_slack);
  }
  for (auto& shard : shards_) {
    shard->SweepStale(ttl_limits);
  }
}

void CacheServer::EvictToFit() {
  while (bytes_used_.load(std::memory_order_relaxed) > options_.capacity_bytes) {
    size_t victim = shards_.size();
    if (options_.policy == EvictionPolicy::kCostAware) {
      // Node-global policy order: any stale (closed-interval) version goes before any
      // still-valid one, oldest-stale first; otherwise the globally lowest benefit-per-byte
      // score, ties broken by oldest touch. Candidates are re-peeked each iteration, so
      // concurrent mutation only costs a retry, never a wrong-policy eviction.
      uint64_t best_stale_seq = std::numeric_limits<uint64_t>::max();
      double best_score = std::numeric_limits<double>::infinity();
      uint64_t best_tick = std::numeric_limits<uint64_t>::max();
      size_t stale_victim = shards_.size();
      for (size_t i = 0; i < shards_.size(); ++i) {
        auto c = shards_[i]->PeekVictim();
        if (!c.has_value()) {
          continue;
        }
        if (c->has_stale && c->stale_seq < best_stale_seq) {
          best_stale_seq = c->stale_seq;
          stale_victim = i;
        }
        if (c->has_scored &&
            (c->score < best_score || (c->score == best_score && c->tick < best_tick))) {
          best_score = c->score;
          best_tick = c->tick;
          victim = i;
        }
      }
      if (stale_victim != shards_.size()) {
        victim = stale_victim;
      }
    } else {
      // Find the shard whose LRU tail is globally least recently used. Ticks come from one
      // monotone node-wide counter, so comparing tails reconstructs the monolithic LRU order
      // (approximately, under concurrent touches — eviction is best-effort LRU anyway).
      uint64_t oldest = std::numeric_limits<uint64_t>::max();
      for (size_t i = 0; i < shards_.size(); ++i) {
        auto tick = shards_[i]->OldestTick();
        if (tick.has_value() && *tick < oldest) {
          oldest = *tick;
          victim = i;
        }
      }
    }
    if (victim == shards_.size()) {
      break;  // nothing resident (accounting drift is impossible; avoid spinning regardless)
    }
    auto evicted = shards_[victim]->EvictOne();
    if (!evicted.has_value()) {
      break;
    }
    capacity_evictions_.fetch_add(1, std::memory_order_relaxed);
    eviction_bytes_reclaimed_.fetch_add(evicted->bytes, std::memory_order_relaxed);
    if (options_.policy == EvictionPolicy::kCostAware) {
      // Fold the victim's realized benefit-per-byte (what its residency actually earned) back
      // into its function's admission profile: functions whose entries die unhit drift below
      // the watermark; functions whose entries earn hits stay admitted.
      const double realized =
          evicted->bytes == 0
              ? 0.0
              : static_cast<double>(evicted->hits) * static_cast<double>(evicted->fill_cost_us) /
                    static_cast<double>(evicted->bytes);
      // The update republishes the advisory snapshot too, so clients observing hints see
      // the same EWMA the admission gate will judge their next fill by. Unprofiled victims
      // (id 0, over the cap) update nothing.
      const double a = options_.benefit_ewma_alpha;
      functions_.Update(evicted->fn_id, [&](FunctionTable::Entry& e) {
        e.stats.ewma_benefit_per_byte = a * realized + (1.0 - a) * e.stats.ewma_benefit_per_byte;
      });
    }
  }
}

std::string CacheServer::ExportSnapshot() const {
  // Read the stream position BEFORE exporting shard entries: a message applied mid-export
  // may then be absent from some exported entry, but the importer — whose adopted position
  // predates that message — will receive and re-apply it, truncating the entry normally.
  // The reverse order would let an entry exported as still-valid escape the message forever.
  const uint64_t header_seqno = sequencer_.next_expected_seqno();
  const Timestamp header_last_ts = last_invalidation_ts();
  std::vector<std::pair<uint64_t, std::string>> parts;
  parts.reserve(shards_.size());
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    parts.push_back(shard->ExportEntries());
    total += parts.back().first;
  }
  Writer w;
  w.PutU32(kSnapshotFormatVersion);
  w.PutU64(header_seqno);
  w.PutU64(header_last_ts);
  w.PutU64(total);
  std::string out = w.Take();
  for (auto& [count, bytes] : parts) {
    out += bytes;
  }
  return out;
}

Status CacheServer::ImportSnapshot(const std::string& snapshot) {
  Reader r(snapshot);
  uint32_t version = 0;
  uint64_t seqno = 0;
  uint64_t last_ts = 0;
  uint64_t count = 0;
  if (!r.GetU32(&version)) {
    return Status::InvalidArgument("malformed cache snapshot header");
  }
  if (version != kSnapshotFormatVersion) {
    return Status::InvalidArgument("unsupported cache snapshot format version " +
                                   std::to_string(version));
  }
  if (!r.GetU64(&seqno) || !r.GetU64(&last_ts) || !r.GetU64(&count)) {
    return Status::InvalidArgument("malformed cache snapshot header");
  }
  // Adopt the snapshot's stream position only if it is ahead of ours; replaying an older
  // position would make us miss invalidations we already applied.
  sequencer_.AdoptPosition(seqno);
  for (auto& shard : shards_) {
    shard->AdoptStreamPosition(last_ts);
  }
  for (uint64_t i = 0; i < count; ++i) {
    InsertRequest req;
    uint64_t lower = 0, upper = 0, known = 0, fill_cost = 0;
    uint32_t tag_count = 0;
    if (!r.GetString(&req.key) || !r.GetString(&req.value) || !r.GetU64(&lower) ||
        !r.GetU64(&upper) || !r.GetU64(&known) || !r.GetU64(&fill_cost) ||
        !r.GetU32(&tag_count)) {
      return Status::InvalidArgument("malformed cache snapshot entry");
    }
    req.interval = Interval{lower, upper};
    req.computed_at = known;
    req.fill_cost_us = fill_cost;
    req.tags.reserve(tag_count);
    for (uint32_t t = 0; t < tag_count; ++t) {
      InvalidationTag tag;
      if (!r.GetString(&tag.table) || !r.GetString(&tag.index) || !r.GetString(&tag.key) ||
          !r.GetBool(&tag.wildcard)) {
        return Status::InvalidArgument("malformed cache snapshot tag");
      }
      req.tags.push_back(std::move(tag));
    }
    // InsertImpl, not Insert: warm rejoin imports while the join barrier still refuses
    // public fills.
    Status st = InsertImpl(req, nullptr);
    if (!st.ok() && st.code() != StatusCode::kDeclined &&
        st.code() != StatusCode::kDeclinedTooLarge) {
      // An admission decline (watermark or size gate) is a policy outcome, not a malformed
      // snapshot: skip the entry.
      return st;
    }
  }
  return Status::Ok();
}

void CacheServer::Flush() {
  for (auto& shard : shards_) {
    shard->Flush();
  }
}

std::vector<InsertRequest> CacheServer::ExportHotKeys(size_t max_keys) {
  std::vector<InsertRequest> out;
  if (max_keys == 0) {
    return out;
  }
  // Harvest every shard's sketch (the counters reset as a side effect — sliding window),
  // rank globally, then export each shard's share of the winners in one pass per shard.
  std::vector<std::unordered_map<uint64_t, uint64_t>> per_shard;
  per_shard.reserve(shards_.size());
  std::vector<std::pair<uint64_t, uint64_t>> ranked;  // (count, hash)
  for (auto& shard : shards_) {
    per_shard.push_back(shard->HarvestHotHashes());
    for (const auto& [hash, count] : per_shard.back()) {
      ranked.emplace_back(count, hash);
    }
  }
  std::sort(ranked.begin(), ranked.end(), std::greater<>());
  if (ranked.size() > max_keys) {
    ranked.resize(max_keys);
  }
  std::vector<std::vector<uint64_t>> wanted(shards_.size());
  for (const auto& [count, hash] : ranked) {
    wanted[ShardIndexForHash(hash)].push_back(hash);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (wanted[s].empty()) {
      continue;
    }
    std::vector<InsertRequest> part = shards_[s]->ExportForReplication(wanted[s]);
    for (InsertRequest& req : part) {
      out.push_back(std::move(req));
    }
  }
  // Re-rank the flattened exports hottest-first so callers replicating a prefix replicate
  // the right keys.
  std::unordered_map<uint64_t, uint64_t> rank;
  rank.reserve(ranked.size());
  for (const auto& [count, hash] : ranked) {
    rank[hash] = count;
  }
  std::sort(out.begin(), out.end(), [&rank](const InsertRequest& a, const InsertRequest& b) {
    return rank[a.key_hash] > rank[b.key_hash];
  });
  return out;
}

CacheStats CacheServer::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    total += shard->stats();  // shard partials leave the node-level counters at zero
  }
  total.invalidation_messages = invalidation_messages_.load(std::memory_order_relaxed);
  total.reorder_buffered = sequencer_.reorder_buffered();
  total.eviction_bytes_reclaimed = eviction_bytes_reclaimed_.load(std::memory_order_relaxed);
  total.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  total.admission_probes = admission_probes_.load(std::memory_order_relaxed);
  total.admission_rejects_too_large =
      admission_rejects_too_large_.load(std::memory_order_relaxed);
  // Lookups refused while down/joining count as lookups too, so hit_rate() reflects the
  // traffic the node turned away and hits + misses() still equals lookups.
  const uint64_t unavailable = unavailable_misses_.load(std::memory_order_relaxed);
  total.lookups += unavailable;
  total.nodes_unavailable += unavailable;
  total.join_catchups = join_catchups_.load(std::memory_order_relaxed);
  total.join_flushes = join_flushes_.load(std::memory_order_relaxed);
  total.join_snapshot_restores = join_snapshot_restores_.load(std::memory_order_relaxed);
  return total;
}

std::vector<FunctionStatsEntry> CacheServer::FunctionStats() const {
  // Shard hits first: every id a shard attributes was assigned before its insert reached the
  // shard, so the table read afterwards covers it.
  std::vector<uint64_t> hits;
  for (const auto& shard : shards_) {
    const std::vector<uint64_t> shard_hits = shard->FunctionHits();
    hits.resize(std::max(hits.size(), shard_hits.size()), 0);
    for (size_t id = 0; id < shard_hits.size(); ++id) {
      hits[id] += shard_hits[id];
    }
  }
  std::vector<FunctionStatsEntry> out = functions_.Stats();
  for (size_t id = 0; id < hits.size(); ++id) {
    out[id].hits = hits[id];
  }
  out.erase(out.begin());  // id 0: the unattributed function
  std::sort(out.begin(), out.end(),
            [](const FunctionStatsEntry& a, const FunctionStatsEntry& b) {
              return a.function < b.function;
            });
  return out;
}

void CacheServer::ResetStats() {
  for (auto& shard : shards_) {
    shard->ResetStats();
  }
  invalidation_messages_.store(0, std::memory_order_relaxed);
  capacity_evictions_.store(0, std::memory_order_relaxed);
  eviction_bytes_reclaimed_.store(0, std::memory_order_relaxed);
  admission_rejects_.store(0, std::memory_order_relaxed);
  admission_probes_.store(0, std::memory_order_relaxed);
  admission_rejects_too_large_.store(0, std::memory_order_relaxed);
  unavailable_misses_.store(0, std::memory_order_relaxed);
  join_catchups_.store(0, std::memory_order_relaxed);
  join_flushes_.store(0, std::memory_order_relaxed);
  join_snapshot_restores_.store(0, std::memory_order_relaxed);
  // Function profiles are policy state, not counters: they survive a stats reset so the
  // admission gate keeps its learned benefit history between measurement windows.
  sequencer_.ResetStats();
}

size_t CacheServer::bytes_used() const { return bytes_used_.load(std::memory_order_relaxed); }

size_t CacheServer::version_count() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->version_count();
  }
  return n;
}

size_t CacheServer::key_count() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->key_count();
  }
  return n;
}

Timestamp CacheServer::last_invalidation_ts() const {
  Timestamp ts = kTimestampZero;
  for (const auto& shard : shards_) {
    ts = std::max(ts, shard->last_invalidation_ts());
  }
  return ts;
}

}  // namespace txcache
