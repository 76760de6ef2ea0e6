// Randomized property tests for the cache server:
//   * versions of one key keep pairwise-disjoint validity intervals under any mix of inserts
//     and invalidations;
//   * the final cache state is independent of invalidation-stream delivery order (the reorder
//     buffer restores sequence order);
//   * a lookup never returns a value whose effective interval misses the requested bounds;
//   * under membership churn (node kill/rejoin, ring resize) racing inserts and invalidations,
//     no lookup ever returns a version whose validity interval was invalidated while its node
//     was down — the no-stale-read analogue of EvictionNeverResurrectsOrWidensValidity.
//   * two optimistic writer transactions racing readers, invalidations, cache flushes and
//     crash/rejoin churn stay serializable: every committed transaction's reads are exact
//     against a model applied in commit order, aborted transactions leave no trace, and no
//     write intent survives any exit path.
//   * random single-table SQL read/write interleavings running entirely on planner-derived
//     invalidation tags (src/sql/tag_deriver.h) never read stale: every cached ad-hoc SELECT
//     — point lookups, secondary-index equalities, ranges and seq-scan residuals on the
//     conservative table-wildcard path — matches a snapshot model at its reported
//     serialization timestamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/bus/bus.h"
#include "src/cache/cache_cluster.h"
#include "src/cache/cache_server.h"
#include "src/core/cacheable_function.h"
#include "src/core/txcache_client.h"
#include "src/sql/session.h"
#include "src/util/clock.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace txcache {
namespace {

InvalidationTag TagFor(int64_t key_group) {
  return InvalidationTag::Concrete("t", "idx", "g" + std::to_string(key_group));
}

class CachePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CachePropertyTest, VersionIntervalsStayDisjointAndLookupsAreSound) {
  ManualClock clock;
  CacheServer server("prop", &clock);
  Rng rng(GetParam());

  constexpr int kKeys = 8;
  constexpr int kGroups = 4;
  Timestamp now_ts = 1;
  uint64_t seqno = 1;
  // Reference model: for each key, every (interval, value) ever accepted must stay internally
  // consistent — emulate by remembering the value inserted per (key, lower).
  std::map<std::pair<int, Timestamp>, std::string> inserted;

  for (int step = 0; step < 400; ++step) {
    const int key = static_cast<int>(rng.Uniform(0, kKeys - 1));
    const int group = key % kGroups;
    clock.Advance(Millis(10));
    if (rng.Bernoulli(0.55)) {
      // Insert: a value that became valid at some recent timestamp.
      Timestamp lower = static_cast<Timestamp>(rng.Uniform(
          static_cast<int64_t>(now_ts > 20 ? now_ts - 20 : 1), static_cast<int64_t>(now_ts)));
      InsertRequest req;
      req.key = "k" + std::to_string(key);
      req.value = "v" + std::to_string(key) + "@" + std::to_string(lower);
      req.interval = {lower, rng.Bernoulli(0.5)
                                 ? kTimestampInfinity
                                 : lower + static_cast<Timestamp>(rng.Uniform(1, 15))};
      req.computed_at = std::min(now_ts, std::max(lower, now_ts > 3 ? now_ts - 3 : lower));
      req.tags = {TagFor(group)};
      ASSERT_TRUE(server.Insert(req).ok());
      inserted[std::make_pair(key, lower)] = req.value;
    } else {
      // Invalidate one or two groups at the next commit timestamp.
      InvalidationMessage msg;
      msg.seqno = seqno++;
      msg.ts = ++now_ts;
      msg.wallclock = clock.Now();
      msg.tags.push_back(TagFor(static_cast<int64_t>(rng.Uniform(0, kGroups - 1))));
      if (rng.Bernoulli(0.2)) {
        msg.tags.push_back(InvalidationTag::Wildcard("t"));
      }
      server.Deliver(msg);
    }

    // Soundness of random lookups: any hit's effective interval must overlap the bounds, and
    // the returned value must be one we inserted for that key.
    const int probe = static_cast<int>(rng.Uniform(0, kKeys - 1));
    Timestamp lo = static_cast<Timestamp>(rng.Uniform(0, static_cast<int64_t>(now_ts)));
    Timestamp hi = lo + static_cast<Timestamp>(rng.Uniform(0, 30));
    LookupRequest req;
    req.key = "k" + std::to_string(probe);
    req.bounds_lo = lo;
    req.bounds_hi = hi;
    LookupResponse resp = server.Lookup(req);
    if (resp.hit) {
      ASSERT_FALSE(resp.interval.empty());
      ASSERT_TRUE(resp.interval.Overlaps(Interval{lo, hi + 1}))
          << resp.interval.ToString() << " vs [" << lo << "," << hi << "]";
      ASSERT_TRUE(inserted.contains(std::make_pair(probe, resp.interval.lower)))
          << "returned a value never inserted for this key/lower";
      ASSERT_EQ(resp.value_ref(), (inserted[std::make_pair(probe, resp.interval.lower)]));
    }
  }
}

TEST_P(CachePropertyTest, DeliveryOrderDoesNotMatter) {
  Rng rng(GetParam() ^ 0xfeed);
  // Build a batch of entries and a batch of invalidation messages; apply the messages in
  // sequence order to one server and in a random permutation to another. Final visible state
  // (every lookup outcome) must match.
  std::vector<InsertRequest> inserts;
  for (int k = 0; k < 10; ++k) {
    InsertRequest req;
    req.key = "k" + std::to_string(k);
    req.value = "v" + std::to_string(k);
    req.interval = {1, kTimestampInfinity};
    req.computed_at = 1;
    req.tags = {TagFor(k % 3)};
    inserts.push_back(req);
  }
  std::vector<InvalidationMessage> messages;
  for (uint64_t i = 0; i < 12; ++i) {
    InvalidationMessage msg;
    msg.seqno = i + 1;
    msg.ts = 5 + i * 3;
    msg.tags = {TagFor(static_cast<int64_t>(rng.Uniform(0, 2)))};
    messages.push_back(msg);
  }

  ManualClock clock;
  CacheServer in_order("in-order", &clock);
  CacheServer shuffled("shuffled", &clock);
  for (const InsertRequest& req : inserts) {
    ASSERT_TRUE(in_order.Insert(req).ok());
    ASSERT_TRUE(shuffled.Insert(req).ok());
  }
  for (const InvalidationMessage& msg : messages) {
    in_order.Deliver(msg);
  }
  std::vector<InvalidationMessage> permuted = messages;
  std::shuffle(permuted.begin(), permuted.end(), rng.engine());
  for (const InvalidationMessage& msg : permuted) {
    shuffled.Deliver(msg);
  }
  EXPECT_EQ(shuffled.last_invalidation_ts(), in_order.last_invalidation_ts());

  for (int k = 0; k < 10; ++k) {
    for (Timestamp lo = 0; lo < 45; lo += 5) {
      LookupRequest req;
      req.key = "k" + std::to_string(k);
      req.bounds_lo = lo;
      req.bounds_hi = lo + 4;
      LookupResponse a = in_order.Lookup(req);
      LookupResponse b = shuffled.Lookup(req);
      ASSERT_EQ(a.hit, b.hit) << "key " << k << " bounds [" << lo << "," << lo + 4 << "]";
      if (a.hit) {
        ASSERT_EQ(a.interval, b.interval);
        ASSERT_EQ(a.value_ref(), b.value_ref());
      }
    }
  }
}

TEST_P(CachePropertyTest, EvictionNeverBreaksAccounting) {
  ManualClock clock;
  for (EvictionPolicy policy : {EvictionPolicy::kLru, EvictionPolicy::kCostAware}) {
    CacheServer::Options options;
    options.capacity_bytes = 4096;
    options.policy = policy;
    CacheServer server("tiny", &clock, options);
    Rng rng(GetParam() ^ 0xcafe);
    for (int step = 0; step < 500; ++step) {
      InsertRequest req;
      req.key = "k" + std::to_string(rng.Uniform(0, 40));
      req.value = std::string(static_cast<size_t>(rng.Uniform(10, 400)), 'x');
      Timestamp lower = static_cast<Timestamp>(rng.Uniform(1, 1000));
      req.interval = {lower, lower + static_cast<Timestamp>(rng.Uniform(1, 50))};
      req.fill_cost_us = static_cast<uint64_t>(rng.Uniform(0, 5000));
      server.Insert(req);
      ASSERT_LE(server.bytes_used(), options.capacity_bytes);
    }
    const CacheStats stats = server.stats();
    EXPECT_GT(stats.capacity_evictions(), 0u);
    EXPECT_GT(stats.eviction_bytes_reclaimed, 0u);
    server.Flush();
    EXPECT_EQ(server.bytes_used(), 0u);
    EXPECT_EQ(server.version_count(), 0u);
  }
}

// Body of the no-resurrect/no-widen model check, shared by the capacity-eviction and
// TTL-expiry variants below. Under random insert / invalidate / evict interleavings (the tiny
// budget keeps the cost-aware eviction policy continuously active), no lookup may ever return
// a version outside its true validity interval: the value must be one actually inserted for
// that (key, lower), and its reported upper bound may never exceed the earliest invalidation
// of the version's tag group after its computed_at (nor the inserted upper for closed
// intervals). Eviction may only lose entries, never resurrect or widen them.
// (ASSERTs force a void return type; final stats are reported through *stats_out.)
void RunNoResurrectNoWiden(const CacheServer::Options& options, uint64_t seed,
                           CacheStats* stats_out = nullptr) {
  ManualClock clock;
  clock.Set(Seconds(100));
  CacheServer server("evict-prop", &clock, options);
  Rng rng(seed);

  constexpr int kKeys = 12;
  constexpr int kGroups = 4;
  Timestamp now_ts = 1;
  uint64_t seqno = 1;
  // Model: value inserted per (key, lower), the interval upper claimed at insert time
  // (kTimestampInfinity for still-valid inserts), its computed_at and group.
  struct Inserted {
    std::string value;
    Timestamp upper;
    Timestamp computed_at;
    int group;
  };
  std::map<std::pair<int, Timestamp>, Inserted> model;
  // Every invalidation: (group, ts); wildcard messages recorded as group -1 (hits all).
  std::vector<std::pair<int, Timestamp>> invals;
  auto first_invalidation_after = [&invals](int group, Timestamp after) {
    Timestamp first = kTimestampInfinity;
    for (const auto& [g, ts] : invals) {
      if ((g == group || g == -1) && ts > after) {
        first = std::min(first, ts);
      }
    }
    return first;
  };

  for (int step = 0; step < 600; ++step) {
    const int key = static_cast<int>(rng.Uniform(0, kKeys - 1));
    const int group = key % kGroups;
    clock.Advance(Millis(5));
    if (rng.Bernoulli(0.6)) {
      const Timestamp lower = static_cast<Timestamp>(rng.Uniform(
          static_cast<int64_t>(now_ts > 12 ? now_ts - 12 : 1), static_cast<int64_t>(now_ts)));
      // Everything about the version is a pure function of (key, lower): re-inserting after
      // an eviction reproduces the identical request, so the model never goes stale no matter
      // which of the colliding inserts ended up resident.
      const uint64_t mix = static_cast<uint64_t>(key) * 37 + lower * 13;
      const bool open = mix % 2 == 0;
      InsertRequest req;
      req.key = "k" + std::to_string(key);
      req.value = "v" + std::to_string(key) + "@" + std::to_string(lower) +
                  std::string(static_cast<size_t>(mix % 300), 'p');
      req.interval = {lower, open ? kTimestampInfinity : lower + 1 + (mix % 9)};
      req.computed_at = lower;
      req.tags = {TagFor(group)};
      req.fill_cost_us = mix % 10000;
      Status st = server.Insert(req);
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDeclined) << st.ToString();
      model[std::make_pair(key, lower)] =
          Inserted{req.value, req.interval.upper, req.computed_at, group};
    } else {
      InvalidationMessage msg;
      msg.seqno = seqno++;
      msg.ts = ++now_ts;
      msg.wallclock = clock.Now();
      const int g = static_cast<int>(rng.Uniform(0, kGroups - 1));
      msg.tags.push_back(TagFor(g));
      invals.emplace_back(g, msg.ts);
      if (rng.Bernoulli(0.15)) {
        msg.tags.push_back(InvalidationTag::Wildcard("t"));
        invals.emplace_back(-1, msg.ts);
      }
      server.Deliver(msg);
    }
    ASSERT_LE(server.bytes_used(), options.capacity_bytes);

    // Probe a random key: any hit must be explainable by the model.
    const int probe = static_cast<int>(rng.Uniform(0, kKeys - 1));
    Timestamp lo = static_cast<Timestamp>(rng.Uniform(0, static_cast<int64_t>(now_ts)));
    Timestamp hi = lo + static_cast<Timestamp>(rng.Uniform(0, 20));
    LookupRequest req;
    req.key = "k" + std::to_string(probe);
    req.bounds_lo = lo;
    req.bounds_hi = hi;
    LookupResponse resp = server.Lookup(req);
    if (!resp.hit) {
      continue;
    }
    ASSERT_TRUE(resp.interval.Overlaps(Interval{lo, hi + 1}))
        << resp.interval.ToString() << " vs [" << lo << "," << hi << "]";
    auto it = model.find(std::make_pair(probe, resp.interval.lower));
    ASSERT_NE(it, model.end()) << "hit on a version never inserted: k" << probe << " lower="
                               << resp.interval.lower;
    ASSERT_EQ(resp.value_ref(), it->second.value);
    // No widening: the reported upper bound may never exceed what insert-time truncation and
    // the invalidation stream allow for this version.
    const Inserted& ins = it->second;
    Timestamp allowed_upper = ins.upper;
    if (ins.upper == kTimestampInfinity) {
      const Timestamp first = first_invalidation_after(ins.group, ins.computed_at);
      if (first != kTimestampInfinity) {
        allowed_upper = first;
      }
    }
    ASSERT_LE(resp.interval.upper, allowed_upper)
        << "validity widened beyond the stream: k" << probe << " lower=" << resp.interval.lower;
  }
  if (stats_out != nullptr) {
    *stats_out = server.stats();
  }
}

TEST_P(CachePropertyTest, EvictionNeverResurrectsOrWidensValidity) {
  CacheServer::Options options;
  options.capacity_bytes = 8192;
  options.policy = EvictionPolicy::kCostAware;
  // Tiny touch buffer: the probe on every step enqueues deferred hits, so the drains (and
  // their overflow-repair path) interleave with every insert/invalidate/evict the model
  // checks — the no-resurrect/no-widen invariant must survive those interleavings too.
  options.touch_buffer_capacity = 3;
  RunNoResurrectNoWiden(options, GetParam() ^ 0xbeef);
}

TEST_P(CachePropertyTest, TtlExpiryEvictionNeverResurrectsOrWidensValidity) {
  // Same model check with learned-TTL expiry running hot inside the interleavings: raw keys
  // are their own CacheKeyFunction bucket, the frequent invalidations teach per-key
  // lifetimes quickly (min_samples 2), the aggressive slack demotes anything resident past
  // half its learned lifetime, and the tiny sweep interval runs the demotion pass every few
  // mutations. Demotion must remain pure eviction preference: whatever it evicts, no lookup
  // may ever see a resurrected value or a widened interval.
  CacheServer::Options options;
  options.capacity_bytes = 8192;
  options.policy = EvictionPolicy::kCostAware;
  options.touch_buffer_capacity = 3;
  options.lifetime_min_samples = 1;
  options.ttl_expiry_slack = 0.25;
  options.sweep_interval_ops = 4;
  CacheStats stats;
  RunNoResurrectNoWiden(options, GetParam() ^ 0x77d1, &stats);
  EXPECT_GT(stats.ttl_demotions, 0u)
      << "the TTL variant must actually demote inside the interleavings, or it checks nothing";
}

TEST_P(CachePropertyTest, ChurnNeverServesVersionsInvalidatedWhileDown) {
  // Model-checked interleavings of lookups, inserts and invalidations racing node kill,
  // rejoin and ring resize. The invariant is the crash/rejoin analogue of
  // EvictionNeverResurrectsOrWidensValidity: whatever a node missed while down, no lookup may
  // ever return a version whose reported validity extends past the first invalidation of its
  // tag group after its computed_at — i.e. a rejoined node never serves entries it missed
  // invalidations for. The small bus history forces both rejoin paths (catch-up replay for
  // short outages, flush-and-adopt for long ones).
  ManualClock clock;
  clock.Set(Seconds(100));
  InvalidationBus bus(/*history_limit=*/24);
  CacheServer::Options options;
  options.num_shards = 4;
  CacheServer n0("n0", &clock, options), n1("n1", &clock, options);
  CacheServer* nodes[2] = {&n0, &n1};
  bus.Subscribe(&n0);
  bus.Subscribe(&n1);
  CacheCluster cluster;
  cluster.AddNode(&n0);
  cluster.AddNode(&n1);
  bool down[2] = {false, false};
  bool in_ring[2] = {true, true};
  Rng rng(GetParam() ^ 0x5ca1ab1e);

  constexpr int kKeys = 16;
  constexpr int kGroups = 4;
  Timestamp now_ts = 1;
  struct Inserted {
    std::string value;
    Timestamp upper;
    Timestamp computed_at;
    int group;
  };
  std::map<std::pair<int, Timestamp>, Inserted> model;
  std::vector<std::pair<int, Timestamp>> invals;  // (group, ts); -1 = wildcard
  auto first_invalidation_after = [&invals](int group, Timestamp after) {
    Timestamp first = kTimestampInfinity;
    for (const auto& [g, ts] : invals) {
      if ((g == group || g == -1) && ts > after) {
        first = std::min(first, ts);
      }
    }
    return first;
  };

  for (int step = 0; step < 900; ++step) {
    clock.Advance(Millis(5));
    const double roll = rng.UniformReal(0, 1);
    if (roll < 0.40) {
      // Insert through cluster routing. Everything about the version is a pure function of
      // (key, lower), so re-inserting after churn reproduces the identical request and the
      // model stays valid no matter which incarnation ended up resident. Refused inserts
      // (down/joining owner) still enter the model: it only bounds what a hit may claim.
      const int key = static_cast<int>(rng.Uniform(0, kKeys - 1));
      const int group = key % kGroups;
      const Timestamp lower = static_cast<Timestamp>(rng.Uniform(
          static_cast<int64_t>(now_ts > 12 ? now_ts - 12 : 1), static_cast<int64_t>(now_ts)));
      const uint64_t mix = static_cast<uint64_t>(key) * 41 + lower * 17;
      InsertRequest req;
      req.key = "k" + std::to_string(key);
      req.value = "v" + std::to_string(key) + "@" + std::to_string(lower);
      req.interval = {lower, mix % 2 == 0 ? kTimestampInfinity : lower + 1 + (mix % 9)};
      req.computed_at = lower;
      req.tags = {TagFor(group)};
      InsertResponse resp = cluster.Insert(req);
      ASSERT_TRUE(resp.status.ok() || resp.status.code() == StatusCode::kDeclined ||
                  resp.status.code() == StatusCode::kUnavailable)
          << resp.status.ToString();
      model[std::make_pair(key, lower)] =
          Inserted{req.value, req.interval.upper, req.computed_at, group};
    } else if (roll < 0.65) {
      // Invalidate through the bus: live nodes apply it, down nodes lose it — exactly the gap
      // the join protocol must close.
      InvalidationMessage msg;
      msg.ts = ++now_ts;
      msg.wallclock = clock.Now();
      const int g = static_cast<int>(rng.Uniform(0, kGroups - 1));
      msg.tags.push_back(TagFor(g));
      invals.emplace_back(g, msg.ts);
      if (rng.Bernoulli(0.1)) {
        msg.tags.push_back(InvalidationTag::Wildcard("t"));
        invals.emplace_back(-1, msg.ts);
      }
      bus.Publish(msg);
    } else if (roll < 0.75) {
      // Kill or rejoin a node.
      const size_t i = rng.Uniform(0, 1);
      if (down[i]) {
        ASSERT_TRUE(nodes[i]->Join(&bus).ok());
        ASSERT_TRUE(nodes[i]->serving()) << "synchronous join catches up before returning";
        down[i] = false;
      } else {
        nodes[i]->Crash();
        down[i] = true;
      }
    } else if (roll < 0.80) {
      // Ring resize: remove or re-add a node independently of its up/down state.
      const size_t i = rng.Uniform(0, 1);
      if (in_ring[i]) {
        cluster.RemoveNode(nodes[i]->name());
        in_ring[i] = false;
      } else {
        cluster.AddNode(nodes[i]);
        in_ring[i] = true;
      }
    }

    // Probe a random key through cluster routing: any hit must be explainable by the model.
    const int probe = static_cast<int>(rng.Uniform(0, kKeys - 1));
    const Timestamp lo = static_cast<Timestamp>(rng.Uniform(0, static_cast<int64_t>(now_ts)));
    const Timestamp hi = lo + static_cast<Timestamp>(rng.Uniform(0, 20));
    LookupRequest req;
    req.key = "k" + std::to_string(probe);
    req.bounds_lo = lo;
    req.bounds_hi = hi;
    LookupResponse resp = cluster.Lookup(req);
    if (!resp.hit) {
      continue;
    }
    ASSERT_TRUE(resp.interval.Overlaps(Interval{lo, hi + 1}));
    auto it = model.find(std::make_pair(probe, resp.interval.lower));
    ASSERT_NE(it, model.end()) << "hit on a version never inserted: k" << probe;
    ASSERT_EQ(resp.value_ref(), it->second.value);
    const Inserted& ins = it->second;
    Timestamp allowed_upper = ins.upper;
    if (ins.upper == kTimestampInfinity) {
      const Timestamp first = first_invalidation_after(ins.group, ins.computed_at);
      if (first != kTimestampInfinity) {
        allowed_upper = first;
      }
    }
    ASSERT_LE(resp.interval.upper, allowed_upper)
        << "stale read: k" << probe << " lower=" << resp.interval.lower
        << " claims validity past an invalidation its node must have missed";
  }

  // Quiesce: rejoin and re-add everything, then fence with a wildcard beyond every insert.
  // Nothing was computed at the fence timestamp, so no key may claim validity there — a
  // version that slipped through a crash/rejoin gap would surface exactly here.
  for (size_t i = 0; i < 2; ++i) {
    if (down[i]) {
      ASSERT_TRUE(nodes[i]->Join(&bus).ok());
      down[i] = false;
    }
    if (!in_ring[i]) {
      cluster.AddNode(nodes[i]);
      in_ring[i] = true;
    }
  }
  InvalidationMessage fence;
  fence.ts = ++now_ts;
  fence.wallclock = clock.Now();
  fence.tags = {InvalidationTag::Wildcard("t")};
  bus.Publish(fence);
  for (int key = 0; key < kKeys; ++key) {
    LookupRequest req;
    req.key = "k" + std::to_string(key);
    req.bounds_lo = fence.ts;
    req.bounds_hi = kTimestampInfinity;
    LookupResponse resp = cluster.Lookup(req);
    if (!resp.hit) {
      continue;
    }
    // A closed-interval insert whose declared upper extends past the fence may legitimately
    // hit (invalidations only truncate still-valid entries). What must be impossible is a
    // version still claiming open-ended validity — the wildcard fence reached every serving
    // node, so a surviving still-valid claim means a node served state from its gap.
    ASSERT_FALSE(resp.still_valid) << "still-valid version survived the fence on k" << key;
    auto it = model.find(std::make_pair(key, resp.interval.lower));
    ASSERT_NE(it, model.end());
    ASSERT_LE(resp.interval.upper, it->second.upper);
  }
}

TEST_P(CachePropertyTest, RacingWritersStaySerializable) {
  // Whole-system serializability under model-checked interleavings: two optimistic read-write
  // transactions advance step by step (begin / cached read / write intent / write / commit or
  // abort) interleaved with read-only transactions, the invalidation traffic their commits
  // generate, cache flushes, node crash/rejoin and ring resizes. The oracle applies committed
  // effects in commit order (the single-threaded step order IS the commit order):
  //   * a committed writer must have read exactly the model's current value — a stale cached
  //     read surviving commit validation would surface here as a lost update;
  //   * a committed write-free transaction and every read-only transaction must have read the
  //     model's value at their reported serialization timestamp;
  //   * an aborted transaction contributes nothing: the final database state equals the model,
  //     and no write intent survives any exit path or churn event.
  ManualClock clock;
  clock.Set(Seconds(100));
  Database db(&clock);
  InvalidationBus bus;
  db.set_invalidation_bus(&bus);
  CacheServer::Options copts;
  copts.num_shards = 4;
  CacheServer n0("n0", &clock, copts), n1("n1", &clock, copts);
  CacheServer* nodes[2] = {&n0, &n1};
  bus.Subscribe(&n0);
  bus.Subscribe(&n1);
  CacheCluster cluster;
  cluster.AddNode(&n0);
  cluster.AddNode(&n1);
  Pincushion pincushion(&db, &clock);
  bool down[2] = {false, false};
  bool in_ring[2] = {true, true};
  Rng rng(GetParam() ^ 0x0ddba11);

  constexpr int64_t kNumAccounts = 6;
  testing::CreateAccountsTable(&db);
  // Committed history per account: (commit ts, balance), appended in commit order.
  std::map<int64_t, std::vector<std::pair<Timestamp, int64_t>>> history;
  for (int64_t id = 1; id <= kNumAccounts; ++id) {
    const Timestamp ts = testing::InsertAccount(&db, id, "u" + std::to_string(id), 1000);
    history[id] = {{ts, 1000}};
  }
  auto value_at = [&history](int64_t id, Timestamp ts) {
    int64_t v = -1;
    for (const auto& [cts, bal] : history[id]) {
      if (cts <= ts) {
        v = bal;
      }
    }
    return v;
  };
  auto latest = [&history](int64_t id) { return history[id].back().second; };

  TxCacheClient::Options wopts;
  wopts.rw_backoff_sleep = [](WallClock) {};
  auto wa = std::make_unique<TxCacheClient>(&db, &pincushion, &cluster, &clock, wopts);
  auto wb = std::make_unique<TxCacheClient>(&db, &pincushion, &cluster, &clock, wopts);
  auto rd = std::make_unique<TxCacheClient>(&db, &pincushion, &cluster, &clock);
  TxCacheClient* writers[2] = {wa.get(), wb.get()};
  auto make_balance = [](TxCacheClient* c) {
    return c->MakeCacheable<int64_t, int64_t>("balance", [c](int64_t id) -> int64_t {
      auto r = c->ExecuteQuery(testing::AccountById(id));
      return r.ok() && !r.value().rows.empty()
                 ? r.value().rows[0][testing::AccountsCol::kBalance].AsInt()
                 : -1;
    });
  };
  CacheableFunction<int64_t, int64_t> balances[2] = {make_balance(wa.get()),
                                                     make_balance(wb.get())};
  CacheableFunction<int64_t, int64_t> reader_balance = make_balance(rd.get());

  struct WriterState {
    bool active = false;
    int64_t src = 0, dst = 0;
    int64_t observed = 0;       // balance(src) read at the transaction's snapshot
    bool wrote = false;
    int64_t written_value = 0;  // observed + delta, pending on dst until commit
  } w[2];
  uint64_t committed_writes = 0;

  for (int step = 0; step < 700; ++step) {
    clock.Advance(Millis(7));
    const double roll = rng.UniformReal(0, 1);
    if (roll < 0.55) {
      // Advance one writer's transaction state machine.
      const size_t i = rng.Uniform(0, 1);
      TxCacheClient* c = writers[i];
      WriterState& s = w[i];
      if (!s.active) {
        ASSERT_TRUE(c->BeginRw().ok());
        s.src = static_cast<int64_t>(rng.Uniform(1, kNumAccounts));
        s.dst = static_cast<int64_t>(rng.Uniform(1, kNumAccounts));
        s.observed = balances[i](s.src);  // cached hit, or tag-tracked recompute at snapshot
        ASSERT_GE(s.observed, 0);
        s.wrote = false;
        s.active = true;
      } else if (!s.wrote && rng.Bernoulli(0.7)) {
        // Announce and perform the write. A refused intent (the other writer got there
        // first) or a write-write conflict is an early abort: retryable, traceless.
        if (rng.Bernoulli(0.6)) {
          Status intent = c->WriteIntent(MakeCacheKey("balance", s.dst));
          if (!intent.ok()) {
            ASSERT_EQ(intent.code(), StatusCode::kConflict);
            ASSERT_TRUE(c->Abort().ok());
            s.active = false;
            continue;
          }
        }
        s.written_value = s.observed + 1 + static_cast<int64_t>(i);
        auto nrows = c->Update(
            testing::kAccounts,
            AccessPath::IndexEq(testing::kAccounts, testing::kAccountsPk, Row{Value(s.dst)}),
            nullptr, {{testing::AccountsCol::kBalance, Value(s.written_value)}});
        if (!nrows.ok()) {
          ASSERT_EQ(nrows.status().code(), StatusCode::kConflict);
          ASSERT_TRUE(c->Abort().ok());
          s.active = false;
          continue;
        }
        s.wrote = true;
      } else if (rng.Bernoulli(0.15)) {
        ASSERT_TRUE(c->Abort().ok());  // model untouched: the no-trace half of the oracle
        s.active = false;
      } else {
        auto ts_or = c->CommitRw();
        if (ts_or.ok()) {
          if (s.wrote) {
            // Strict serializability at the commit timestamp: the snapshot read must still
            // be the model's CURRENT value (commit order here is step order). A stale cached
            // read that slipped through validation shows up as exactly this mismatch.
            ASSERT_EQ(s.observed, latest(s.src))
                << "committed writer observed a stale balance for account " << s.src;
            history[s.dst].emplace_back(ts_or.value(), s.written_value);
            ++committed_writes;
          } else {
            // Write-free transactions serialize at their snapshot.
            ASSERT_EQ(s.observed, value_at(s.src, ts_or.value()));
          }
        } else {
          ASSERT_EQ(ts_or.status().code(), StatusCode::kConflict);
        }
        s.active = false;
      }
    } else if (roll < 0.72) {
      // Read-only transaction: its reported serialization point must explain its read.
      const int64_t id = static_cast<int64_t>(rng.Uniform(1, kNumAccounts));
      ASSERT_TRUE(rd->BeginRO(Seconds(30)).ok());
      const int64_t v = reader_balance(id);
      auto ts_or = rd->Commit();
      ASSERT_TRUE(ts_or.ok());
      ASSERT_EQ(v, value_at(id, ts_or.value()))
          << "read-only transaction read a value inconsistent with its serialization point";
    } else if (roll < 0.82) {
      // Kill or rejoin a node; crash and rejoin both drop intents wholesale.
      const size_t i = rng.Uniform(0, 1);
      if (down[i]) {
        ASSERT_TRUE(nodes[i]->Join(&bus).ok());
        down[i] = false;
      } else {
        nodes[i]->Crash();
        down[i] = true;
      }
    } else if (roll < 0.88) {
      // Ring resize, independent of up/down state.
      const size_t i = rng.Uniform(0, 1);
      if (in_ring[i]) {
        cluster.RemoveNode(nodes[i]->name());
        in_ring[i] = false;
      } else {
        cluster.AddNode(nodes[i]);
        in_ring[i] = true;
      }
    } else if (roll < 0.92) {
      // Wholesale eviction of a serving node's data (and any intents parked on it).
      const size_t i = rng.Uniform(0, 1);
      if (!down[i]) {
        nodes[i]->Flush();
      }
    }
  }

  // Quiesce: close open transactions, rejoin everything. The final database state must equal
  // the model exactly — every aborted transaction traceless, every committed one applied —
  // and no write intent may survive.
  for (size_t i = 0; i < 2; ++i) {
    if (w[i].active) {
      ASSERT_TRUE(writers[i]->Abort().ok());
    }
    if (down[i]) {
      ASSERT_TRUE(nodes[i]->Join(&bus).ok());
      down[i] = false;
    }
  }
  EXPECT_GT(committed_writes, 0u) << "the interleaving never committed a write; vacuous run";
  for (int64_t id = 1; id <= kNumAccounts; ++id) {
    ASSERT_EQ(testing::ReadLatest(&db, testing::AccountById(id))
                  .rows[0][testing::AccountsCol::kBalance]
                  .AsInt(),
              latest(id))
        << "final state diverged from the commit-order model on account " << id;
  }
  EXPECT_EQ(n0.ClearIntents(), 0u);
  EXPECT_EQ(n1.ClearIntents(), 0u);
}

TEST_P(CachePropertyTest, DerivedTagSqlReadsNeverGoStale) {
  // The no-stale-read property, extended to automatic tag derivation: every statement below
  // is planned, tagged and cached with ZERO hand-written tag specs (SqlSession in derived
  // mode with the ad-hoc statement cache on). Writers mutate the table through SQL — updates,
  // inserts, deletes — while a reader replays a small pool of SELECT statements spanning the
  // whole fallback ladder: point lookups (IndexEq, concrete tags), secondary-index equalities,
  // ranges (IndexRange, table wildcard) and balance residuals (SeqScan, table wildcard). The
  // oracle is a per-account committed history; whatever serialization timestamp the reader's
  // Commit() reports, its rows must equal the model at that timestamp. An under-scoped
  // derived tag set — a statement filed under tags some write does not touch — would leave a
  // stale entry behind and surface here as a row mismatch.
  ManualClock clock;
  clock.Set(Seconds(100));
  Database db(&clock);
  InvalidationBus bus;
  db.set_invalidation_bus(&bus);
  CacheServer node("sqlprop", &clock);
  bus.Subscribe(&node);
  CacheCluster cluster;
  cluster.AddNode(&node);
  Pincushion pincushion(&db, &clock);
  Rng rng(GetParam() ^ 0x5a11);

  testing::CreateAccountsTable(&db);
  // Committed history per account id: (commit ts, balance), -1 = deleted/not yet inserted.
  std::map<int64_t, std::vector<std::pair<Timestamp, int64_t>>> history;
  auto owner_of = [](int64_t id) { return "g" + std::to_string(id % 3); };
  for (int64_t id = 1; id <= 6; ++id) {
    const Timestamp ts = testing::InsertAccount(&db, id, owner_of(id), 1000, id % 2);
    history[id] = {{ts, 1000}};
  }
  int64_t next_id = 7;
  auto value_at = [&history](int64_t id, Timestamp ts) {
    int64_t v = -1;
    for (const auto& [cts, bal] : history[id]) {
      if (cts <= ts) {
        v = bal;
      }
    }
    return v;
  };

  auto writer = std::make_unique<TxCacheClient>(&db, &pincushion, &cluster, &clock);
  sql::SqlSession write_sql(writer.get(), &db);
  write_sql.set_tag_mode(sql::SqlSession::TagMode::kDerived);
  auto reader = std::make_unique<TxCacheClient>(&db, &pincushion, &cluster, &clock);
  sql::SqlSession read_sql(reader.get(), &db);
  read_sql.set_tag_mode(sql::SqlSession::TagMode::kDerived);
  read_sql.set_cache_selects(true);

  auto run_write = [&](const std::string& text) -> std::pair<Timestamp, int64_t> {
    EXPECT_TRUE(writer->BeginRW().ok());
    auto r = write_sql.Execute(text);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    auto ts = writer->Commit();
    EXPECT_TRUE(ts.ok());
    return {ts.value(), r.ok() ? r.value().affected : 0};
  };

  for (int step = 0; step < 400; ++step) {
    clock.Advance(Millis(7));
    const double roll = rng.UniformReal(0, 1);
    if (roll < 0.60) {
      // One SELECT from the statement pool, checked against the model at the transaction's
      // serialization timestamp. Literal pools are small so statements repeat and the ad-hoc
      // cache actually serves hits (asserted non-vacuous below).
      ASSERT_TRUE(reader->BeginRO(Seconds(30)).ok());
      const int family = static_cast<int>(rng.Uniform(0, 3));
      const int64_t id = static_cast<int64_t>(rng.Uniform(1, next_id - 1));
      const std::string group = owner_of(rng.Uniform(0, 5));
      const int64_t lo = static_cast<int64_t>(rng.Uniform(1, 4));
      const int64_t threshold = 500 * static_cast<int64_t>(rng.Uniform(1, 3));
      std::string text;
      switch (family) {
        case 0:
          text = "SELECT balance FROM accounts WHERE id = " + std::to_string(id);
          break;
        case 1:
          text = "SELECT id, balance FROM accounts WHERE owner = '" + group + "' ORDER BY id";
          break;
        case 2:
          text = "SELECT id, balance FROM accounts WHERE id >= " + std::to_string(lo) +
                 " AND id <= " + std::to_string(lo + 2) + " ORDER BY id";
          break;
        default:
          text = "SELECT id, balance FROM accounts WHERE balance >= " +
                 std::to_string(threshold) + " ORDER BY id";
          break;
      }
      auto r = read_sql.Execute(text);
      ASSERT_TRUE(r.ok()) << text << ": " << r.status().ToString();
      auto ts_or = reader->Commit();
      ASSERT_TRUE(ts_or.ok());
      const Timestamp ts = ts_or.value();
      // Expected rows from the model at ts, in the statement's ORDER BY id order.
      std::vector<std::pair<int64_t, int64_t>> expected;
      for (const auto& [aid, _] : history) {
        const int64_t bal = value_at(aid, ts);
        if (bal < 0) continue;
        const bool matches = family == 0   ? aid == id
                             : family == 1 ? owner_of(aid) == group
                             : family == 2 ? (aid >= lo && aid <= lo + 2)
                                           : bal >= threshold;
        if (matches) {
          expected.emplace_back(aid, bal);
        }
      }
      ASSERT_EQ(r.value().rows.size(), expected.size())
          << text << " at ts " << ts << (r.value().from_cache ? " (cached)" : " (computed)");
      for (size_t i = 0; i < expected.size(); ++i) {
        const Row& row = r.value().rows[i];
        if (family == 0) {
          ASSERT_EQ(row[0].AsInt(), expected[i].second) << text << " at ts " << ts;
        } else {
          ASSERT_EQ(row[0].AsInt(), expected[i].first) << text << " at ts " << ts;
          ASSERT_EQ(row[1].AsInt(), expected[i].second) << text << " at ts " << ts;
        }
      }
    } else if (roll < 0.85) {
      // UPDATE through the derived write-target wildcard.
      const int64_t id = static_cast<int64_t>(rng.Uniform(1, next_id - 1));
      const int64_t bal = static_cast<int64_t>(rng.Uniform(0, 2000));
      auto [ts, affected] = run_write("UPDATE accounts SET balance = " + std::to_string(bal) +
                                      " WHERE id = " + std::to_string(id));
      if (affected > 0) {
        history[id].emplace_back(ts, bal);
      }
    } else if (roll < 0.93) {
      // INSERT: per-index concrete tags must reach every cached statement that could now
      // return the new row (owner groups, ranges, scans).
      const int64_t id = next_id++;
      auto [ts, affected] =
          run_write("INSERT INTO accounts VALUES (" + std::to_string(id) + ", '" +
                    owner_of(id) + "', 1000, " + std::to_string(id % 2) + ")");
      if (affected > 0) {
        history[id].emplace_back(ts, 1000);
      }
    } else {
      // DELETE: rows must disappear from every cached statement at the commit timestamp.
      const int64_t id = static_cast<int64_t>(rng.Uniform(1, next_id - 1));
      auto [ts, affected] =
          run_write("DELETE FROM accounts WHERE id = " + std::to_string(id));
      if (affected > 0) {
        history[id].emplace_back(ts, -1);
      }
    }
  }

  EXPECT_GT(reader->stats().cache_hits, 0u)
      << "the ad-hoc statement cache never served a hit; the run was vacuous";
}

// The eight historical seeds, extended to TXCACHE_PROPERTY_SEEDS=N seeds when N > 8 (a soak
// run; the suite prints each seed's index). Unset or N <= 8 runs exactly the eight.
std::vector<uint64_t> PropertySeeds() {
  std::vector<uint64_t> seeds = {11, 22, 33, 44, 55, 66, 77, 88};
  const char* env = std::getenv("TXCACHE_PROPERTY_SEEDS");
  const uint64_t n = env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
  for (uint64_t i = seeds.size(); i < n; ++i) {
    seeds.push_back(11 * (i + 1));
  }
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachePropertyTest, ::testing::ValuesIn(PropertySeeds()));

}  // namespace
}  // namespace txcache
