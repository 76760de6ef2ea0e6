// Elastic cluster membership: the epoch-stamped ring, the node crash/rejoin protocol (join
// barrier, catch-up vs. flush), and churn degrading to misses instead of errors.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bus/bus.h"
#include "src/bus/sequencer.h"
#include "src/cache/cache_cluster.h"
#include "src/cache/cache_server.h"
#include "src/cluster/consistent_hash.h"
#include "src/core/cacheable_function.h"
#include "src/core/txcache_client.h"
#include "src/util/clock.h"
#include "tests/test_support.h"

namespace txcache {
namespace {

using namespace txcache::testing;

InsertRequest StillValidEntry(const std::string& key, const std::string& value,
                              const std::string& group, Timestamp computed_at = 1) {
  InsertRequest req;
  req.key = key;
  req.value = value;
  req.interval = {computed_at, kTimestampInfinity};
  req.computed_at = computed_at;
  req.tags = {InvalidationTag::Concrete("t", "idx", group)};
  return req;
}

LookupRequest Probe(const std::string& key, Timestamp lo, Timestamp hi) {
  LookupRequest req;
  req.key = key;
  req.bounds_lo = lo;
  req.bounds_hi = hi;
  req.fresh_lo = lo;
  return req;
}

InvalidationMessage GroupInval(const std::string& group, Timestamp ts) {
  InvalidationMessage msg;
  msg.ts = ts;
  msg.tags = {InvalidationTag::Concrete("t", "idx", group)};
  return msg;
}

// --- epoch protocol ------------------------------------------------------------

TEST(Membership, RingEpochBumpsOnEverySuccessfulChange) {
  ConsistentHashRing ring(8);
  EXPECT_EQ(ring.epoch(), 0u);
  EXPECT_TRUE(ring.AddNode("a"));
  EXPECT_EQ(ring.epoch(), 1u);
  EXPECT_FALSE(ring.AddNode("a")) << "duplicate add must not bump the epoch";
  EXPECT_EQ(ring.epoch(), 1u);
  EXPECT_TRUE(ring.AddNode("b"));
  EXPECT_EQ(ring.epoch(), 2u);
  EXPECT_TRUE(ring.RemoveNode("a"));
  EXPECT_EQ(ring.epoch(), 3u);
  EXPECT_FALSE(ring.RemoveNode("a"));
  EXPECT_EQ(ring.epoch(), 3u);
  // Strictly monotone through an add/remove loop.
  uint64_t last = ring.epoch();
  for (int i = 0; i < 10; ++i) {
    const std::string name = std::to_string(i);
    ASSERT_TRUE(ring.AddNode(name));
    ASSERT_GT(ring.epoch(), last);
    last = ring.epoch();
    ASSERT_TRUE(ring.RemoveNode(name));
    ASSERT_GT(ring.epoch(), last);
    last = ring.epoch();
  }
}

TEST(Membership, ClusterResponsesCarryTheRingEpoch) {
  ManualClock clock;
  CacheServer a("a", &clock), b("b", &clock);
  CacheCluster cluster;
  ASSERT_TRUE(cluster.AddNode(&a));
  EXPECT_EQ(cluster.epoch(), 1u);

  InsertResponse ins = cluster.Insert(StillValidEntry("k", "v", "g"));
  EXPECT_TRUE(ins.status.ok());
  EXPECT_EQ(ins.ring_epoch, 1u);

  LookupResponse look = cluster.Lookup(Probe("k", 1, kTimestampInfinity));
  EXPECT_TRUE(look.hit);
  EXPECT_EQ(look.ring_epoch, 1u);

  MultiLookupRequest batch;
  batch.lookups.push_back(Probe("k", 1, kTimestampInfinity));
  auto multi = cluster.MultiLookup(batch);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi.value().ring_epoch, 1u);

  // Membership changes move the stamped epoch, so clients can tell their routing went stale.
  ASSERT_TRUE(cluster.AddNode(&b));
  EXPECT_EQ(cluster.epoch(), 2u);
  EXPECT_EQ(cluster.Lookup(Probe("k", 1, kTimestampInfinity)).ring_epoch, 2u);
  ASSERT_TRUE(cluster.RemoveNode("b"));
  EXPECT_EQ(cluster.Insert(StillValidEntry("k2", "v2", "g")).ring_epoch, 3u);
}

TEST(Membership, RingChangesDropIntentsTheRingCanNoLongerRelease) {
  // Releases follow the ring. An intent acquired before a node joins (its key may now route
  // to the newcomer) or on a node that then leaves could never be released, and would block
  // writers again once the key routed back; every ring change drops intents wholesale.
  ManualClock clock;
  CacheServer a("a", &clock), b("b", &clock), c("c", &clock);
  CacheCluster cluster;
  ASSERT_TRUE(cluster.AddNode(&a));
  ASSERT_TRUE(cluster.AddNode(&b));
  auto intent = [](int i) {
    IntentRequest req;
    req.key = "k" + std::to_string(i);
    req.key_hash = Fnv1a(req.key);
    req.txn_id = 7;
    return req;
  };
  constexpr int kKeys = 64;
  auto acquire_all = [&] {
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(cluster.AcquireIntent(intent(i)).status.ok());
    }
  };
  auto release_all_and_expect_none_left = [&] {
    for (int i = 0; i < kKeys; ++i) {
      cluster.ReleaseIntent(intent(i));
    }
    for (CacheServer* n : {&a, &b, &c}) {
      EXPECT_EQ(n->ClearIntents(), 0u) << "intent leaked on " << n->name();
    }
  };
  acquire_all();
  ASSERT_TRUE(cluster.AddNode(&c));  // moves about a third of the keys to c
  release_all_and_expect_none_left();
  acquire_all();
  ASSERT_TRUE(cluster.RemoveNode("a"));
  release_all_and_expect_none_left();
}

TEST(Membership, ClientObservesEpochChangesAndKeepsAnswering) {
  SystemClock clock;
  Database db(&clock);
  InvalidationBus bus;
  db.set_invalidation_bus(&bus);
  CacheServer a("a", &clock), b("b", &clock), c("c", &clock);
  bus.Subscribe(&a);
  bus.Subscribe(&b);
  CacheCluster cluster;
  cluster.AddNode(&a);
  cluster.AddNode(&b);
  Pincushion pincushion(&db, &clock);
  CreateAccountsTable(&db);
  constexpr int64_t kNumAccounts = 8;
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    InsertAccount(&db, i, "o", 100 + i);
  }

  TxCacheClient client(&db, &pincushion, &cluster, &clock);
  auto balance = client.MakeCacheable<int64_t, int64_t>("bal", [&client](int64_t id) -> int64_t {
    auto r = client.ExecuteQuery(AccountById(id));
    return r.ok() && !r.value().rows.empty() ? r.value().rows[0][AccountsCol::kBalance].AsInt()
                                             : -1;
  });

  ASSERT_TRUE(client.BeginRO().ok());
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    EXPECT_EQ(balance(i), 100 + i);
  }
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_EQ(client.ring_epoch(), 2u) << "two AddNode calls before the first observation";
  EXPECT_EQ(client.stats().ring_epoch_changes, 0u);

  // Ring resize mid-session: the next calls observe the new epoch and still answer correctly
  // (remapped keys recompute; nothing errors).
  bus.Subscribe(&c);
  ASSERT_TRUE(cluster.AddNode(&c));
  ASSERT_TRUE(client.BeginRO().ok());
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    EXPECT_EQ(balance(i), 100 + i);
  }
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_EQ(client.ring_epoch(), 3u);
  EXPECT_GE(client.stats().ring_epoch_changes, 1u) << "the resize was observed as a re-route";
}

// --- remap fraction ------------------------------------------------------------

TEST(Membership, LeaveRemapsAboutOneOverNOfKeys) {
  constexpr size_t kNodes = 8;
  constexpr int kKeys = 40'000;
  ConsistentHashRing ring(64);
  for (size_t n = 0; n < kNodes; ++n) {
    ASSERT_TRUE(ring.AddNode("n" + std::to_string(n)));
  }
  std::map<std::string, std::string> before;
  size_t on_victim = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key" + std::to_string(i);
    before[key] = ring.NodeForKey(key).value();
    if (before[key] == "n3") {
      ++on_victim;
    }
  }
  ASSERT_TRUE(ring.RemoveNode("n3"));
  size_t moved = 0;
  for (const auto& [key, owner] : before) {
    const std::string now = ring.NodeForKey(key).value();
    if (now != owner) {
      ++moved;
      EXPECT_EQ(owner, "n3") << "only the departed node's keys may move";
    }
  }
  EXPECT_EQ(moved, on_victim);
  // Statistical bound: with 64 virtual nodes the departed arc is ~1/n of the key space —
  // never more than 2/n, and not degenerately small either.
  const double fraction = static_cast<double>(moved) / kKeys;
  EXPECT_LE(fraction, 2.0 / kNodes) << "a leave disturbed more than 2/n of the key space";
  EXPECT_GE(fraction, 0.25 / kNodes) << "suspiciously small victim arc";

  // Re-adding the same name restores the exact pre-leave mapping (virtual-node positions are
  // a pure function of the name), so a rejoin reclaims precisely its old arc.
  ASSERT_TRUE(ring.AddNode("n3"));
  for (const auto& [key, owner] : before) {
    EXPECT_EQ(ring.NodeForKey(key).value(), owner);
  }
}

// --- join barrier and catch-up vs flush ---------------------------------------

TEST(Membership, JoinBarrierBlocksServingUntilCaughtUp) {
  ManualClock clock;
  InvalidationBus bus;
  CacheServer node("n", &clock);
  bus.Subscribe(&node);
  ASSERT_TRUE(node.serving()) << "fixed-membership construction serves immediately";
  ASSERT_TRUE(node.Insert(StillValidEntry("k", "v", "g")).ok());

  node.Crash();
  EXPECT_EQ(node.state(), NodeState::kDown);
  LookupResponse down = node.Lookup(Probe("k", 1, kTimestampInfinity));
  EXPECT_FALSE(down.hit);
  EXPECT_EQ(down.miss, MissKind::kNodeUnavailable);
  EXPECT_EQ(node.Insert(StillValidEntry("k2", "v2", "g")).code(), StatusCode::kUnavailable);

  // Invalidation published while the node is down: lost to the node, retained by the bus.
  bus.Publish(GroupInval("g", 10));

  // Hold all further deliveries (including the join catch-up replay), as a network with
  // latency would: the join barrier must stay up until the replay actually arrives.
  std::vector<std::pair<InvalidationSubscriber*, InvalidationMessage>> held;
  bus.SetDeliveryHook([&held](InvalidationSubscriber* sub, const InvalidationMessage& msg) {
    held.emplace_back(sub, msg);
  });
  ASSERT_TRUE(node.Join(&bus).ok());
  EXPECT_EQ(node.state(), NodeState::kJoining);
  LookupResponse joining = node.Lookup(Probe("k", 1, kTimestampInfinity));
  EXPECT_FALSE(joining.hit) << "join barrier: no serving before catch-up completes";
  EXPECT_EQ(joining.miss, MissKind::kNodeUnavailable);
  ASSERT_FALSE(held.empty()) << "the join requested a catch-up replay";

  // Deliver the held replay: the barrier drops and the missed invalidation has been applied.
  for (auto& [sub, msg] : held) {
    sub->Deliver(msg);
  }
  EXPECT_TRUE(node.serving());
  EXPECT_FALSE(node.Lookup(Probe("k", 10, kTimestampInfinity)).hit)
      << "entry invalidated during the outage must not be served at post-invalidation bounds";
  LookupResponse old_window = node.Lookup(Probe("k", 1, 9));
  EXPECT_TRUE(old_window.hit) << "catch-up retains data; the old validity window still serves";
  EXPECT_EQ(old_window.interval.upper, 10);
  EXPECT_GE(node.stats().join_catchups, 1u);
  EXPECT_GE(node.stats().nodes_unavailable, 2u);
}

TEST(Membership, RejoinCatchUpRetainsUnaffectedEntries) {
  ManualClock clock;
  InvalidationBus bus;
  CacheServer node("n", &clock);
  bus.Subscribe(&node);
  ASSERT_TRUE(node.Insert(StillValidEntry("ka", "va", "ga")).ok());
  ASSERT_TRUE(node.Insert(StillValidEntry("kb", "vb", "gb")).ok());

  node.Crash();
  bus.Publish(GroupInval("ga", 10));
  ASSERT_TRUE(node.Join(&bus).ok());
  EXPECT_TRUE(node.serving()) << "synchronous replay catches up before Join returns";
  EXPECT_EQ(node.stats().join_catchups, 1u);
  EXPECT_EQ(node.stats().join_flushes, 0u);

  EXPECT_FALSE(node.Lookup(Probe("ka", 10, kTimestampInfinity)).hit)
      << "the invalidation missed while down was replayed";
  EXPECT_TRUE(node.Lookup(Probe("kb", 10, kTimestampInfinity)).hit)
      << "catch-up preserves entries the missed messages did not touch";
}

TEST(Membership, RejoinFlushesWhenHistoryNoLongerCoversTheGap) {
  ManualClock clock;
  clock.Set(Seconds(100));
  InvalidationBus bus(/*history_limit=*/4);
  CacheServer node("n", &clock);
  bus.Subscribe(&node);
  ASSERT_TRUE(node.Insert(StillValidEntry("ka", "va", "ga")).ok());
  ASSERT_TRUE(node.Insert(StillValidEntry("kb", "vb", "gb")).ok());

  node.Crash();
  // The outage outruns the bounded history: eight messages published, only four retained.
  for (Timestamp ts = 10; ts < 18; ++ts) {
    bus.Publish(GroupInval("ga", ts));
  }
  ASSERT_TRUE(node.Join(&bus).ok());
  EXPECT_TRUE(node.serving());
  EXPECT_EQ(node.stats().join_flushes, 1u);
  EXPECT_EQ(node.stats().join_catchups, 0u);

  // Everything pre-crash is gone — including entries whose tags were never invalidated,
  // because the node cannot prove they were not (the no-stale-read invariant wins).
  EXPECT_FALSE(node.Lookup(Probe("ka", 1, kTimestampInfinity)).hit);
  EXPECT_FALSE(node.Lookup(Probe("kb", 1, kTimestampInfinity)).hit);
  EXPECT_EQ(node.version_count(), 0u);

  // The invalidation-history floor was raised to the adopted position: a late insert computed
  // before the gap cannot claim still-valid — it is conservatively truncated, so it can never
  // serve reads at timestamps whose invalidations this node missed.
  ASSERT_TRUE(node.Insert(StillValidEntry("kc", "vc", "gc", /*computed_at=*/5)).ok());
  EXPECT_GE(node.stats().insert_time_truncations, 1u);
  EXPECT_FALSE(node.Lookup(Probe("kc", 17, kTimestampInfinity)).hit);
  // An insert computed at/after the adopted position is trusted normally.
  ASSERT_TRUE(node.Insert(StillValidEntry("kd", "vd", "gd", /*computed_at=*/17)).ok());
  EXPECT_TRUE(node.Lookup(Probe("kd", 17, kTimestampInfinity)).hit);
}

TEST(Membership, AdoptPositionDrainsLiveMessagesBufferedAtOrPastIt) {
  // Regression: during a flush-rejoin, a message published after the join target was read can
  // arrive live and sit in the reorder buffer at exactly the adopted position. AdoptPosition
  // must release it (and its successors) — nothing will ever re-deliver it, and leaving it
  // stranded would stall the stream forever: every later message would wait on a gap that can
  // no longer fill.
  std::vector<uint64_t> sunk;
  StreamSequencer seq([&sunk](const InvalidationMessage& msg) { sunk.push_back(msg.seqno); });
  InvalidationMessage msg;
  msg.seqno = 5;
  seq.Deliver(msg);  // buffered: position is still 1
  msg.seqno = 6;
  seq.Deliver(msg);
  ASSERT_TRUE(sunk.empty());
  seq.AdoptPosition(5);
  EXPECT_EQ(sunk, (std::vector<uint64_t>{5, 6})) << "buffered live messages must drain";
  EXPECT_EQ(seq.next_expected_seqno(), 7u);
  EXPECT_EQ(seq.pending(), 0u);
  // And the stream keeps flowing afterwards.
  msg.seqno = 7;
  seq.Deliver(msg);
  EXPECT_EQ(sunk.back(), 7u);
}

TEST(Membership, ColdRestartJoinsEmptyAndServesNoPreCrashState) {
  ManualClock clock;
  InvalidationBus bus;
  auto incarnation1 = std::make_unique<CacheServer>("n1", &clock);
  bus.Subscribe(incarnation1.get());
  ASSERT_TRUE(incarnation1->Insert(StillValidEntry("k", "v", "g")).ok());
  bus.Publish(GroupInval("x", 5));  // advances the stream past the fresh-start position
  bus.Unsubscribe(incarnation1.get());
  incarnation1.reset();  // a true crash: the process and its memory are gone

  bus.Publish(GroupInval("g", 10));  // committed while no incarnation was alive

  CacheServer incarnation2("n1", &clock);
  ASSERT_TRUE(incarnation2.Join(&bus).ok());
  EXPECT_TRUE(incarnation2.serving());
  LookupResponse resp = incarnation2.Lookup(Probe("k", 1, kTimestampInfinity));
  EXPECT_FALSE(resp.hit) << "a restarted process holds nothing from its previous life";
  EXPECT_EQ(resp.miss, MissKind::kCompulsory);
  EXPECT_EQ(incarnation2.stream_position(), bus.next_seqno());
}

// --- batched path under churn --------------------------------------------------

TEST(Membership, MultiLookupDegradesDownNodePositionsToMissesInRequestOrder) {
  ManualClock clock;
  CacheServer a("node-a", &clock), b("node-b", &clock);
  CacheCluster cluster;
  cluster.AddNode(&a);
  cluster.AddNode(&b);

  constexpr int kKeys = 32;
  std::vector<bool> owned_by_b(kKeys);
  int b_count = 0;
  for (int k = 0; k < kKeys; ++k) {
    InsertRequest req = StillValidEntry("item" + std::to_string(k), "val" + std::to_string(k), "g");
    ASSERT_TRUE(cluster.Insert(req).status.ok());
    owned_by_b[k] = cluster.NodeForKey(req.key).value() == &b;
    b_count += owned_by_b[k] ? 1 : 0;
  }
  ASSERT_GT(b_count, 0);
  ASSERT_LT(b_count, kKeys);

  // b crashes but stays in the ring (unplanned failure): its positions in a spanning batch
  // must degrade to kNodeUnavailable misses at their request-order slots, while a's positions
  // still hit — the batch never fails as a whole.
  b.Crash();
  MultiLookupRequest batch;
  for (int k = 0; k < kKeys; ++k) {
    batch.lookups.push_back(Probe("item" + std::to_string(k), 1, kTimestampInfinity));
  }
  auto resp_or = cluster.MultiLookup(batch);
  ASSERT_TRUE(resp_or.ok());
  ASSERT_EQ(resp_or.value().responses.size(), batch.lookups.size());
  for (int k = 0; k < kKeys; ++k) {
    const LookupResponse& r = resp_or.value().responses[k];
    if (owned_by_b[k]) {
      EXPECT_FALSE(r.hit);
      EXPECT_EQ(r.miss, MissKind::kNodeUnavailable) << "item" << k;
    } else {
      ASSERT_TRUE(r.hit) << "item" << k;
      EXPECT_EQ(r.value_ref(), "val" + std::to_string(k)) << "request-order reassembly broke";
    }
  }
  EXPECT_EQ(cluster.TotalStats().nodes_unavailable, static_cast<uint64_t>(b_count));

  // A planned leave (RemoveNode) instead reroutes b's arc: the same batch then answers every
  // position from a — b's keys as compulsory misses on their new owner, never an error.
  ASSERT_TRUE(cluster.RemoveNode("node-b"));
  auto rerouted = cluster.MultiLookup(batch);
  ASSERT_TRUE(rerouted.ok());
  for (int k = 0; k < kKeys; ++k) {
    const LookupResponse& r = rerouted.value().responses[k];
    if (owned_by_b[k]) {
      EXPECT_FALSE(r.hit);
      EXPECT_EQ(r.miss, MissKind::kCompulsory) << "rerouted key must miss compulsory on a";
    } else {
      EXPECT_TRUE(r.hit) << "item" << k;
    }
  }
}

TEST(Membership, SingleLookupAndInsertDegradeWhenUnroutable) {
  CacheCluster empty;
  LookupResponse resp = empty.Lookup(Probe("k", 1, kTimestampInfinity));
  EXPECT_FALSE(resp.hit);
  EXPECT_EQ(resp.miss, MissKind::kNodeUnavailable);
  EXPECT_EQ(empty.Insert(StillValidEntry("k", "v", "g")).status.code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(empty.NodeForKey("k").ok());
  EXPECT_NE(empty.NodeForKey("k").status().code(), StatusCode::kInternal)
      << "churn is never an internal error";
  EXPECT_EQ(empty.TotalStats().nodes_unavailable, 1u);
}

// --- full-stack crash/rejoin under live invalidation traffic -------------------

TEST(Membership, CrashRejoinUnderLiveTrafficNeverServesStaleReads) {
  // The §4.2 guarantee across a crash: a reader with a fresh staleness bound must never see
  // the pre-crash value of a pair that was updated while the cache node was down.
  SystemClock clock;
  Database db(&clock);
  InvalidationBus bus;
  db.set_invalidation_bus(&bus);
  CacheServer node("cache", &clock);
  bus.Subscribe(&node);
  CacheCluster cluster;
  cluster.AddNode(&node);
  Pincushion pincushion(&db, &clock);
  CreateAccountsTable(&db);
  InsertAccount(&db, 1, "a", 500);
  InsertAccount(&db, 2, "b", 500);

  TxCacheClient client(&db, &pincushion, &cluster, &clock);
  auto balance = client.MakeCacheable<int64_t, int64_t>("bal", [&client](int64_t id) -> int64_t {
    auto r = client.ExecuteQuery(AccountById(id));
    return r.ok() && !r.value().rows.empty() ? r.value().rows[0][AccountsCol::kBalance].AsInt()
                                             : -1;
  });
  auto read_sum = [&]() -> int64_t {
    EXPECT_TRUE(client.BeginRO(Seconds(0)).ok());
    int64_t sum = balance(1) + balance(2);
    EXPECT_TRUE(client.Commit().ok());
    return sum;
  };

  ASSERT_EQ(read_sum(), 1000) << "warm the cache";

  // Crash, then transfer while the node is down: the invalidations for the transfer are lost.
  node.Crash();
  ASSERT_TRUE(client.BeginRW().ok());
  ASSERT_TRUE(client
                  .Update(kAccounts, AccountById(1).from, nullptr,
                          {{AccountsCol::kBalance, Value(int64_t{400})}})
                  .ok());
  ASSERT_TRUE(client
                  .Update(kAccounts, AccountById(2).from, nullptr,
                          {{AccountsCol::kBalance, Value(int64_t{600})}})
                  .ok());
  ASSERT_TRUE(client.Commit().ok());

  // While down every cacheable call recomputes (no stale reads possible, hit rate suffers).
  ASSERT_EQ(read_sum(), 1000);
  EXPECT_GE(client.stats().miss_node_unavailable, 2u);

  // Rejoin and read again with a fresh bound: the rejoined node must have caught up (or
  // flushed) — serving the pre-crash 500/500 snapshot as current would be the stale read.
  ASSERT_TRUE(node.Join(&bus).ok());
  ASSERT_TRUE(node.serving());
  ASSERT_TRUE(client.BeginRO(Seconds(0)).ok());
  EXPECT_EQ(balance(1), 400);
  EXPECT_EQ(balance(2), 600);
  ASSERT_TRUE(client.Commit().ok());
}

}  // namespace
}  // namespace txcache
