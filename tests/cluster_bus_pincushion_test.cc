// Consistent hashing ring, invalidation bus, and pincushion tests.
#include <gtest/gtest.h>

#include <map>

#include "src/bus/bus.h"
#include "src/cache/cache_cluster.h"
#include "src/cluster/consistent_hash.h"
#include "src/core/txcache_client.h"
#include "src/pincushion/pincushion.h"
#include "src/util/clock.h"
#include "tests/test_support.h"

namespace txcache {
namespace {

using namespace txcache::testing;

TEST(ConsistentHash, EmptyRingErrors) {
  ConsistentHashRing ring;
  EXPECT_FALSE(ring.NodeForKey("k").ok());
}

TEST(ConsistentHash, AddRemoveNodes) {
  ConsistentHashRing ring(16);
  EXPECT_TRUE(ring.AddNode("a"));
  EXPECT_FALSE(ring.AddNode("a")) << "duplicate add rejected";
  EXPECT_TRUE(ring.AddNode("b"));
  EXPECT_EQ(ring.node_count(), 2u);
  EXPECT_EQ(ring.ring_size(), 32u);
  EXPECT_TRUE(ring.RemoveNode("a"));
  EXPECT_FALSE(ring.RemoveNode("a"));
  EXPECT_EQ(ring.node_count(), 1u);
}

TEST(ConsistentHash, DeterministicMapping) {
  ConsistentHashRing r1, r2;
  for (const char* n : {"a", "b", "c"}) {
    r1.AddNode(n);
    r2.AddNode(n);
  }
  for (int i = 0; i < 200; ++i) {
    std::string key = "key" + std::to_string(i);
    EXPECT_EQ(r1.NodeForKey(key).value(), r2.NodeForKey(key).value());
  }
}

TEST(ConsistentHash, ReasonablyBalanced) {
  ConsistentHashRing ring(128);
  for (const char* n : {"a", "b", "c", "d"}) {
    ring.AddNode(n);
  }
  std::map<std::string, int> counts;
  constexpr int kKeys = 20'000;
  for (int i = 0; i < kKeys; ++i) {
    counts[ring.NodeForKey("key" + std::to_string(i)).value()]++;
  }
  for (const auto& [node, count] : counts) {
    EXPECT_GT(count, kKeys / 4 / 2) << node << " underloaded";
    EXPECT_LT(count, kKeys / 4 * 2) << node << " overloaded";
  }
}

TEST(ConsistentHash, RemovalOnlyRemapsVictimsKeys) {
  ConsistentHashRing ring(64);
  for (const char* n : {"a", "b", "c", "d"}) {
    ring.AddNode(n);
  }
  std::map<std::string, std::string> before;
  for (int i = 0; i < 2000; ++i) {
    std::string key = "key" + std::to_string(i);
    before[key] = ring.NodeForKey(key).value();
  }
  ring.RemoveNode("c");
  for (const auto& [key, node] : before) {
    std::string now = ring.NodeForKey(key).value();
    if (node != "c") {
      EXPECT_EQ(now, node) << "keys on surviving nodes must not move";
    } else {
      EXPECT_NE(now, "c");
    }
  }
}

TEST(Bus, AssignsContiguousSeqnos) {
  InvalidationBus bus;
  RecordingSubscriber sub;
  bus.Subscribe(&sub);
  InvalidationMessage m;
  m.ts = 1;
  EXPECT_EQ(bus.Publish(m), 1u);
  EXPECT_EQ(bus.Publish(m), 2u);
  EXPECT_EQ(bus.Publish(m), 3u);
  ASSERT_EQ(sub.messages.size(), 3u);
  EXPECT_EQ(sub.messages[0].seqno, 1u);
  EXPECT_EQ(sub.messages[2].seqno, 3u);
}

TEST(Bus, DeliversToAllSubscribers) {
  InvalidationBus bus;
  RecordingSubscriber a, b;
  bus.Subscribe(&a);
  bus.Subscribe(&b);
  InvalidationMessage m;
  bus.Publish(m);
  EXPECT_EQ(a.messages.size(), 1u);
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST(Bus, DeliveryHookIntercepts) {
  InvalidationBus bus;
  RecordingSubscriber sub;
  bus.Subscribe(&sub);
  std::vector<InvalidationMessage> held;
  bus.SetDeliveryHook([&held](InvalidationSubscriber*, const InvalidationMessage& msg) {
    held.push_back(msg);  // swallow: deliver later (models network delay)
  });
  InvalidationMessage m;
  bus.Publish(m);
  EXPECT_TRUE(sub.messages.empty());
  ASSERT_EQ(held.size(), 1u);
  sub.Deliver(held[0]);
  EXPECT_EQ(sub.messages.size(), 1u);
}

TEST(CacheCluster, RoutesKeysToNodes) {
  ManualClock clock;
  CacheServer a("a", &clock), b("b", &clock);
  CacheCluster cluster;
  EXPECT_TRUE(cluster.AddNode(&a));
  EXPECT_TRUE(cluster.AddNode(&b));
  EXPECT_FALSE(cluster.AddNode(&a));
  int on_a = 0, on_b = 0;
  for (int i = 0; i < 500; ++i) {
    auto node = cluster.NodeForKey("key" + std::to_string(i));
    ASSERT_TRUE(node.ok());
    (node.value() == &a ? on_a : on_b)++;
  }
  EXPECT_GT(on_a, 50);
  EXPECT_GT(on_b, 50);
}

TEST(CacheCluster, AggregatesStats) {
  ManualClock clock;
  CacheServer a("a", &clock), b("b", &clock);
  CacheCluster cluster;
  cluster.AddNode(&a);
  cluster.AddNode(&b);
  InsertRequest req;
  req.key = "k";
  req.value = "v";
  req.interval = {1, 2};
  a.Insert(req);
  b.Insert(req);
  EXPECT_EQ(cluster.TotalStats().inserts, 2u);
  EXPECT_GT(cluster.TotalBytesUsed(), 0u);
  cluster.FlushAll();
  EXPECT_EQ(cluster.TotalBytesUsed(), 0u);
  cluster.ResetStatsAll();
  EXPECT_EQ(cluster.TotalStats().inserts, 0u);
}

class PincushionTest : public ::testing::Test {
 protected:
  PincushionTest() : db_(&clock_), pincushion_(&db_, &clock_, {.unpin_after = Seconds(60)}) {
    CreateAccountsTable(&db_);
  }

  ManualClock clock_;
  Database db_;
  Pincushion pincushion_;
};

TEST_F(PincushionTest, EmptyWhenNothingPinned) {
  EXPECT_TRUE(pincushion_.AcquireFreshPins(Seconds(30)).empty());
}

TEST_F(PincushionTest, RegisterAndAcquire) {
  InsertAccount(&db_, 1, "a", 1);
  PinnedSnapshot snap = db_.Pin();
  pincushion_.Register(PinInfo{snap.ts, snap.wallclock});
  auto pins = pincushion_.AcquireFreshPins(Seconds(30));
  ASSERT_EQ(pins.size(), 1u);
  EXPECT_EQ(pins[0].ts, snap.ts);
}

TEST_F(PincushionTest, StalePinsNotHandedOut) {
  InsertAccount(&db_, 1, "a", 1);
  PinnedSnapshot snap = db_.Pin();
  pincushion_.Register(PinInfo{snap.ts, snap.wallclock});
  pincushion_.Release({PinInfo{snap.ts, snap.wallclock}});
  clock_.Advance(Seconds(31));
  EXPECT_TRUE(pincushion_.AcquireFreshPins(Seconds(30)).empty());
  EXPECT_FALSE(pincushion_.AcquireFreshPins(Seconds(60)).empty());
}

TEST_F(PincushionTest, SweepUnpinsOnlyUnusedOldPins) {
  InsertAccount(&db_, 1, "a", 1);
  PinnedSnapshot snap = db_.Pin();
  pincushion_.Register(PinInfo{snap.ts, snap.wallclock});  // in_use = 1
  clock_.Advance(Seconds(120));
  EXPECT_EQ(pincushion_.Sweep(), 0u) << "in-use pins survive";
  pincushion_.Release({PinInfo{snap.ts, snap.wallclock}});
  EXPECT_EQ(pincushion_.Sweep(), 1u);
  EXPECT_EQ(db_.pinned_snapshot_count(), 0u) << "UNPIN reached the database";
}

TEST_F(PincushionTest, RecentPinsSurviveSweep) {
  InsertAccount(&db_, 1, "a", 1);
  PinnedSnapshot snap = db_.Pin();
  pincushion_.Register(PinInfo{snap.ts, snap.wallclock});
  pincushion_.Release({PinInfo{snap.ts, snap.wallclock}});
  EXPECT_EQ(pincushion_.Sweep(), 0u) << "young pins stay";
  EXPECT_EQ(pincushion_.pinned_count(), 1u);
}

TEST_F(PincushionTest, AcquireMarksInUse) {
  InsertAccount(&db_, 1, "a", 1);
  PinnedSnapshot snap = db_.Pin();
  pincushion_.Register(PinInfo{snap.ts, snap.wallclock});
  pincushion_.Release({PinInfo{snap.ts, snap.wallclock}});
  auto pins = pincushion_.AcquireFreshPins(Seconds(30));  // re-acquired: in use again
  clock_.Advance(Seconds(120));
  EXPECT_EQ(pincushion_.Sweep(), 0u);
  pincushion_.Release(pins);
  EXPECT_EQ(pincushion_.Sweep(), 1u);
}

TEST_F(PincushionTest, DoubleRegisterRefcountsDbPins) {
  InsertAccount(&db_, 1, "a", 1);
  PinnedSnapshot s1 = db_.Pin();
  PinnedSnapshot s2 = db_.Pin();  // same ts, db refcount 2
  ASSERT_EQ(s1.ts, s2.ts);
  pincushion_.Register(PinInfo{s1.ts, s1.wallclock});
  pincushion_.Register(PinInfo{s2.ts, s2.wallclock});
  pincushion_.Release({PinInfo{s1.ts, s1.wallclock}, PinInfo{s2.ts, s2.wallclock}});
  clock_.Advance(Seconds(120));
  EXPECT_EQ(pincushion_.Sweep(), 1u);
  EXPECT_EQ(db_.pinned_snapshot_count(), 0u) << "both database pins released";
}

TEST_F(PincushionTest, MultipleSnapshotsSortedOldestFirst) {
  InsertAccount(&db_, 1, "a", 1);
  PinnedSnapshot s1 = db_.Pin();
  pincushion_.Register(PinInfo{s1.ts, s1.wallclock});
  clock_.Advance(Seconds(2));
  UpdateBalance(&db_, 1, 2);
  PinnedSnapshot s2 = db_.Pin();
  pincushion_.Register(PinInfo{s2.ts, s2.wallclock});
  auto pins = pincushion_.AcquireFreshPins(Seconds(30));
  ASSERT_EQ(pins.size(), 2u);
  EXPECT_LT(pins[0].ts, pins[1].ts);
}

TEST(PincushionRepin, RepinOfAnUnchangedSnapshotIsFresh) {
  // Past the new-pin threshold with no commits in between, the next transaction that reaches
  // the database pins the same latest snapshot again. That re-pin must count as fresh: were
  // the timestamp's first pinned_at kept, every later transaction would re-pin it too.
  ManualClock clock;
  Database db(&clock);
  CreateAccountsTable(&db);
  InsertAccount(&db, 1, "a", 1);
  Pincushion pincushion(&db, &clock);
  CacheServer cache("node", &clock);
  CacheCluster cluster;
  cluster.AddNode(&cache);
  TxCacheClient::Options options;
  TxCacheClient client(&db, &pincushion, &cluster, &clock, options);
  auto miss = [&client] {
    ASSERT_TRUE(client.BeginRO().ok());
    ASSERT_TRUE(client.ExecuteQuery(AccountById(1)).ok());
    ASSERT_TRUE(client.Commit().ok());
  };

  miss();
  ASSERT_EQ(client.stats().pins_created, 1u);
  ASSERT_LT(options.new_pin_threshold + Seconds(1), options.default_staleness)
      << "the old pin must stay within staleness, so only the threshold forces the re-pin";
  clock.Advance(options.new_pin_threshold + Seconds(1));
  miss();  // the newest pin is past the threshold: re-pins the unchanged snapshot
  miss();  // finds the re-pin fresh
  EXPECT_EQ(client.stats().pins_created, 2u) << "one re-pin, not one per transaction";
  EXPECT_EQ(pincushion.pinned_count(), 1u) << "both pins name the same timestamp";
}

}  // namespace
}  // namespace txcache
