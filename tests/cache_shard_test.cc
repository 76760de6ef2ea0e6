// Tests for the sharded cache node: the stream sequencer, shard routing invariance, the
// batched MultiLookup path (server, cluster and client layers), and the per-shard-counter
// staleness sweep.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/bus/sequencer.h"
#include "src/cache/cache_cluster.h"
#include "src/cache/cache_server.h"
#include "src/core/cacheable_function.h"
#include "src/core/txcache_client.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace txcache {
namespace {

using namespace txcache::testing;

InvalidationTag GroupTag(int64_t group) {
  return InvalidationTag::Concrete("t", "idx", "g" + std::to_string(group));
}

InvalidationMessage MakeMsg(uint64_t seqno, Timestamp ts, std::vector<InvalidationTag> tags) {
  InvalidationMessage msg;
  msg.seqno = seqno;
  msg.ts = ts;
  msg.tags = std::move(tags);
  return msg;
}

void ExpectSameResponse(const LookupResponse& a, const LookupResponse& b,
                        const std::string& context) {
  ASSERT_EQ(a.hit, b.hit) << context;
  EXPECT_EQ(a.miss, b.miss) << context;
  EXPECT_EQ(a.value_ref(), b.value_ref()) << context;
  EXPECT_EQ(a.interval, b.interval) << context;
  EXPECT_EQ(a.still_valid, b.still_valid) << context;
  EXPECT_EQ(a.tags_ref(), b.tags_ref()) << context;
}

// --- StreamSequencer ---------------------------------------------------------

TEST(StreamSequencer, DeliversInOrderAndBuffersGaps) {
  std::vector<uint64_t> applied;
  StreamSequencer seq([&](const InvalidationMessage& msg) { applied.push_back(msg.seqno); });
  seq.Deliver(MakeMsg(3, 30, {}));
  seq.Deliver(MakeMsg(2, 20, {}));
  EXPECT_TRUE(applied.empty());
  EXPECT_EQ(seq.reorder_buffered(), 2u);
  EXPECT_EQ(seq.pending(), 2u);
  seq.Deliver(MakeMsg(1, 10, {}));
  EXPECT_EQ(applied, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(seq.pending(), 0u);
  EXPECT_EQ(seq.next_expected_seqno(), 4u);
}

TEST(StreamSequencer, DropsDuplicates) {
  int applied = 0;
  StreamSequencer seq([&](const InvalidationMessage&) { ++applied; });
  seq.Deliver(MakeMsg(1, 10, {}));
  seq.Deliver(MakeMsg(1, 10, {}));
  seq.Deliver(MakeMsg(2, 20, {}));
  seq.Deliver(MakeMsg(2, 20, {}));
  EXPECT_EQ(applied, 2);
}

TEST(StreamSequencer, AdoptPositionSkipsForwardAndPrunesBuffer) {
  std::vector<uint64_t> applied;
  StreamSequencer seq([&](const InvalidationMessage& msg) { applied.push_back(msg.seqno); });
  seq.Deliver(MakeMsg(3, 30, {}));
  seq.Deliver(MakeMsg(5, 50, {}));
  seq.AdoptPosition(4);  // 3 is now stale; 5 still waits for 4
  EXPECT_EQ(seq.pending(), 1u);
  seq.Deliver(MakeMsg(4, 40, {}));
  EXPECT_EQ(applied, (std::vector<uint64_t>{4, 5}));
  seq.AdoptPosition(2);  // going backwards is ignored
  EXPECT_EQ(seq.next_expected_seqno(), 6u);
}

// --- MultiLookup equivalence -------------------------------------------------

TEST(CacheShard, MultiLookupMatchesSequentialLookups) {
  ManualClock clock;
  CacheOptions options;
  options.num_shards = 8;
  CacheServer server("sharded", &clock, options);
  Rng rng(99);

  // A random population: some bounded, some still-valid, some invalidated afterwards.
  constexpr int kKeys = 64;
  uint64_t seqno = 1;
  for (int k = 0; k < kKeys; ++k) {
    InsertRequest req;
    req.key = "key" + std::to_string(k);
    req.value = "v" + std::to_string(k);
    Timestamp lower = static_cast<Timestamp>(rng.Uniform(1, 40));
    req.interval = {lower, rng.Bernoulli(0.5) ? kTimestampInfinity : lower + 10};
    req.computed_at = lower;
    req.tags = {GroupTag(k % 7)};
    ASSERT_TRUE(server.Insert(req).ok());
  }
  for (int i = 0; i < 10; ++i) {
    server.Deliver(MakeMsg(seqno, 50 + seqno, {GroupTag(rng.Uniform(0, 6))}));
    ++seqno;
  }

  // Batched responses must be byte-identical to issuing the same lookups one at a time.
  MultiLookupRequest batch;
  for (int probe = 0; probe < 200; ++probe) {
    LookupRequest req;
    req.key = "key" + std::to_string(rng.Uniform(0, kKeys + 5));  // includes unknown keys
    req.bounds_lo = static_cast<Timestamp>(rng.Uniform(0, 70));
    req.bounds_hi = rng.Bernoulli(0.3) ? kTimestampInfinity : req.bounds_lo + 15;
    req.fresh_lo = req.bounds_lo / 2;
    batch.lookups.push_back(req);
  }
  MultiLookupResponse batched = server.MultiLookup(batch);
  ASSERT_EQ(batched.responses.size(), batch.lookups.size());
  for (size_t i = 0; i < batch.lookups.size(); ++i) {
    LookupResponse single = server.Lookup(batch.lookups[i]);
    ExpectSameResponse(batched.responses[i], single,
                       "entry " + std::to_string(i) + " key=" + batch.lookups[i].key);
  }
  // The batch counted exactly one lookup per entry, like sequential calls would.
  EXPECT_EQ(server.stats().lookups, 2 * batch.lookups.size());
}

TEST(CacheShard, ShardCountDoesNotChangeVisibleState) {
  // The same operation sequence applied to nodes with 1, 3 and 16 shards must produce
  // identical lookup results everywhere: sharding is an internal concern.
  ManualClock clock;
  std::vector<std::unique_ptr<CacheServer>> servers;
  for (size_t shards : {size_t{1}, size_t{3}, size_t{16}}) {
    CacheOptions options;
    options.num_shards = shards;
    servers.push_back(
        std::make_unique<CacheServer>("s" + std::to_string(shards), &clock, options));
  }
  Rng rng(1234);
  uint64_t seqno = 1;
  Timestamp now_ts = 1;
  for (int step = 0; step < 500; ++step) {
    if (rng.Bernoulli(0.6)) {
      InsertRequest req;
      req.key = "k" + std::to_string(rng.Uniform(0, 30));
      req.value = "v" + std::to_string(step);
      Timestamp lower = static_cast<Timestamp>(rng.Uniform(
          static_cast<int64_t>(now_ts > 15 ? now_ts - 15 : 1), static_cast<int64_t>(now_ts)));
      req.interval = {lower, rng.Bernoulli(0.5) ? kTimestampInfinity : lower + 8};
      req.computed_at = lower;
      req.tags = {GroupTag(rng.Uniform(0, 4))};
      for (auto& server : servers) {
        ASSERT_TRUE(server->Insert(req).ok());
      }
    } else {
      InvalidationMessage msg = MakeMsg(seqno++, ++now_ts, {GroupTag(rng.Uniform(0, 4))});
      if (rng.Bernoulli(0.15)) {
        msg.tags.push_back(InvalidationTag::Wildcard("t"));
      }
      for (auto& server : servers) {
        server->Deliver(msg);
      }
    }
  }
  for (int k = 0; k < 31; ++k) {
    for (Timestamp lo = 0; lo < now_ts + 5; lo += 3) {
      LookupRequest req;
      req.key = "k" + std::to_string(k);
      req.bounds_lo = lo;
      req.bounds_hi = lo + 2;
      LookupResponse base = servers[0]->Lookup(req);
      for (size_t s = 1; s < servers.size(); ++s) {
        LookupResponse other = servers[s]->Lookup(req);
        ExpectSameResponse(base, other,
                           "key k" + std::to_string(k) + " lo=" + std::to_string(lo) +
                               " shards=" + servers[s]->name());
      }
    }
  }
  EXPECT_EQ(servers[0]->version_count(), servers[2]->version_count());
  EXPECT_EQ(servers[0]->bytes_used(), servers[2]->bytes_used());
}

// --- staleness sweep across shards -------------------------------------------

TEST(CacheShard, SkewedTrafficStillSweepsColdShards) {
  // Stale garbage parked in a cold shard must be collected even when every subsequent op
  // lands on other shards: the per-shard op counter fires, and the sweep covers all shards.
  ManualClock clock;
  CacheOptions options;
  options.num_shards = 8;
  options.max_staleness = Seconds(30);
  options.sweep_interval_ops = 16;
  CacheServer server("sweeper", &clock, options);

  clock.Set(Seconds(100));
  // Place an entry, invalidate it (making it garbage), then drive traffic exclusively at
  // keys on *other* shards.
  const std::string cold_key = "cold";
  const size_t cold_shard = server.ShardIndexForKey(cold_key);
  InsertRequest req;
  req.key = cold_key;
  req.value = "v";
  req.interval = {5, kTimestampInfinity};
  req.computed_at = 5;
  req.tags = {GroupTag(1)};
  ASSERT_TRUE(server.Insert(req).ok());
  server.Deliver(MakeMsg(1, 40, {GroupTag(1)}));  // invalidated at wallclock 100 s

  clock.Set(Seconds(200));  // far beyond any staleness limit
  // Perfectly skewed traffic: every subsequent op lands on one single hot shard.
  const size_t hot_shard = (cold_shard + 1) % options.num_shards;
  int sent = 0;
  for (int i = 0; sent < 64; ++i) {
    std::string key = "hot" + std::to_string(i);
    if (server.ShardIndexForKey(key) != hot_shard) {
      continue;
    }
    InsertRequest hot;
    hot.key = key;
    hot.value = "h";
    hot.interval = {50, 60};
    ASSERT_TRUE(server.Insert(hot).ok());
    ++sent;
  }
  EXPECT_GE(server.stats().evictions_stale, 1u);
  LookupRequest probe;
  probe.key = cold_key;
  probe.bounds_lo = 10;
  probe.bounds_hi = 39;
  EXPECT_FALSE(server.Lookup(probe).hit) << "cold-shard garbage survived the sweep";
}

// --- truncation order ---------------------------------------------------------

TEST(CacheShard, OneMessageTruncatesInInsertionOrder) {
  // Versions closed by one invalidation message join the stale list in insertion order, so
  // capacity pressure evicts them oldest-insert first, whatever their heap addresses.
  ManualClock clock;
  clock.Set(Seconds(100));
  auto entry = [](const std::string& key, std::vector<InvalidationTag> tags) {
    InsertRequest req;
    req.key = key;
    req.value = std::string(400, 'v');
    req.interval = {1, kTimestampInfinity};
    req.computed_at = 1;
    req.tags = std::move(tags);
    req.fill_cost_us = 1000;
    return req;
  };
  const std::vector<int> insert_order = {3, 0, 5, 1, 4, 2};
  CacheOptions options;
  options.num_shards = 1;
  options.policy = EvictionPolicy::kCostAware;
  options.capacity_bytes =
      insert_order.size() * CacheShard::EstimateBytes(entry("k0", {GroupTag(0)}));
  CacheServer server("order", &clock, options);
  for (int k : insert_order) {
    ASSERT_TRUE(server.Insert(entry("k" + std::to_string(k), {GroupTag(0)})).ok());
  }
  server.Deliver(MakeMsg(1, 50, {GroupTag(0)}));
  ASSERT_EQ(server.stats().invalidation_truncations, insert_order.size());

  for (size_t evicted = 1; evicted <= insert_order.size(); ++evicted) {
    ASSERT_TRUE(server.Insert(entry("filler" + std::to_string(evicted), {})).ok());
    ASSERT_EQ(server.stats().evictions_capacity_stale, evicted);
    for (size_t i = 0; i < insert_order.size(); ++i) {
      LookupRequest probe;
      probe.key = "k" + std::to_string(insert_order[i]);
      probe.bounds_lo = 1;
      probe.bounds_hi = 49;
      EXPECT_EQ(server.Lookup(probe).hit, i >= evicted)
          << "after " << evicted << " evictions, insert #" << i << " (k" << insert_order[i]
          << ")";
    }
  }
}

// --- cluster routing ----------------------------------------------------------

TEST(CacheCluster, MultiLookupRoutesAndReassembles) {
  ManualClock clock;
  CacheServer a("node-a", &clock), b("node-b", &clock), c("node-c", &clock);
  CacheCluster cluster;
  cluster.AddNode(&a);
  cluster.AddNode(&b);
  cluster.AddNode(&c);

  constexpr int kKeys = 40;
  for (int k = 0; k < kKeys; ++k) {
    InsertRequest req;
    req.key = "item" + std::to_string(k);
    req.value = "val" + std::to_string(k);
    req.interval = {1, kTimestampInfinity};
    req.computed_at = 1;
    auto node_or = cluster.NodeForKey(req.key);
    ASSERT_TRUE(node_or.ok());
    ASSERT_TRUE(node_or.value()->Insert(req).ok());
  }

  MultiLookupRequest batch;
  for (int k = 0; k < kKeys; ++k) {
    LookupRequest req;
    req.key = "item" + std::to_string(k);
    req.bounds_lo = 1;
    req.bounds_hi = kTimestampInfinity;
    batch.lookups.push_back(req);
  }
  auto resp_or = cluster.MultiLookup(batch);
  ASSERT_TRUE(resp_or.ok());
  ASSERT_EQ(resp_or.value().responses.size(), batch.lookups.size());
  for (int k = 0; k < kKeys; ++k) {
    const LookupResponse& resp = resp_or.value().responses[k];
    ASSERT_TRUE(resp.hit) << "item" << k;
    EXPECT_EQ(resp.value_ref(), "val" + std::to_string(k));
    // Same answer as routing the key individually.
    auto node_or = cluster.NodeForKey(batch.lookups[k].key);
    ASSERT_TRUE(node_or.ok());
    ExpectSameResponse(resp, node_or.value()->Lookup(batch.lookups[k]),
                       "item" + std::to_string(k));
  }
  // Every node served its own keys; the batch did not funnel through one node.
  EXPECT_EQ(cluster.TotalStats().lookups, 2u * kKeys);

  CacheCluster empty;
  EXPECT_FALSE(empty.MultiLookup(batch).ok());
}

// --- client batched path -------------------------------------------------------

TEST(CacheShard, ClientBatchMatchesSequentialCallsAndBatchesRoundTrips) {
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
  constexpr int64_t kNumAccounts = 12;
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    InsertAccount(&db, i, "o" + std::to_string(i), 100 + i);
  }

  TxCacheClient client(&db, &pincushion, &cluster, &clock);
  auto balance = client.MakeCacheable<int64_t, int64_t>("bal", [&client](int64_t id) -> int64_t {
    auto r = client.ExecuteQuery(AccountById(id));
    return r.ok() && !r.value().rows.empty() ? r.value().rows[0][AccountsCol::kBalance].AsInt()
                                             : -1;
  });

  // Warm the cache with sequential calls in one transaction.
  ASSERT_TRUE(client.BeginRO().ok());
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    EXPECT_EQ(balance(i), 100 + i);
  }
  ASSERT_TRUE(client.Commit().ok());

  // A batched call in a fresh transaction: one MULTILOOKUP round-trip, same values.
  client.ResetStats();
  ASSERT_TRUE(client.BeginRO().ok());
  std::vector<std::tuple<int64_t>> calls;
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    calls.emplace_back(i);
  }
  std::vector<int64_t> values = balance.Batch(calls);
  ASSERT_TRUE(client.Commit().ok());
  ASSERT_EQ(values.size(), static_cast<size_t>(kNumAccounts));
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    EXPECT_EQ(values[i], 100 + i);
  }
  ClientStats stats = client.stats();
  EXPECT_EQ(stats.multi_lookup_batches, 1u);
  EXPECT_EQ(stats.multi_lookup_keys, static_cast<uint64_t>(kNumAccounts));
  EXPECT_EQ(stats.cache_hits, static_cast<uint64_t>(kNumAccounts));
  EXPECT_EQ(stats.cacheable_calls, static_cast<uint64_t>(kNumAccounts));
  EXPECT_EQ(stats.db_queries, 0u) << "a fully warm batch never touches the database";

  // Batched and sequential calls agree after a write invalidates part of the batch.
  ASSERT_TRUE(client.BeginRW().ok());
  ASSERT_TRUE(client
                  .Update(kAccounts, AccountById(3).from, nullptr,
                          {{AccountsCol::kBalance, Value(int64_t{999})}})
                  .ok());
  ASSERT_TRUE(client.Commit().ok());

  ASSERT_TRUE(client.BeginRO(Seconds(0)).ok());
  std::vector<int64_t> after = balance.Batch(calls);
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_EQ(after[3], 999);
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    if (i != 3) {
      EXPECT_EQ(after[i], 100 + i);
    }
  }

  // Outside a read-only transaction the batch degenerates to direct execution.
  ASSERT_TRUE(client.BeginRW().ok());
  std::vector<int64_t> rw = balance.Batch(calls);
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_EQ(rw[3], 999);
}

// --- MultiLookup edge cases ----------------------------------------------------

TEST(CacheShard, MultiLookupEmptyBatch) {
  ManualClock clock;
  CacheServer server("empty-batch", &clock);
  MultiLookupRequest empty;
  EXPECT_TRUE(server.MultiLookup(empty).responses.empty());
  EXPECT_EQ(server.stats().lookups, 0u);

  CacheCluster cluster;
  cluster.AddNode(&server);
  auto resp_or = cluster.MultiLookup(empty);
  ASSERT_TRUE(resp_or.ok()) << "an empty batch against a live cluster is a no-op, not an error";
  EXPECT_TRUE(resp_or.value().responses.empty());

  // Against an empty cluster even the empty batch reports the fleet as unavailable, matching
  // the single-key NodeForKey behavior.
  CacheCluster no_nodes;
  EXPECT_FALSE(no_nodes.MultiLookup(empty).ok());
}

TEST(CacheShard, MultiLookupAllMissBatchClassifiesEveryEntry) {
  ManualClock clock;
  CacheServer server("all-miss", &clock);
  // One key that exists but was evicted-to-empty is simulated via insert+flush? Flush drops
  // KeyEntries too, so instead: unknown keys only — every response must be a compulsory miss
  // with no payload, positionally aligned.
  MultiLookupRequest batch;
  for (int i = 0; i < 16; ++i) {
    LookupRequest req;
    req.key = "missing" + std::to_string(i);
    req.bounds_lo = 1;
    req.bounds_hi = kTimestampInfinity;
    batch.lookups.push_back(req);
  }
  MultiLookupResponse resp = server.MultiLookup(batch);
  ASSERT_EQ(resp.responses.size(), batch.lookups.size());
  for (const LookupResponse& r : resp.responses) {
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.miss, MissKind::kCompulsory);
    EXPECT_TRUE(r.value_ref().empty());
  }
  EXPECT_EQ(server.stats().miss_compulsory, batch.lookups.size());
}

TEST(CacheCluster, MultiLookupWithOneNodeDownReroutesAndMisses) {
  ManualClock clock;
  CacheServer a("node-a", &clock), b("node-b", &clock);
  CacheCluster cluster;
  cluster.AddNode(&a);
  cluster.AddNode(&b);

  constexpr int kKeys = 32;
  int owned_by_b = 0;
  for (int k = 0; k < kKeys; ++k) {
    InsertRequest req;
    req.key = "item" + std::to_string(k);
    req.value = "val" + std::to_string(k);
    req.interval = {1, kTimestampInfinity};
    req.computed_at = 1;
    auto node_or = cluster.NodeForKey(req.key);
    ASSERT_TRUE(node_or.ok());
    ASSERT_TRUE(node_or.value()->Insert(req).ok());
    if (node_or.value() == &b) {
      ++owned_by_b;
    }
  }
  ASSERT_GT(owned_by_b, 0) << "test needs keys on both nodes";
  ASSERT_LT(owned_by_b, kKeys);

  // Node b goes down: the ring reroutes its arc to a. A cross-node batch must still succeed;
  // b's keys are compulsory misses on their new owner (the batch never touches b), a's keys
  // still hit.
  ASSERT_TRUE(cluster.RemoveNode("node-b"));
  MultiLookupRequest batch;
  for (int k = 0; k < kKeys; ++k) {
    LookupRequest req;
    req.key = "item" + std::to_string(k);
    req.bounds_lo = 1;
    req.bounds_hi = kTimestampInfinity;
    batch.lookups.push_back(req);
  }
  const uint64_t b_lookups_before = b.stats().lookups;
  auto resp_or = cluster.MultiLookup(batch);
  ASSERT_TRUE(resp_or.ok()) << "losing a node degrades hit rate, not availability";
  ASSERT_EQ(resp_or.value().responses.size(), batch.lookups.size());
  int hits = 0, misses = 0;
  for (int k = 0; k < kKeys; ++k) {
    const LookupResponse& r = resp_or.value().responses[k];
    if (r.hit) {
      ++hits;
      EXPECT_EQ(r.value_ref(), "val" + std::to_string(k));
    } else {
      ++misses;
      EXPECT_EQ(r.miss, MissKind::kCompulsory) << "rerouted key must miss compulsory on a";
    }
  }
  EXPECT_EQ(misses, owned_by_b);
  EXPECT_EQ(hits, kKeys - owned_by_b);
  EXPECT_EQ(b.stats().lookups, b_lookups_before) << "the downed node saw no traffic";
}

TEST(CacheShard, BatchMixingHitsAndMissesNarrowsPinSetLikeSequentialCalls) {
  // Pin-set narrowing when a batch mixes hits and misses: the hits narrow the pin set in
  // request order exactly as sequential lookups would, the misses recompute at the narrowed
  // snapshot, and the values the batch returns are mutually consistent.
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
  constexpr int64_t kNumAccounts = 8;
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    InsertAccount(&db, i, "o" + std::to_string(i), 100 + i);
  }

  TxCacheClient client(&db, &pincushion, &cluster, &clock);
  auto balance = client.MakeCacheable<int64_t, int64_t>("mix", [&client](int64_t id) -> int64_t {
    auto r = client.ExecuteQuery(AccountById(id));
    return r.ok() && !r.value().rows.empty() ? r.value().rows[0][AccountsCol::kBalance].AsInt()
                                             : -1;
  });

  // Warm only the even accounts.
  ASSERT_TRUE(client.BeginRO().ok());
  for (int64_t i = 0; i < kNumAccounts; i += 2) {
    EXPECT_EQ(balance(i), 100 + i);
  }
  ASSERT_TRUE(client.Commit().ok());

  // Invalidate account 2, so its cached version's interval is closed: the batch sees hits
  // (0,4,6), a consistency/staleness-classified miss (2) and compulsory misses (odds).
  ASSERT_TRUE(client.BeginRW().ok());
  ASSERT_TRUE(client
                  .Update(kAccounts, AccountById(2).from, nullptr,
                          {{AccountsCol::kBalance, Value(int64_t{777})}})
                  .ok());
  ASSERT_TRUE(client.Commit().ok());

  client.ResetStats();
  ASSERT_TRUE(client.BeginRO(Seconds(0)).ok());
  std::vector<std::tuple<int64_t>> calls;
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    calls.emplace_back(i);
  }
  std::vector<int64_t> values = balance.Batch(calls);
  ASSERT_TRUE(client.pin_set().has_pins()) << "hits must have narrowed onto concrete pins";
  ASSERT_TRUE(client.Commit().ok());
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    EXPECT_EQ(values[i], i == 2 ? 777 : 100 + i) << "account " << i;
  }
  ClientStats stats = client.stats();
  EXPECT_EQ(stats.multi_lookup_batches, 1u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, static_cast<uint64_t>(kNumAccounts));
  EXPECT_EQ(stats.cache_hits, 3u) << "even accounts hit except the invalidated one";
  EXPECT_EQ(stats.miss_compulsory, 4u) << "odd accounts were never cached";
  EXPECT_EQ(stats.cache_misses, 5u);
  // The recomputes ran at the snapshot the hits narrowed to (post-update), so the whole batch
  // is serializable at one timestamp — checked by the value assertions above.
}

}  // namespace
}  // namespace txcache
