// Multithreaded stress tests: the database, cache servers, bus and pincushion are shared,
// mutex-protected components; clients are per-thread. These tests hammer them from real threads
// and assert the same invariants the single-threaded property tests check.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "src/core/cacheable_function.h"
#include "src/util/rng.h"
#include "src/core/txcache_client.h"
#include "tests/test_support.h"

namespace txcache {
namespace {

using namespace txcache::testing;

TEST(ConcurrencyStress, DatabaseParallelTransfersConserveTotal) {
  SystemClock clock;
  Database db(&clock);
  CreateAccountsTable(&db);
  constexpr int64_t kNumAccounts = 16;
  constexpr int64_t kInitial = 1000;
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    InsertAccount(&db, i, "o" + std::to_string(i), kInitial);
  }

  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 300;
  std::atomic<int> conflicts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &conflicts, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kTransfersPerThread; ++i) {
        const int64_t from = rng.Uniform(0, kNumAccounts - 1);
        int64_t to = rng.Uniform(0, kNumAccounts - 1);
        if (to == from) {
          to = (to + 1) % kNumAccounts;
        }
        const int64_t amount = rng.Uniform(1, 20);
        TxnId txn = db.BeginReadWrite();
        auto read = [&](int64_t id) -> int64_t {
          auto r = db.Execute(txn, AccountById(id));
          return r.ok() && !r.value().rows.empty()
                     ? r.value().rows[0][AccountsCol::kBalance].AsInt()
                     : -1;
        };
        const int64_t from_balance = read(from);
        const int64_t to_balance = read(to);
        // Widen the read-modify-write race window: on a single-core host the scheduler can
        // otherwise run entire transactions back to back and never produce a conflict.
        std::this_thread::yield();
        auto u1 = db.Update(txn, kAccounts, AccountById(from).from, nullptr,
                            {{AccountsCol::kBalance, Value(from_balance - amount)}});
        if (!u1.ok()) {
          db.Abort(txn);
          ++conflicts;
          continue;
        }
        auto u2 = db.Update(txn, kAccounts, AccountById(to).from, nullptr,
                            {{AccountsCol::kBalance, Value(to_balance + amount)}});
        if (!u2.ok()) {
          db.Abort(txn);
          ++conflicts;
          continue;
        }
        if (!db.Commit(txn).ok()) {
          ++conflicts;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Money conservation: concurrent transfers with first-committer-wins must keep the total.
  QueryResult sum = ReadLatest(&db, Query::From(AccessPath::SeqScan(kAccounts))
                                        .Agg(AggKind::kSum, AccountsCol::kBalance));
  EXPECT_EQ(sum.rows[0][0].AsInt(), kNumAccounts * kInitial)
      << "lost or created money under concurrency (conflicts=" << conflicts.load() << ")";
  // Some contention must actually have happened for this test to mean anything.
  EXPECT_GT(conflicts.load(), 0);
  db.Vacuum();
  QueryResult again = ReadLatest(&db, Query::From(AccessPath::SeqScan(kAccounts))
                                          .Agg(AggKind::kSum, AccountsCol::kBalance));
  EXPECT_EQ(again.rows[0][0].AsInt(), kNumAccounts * kInitial);
}

TEST(ConcurrencyStress, CacheServerParallelOpsKeepAccounting) {
  SystemClock clock;
  CacheServer::Options options;
  // Small enough that the ~200-key working set cannot fit even one version per key, so
  // capacity evictions are guaranteed regardless of how interval dedup falls out.
  options.capacity_bytes = 32 * 1024;
  CacheServer server("stress", &clock, options);
  std::atomic<uint64_t> seqno{1};
  std::atomic<bool> stop_stats{false};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &seqno, t] {
      Rng rng(77 + t);
      for (int i = 0; i < 2000; ++i) {
        const int op = static_cast<int>(rng.Uniform(0, 2));
        if (op == 0) {
          InsertRequest req;
          req.key = "k" + std::to_string(rng.Uniform(0, 200));
          req.value = std::string(static_cast<size_t>(rng.Uniform(16, 256)), 'v');
          Timestamp lower = static_cast<Timestamp>(rng.Uniform(1, 500));
          req.interval = {lower, rng.Bernoulli(0.5) ? kTimestampInfinity : lower + 10};
          req.computed_at = lower;
          req.tags = {InvalidationTag::Concrete("t", "i", std::to_string(rng.Uniform(0, 20)))};
          req.fill_cost_us = static_cast<uint64_t>(rng.Uniform(0, 3000));
          server.Insert(req);
        } else if (op == 1) {
          LookupRequest req;
          req.key = "k" + std::to_string(rng.Uniform(0, 200));
          req.bounds_lo = static_cast<Timestamp>(rng.Uniform(0, 500));
          req.bounds_hi = req.bounds_lo + 20;
          LookupResponse resp = server.Lookup(req);
          if (resp.hit) {
            // Effective interval must always overlap what we asked for.
            ASSERT_TRUE(resp.interval.Overlaps(Interval{req.bounds_lo, req.bounds_hi + 1}));
          }
        } else {
          InvalidationMessage msg;
          msg.seqno = seqno.fetch_add(1);
          msg.ts = 500 + msg.seqno;
          msg.tags = {InvalidationTag::Concrete("t", "i", std::to_string(rng.Uniform(0, 20)))};
          server.Deliver(msg);
        }
      }
    });
  }
  // Stats reader: the eviction/admission counters are node-level atomics and the per-function
  // profiles sit behind their own mutex precisely so this thread is race-free (TSan-checked)
  // while the workers hammer Insert/EvictToFit.
  std::thread stats_reader([&server, &stop_stats] {
    uint64_t last_reclaimed = 0;
    while (!stop_stats.load()) {
      CacheStats s = server.stats();
      ASSERT_GE(s.eviction_bytes_reclaimed, last_reclaimed) << "reclaimed bytes are monotone";
      last_reclaimed = s.eviction_bytes_reclaimed;
      ASSERT_GE(s.hits + s.misses(), s.hits);
      for (const FunctionStatsEntry& e : server.FunctionStats()) {
        ASSERT_FALSE(e.function.empty());
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }
  stop_stats.store(true);
  stats_reader.join();
  EXPECT_LE(server.bytes_used(), options.capacity_bytes);
  const CacheStats stats = server.stats();
  EXPECT_GT(stats.capacity_evictions(), 0u);
  EXPECT_GT(stats.eviction_bytes_reclaimed, 0u);
  // The lock-free node counter and the shard-derived per-kind counts agree at rest.
  EXPECT_EQ(server.capacity_eviction_count(), stats.capacity_evictions());
  server.Flush();
  EXPECT_EQ(server.bytes_used(), 0u);
  EXPECT_EQ(server.version_count(), 0u);
}

TEST(ConcurrencyStress, FullStackReadersAndWriters) {
  // The paper's deployment shape: many application servers sharing one database, cache fleet,
  // and pincushion. Each thread owns a client; the consistency invariant (transfer sum) must
  // hold for every read-only transaction no matter how reads split between cache and database.
  SystemClock clock;
  Database db(&clock);
  InvalidationBus bus;
  db.set_invalidation_bus(&bus);
  CacheServer node_a("a", &clock), node_b("b", &clock);
  bus.Subscribe(&node_a);
  bus.Subscribe(&node_b);
  CacheCluster cluster;
  cluster.AddNode(&node_a);
  cluster.AddNode(&node_b);
  Pincushion pincushion(&db, &clock);
  CreateAccountsTable(&db);
  constexpr int64_t kPairs = 6;
  for (int64_t i = 0; i < kPairs * 2; ++i) {
    InsertAccount(&db, i, "o", 500);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::atomic<int> reads_done{0};

  // Writers: transfer within a pair (invariant: each pair sums to 1000).
  std::thread writer([&] {
    TxCacheClient client(&db, &pincushion, &cluster, &clock);
    Rng rng(5);
    while (!stop.load()) {
      const int64_t pair = rng.Uniform(0, kPairs - 1);
      const int64_t a = pair * 2, b = pair * 2 + 1;
      const int64_t amount = rng.Uniform(1, 50);
      if (!client.BeginRW().ok()) {
        continue;
      }
      auto read = [&](int64_t id) -> int64_t {
        auto r = client.ExecuteQuery(AccountById(id));
        return r.ok() && !r.value().rows.empty()
                   ? r.value().rows[0][AccountsCol::kBalance].AsInt()
                   : -1;
      };
      int64_t av = read(a), bv = read(b);
      bool ok = client
                    .Update(kAccounts, AccountById(a).from, nullptr,
                            {{AccountsCol::kBalance, Value(av - amount)}})
                    .ok() &&
                client
                    .Update(kAccounts, AccountById(b).from, nullptr,
                            {{AccountsCol::kBalance, Value(bv + amount)}})
                    .ok();
      if (ok) {
        client.Commit();
      } else {
        client.Abort();
      }
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      TxCacheClient client(&db, &pincushion, &cluster, &clock);
      auto balance = client.MakeCacheable<int64_t, int64_t>(
          "bal" + std::to_string(t), [&client](int64_t id) -> int64_t {
            auto r = client.ExecuteQuery(AccountById(id));
            return r.ok() && !r.value().rows.empty()
                       ? r.value().rows[0][AccountsCol::kBalance].AsInt()
                       : -1;
          });
      Rng rng(100 + t);
      while (reads_done.load() < 900) {
        const int64_t pair = rng.Uniform(0, kPairs - 1);
        if (!client.BeginRO(Seconds(1)).ok()) {
          continue;
        }
        const int64_t sum = balance(pair * 2) + balance(pair * 2 + 1);
        if (client.Commit().ok()) {
          if (sum != 1000) {
            ++violations;
          }
          ++reads_done;
        }
      }
    });
  }
  for (std::thread& t : readers) {
    t.join();
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(violations.load(), 0)
      << "a read-only transaction observed a torn transfer across cache/database";
  EXPECT_GE(reads_done.load(), 900);
}

TEST(ConcurrencyStress, InvalidationRacingInsertsLeavesNoStaleStillValidVersion) {
  // The §4.2 race, cross-shard edition: writers insert still-valid versions on every shard
  // while the invalidation stream truncates them. Whatever the interleaving, no version may
  // claim validity past an invalidation of its tag later than its computed_at: a version was
  // either truncated when its shard applied the message (it was registered first) or bounded
  // at insert time by the node's invalidation history (the message was recorded there before
  // the fan-out reached the shard). Checked twice: per group right after the race, then
  // after a final fence covering every tag. Batched MultiLookups run throughout to stress the
  // grouped per-shard locking.
  SystemClock clock;
  CacheServer::Options options;
  options.num_shards = 8;
  CacheServer server("race", &clock, options);
  constexpr int kWriters = 3;
  constexpr int kKeysPerWriter = 400;
  constexpr int kGroups = 16;
  constexpr uint64_t kMessages = 600;
  std::atomic<Timestamp> published_ts{1000};
  std::atomic<bool> invalidator_done{false};
  std::atomic<bool> stop_readers{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&server, &published_ts, &invalidator_done, w] {
      // Every key is filled once; the writers then keep refilling while the stream runs, so
      // inserts and messages interleave however the threads are scheduled.
      for (int i = 0; i < kKeysPerWriter || !invalidator_done.load(); ++i) {
        const int k = i % kKeysPerWriter;
        // Claim validity from the newest commit timestamp this writer has observed — the
        // racy approximation an application node would have — or from up to three commits
        // before it (a value read at a slightly older snapshot), which history replay must
        // cut whenever a matching message landed in between.
        const Timestamp computed_at = published_ts.load(std::memory_order_relaxed) - i % 4;
        InsertRequest req;
        req.key = "w" + std::to_string(w) + "-" + std::to_string(k);
        req.value = std::to_string(computed_at);
        req.interval = {computed_at, kTimestampInfinity};
        req.computed_at = computed_at;
        req.tags = {InvalidationTag::Concrete("t", "i", std::to_string(k % kGroups))};
        ASSERT_TRUE(server.Insert(req).ok());
      }
    });
  }
  // Written by the invalidator only, read after it is joined.
  std::array<Timestamp, kGroups> last_invalidated{};
  uint64_t messages_sent = 0;
  std::thread invalidator([&] {
    Rng rng(3);
    // Runs for kMessages and then until both truncation paths have fired, so the non-vacuity
    // checks below cannot lose a scheduling race; the deadline fails the test instead of
    // hanging it.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (uint64_t seq = 1;; ++seq) {
      if (seq > kMessages) {
        const CacheStats s = server.stats();
        if (s.insert_time_truncations > 0 && s.invalidation_truncations > 0) {
          break;
        }
        if (std::chrono::steady_clock::now() > deadline) {
          ADD_FAILURE() << "a truncation path never fired before the deadline";
          break;
        }
        std::this_thread::yield();
      }
      InvalidationMessage msg;
      msg.seqno = seq;
      msg.ts = published_ts.fetch_add(1, std::memory_order_relaxed) + 1;
      for (int t = 0; t < 2; ++t) {
        const int group = static_cast<int>(rng.Uniform(0, kGroups - 1));
        msg.tags.push_back(InvalidationTag::Concrete("t", "i", std::to_string(group)));
        last_invalidated[group] = msg.ts;
      }
      if (rng.Bernoulli(0.1)) {
        msg.tags.push_back(InvalidationTag::Wildcard("t"));
        last_invalidated.fill(msg.ts);
      }
      server.Deliver(msg);
      messages_sent = seq;
    }
    invalidator_done.store(true);
  });
  std::thread reader([&server, &stop_readers] {
    Rng rng(17);
    while (!stop_readers.load()) {
      MultiLookupRequest batch;
      for (int i = 0; i < 16; ++i) {
        LookupRequest req;
        req.key = "w" + std::to_string(rng.Uniform(0, kWriters - 1)) + "-" +
                  std::to_string(rng.Uniform(0, kKeysPerWriter - 1));
        req.bounds_lo = static_cast<Timestamp>(rng.Uniform(900, 1700));
        req.bounds_hi = req.bounds_lo + 40;
        batch.lookups.push_back(req);
      }
      MultiLookupResponse resp = server.MultiLookup(batch);
      for (size_t i = 0; i < batch.lookups.size(); ++i) {
        if (resp.responses[i].hit) {
          ASSERT_TRUE(resp.responses[i].interval.Overlaps(
              Interval{batch.lookups[i].bounds_lo, batch.lookups[i].bounds_hi + 1}));
        }
      }
    }
  });
  invalidator.join();
  for (std::thread& t : writers) {
    t.join();
  }
  stop_readers.store(true);
  reader.join();

  // No stale read, before any fence: once group g was last invalidated at L, a version of a
  // g-tagged key computed before L must have been cut at or before L, so a hit at [L, inf)
  // must carry a value (its computed_at) of at least L.
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      const Timestamp last = last_invalidated[i % kGroups];
      if (last == kTimestampZero) {
        continue;
      }
      LookupRequest req;
      req.key = "w" + std::to_string(w) + "-" + std::to_string(i);
      req.bounds_lo = last;
      req.bounds_hi = kTimestampInfinity;
      LookupResponse resp = server.Lookup(req);
      if (resp.hit) {
        ASSERT_GE(std::stoull(std::string(resp.value_ref())), last)
            << "stale read: key " << req.key << " served past its group's invalidation at "
            << last;
      }
    }
  }
  const CacheStats raced = server.stats();
  EXPECT_GT(raced.insert_time_truncations, 0u) << "history replay never cut an insert";
  EXPECT_GT(raced.invalidation_truncations, 0u) << "the stream never cut a resident version";

  // Fence: one final message covering everything, at a timestamp beyond every insert.
  const Timestamp fence_ts = published_ts.load() + 10;
  InvalidationMessage fence;
  fence.seqno = messages_sent + 1;
  fence.ts = fence_ts;
  fence.tags = {InvalidationTag::Wildcard("t")};
  server.Deliver(fence);

  // Nothing was computed at or after the fence, so nothing may claim validity there. A
  // version that slipped through the insert/invalidate race would surface here as a
  // still-valid hit whose value (its computed_at) predates the fence. Misses must be of the
  // "versions exist but none qualify" kinds — a compulsory miss would mean the key was never
  // actually inserted and the probe proved nothing.
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      LookupRequest req;
      req.key = "w" + std::to_string(w) + "-" + std::to_string(i);
      req.bounds_lo = fence_ts;
      req.bounds_hi = kTimestampInfinity;
      LookupResponse resp = server.Lookup(req);
      ASSERT_FALSE(resp.hit) << "stale still-valid version survived the fence: key " << req.key
                             << " computed_at=" << resp.value_ref() << " fence=" << fence_ts;
      ASSERT_NE(resp.miss, MissKind::kCompulsory) << "key was never inserted: " << req.key;
    }
  }
  // The stream was fully applied in order (no gaps left behind).
  EXPECT_EQ(server.stats().invalidation_messages, messages_sent + 1);
}

TEST(ConcurrencyStress, MembershipChurnUnderLoadStaysSoundAndRaceFree) {
  // Batched lookups, inserts and a live invalidation stream racing a churn thread that
  // crashes/rejoins nodes and resizes the ring in a loop. Run under TSan by scripts/check.sh:
  // the cluster's shared-mutex membership, the node-state machine and the join protocol must
  // be data-race-free, and every answered hit must still satisfy the bounds it was asked for.
  SystemClock clock;
  CacheServer::Options options;
  options.capacity_bytes = 256 * 1024;
  options.num_shards = 4;
  CacheServer n0("c0", &clock, options), n1("c1", &clock, options), n2("c2", &clock, options);
  CacheServer* nodes[3] = {&n0, &n1, &n2};
  InvalidationBus bus;
  CacheCluster cluster;
  for (CacheServer* n : nodes) {
    bus.Subscribe(n);
    cluster.AddNode(n);
  }
  std::atomic<bool> stop{false};
  std::atomic<Timestamp> published_ts{1000};

  constexpr int kWorkers = 3;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&cluster, &published_ts, w] {
      Rng rng(900 + w);
      for (int i = 0; i < 1500; ++i) {
        if (rng.Bernoulli(0.45)) {
          MultiLookupRequest batch;
          for (int k = 0; k < 8; ++k) {
            LookupRequest req;
            req.key = "k" + std::to_string(rng.Uniform(0, 150));
            req.bounds_lo = static_cast<Timestamp>(rng.Uniform(900, 1800));
            req.bounds_hi = req.bounds_lo + 40;
            batch.lookups.push_back(req);
          }
          auto resp_or = cluster.MultiLookup(batch);
          if (!resp_or.ok()) {
            continue;  // the churn thread emptied the ring for an instant
          }
          ASSERT_EQ(resp_or.value().responses.size(), batch.lookups.size());
          for (size_t k = 0; k < batch.lookups.size(); ++k) {
            const LookupResponse& r = resp_or.value().responses[k];
            if (r.hit) {
              ASSERT_TRUE(r.interval.Overlaps(
                  Interval{batch.lookups[k].bounds_lo, batch.lookups[k].bounds_hi + 1}));
            }
          }
        } else if (rng.Bernoulli(0.7)) {
          const Timestamp computed_at = published_ts.load(std::memory_order_relaxed);
          InsertRequest req;
          req.key = "k" + std::to_string(rng.Uniform(0, 150));
          req.value = std::string(static_cast<size_t>(rng.Uniform(16, 128)), 'v');
          req.interval = {computed_at, kTimestampInfinity};
          req.computed_at = computed_at;
          req.tags = {InvalidationTag::Concrete("t", "i", std::to_string(rng.Uniform(0, 15)))};
          InsertResponse resp = cluster.Insert(req);
          // Ok, declined (admission) and unavailable (churn) are all legitimate outcomes;
          // anything else is a bug surfaced by churn.
          ASSERT_TRUE(resp.status.ok() || resp.status.code() == StatusCode::kDeclined ||
                      resp.status.code() == StatusCode::kUnavailable)
              << resp.status.ToString();
        } else {
          LookupRequest req;
          req.key = "k" + std::to_string(rng.Uniform(0, 150));
          req.bounds_lo = static_cast<Timestamp>(rng.Uniform(900, 1800));
          req.bounds_hi = req.bounds_lo + 40;
          LookupResponse r = cluster.Lookup(req);
          if (r.hit) {
            ASSERT_TRUE(r.interval.Overlaps(Interval{req.bounds_lo, req.bounds_hi + 1}));
          }
        }
      }
    });
  }
  std::thread invalidator([&bus, &published_ts, &stop] {
    Rng rng(31);
    while (!stop.load()) {
      InvalidationMessage msg;
      msg.ts = published_ts.fetch_add(1, std::memory_order_relaxed) + 1;
      msg.tags = {InvalidationTag::Concrete("t", "i", std::to_string(rng.Uniform(0, 15)))};
      bus.Publish(msg);
      std::this_thread::yield();
    }
  });
  std::thread churn([&cluster, &bus, &nodes, &stop] {
    Rng rng(47);
    for (int round = 0; !stop.load() && round < 200; ++round) {
      CacheServer* victim = nodes[round % 3];
      if (rng.Bernoulli(0.5)) {
        // Crash + rejoin: the node stays in the ring, its keys degrade to misses meanwhile.
        victim->Crash();
        std::this_thread::yield();
        ASSERT_TRUE(victim->Join(&bus).ok());
      } else {
        // Ring resize: leave, then rejoin through the join barrier and re-enter the ring.
        cluster.RemoveNode(victim->name());
        victim->Crash();
        std::this_thread::yield();
        ASSERT_TRUE(victim->Join(&bus).ok());
        cluster.AddNode(victim);
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& t : workers) {
    t.join();
  }
  stop.store(true);
  churn.join();
  invalidator.join();

  // Quiesce: every node rejoined and serving, membership restored, accounting intact.
  for (CacheServer* n : nodes) {
    ASSERT_TRUE(n->Join(&bus).ok());
    EXPECT_TRUE(n->serving());
    cluster.AddNode(n);  // no-op when still present
    EXPECT_LE(n->bytes_used(), options.capacity_bytes);
  }
  EXPECT_EQ(cluster.node_count(), 3u);
  const CacheStats total = cluster.TotalStats();
  EXPECT_EQ(total.hits + total.misses(), total.lookups)
      << "unavailable misses must stay consistent with the lookup count";
}

TEST(ConcurrencyStress, PincushionParallelAcquireRelease) {
  SystemClock clock;
  Database db(&clock);
  CreateAccountsTable(&db);
  InsertAccount(&db, 1, "a", 1);
  Pincushion pincushion(&db, &clock);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        PinnedSnapshot snap = db.Pin();
        pincushion.Register(PinInfo{snap.ts, snap.wallclock});
        auto pins = pincushion.AcquireFreshPins(Seconds(30));
        pincushion.Release(pins);
        pincushion.Release({PinInfo{snap.ts, snap.wallclock}});
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Everything is released: a sweep far in the future can unpin it all.
  for (int i = 0; i < 64 && db.pinned_snapshot_count() > 0; ++i) {
    pincushion.Sweep();
  }
  // (SystemClock time barely advanced, so pins may be too young to sweep; force via count.)
  SUCCEED();
}

TEST(ConcurrencyStress, ZeroCopyReadersStayStableUnderInvalidationEvictionAndDrain) {
  // The read fast path under fire (TSan-checked via scripts/check.sh): reader threads hammer
  // shared-lock lookups and hold on to the zero-copy aliases they get back, while a writer
  // forces capacity evictions, an invalidator truncates entries through the bus path, and a
  // stats thread drains the touch buffers via FunctionStats. Every held alias must stay
  // bitwise stable no matter what happened to its version after the hit — each key's value is
  // derived from the key, so any torn/recycled buffer is caught by content comparison.
  SystemClock clock;
  CacheServer::Options options;
  // Tight budget: the working set cannot fit, so evictions run continuously.
  options.capacity_bytes = 48 * 1024;
  options.num_shards = 4;
  options.touch_buffer_capacity = 32;  // overflow repeatedly: the drain repair path races too
  CacheServer server("zerocopy", &clock, options);
  std::atomic<uint64_t> seqno{1};
  std::atomic<bool> stop{false};

  constexpr int kKeys = 160;
  auto value_for = [](int key) {
    return "VAL(" + std::to_string(key) + ")" + std::string(240, static_cast<char>('a' + key % 23));
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&server, &value_for, t] {
      Rng rng(500 + t);
      // Held aliases deliberately outlive evictions of their versions.
      std::vector<std::pair<int, std::shared_ptr<const std::string>>> held;
      for (int i = 0; i < 4000; ++i) {
        const int key = static_cast<int>(rng.Uniform(0, kKeys - 1));
        LookupRequest req;
        req.key = "k" + std::to_string(key);
        req.bounds_lo = 1;
        req.bounds_hi = kTimestampInfinity;
        LookupResponse resp = server.Lookup(req);
        if (resp.hit) {
          ASSERT_EQ(*resp.value, value_for(key)) << "hit returned a foreign/torn buffer";
          if (held.size() < 64) {
            held.emplace_back(key, resp.value);
          }
        }
        if (held.size() >= 64 || (i % 512 == 511 && !held.empty())) {
          // Long after the hits (many evictions later), the aliases must be unchanged.
          for (const auto& [k, v] : held) {
            ASSERT_EQ(*v, value_for(k)) << "held alias mutated after eviction/invalidation";
          }
          held.clear();
        }
      }
    });
  }
  std::thread writer([&server, &value_for] {
    Rng rng(91);
    for (int i = 0; i < 6000; ++i) {
      const int key = static_cast<int>(rng.Uniform(0, kKeys - 1));
      InsertRequest req;
      req.key = "k" + std::to_string(key);
      req.value = value_for(key);
      req.interval = {1, kTimestampInfinity};
      req.computed_at = 1;
      req.tags = {InvalidationTag::Concrete("t", "i", std::to_string(key % 12))};
      req.fill_cost_us = static_cast<uint64_t>(rng.Uniform(0, 2000));
      Status st = server.Insert(req);
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDeclined) << st.ToString();
    }
  });
  std::thread invalidator([&server, &seqno, &stop] {
    Rng rng(13);
    while (!stop.load()) {
      InvalidationMessage msg;
      msg.seqno = seqno.fetch_add(1);
      // Timestamps below every insert's computed_at: truncation machinery runs (tag index,
      // policy demotion) but values stay servable, keeping the readers' hit rate high.
      msg.ts = msg.seqno;
      msg.tags = {InvalidationTag::Concrete("t", "i", std::to_string(rng.Uniform(0, 11)))};
      server.Deliver(msg);
      std::this_thread::yield();
    }
  });
  std::thread stats_poller([&server, &stop] {
    while (!stop.load()) {
      CacheStats s = server.stats();
      ASSERT_LE(s.hits, s.lookups);
      (void)server.FunctionStats();  // exclusive-side drain racing the shared-side readers
      std::this_thread::yield();
    }
  });

  for (std::thread& t : readers) {
    t.join();
  }
  writer.join();
  stop.store(true);
  invalidator.join();
  stats_poller.join();

  // The byte budget held throughout and the accounting did not drift.
  EXPECT_LE(server.bytes_used(), options.capacity_bytes);
  const CacheStats s = server.stats();
  EXPECT_EQ(s.hits + s.misses(), s.lookups);
}

TEST(ConcurrencyStress, MultiMbInsertsRaceZeroCopyReadersAndSizeAwareAdmission) {
  // Size-aware admission under fire (TSan-checked via scripts/check.sh): writer threads pump
  // multi-MB values through the displacement-comparison path (shared-lock victim previews
  // racing inserts, evictions and invalidations on every shard) while small fills churn the
  // budget and zero-copy readers hold aliases of the big buffers across their evictions.
  // Every held multi-MB alias must stay bitwise stable, admission declines must never leak
  // partial state, and the byte budget and hit accounting must hold at the end.
  SystemClock clock;
  CacheServer::Options options;
  options.capacity_bytes = 16u << 20;
  options.num_shards = 2;  // 8 MB shard slices: a 2 MB value passes the 0.5 guard
  options.touch_buffer_capacity = 32;
  options.lifetime_min_samples = 1;  // invalidations teach lifetimes immediately
  options.ttl_expiry_slack = 1.0;
  options.sweep_interval_ops = 64;   // TTL demotion pass runs frequently
  CacheServer server("multimb-stress", &clock, options);
  std::atomic<uint64_t> seqno{1};
  std::atomic<bool> stop{false};

  constexpr int kBigKeys = 12;
  constexpr size_t kBigBytes = 2u << 20;
  constexpr int kSmallKeys = 200;
  auto big_value = [](int key) {
    std::string v = "BIG(" + std::to_string(key) + ")";
    v.resize(kBigBytes, static_cast<char>('A' + key % 23));
    return v;
  };
  auto small_value = [](int key) {
    return "small(" + std::to_string(key) + ")" +
           std::string(300, static_cast<char>('a' + key % 23));
  };
  // Expected contents, precomputed so reader-side comparison allocates nothing.
  std::vector<std::string> expected_big;
  for (int k = 0; k < kBigKeys; ++k) {
    expected_big.push_back(big_value(k));
  }

  std::vector<std::thread> big_writers;
  for (int t = 0; t < 2; ++t) {
    big_writers.emplace_back([&server, &big_value, t] {
      Rng rng(900 + t);
      for (int i = 0; i < 80; ++i) {
        const int key = static_cast<int>(rng.Uniform(0, kBigKeys - 1));
        InsertRequest req;
        req.key = "big-" + std::to_string(key);
        req.value = big_value(key);
        req.interval = {1, kTimestampInfinity};
        req.computed_at = 1;
        req.tags = {InvalidationTag::Concrete("t", "i", "big" + std::to_string(key % 4))};
        // Costs straddle the displacement break-even, so both admission outcomes race.
        req.fill_cost_us = static_cast<uint64_t>(rng.Uniform(0, 4'000'000));
        Status st = server.Insert(req);
        ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDeclined ||
                    st.code() == StatusCode::kDeclinedTooLarge)
            << st.ToString();
      }
    });
  }
  std::thread small_writer([&server, &small_value] {
    Rng rng(77);
    for (int i = 0; i < 4000; ++i) {
      const int key = static_cast<int>(rng.Uniform(0, kSmallKeys - 1));
      InsertRequest req;
      req.key = "s" + std::to_string(key);
      req.value = small_value(key);
      req.interval = {1, kTimestampInfinity};
      req.computed_at = 1;
      req.tags = {InvalidationTag::Concrete("t", "i", std::to_string(key % 12))};
      req.fill_cost_us = static_cast<uint64_t>(rng.Uniform(0, 2000));
      Status st = server.Insert(req);
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDeclined ||
                  st.code() == StatusCode::kDeclinedTooLarge)
          << st.ToString();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&server, &expected_big, &small_value, t] {
      Rng rng(300 + t);
      std::vector<std::pair<int, std::shared_ptr<const std::string>>> held;
      for (int i = 0; i < 1500; ++i) {
        const bool big = rng.Bernoulli(0.3);
        const int key = static_cast<int>(
            rng.Uniform(0, big ? kBigKeys - 1 : kSmallKeys - 1));
        LookupRequest req;
        req.key = (big ? "big-" : "s") + std::to_string(key);
        req.bounds_lo = 1;
        req.bounds_hi = kTimestampInfinity;
        LookupResponse resp = server.Lookup(req);
        if (resp.hit) {
          if (big) {
            ASSERT_EQ(*resp.value, expected_big[key]) << "multi-MB hit returned torn bytes";
            if (held.size() < 8) {
              held.emplace_back(key, resp.value);  // outlives this version's eviction
            }
          } else {
            ASSERT_EQ(*resp.value, small_value(key));
          }
        }
        if (held.size() >= 8 || (i % 256 == 255 && !held.empty())) {
          for (const auto& [k, v] : held) {
            ASSERT_EQ(*v, expected_big[k]) << "held multi-MB alias mutated after eviction";
          }
          held.clear();
        }
      }
    });
  }
  std::thread invalidator([&server, &seqno, &stop] {
    Rng rng(13);
    while (!stop.load()) {
      InvalidationMessage msg;
      msg.seqno = seqno.fetch_add(1);
      msg.ts = msg.seqno;  // below computed_at: machinery runs, values stay servable
      msg.tags = {rng.Bernoulli(0.3)
                      ? InvalidationTag::Concrete("t", "i",
                                                  "big" + std::to_string(rng.Uniform(0, 3)))
                      : InvalidationTag::Concrete("t", "i",
                                                  std::to_string(rng.Uniform(0, 11)))};
      server.Deliver(msg);
      std::this_thread::yield();
    }
  });
  std::thread stats_poller([&server, &stop] {
    while (!stop.load()) {
      CacheStats s = server.stats();
      ASSERT_LE(s.hits, s.lookups);
      (void)server.FunctionStats();  // drains touch buffers + advisor snapshots concurrently
      std::this_thread::yield();
    }
  });

  for (std::thread& t : big_writers) {
    t.join();
  }
  small_writer.join();
  for (std::thread& t : readers) {
    t.join();
  }
  stop.store(true);
  invalidator.join();
  stats_poller.join();

  EXPECT_LE(server.bytes_used(), options.capacity_bytes);
  const CacheStats s = server.stats();
  EXPECT_EQ(s.hits + s.misses(), s.lookups);
}

TEST(ConcurrencyStress, EightHittersRaceEvictionInvalidationTtlDemotionAndDrainsOnOneShard) {
  // The EBR hit path at maximum contention on a SINGLE shard: eight hitter threads run
  // lock-free lookups (each writing only its own touch-buffer/stats stripe) while one writer
  // forces capacity evictions and touch-buffer drains, an invalidator truncates entries with
  // post-insert timestamps (so TTL learning observes real lifetimes and the sweep's demotion
  // pass runs), and a stats poller folds the striped counters. Everything a hitter touched —
  // flat-table slots, version arrays, versions, resident blocks — is freed only through the
  // EBR domain, so TSan/ASan verify the reclamation protocol and every held alias must stay
  // bitwise stable.
  SystemClock clock;
  CacheServer::Options options;
  options.num_shards = 1;  // all contention lands on one shard's structures
  options.capacity_bytes = 48 * 1024;
  options.touch_buffer_capacity = 32;  // per-stripe; small enough to overflow under 8 hitters
  options.sweep_interval_ops = 64;     // TTL demotion pass fires often
  options.lifetime_min_samples = 1;
  options.ttl_expiry_slack = 0.5;
  CacheServer server("onehot", &clock, options);
  std::atomic<uint64_t> seqno{1};
  std::atomic<bool> stop{false};

  constexpr int kKeys = 96;
  auto key_for = [](int key) {
    return MakeCacheKey("hot_fn" + std::to_string(key % 7), static_cast<int64_t>(key));
  };
  auto value_for = [](int key) {
    return "HOT(" + std::to_string(key) + ")" + std::string(200, static_cast<char>('A' + key % 19));
  };

  std::vector<std::thread> hitters;
  for (int t = 0; t < 8; ++t) {
    hitters.emplace_back([&server, &key_for, &value_for, t] {
      Rng rng(9100 + t);
      std::vector<std::pair<int, std::shared_ptr<const std::string>>> held;
      for (int i = 0; i < 3000; ++i) {
        const int key = static_cast<int>(rng.Uniform(0, kKeys - 1));
        LookupRequest req;
        req.key = key_for(key);
        req.key_hash = Fnv1a(req.key);  // hash-once: carried into the flat-table probe
        req.bounds_lo = 1;
        req.bounds_hi = kTimestampInfinity;
        LookupResponse resp = server.Lookup(req);
        if (resp.hit) {
          ASSERT_EQ(*resp.value, value_for(key)) << "hit returned a foreign/torn buffer";
          if (resp.tags != nullptr) {
            ASSERT_EQ(resp.tags->size(), 1u);
          }
          if (held.size() < 48) {
            held.emplace_back(key, resp.value);
          }
        }
        if (held.size() >= 48) {
          for (const auto& [k, v] : held) {
            ASSERT_EQ(*v, value_for(k)) << "held alias mutated after eviction/truncation";
          }
          held.clear();
        }
      }
    });
  }
  std::thread writer([&server, &seqno, &key_for, &value_for] {
    Rng rng(77);
    for (int i = 0; i < 5000; ++i) {
      const int key = static_cast<int>(rng.Uniform(0, kKeys - 1));
      InsertRequest req;
      req.key = key_for(key);
      req.key_hash = Fnv1a(req.key);
      req.value = value_for(key);
      req.interval = {1, kTimestampInfinity};
      // Computed at the stream's current position, as a real fill would be: the insert-time
      // replay does not close it, so later messages on its tag truncate a resident version.
      req.computed_at = 100 + seqno.load();
      req.tags = {InvalidationTag::Concrete("t", "i", std::to_string(key % 8))};
      req.fill_cost_us = static_cast<uint64_t>(rng.Uniform(100, 3000));
      Status st = server.Insert(req);
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDeclined) << st.ToString();
    }
  });
  std::thread invalidator([&server, &seqno, &stop] {
    Rng rng(31);
    // Runs until stopped AND until it has truncated at least one resident version, so the
    // non-vacuity check below cannot lose a scheduling race; the deadline fails the test
    // instead of hanging it.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!stop.load() || server.stats().invalidation_truncations == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "invalidator truncated nothing before the deadline";
        break;
      }
      InvalidationMessage msg;
      msg.seqno = seqno.fetch_add(1);
      // Timestamps ABOVE every insert's computed_at: versions genuinely truncate, the
      // advisor observes realized lifetimes, and the stale-first/TTL machinery gets fed.
      msg.ts = 100 + msg.seqno;
      msg.tags = {InvalidationTag::Concrete("t", "i", std::to_string(rng.Uniform(0, 7)))};
      server.Deliver(msg);
      std::this_thread::yield();
    }
  });
  std::thread stats_poller([&server, &stop] {
    while (!stop.load()) {
      CacheStats s = server.stats();
      ASSERT_LE(s.hits, s.lookups);
      (void)server.FunctionStats();
      std::this_thread::yield();
    }
  });

  for (std::thread& t : hitters) {
    t.join();
  }
  writer.join();
  stop.store(true);
  invalidator.join();
  stats_poller.join();

  EXPECT_LE(server.bytes_used(), options.capacity_bytes);
  const CacheStats s = server.stats();
  EXPECT_EQ(s.hits + s.misses(), s.lookups);
  EXPECT_GT(s.invalidation_truncations, 0u) << "invalidator never bit: test exercised nothing";
}

}  // namespace
}  // namespace txcache
