// Cache server semantics (paper §4): versioned entries, interval lookups, invalidation
// application, eviction, miss classification, stream reordering, insert/invalidate races.
#include "src/cache/cache_server.h"

#include <gtest/gtest.h>

#include "src/util/clock.h"

namespace txcache {
namespace {

InsertRequest MakeInsert(const std::string& key, const std::string& value, Interval iv,
                         Timestamp computed_at = 0,
                         std::vector<InvalidationTag> tags = {}) {
  InsertRequest req;
  req.key = key;
  req.value = value;
  req.interval = iv;
  req.computed_at = computed_at == 0 ? iv.lower : computed_at;
  req.tags = std::move(tags);
  return req;
}

LookupRequest MakeLookup(const std::string& key, Timestamp lo, Timestamp hi,
                         Timestamp fresh_lo = 0) {
  LookupRequest req;
  req.key = key;
  req.bounds_lo = lo;
  req.bounds_hi = hi;
  req.fresh_lo = fresh_lo;
  return req;
}

InvalidationMessage MakeMsg(uint64_t seqno, Timestamp ts, std::vector<InvalidationTag> tags) {
  InvalidationMessage msg;
  msg.seqno = seqno;
  msg.ts = ts;
  msg.wallclock = static_cast<WallClock>(ts) * 1000;
  msg.tags = std::move(tags);
  return msg;
}

class CacheServerTest : public ::testing::Test {
 protected:
  CacheServerTest() : server_("test-node", &clock_) {}

  ManualClock clock_;
  CacheServer server_;
};

TEST_F(CacheServerTest, MissOnEmptyCacheIsCompulsory) {
  LookupResponse resp = server_.Lookup(MakeLookup("k", 0, 100));
  EXPECT_FALSE(resp.hit);
  EXPECT_EQ(resp.miss, MissKind::kCompulsory);
  EXPECT_EQ(server_.stats().miss_compulsory, 1u);
}

TEST_F(CacheServerTest, InsertThenHit) {
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {10, 20})).ok());
  LookupResponse resp = server_.Lookup(MakeLookup("k", 12, 15));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.value_ref(), "v");
  EXPECT_EQ(resp.interval, (Interval{10, 20}));
  EXPECT_FALSE(resp.still_valid);
}

TEST_F(CacheServerTest, LookupBoundsAreInclusive) {
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {10, 20})).ok());
  EXPECT_TRUE(server_.Lookup(MakeLookup("k", 19, 25)).hit) << "interval end overlaps bound lo";
  EXPECT_TRUE(server_.Lookup(MakeLookup("k", 0, 10)).hit) << "bound hi == interval lower";
  EXPECT_FALSE(server_.Lookup(MakeLookup("k", 20, 30)).hit) << "upper bound is exclusive";
  EXPECT_FALSE(server_.Lookup(MakeLookup("k", 0, 9)).hit);
}

TEST_F(CacheServerTest, EmptyIntervalRejected) {
  EXPECT_FALSE(server_.Insert(MakeInsert("k", "v", Interval::Empty())).ok());
}

TEST_F(CacheServerTest, MultipleVersionsMostRecentWins) {
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "old", {10, 20})).ok());
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "new", {20, 30})).ok());
  LookupResponse resp = server_.Lookup(MakeLookup("k", 0, 100));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.value_ref(), "new") << "most recent matching version preferred";
  LookupResponse old = server_.Lookup(MakeLookup("k", 12, 15));
  ASSERT_TRUE(old.hit);
  EXPECT_EQ(old.value_ref(), "old");
}

TEST_F(CacheServerTest, OverlappingInsertIsDroppedAsDuplicate) {
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v1", {10, 30})).ok());
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v1", {15, 25})).ok());
  EXPECT_EQ(server_.stats().duplicate_inserts, 1u);
  EXPECT_EQ(server_.version_count(), 1u);
}

TEST_F(CacheServerTest, StillValidEntryBoundedByLastInvalidation) {
  // §4.2: a still-valid entry is treated as valid through the last invalidation applied.
  auto tag = InvalidationTag::Concrete("t", "i", "x");
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {5, kTimestampInfinity}, 5, {tag})).ok());
  // No invalidations yet: effective upper = computed_at + 1 = 6.
  EXPECT_TRUE(server_.Lookup(MakeLookup("k", 5, 5)).hit);
  EXPECT_FALSE(server_.Lookup(MakeLookup("k", 7, 100)).hit)
      << "cannot vouch for timestamps beyond what the stream confirmed";
  // An unrelated invalidation at ts 50 advances the horizon.
  server_.Deliver(MakeMsg(1, 50, {InvalidationTag::Concrete("t", "i", "other")}));
  LookupResponse resp = server_.Lookup(MakeLookup("k", 7, 100));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.interval, (Interval{5, 51}));
  EXPECT_TRUE(resp.still_valid);
  EXPECT_EQ(resp.tags_ref().size(), 1u);
}

TEST_F(CacheServerTest, InvalidationTruncatesMatchingEntry) {
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {5, kTimestampInfinity}, 5, {tag})).ok());
  server_.Deliver(MakeMsg(1, 42, {tag}));
  EXPECT_EQ(server_.stats().invalidation_truncations, 1u);
  LookupResponse resp = server_.Lookup(MakeLookup("k", 10, 100));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.interval, (Interval{5, 42})) << "truncated at the update's commit ts";
  EXPECT_FALSE(resp.still_valid);
  EXPECT_FALSE(server_.Lookup(MakeLookup("k", 42, 100)).hit);
}

TEST_F(CacheServerTest, InvalidationIgnoresUnrelatedTags) {
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {5, kTimestampInfinity}, 5, {tag})).ok());
  server_.Deliver(MakeMsg(1, 42, {InvalidationTag::Concrete("users", "pk", "\x02")}));
  server_.Deliver(MakeMsg(2, 43, {InvalidationTag::Concrete("items", "pk", "\x01")}));
  EXPECT_EQ(server_.stats().invalidation_truncations, 0u);
  EXPECT_TRUE(server_.Lookup(MakeLookup("k", 40, 43)).hit);
}

TEST_F(CacheServerTest, WildcardMessageInvalidatesWholeTable) {
  ASSERT_TRUE(server_
                  .Insert(MakeInsert("k1", "v", {5, kTimestampInfinity}, 5,
                                     {InvalidationTag::Concrete("users", "pk", "\x01")}))
                  .ok());
  ASSERT_TRUE(server_
                  .Insert(MakeInsert("k2", "v", {5, kTimestampInfinity}, 5,
                                     {InvalidationTag::Concrete("users", "name", "alice")}))
                  .ok());
  ASSERT_TRUE(server_
                  .Insert(MakeInsert("k3", "v", {5, kTimestampInfinity}, 5,
                                     {InvalidationTag::Concrete("items", "pk", "\x09")}))
                  .ok());
  server_.Deliver(MakeMsg(1, 30, {InvalidationTag::Wildcard("users")}));
  EXPECT_EQ(server_.stats().invalidation_truncations, 2u);
  EXPECT_FALSE(server_.Lookup(MakeLookup("k1", 30, 100)).hit);
  EXPECT_FALSE(server_.Lookup(MakeLookup("k2", 30, 100)).hit);
  EXPECT_TRUE(server_.Lookup(MakeLookup("k3", 30, 100)).hit);
}

TEST_F(CacheServerTest, WildcardHolderInvalidatedByAnyTableWrite) {
  // An entry tagged TABLE:? (e.g. from a sequential scan) depends on everything in the table.
  ASSERT_TRUE(server_
                  .Insert(MakeInsert("scan", "v", {5, kTimestampInfinity}, 5,
                                     {InvalidationTag::Wildcard("users")}))
                  .ok());
  server_.Deliver(MakeMsg(1, 30, {InvalidationTag::Concrete("users", "pk", "\x05")}));
  LookupResponse resp = server_.Lookup(MakeLookup("scan", 10, 100));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.interval.upper, 30u);
}

TEST_F(CacheServerTest, InvalidationAtOrBeforeKnownValidIsIgnored) {
  // The database vouched for validity through computed_at; a coarser tag match at or before
  // that point must not truncate (the change is already folded into the value).
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {5, kTimestampInfinity}, 9, {tag})).ok());
  server_.Deliver(MakeMsg(1, 8, {tag}));
  server_.Deliver(MakeMsg(2, 9, {tag}));
  EXPECT_EQ(server_.stats().invalidation_truncations, 0u);
  LookupResponse resp = server_.Lookup(MakeLookup("k", 6, 9));
  EXPECT_TRUE(resp.hit);
  EXPECT_TRUE(resp.still_valid);
}

TEST_F(CacheServerTest, LateInsertTruncatedByHistory) {
  // The insert/invalidate race (§4.2): the invalidation arrives first, then a value computed
  // *before* that invalidation is inserted claiming still-valid. History replay must bound it.
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  server_.Deliver(MakeMsg(1, 40, {tag}));
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "stale", {10, kTimestampInfinity}, 20, {tag})).ok());
  EXPECT_EQ(server_.stats().insert_time_truncations, 1u);
  LookupResponse resp = server_.Lookup(MakeLookup("k", 15, 100));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.interval, (Interval{10, 40}));
  EXPECT_FALSE(server_.Lookup(MakeLookup("k", 40, 100)).hit)
      << "the stale negative-result bug from MediaWiki cannot happen";
}

TEST_F(CacheServerTest, LateInsertImmediatelyInvalidatedStillServesItsInstant) {
  // An entry valid from ts 10 whose dependency changed at ts 11: history replay bounds it to
  // the single-timestamp interval [10, 11), which can still serve transactions pinned at 10.
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  server_.Deliver(MakeMsg(1, 11, {tag}));
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {10, kTimestampInfinity}, 10, {tag})).ok());
  EXPECT_EQ(server_.version_count(), 1u);
  LookupResponse at10 = server_.Lookup(MakeLookup("k", 10, 10));
  ASSERT_TRUE(at10.hit);
  EXPECT_EQ(at10.interval, (Interval{10, 11}));
  EXPECT_FALSE(server_.Lookup(MakeLookup("k", 11, 100)).hit);
}

TEST_F(CacheServerTest, InvalidationAtEntryLowerBoundIsTheCreatingCommit) {
  // The commit that changed the result is the one that made this value current: an
  // invalidation with ts == lower must not truncate the entry into nothingness.
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  server_.Deliver(MakeMsg(1, 10, {tag}));
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {10, kTimestampInfinity}, 10, {tag})).ok());
  LookupResponse resp = server_.Lookup(MakeLookup("k", 10, 100));
  ASSERT_TRUE(resp.hit);
  EXPECT_TRUE(resp.still_valid);
}

TEST_F(CacheServerTest, LateInsertWildcardHistoryChecked) {
  server_.Deliver(MakeMsg(1, 40, {InvalidationTag::Wildcard("users")}));
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {10, kTimestampInfinity}, 20, {tag})).ok());
  LookupResponse resp = server_.Lookup(MakeLookup("k", 15, 100));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.interval.upper, 40u) << "wildcard message bounds concrete-tagged late insert";
}

TEST_F(CacheServerTest, LateInsertWithWildcardTagChecksAnyHistory) {
  server_.Deliver(MakeMsg(1, 40, {InvalidationTag::Concrete("users", "pk", "\x07")}));
  ASSERT_TRUE(server_
                  .Insert(MakeInsert("scan", "v", {10, kTimestampInfinity}, 20,
                                     {InvalidationTag::Wildcard("users")}))
                  .ok());
  LookupResponse resp = server_.Lookup(MakeLookup("scan", 15, 100));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.interval.upper, 40u);
}

TEST(CacheServerHistory, RetentionBoundsReplayAtTheFloorAndExactlyAboveIt) {
  // A small history_retention and 4x as many messages, so the floor (newest ts - retention)
  // moves through the whole run and expired entries are erased in batches behind it. After
  // every message, late inserts computed at each earlier timestamp must replay exactly: below
  // the floor the claim is cut at known_through + 1 even where an expired entry has not been
  // erased yet; at or above it, at the first later message matching one of the insert's tags.
  ManualClock clock;
  CacheServer::Options options;
  options.history_retention = 10;
  CacheServer server("retention", &clock, options);
  const auto hot = InvalidationTag::Concrete("users", "pk", "hot");
  const auto cold = InvalidationTag::Concrete("users", "pk", "cold");
  // ts % 7 == 0 carries a table wildcard, which every users-tagged entry depends on.
  auto matches_hot = [](Timestamp ts) { return ts % 3 == 0 || ts % 7 == 0; };
  constexpr Timestamp kLast = 40;
  for (Timestamp ts = 1; ts <= kLast; ++ts) {
    std::vector<InvalidationTag> tags = {ts % 3 == 0 ? hot : cold};
    if (ts % 7 == 0) {
      tags.push_back(InvalidationTag::Wildcard("users"));
    }
    server.Deliver(MakeMsg(ts, ts, tags));
    const Timestamp floor = ts > options.history_retention ? ts - options.history_retention : 0;
    for (Timestamp c = 1; c <= ts; ++c) {
      // One concrete-tagged insert (hot messages and wildcards cut it) and one wildcard-tagged
      // insert (any users message cuts it).
      for (bool wildcard : {false, true}) {
        Timestamp want = kTimestampInfinity;
        if (c < floor) {
          want = c + 1;
        } else {
          for (Timestamp t = c + 1; t <= ts; ++t) {
            if (wildcard || matches_hot(t)) {
              want = t;
              break;
            }
          }
        }
        const std::string key = "k" + std::to_string(ts) + "-" + std::to_string(c) +
                                (wildcard ? "w" : "");
        ASSERT_TRUE(server
                        .Insert(MakeInsert(key, "v", {c, kTimestampInfinity}, c,
                                           {wildcard ? InvalidationTag::Wildcard("users") : hot}))
                        .ok());
        LookupResponse resp = server.Lookup(MakeLookup(key, c, c));
        ASSERT_TRUE(resp.hit) << key;
        if (want == kTimestampInfinity) {
          EXPECT_TRUE(resp.still_valid) << key;
        } else {
          EXPECT_FALSE(resp.still_valid) << key;
          EXPECT_EQ(resp.interval, (Interval{c, want})) << key << " floor=" << floor;
        }
      }
    }
  }
}

TEST_F(CacheServerTest, ReorderBufferAppliesInSeqnoOrder) {
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {5, kTimestampInfinity}, 5, {tag})).ok());
  // Deliver out of order: 3, 2, then 1. Nothing applies until 1 arrives.
  server_.Deliver(MakeMsg(3, 30, {InvalidationTag::Concrete("t", "i", "z")}));
  server_.Deliver(MakeMsg(2, 20, {tag}));
  EXPECT_EQ(server_.stats().invalidation_messages, 0u);
  EXPECT_EQ(server_.stats().reorder_buffered, 2u);
  server_.Deliver(MakeMsg(1, 10, {InvalidationTag::Concrete("t", "i", "y")}));
  EXPECT_EQ(server_.stats().invalidation_messages, 3u);
  EXPECT_EQ(server_.last_invalidation_ts(), 30u);
  LookupResponse resp = server_.Lookup(MakeLookup("k", 10, 100));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.interval.upper, 20u) << "message 2 truncated the entry";
}

TEST_F(CacheServerTest, DuplicateStreamMessagesIgnored) {
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  server_.Deliver(MakeMsg(1, 10, {tag}));
  server_.Deliver(MakeMsg(1, 10, {tag}));
  EXPECT_EQ(server_.stats().invalidation_messages, 1u);
}

TEST_F(CacheServerTest, InvalidationIdempotentOnTruncatedEntry) {
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {5, kTimestampInfinity}, 5, {tag})).ok());
  server_.Deliver(MakeMsg(1, 20, {tag}));
  server_.Deliver(MakeMsg(2, 30, {tag}));  // already bounded: no further effect
  LookupResponse resp = server_.Lookup(MakeLookup("k", 10, 100));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.interval.upper, 20u);
  EXPECT_EQ(server_.stats().invalidation_truncations, 1u);
}

TEST_F(CacheServerTest, LruEvictionUnderPressure) {
  CacheServer::Options options;
  options.capacity_bytes = 1000;  // each ~300-byte entry: three fit, the fourth must evict
  options.policy = EvictionPolicy::kLru;  // this test pins the classic LRU policy
  CacheServer small("small", &clock_, options);
  std::string big(200, 'x');
  ASSERT_TRUE(small.Insert(MakeInsert("a", big, {1, 2})).ok());
  ASSERT_TRUE(small.Insert(MakeInsert("b", big, {1, 2})).ok());
  ASSERT_TRUE(small.Insert(MakeInsert("c", big, {1, 2})).ok());
  // Touch "a" so "b" is the LRU victim when "d" arrives.
  ASSERT_TRUE(small.Lookup(MakeLookup("a", 1, 1)).hit);
  ASSERT_TRUE(small.Insert(MakeInsert("d", big, {1, 2})).ok());
  EXPECT_GE(small.stats().evictions_lru, 1u);
  EXPECT_TRUE(small.Lookup(MakeLookup("a", 1, 1)).hit);
  LookupResponse b = small.Lookup(MakeLookup("b", 1, 1));
  EXPECT_FALSE(b.hit);
  EXPECT_EQ(b.miss, MissKind::kCapacity) << "evicted key misses as capacity, not compulsory";
  EXPECT_LE(small.bytes_used(), options.capacity_bytes);
}

TEST_F(CacheServerTest, EvictedStillValidEntryLeavesTagIndex) {
  CacheServer::Options options;
  options.capacity_bytes = 700;
  options.policy = EvictionPolicy::kLru;
  CacheServer small("small", &clock_, options);
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  std::string big(400, 'x');
  ASSERT_TRUE(small.Insert(MakeInsert("a", big, {1, kTimestampInfinity}, 1, {tag})).ok());
  ASSERT_TRUE(small.Insert(MakeInsert("b", big, {1, kTimestampInfinity}, 1, {tag})).ok());
  EXPECT_GE(small.stats().evictions_lru, 1u);
  // Invalidation after eviction must not crash or truncate freed memory.
  small.Deliver(MakeMsg(1, 50, {tag}));
  SUCCEED();
}

TEST_F(CacheServerTest, StalenessSweepEvictsUselessVersions) {
  CacheServer::Options options;
  options.max_staleness = Seconds(30);
  options.sweep_interval_ops = 1;  // sweep on every op
  CacheServer server("sweeper", &clock_, options);
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  clock_.Set(Seconds(100));
  ASSERT_TRUE(server.Insert(MakeInsert("k", "v", {5, kTimestampInfinity}, 5, {tag})).ok());
  server.Deliver(MakeMsg(1, 40, {tag}));  // invalidated at wallclock 100s
  clock_.Set(Seconds(200));               // 100 s later: far beyond any staleness limit
  ASSERT_TRUE(server.Insert(MakeInsert("other", "v", {50, 60})).ok());  // triggers sweep
  EXPECT_GE(server.stats().evictions_stale, 1u);
  EXPECT_FALSE(server.Lookup(MakeLookup("k", 10, 39)).hit);
}

TEST_F(CacheServerTest, MissClassificationStalenessVsConsistency) {
  // Versions exist but are too old => staleness. A fresh-enough version exists but the caller's
  // bounds exclude it => consistency.
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {10, 20})).ok());
  server_.Deliver(MakeMsg(1, 90, {InvalidationTag::Concrete("t", "i", "q")}));
  LookupResponse stale = server_.Lookup(MakeLookup("k", 50, 100, /*fresh_lo=*/30));
  EXPECT_EQ(stale.miss, MissKind::kStaleness) << "nothing valid at or after fresh_lo=30";
  LookupResponse consistency = server_.Lookup(MakeLookup("k", 50, 100, /*fresh_lo=*/15));
  EXPECT_EQ(consistency.miss, MissKind::kConsistency)
      << "version valid at 15 satisfies freshness but not the pin-set bounds";
}

TEST_F(CacheServerTest, FlushClearsDataButKeepsStreamPosition) {
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v", {10, 20})).ok());
  server_.Deliver(MakeMsg(1, 15, {InvalidationTag::Concrete("t", "i", "q")}));
  server_.Flush();
  EXPECT_EQ(server_.version_count(), 0u);
  EXPECT_EQ(server_.bytes_used(), 0u);
  EXPECT_EQ(server_.last_invalidation_ts(), 15u);
  server_.Deliver(MakeMsg(2, 25, {InvalidationTag::Concrete("t", "i", "q")}));
  EXPECT_EQ(server_.last_invalidation_ts(), 25u) << "seqno position survived the flush";
}

TEST_F(CacheServerTest, ByteAccountingConsistent) {
  ASSERT_TRUE(server_.Insert(MakeInsert("k1", std::string(100, 'a'), {1, 2})).ok());
  size_t after_one = server_.bytes_used();
  EXPECT_GT(after_one, 100u);
  ASSERT_TRUE(server_.Insert(MakeInsert("k2", std::string(50, 'b'), {1, 2})).ok());
  EXPECT_GT(server_.bytes_used(), after_one);
  server_.Flush();
  EXPECT_EQ(server_.bytes_used(), 0u);
}

TEST_F(CacheServerTest, SnapshotRoundtripPreservesEverything) {
  // Paper §8 methodology: warm caches are restored from snapshots.
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  ASSERT_TRUE(server_.Insert(MakeInsert("bounded", "v1", {10, 20})).ok());
  ASSERT_TRUE(server_.Insert(MakeInsert("live", "v2", {5, kTimestampInfinity}, 5, {tag})).ok());
  server_.Deliver(MakeMsg(1, 30, {InvalidationTag::Concrete("t", "i", "other")}));

  CacheServer restored("restored", &clock_);
  ASSERT_TRUE(restored.ImportSnapshot(server_.ExportSnapshot()).ok());
  EXPECT_EQ(restored.version_count(), 2u);
  EXPECT_EQ(restored.last_invalidation_ts(), 30u);
  LookupResponse bounded = restored.Lookup(MakeLookup("bounded", 12, 15));
  ASSERT_TRUE(bounded.hit);
  EXPECT_EQ(bounded.value_ref(), "v1");
  LookupResponse live = restored.Lookup(MakeLookup("live", 10, 100));
  ASSERT_TRUE(live.hit);
  EXPECT_TRUE(live.still_valid);
  // The restored still-valid entry is wired into the tag index: invalidations reach it.
  restored.Deliver(MakeMsg(2, 40, {tag}));
  LookupResponse after = restored.Lookup(MakeLookup("live", 10, 100));
  ASSERT_TRUE(after.hit);
  EXPECT_EQ(after.interval.upper, 40u);
}

TEST_F(CacheServerTest, SnapshotImportRespectsLocalInvalidationHistory) {
  // A node that already processed an invalidation must not accept a snapshot entry claiming
  // to be still valid from before it: history replay bounds it on import.
  auto tag = InvalidationTag::Concrete("users", "pk", "\x01");
  CacheServer source("source", &clock_);
  ASSERT_TRUE(source.Insert(MakeInsert("k", "v", {5, kTimestampInfinity}, 5, {tag})).ok());
  server_.Deliver(MakeMsg(1, 25, {tag}));  // the *importing* node knows about ts 25
  ASSERT_TRUE(server_.ImportSnapshot(source.ExportSnapshot()).ok());
  LookupResponse resp = server_.Lookup(MakeLookup("k", 10, 100));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.interval.upper, 25u) << "import-time truncation applied";
}

TEST_F(CacheServerTest, SnapshotImportRejectsGarbage) {
  EXPECT_FALSE(server_.ImportSnapshot("definitely not a snapshot").ok());
  EXPECT_FALSE(server_.ImportSnapshot("").ok());
}

TEST_F(CacheServerTest, DisjointVersionsPerKeyInvariant) {
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v1", {10, 20})).ok());
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v2", {20, 30})).ok());
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v3", {40, kTimestampInfinity}, 45)).ok());
  EXPECT_EQ(server_.version_count(), 3u);
  // Overlap with the still-valid version's *effective* interval is also a duplicate.
  ASSERT_TRUE(server_.Insert(MakeInsert("k", "v3b", {42, 44})).ok());
  EXPECT_EQ(server_.version_count(), 3u);
  EXPECT_EQ(server_.stats().duplicate_inserts, 1u);
}

}  // namespace
}  // namespace txcache
