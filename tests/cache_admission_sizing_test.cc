// Deterministic tests for size-aware admission and per-function TTL learning: the
// max_entry_fraction guard, the displacement-cost comparison (accept and decline sides, free
// stale bytes), multi-MB values round-tripping through MultiLookup, a model-checked oracle
// that size-aware admission never evicts a victim set whose summed benefit exceeds the
// admitted entry's, learned-lifetime demotion driving stale-first eviction (including a learned
// lifetime of exactly 0), the max_function_profiles cap, and the advisory hints fed back on
// Lookup/Insert responses. Everything runs on a fixed ManualClock with fixed seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/cache/cache_cluster.h"
#include "src/cache/cache_server.h"
#include "src/util/clock.h"
#include "src/util/rng.h"
#include "src/util/serde.h"

namespace txcache {
namespace {

// A MakeCacheKey-shaped key: the function name is recoverable via CacheKeyFunction, so fills
// of the same function share one admission profile, learned lifetime and hint snapshot.
std::string FnKey(const std::string& function, uint64_t arg) {
  Writer w;
  w.PutString(function);
  w.PutU64(arg);
  return w.Take();
}

InsertRequest StillValid(const std::string& key, size_t value_bytes, uint64_t fill_cost_us,
                         std::vector<InvalidationTag> tags = {}) {
  InsertRequest req;
  req.key = key;
  req.value = std::string(value_bytes, 'v');
  req.interval = {1, kTimestampInfinity};
  req.computed_at = 1;
  req.tags = std::move(tags);
  req.fill_cost_us = fill_cost_us;
  return req;
}

LookupRequest Probe(const std::string& key) {
  LookupRequest req;
  req.key = key;
  req.bounds_lo = 1;
  req.bounds_hi = kTimestampInfinity;
  return req;
}

CacheServer::Options OneShardOptions(size_t capacity_bytes) {
  CacheServer::Options options;
  options.capacity_bytes = capacity_bytes;
  options.num_shards = 1;  // single shard: eviction order is exact, not a cross-shard merge
  options.policy = EvictionPolicy::kCostAware;
  return options;
}

TEST(CacheAdmissionSizing, MaxEntryFractionGuardDeclinesOversizedFills) {
  ManualClock clock;
  clock.Set(Seconds(100));
  CacheServer::Options options = OneShardOptions(8192);
  options.max_entry_fraction = 0.25;  // one entry may take at most 2048 of the 8192 bytes
  CacheServer server("guard", &clock, options);

  // Declined on an EMPTY cache: the guard is absolute — a value that would own a quarter of
  // its shard's slice is refused regardless of benefit or pressure.
  std::shared_ptr<const AdvisoryHints> hints;
  Status st = server.Insert(StillValid(FnKey("huge", 1), 4000, 1'000'000), &hints);
  EXPECT_EQ(st.code(), StatusCode::kDeclinedTooLarge) << st.ToString();
  EXPECT_EQ(server.version_count(), 0u);
  EXPECT_EQ(server.stats().admission_rejects_too_large, 1u);
  EXPECT_EQ(server.stats().admission_rejects, 0u) << "distinct from the watermark counter";
  // The decline carries fresh advisory hints: 1/1 fills declined.
  ASSERT_NE(hints, nullptr);
  EXPECT_DOUBLE_EQ(hints->decline_rate, 1.0);

  // A value under the cap is admitted as usual.
  ASSERT_TRUE(server.Insert(StillValid(FnKey("huge", 2), 1500, 1'000'000)).ok());
  EXPECT_TRUE(server.Lookup(Probe(FnKey("huge", 2))).hit);

  bool saw = false;
  for (const FunctionStatsEntry& e : server.FunctionStats()) {
    if (e.function == "huge") {
      saw = true;
      EXPECT_EQ(e.fills, 2u);
      EXPECT_EQ(e.declined_too_large, 1u);
      EXPECT_EQ(e.admission_rejects, 0u);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(CacheAdmissionSizing, DisplacementComparisonDecidesLargeFills) {
  ManualClock clock;
  clock.Set(Seconds(100));
  CacheServer::Options options = OneShardOptions(64 * 1024);
  options.max_entry_fraction = 0;          // isolate the displacement comparison
  options.displacement_check_bytes = 16 * 1024;
  options.admission_min_samples = 1'000'000;  // watermark never fires
  CacheServer server("displacement", &clock, options);

  // Fill with small entries, each carrying 600 µs of benefit. With the aging floor still at
  // zero, each resident entry's remaining benefit equals its own fill cost.
  uint64_t accepted_small = 0;
  for (uint64_t i = 0; accepted_small * 700 < 64 * 1024; ++i, ++accepted_small) {
    ASSERT_TRUE(server.Insert(StillValid(FnKey("small", i), 600, 600)).ok());
    if (server.bytes_used() + 700 > 64 * 1024) {
      break;
    }
  }
  const size_t used_before = server.bytes_used();
  ASSERT_GT(used_before, 60u * 1024u);

  // A 32 KiB fill must displace ~46 small entries (~27k µs of benefit). 10'000 µs of fill
  // cost loses the comparison: declined kDeclinedTooLarge, nothing evicted.
  const CacheStats before = server.stats();
  Status lose = server.Insert(StillValid(FnKey("big", 1), 32 * 1024, 10'000));
  EXPECT_EQ(lose.code(), StatusCode::kDeclinedTooLarge) << lose.ToString();
  EXPECT_EQ(server.bytes_used(), used_before) << "a declined fill must not displace anything";
  EXPECT_EQ(server.stats().capacity_evictions(), before.capacity_evictions());
  EXPECT_EQ(server.stats().admission_rejects_too_large,
            before.admission_rejects_too_large + 1);

  // The same bytes with 100'000 µs of fill cost win: admitted, victims evicted, and the
  // value is resident and servable.
  Status win = server.Insert(StillValid(FnKey("big", 2), 32 * 1024, 100'000));
  ASSERT_TRUE(win.ok()) << win.ToString();
  EXPECT_LE(server.bytes_used(), options.capacity_bytes);
  EXPECT_GT(server.stats().evictions_cost, 0u);
  LookupResponse resp = server.Lookup(Probe(FnKey("big", 2)));
  ASSERT_TRUE(resp.hit);
  EXPECT_EQ(resp.value_ref().size(), 32u * 1024u);
}

TEST(CacheAdmissionSizing, StaleVictimsAreFreeToDisplace) {
  ManualClock clock;
  clock.Set(Seconds(100));
  CacheServer::Options options = OneShardOptions(64 * 1024);
  options.max_entry_fraction = 0;
  options.displacement_check_bytes = 16 * 1024;
  options.admission_min_samples = 1'000'000;
  CacheServer server("stale-free", &clock, options);

  // Same setup as the losing case above, but every small entry's interval is then closed by
  // a wildcard invalidation: stale-listed bytes are free, so even a ZERO-cost large fill is
  // admitted (displacement cost 0 is not greater than benefit 0).
  auto tag = InvalidationTag::Concrete("t", "i", "g");
  for (uint64_t i = 0; i < 90; ++i) {
    ASSERT_TRUE(server.Insert(StillValid(FnKey("small", i), 600, 600, {tag})).ok());
    if (server.bytes_used() + 700 > 64 * 1024) {
      break;
    }
  }
  InvalidationMessage msg;
  msg.seqno = 1;
  msg.ts = 50;
  msg.wallclock = clock.Now();
  msg.tags = {tag};
  server.Deliver(msg);

  Status st = server.Insert(StillValid(FnKey("big", 1), 32 * 1024, 0));
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(server.stats().evictions_capacity_stale, 0u);
  EXPECT_TRUE(server.Lookup(Probe(FnKey("big", 1))).hit);
}

TEST(CacheAdmissionSizing, MultiMbValueRoundTripsThroughMultiLookup) {
  ManualClock clock;
  clock.Set(Seconds(100));
  CacheServer::Options options;
  options.capacity_bytes = 64u << 20;
  options.num_shards = 4;
  options.policy = EvictionPolicy::kCostAware;
  CacheServer server("multimb", &clock, options);
  CacheCluster cluster;
  cluster.AddNode(&server);

  // Three 4 MB values (each well under the 8 MB shard slice x 0.5 guard), inserted through
  // cluster routing with the hash-once contract.
  constexpr size_t kMb = 4u << 20;
  for (uint64_t i = 0; i < 3; ++i) {
    InsertRequest req = StillValid(FnKey("blob", i), kMb, 500'000);
    req.value[0] = static_cast<char>('A' + i);  // distinguishable first byte
    req.value[kMb - 1] = static_cast<char>('x' + i);
    req.key_hash = Fnv1a(req.key);
    InsertResponse resp = cluster.Insert(req);
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  }

  MultiLookupRequest batch;
  for (uint64_t i = 0; i < 3; ++i) {
    LookupRequest req = Probe(FnKey("blob", i));
    req.key_hash = Fnv1a(req.key);
    batch.lookups.push_back(std::move(req));
  }
  auto resp_or = cluster.MultiLookup(batch);
  ASSERT_TRUE(resp_or.ok());
  for (uint64_t i = 0; i < 3; ++i) {
    const LookupResponse& resp = resp_or.value().responses[i];
    ASSERT_TRUE(resp.hit) << "blob " << i;
    ASSERT_EQ(resp.value_ref().size(), kMb);
    EXPECT_EQ(resp.value_ref()[0], static_cast<char>('A' + i));
    EXPECT_EQ(resp.value_ref()[kMb - 1], static_cast<char>('x' + i));
    // Zero-copy: a second lookup of the same key aliases the same resident buffer.
    LookupRequest again = Probe(FnKey("blob", i));
    again.key_hash = Fnv1a(again.key);
    EXPECT_EQ(server.Lookup(again).value->data(), resp.value->data());
  }
}

TEST(CacheAdmissionSizing, OracleNeverEvictsMoreBenefitThanAdmitted) {
  // Model-checked oracle for the size-aware invariant: whenever a large fill is ADMITTED at
  // byte pressure, the summed remaining benefit of the victims its bytes displace must not
  // exceed the fill's own benefit. The test mirrors the single-shard cost-aware policy
  // exactly (score = floor-at-insert + cost/bytes, evict lowest score first, floor ratchets
  // to each evicted score), predicts every admission decision and every eviction, and
  // cross-checks the model against the server's accounting and residency after every step.
  for (uint64_t seed : {7u, 21u, 63u}) {
    ManualClock clock;
    clock.Set(Seconds(100));
    CacheServer::Options options = OneShardOptions(32 * 1024);
    options.max_entry_fraction = 0;  // the displacement comparison is the only size gate
    options.displacement_check_bytes = 4096;
    options.admission_min_samples = 1'000'000;  // watermark out of the way
    CacheServer server("oracle", &clock, options);
    Rng rng(seed);

    struct Entry {
      size_t bytes;
      uint64_t cost;
      double score;
    };
    std::map<std::string, Entry> model;  // resident set, mirrored
    size_t model_bytes = 0;

    for (uint64_t i = 0; i < 300; ++i) {
      const bool large = rng.Bernoulli(0.2);
      const size_t value_bytes = large ? static_cast<size_t>(rng.Uniform(4096, 12000))
                                       : static_cast<size_t>(rng.Uniform(200, 800));
      // Distinct costs avoid score ties, which the model would have to tie-break.
      const uint64_t cost = 1000 * (i + 1) + rng.Uniform(1, 999);
      InsertRequest req = StillValid(FnKey(large ? "large" : "small", i), value_bytes, cost);
      const size_t est = CacheShard::EstimateBytes(req);
      const double floor_before = server.aging_floor();
      const bool pressure = model_bytes + est > options.capacity_bytes;

      // Model prediction of the displacement decision.
      bool expect_decline = false;
      if (pressure && est >= options.displacement_check_bytes) {
        std::vector<Entry> victims;
        for (const auto& [_, e] : model) {
          victims.push_back(e);
        }
        std::sort(victims.begin(), victims.end(),
                  [](const Entry& a, const Entry& b) { return a.score < b.score; });
        const size_t need = model_bytes + est - options.capacity_bytes;
        size_t covered = 0;
        double displaced = 0;
        for (const Entry& v : victims) {
          if (covered >= need) {
            break;
          }
          covered += v.bytes;
          displaced += std::max(0.0, v.score - floor_before) * static_cast<double>(v.bytes);
        }
        expect_decline = displaced > static_cast<double>(cost);
        if (!expect_decline) {
          // THE invariant under test: an admitted victim set never out-benefits the entry.
          ASSERT_LE(displaced, static_cast<double>(cost)) << "step " << i;
        }
      }

      Status st = server.Insert(req);
      if (expect_decline) {
        ASSERT_EQ(st.code(), StatusCode::kDeclinedTooLarge)
            << "step " << i << ": " << st.ToString();
        continue;
      }
      ASSERT_TRUE(st.ok()) << "step " << i << ": " << st.ToString();

      // Mirror the insert + EvictToFit: the new entry scores at the pre-eviction floor and
      // is itself a potential victim; evict lowest score until the budget fits.
      model[req.key] = Entry{est, cost,
                             floor_before + static_cast<double>(cost) /
                                                static_cast<double>(est)};
      model_bytes += est;
      while (model_bytes > options.capacity_bytes) {
        auto victim = model.begin();
        for (auto it = model.begin(); it != model.end(); ++it) {
          if (it->second.score < victim->second.score) {
            victim = it;
          }
        }
        model_bytes -= victim->second.bytes;
        model.erase(victim);
      }
      ASSERT_EQ(server.bytes_used(), model_bytes) << "model diverged at step " << i;
      ASSERT_EQ(server.version_count(), model.size()) << "model diverged at step " << i;
    }

    // Retroactive validation that the model's resident set (and with it every displacement
    // sum the oracle checked) tracked the server exactly: residents hit, evictees miss.
    for (uint64_t i = 0; i < 300; ++i) {
      for (const char* fn : {"large", "small"}) {
        const std::string key = FnKey(fn, i);
        LookupResponse resp = server.Lookup(Probe(key));
        EXPECT_EQ(resp.hit, model.contains(key)) << "seed " << seed << " key " << fn << i;
      }
    }
  }
}

TEST(CacheAdmissionSizing, DisplacementPricesInHitsOnUnrefreshedVictims) {
  // Regression for the displacement estimate undervaluing live-but-unrefreshed victims: a
  // resident entry that keeps serving HITS but is never re-filled has a GreedyDual score
  // margin near the floor, so the pure score-margin formula priced it as almost free and a
  // marginal large fill displaced it. PreviewVictims now folds in a recency-decayed hit
  // benefit (hits x fill cost), so the same fill is declined once the victims have proven
  // traffic. Two identical servers, identical fill — the only difference is lookups.
  auto build = [](ManualClock* clock, const char* name) {
    CacheServer::Options options = OneShardOptions(32 * 1024);
    options.max_entry_fraction = 0;
    options.displacement_check_bytes = 4096;
    options.admission_min_samples = 1'000'000;  // watermark out of the way
    auto server = std::make_unique<CacheServer>(name, clock, options);
    for (uint64_t i = 0; i < 8; ++i) {
      // Low-cost residents: score margin ~ 1000/4096 us/byte, so the score-only displacement
      // sum for any victim subset stays around 1000 us per victim.
      EXPECT_TRUE(server->Insert(StillValid(FnKey("resident", i), 3800, 1000)).ok());
    }
    return server;
  };
  // The challenger needs ~16 KB at full pressure: roughly four residents must make way.
  // Its 6000 us benefit beats their ~4 x 1000 us score-margin price.
  const InsertRequest challenger = StillValid(FnKey("challenger", 0), 16 * 1024, 6000);

  ManualClock clock;
  clock.Set(Seconds(100));
  auto idle = build(&clock, "idle");
  Status admitted = idle->Insert(challenger);
  EXPECT_TRUE(admitted.ok()) << admitted.ToString()
                             << " (never-hit victims keep the exact score-margin price)";

  auto busy = build(&clock, "busy");
  for (int round = 0; round < 10; ++round) {
    for (uint64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(busy->Lookup(Probe(FnKey("resident", i))).hit);
    }
  }
  Status declined = busy->Insert(challenger);
  EXPECT_EQ(declined.code(), StatusCode::kDeclinedTooLarge)
      << "ten hits apiece must outprice a 6000 us fill: the victims' saved recomputes "
         "(~10 x 1000 us each, barely decayed) now count";
  EXPECT_EQ(busy->version_count(), 8u) << "the declined fill displaced nothing";
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(busy->Lookup(Probe(FnKey("resident", i))).hit);
  }
}

TEST(CacheAdmissionSizing, LearnedTtlDemotesOverdueEntriesToStaleFirstEviction) {
  ManualClock clock;
  clock.Set(Seconds(100));
  CacheServer::Options options = OneShardOptions(16 * 1024);
  options.lifetime_min_samples = 2;
  options.ttl_expiry_slack = 1.5;
  options.sweep_interval_ops = 4;  // every few mutations runs the sweep (and the TTL pass)
  options.admission_min_samples = 1'000'000;
  CacheServer server("ttl", &clock, options);
  auto tag = InvalidationTag::Concrete("t", "i", "hot");

  // Teach the cache that "volatile" results live ~100 ms: two insert → invalidate rounds.
  // Each fill is computed at the current stream position so it enters still-valid (an older
  // computed_at would be insert-time truncated by the replay history and learn nothing).
  uint64_t seqno = 1;
  Timestamp ts = 10;
  for (uint64_t round = 0; round < 2; ++round) {
    InsertRequest req = StillValid(FnKey("volatile", round), 600, 50'000, {tag});
    req.interval.lower = ts + 1;
    req.computed_at = ts + 1;
    ASSERT_TRUE(server.Insert(req).ok());
    clock.Advance(Millis(100));
    InvalidationMessage msg;
    msg.seqno = seqno++;
    msg.ts = ts += 2;
    msg.wallclock = clock.Now();
    msg.tags = {tag};
    server.Deliver(msg);
  }
  bool saw = false;
  for (const FunctionStatsEntry& e : server.FunctionStats()) {
    if (e.function == "volatile") {
      saw = true;
      EXPECT_EQ(e.truncations, 2u);
      EXPECT_NEAR(e.ewma_lifetime_us, 100'000.0, 1.0);
    }
  }
  ASSERT_TRUE(saw) << "lifetime learning must surface in FunctionStats";

  // A fresh volatile entry plus a cheap stable one. The volatile entry carries 50x the
  // benefit-per-byte, so WITHOUT TTL demotion it would outlive the stable entry under
  // pressure. Let it outlive its learned lifetime instead.
  InsertRequest overdue = StillValid(FnKey("volatile", 100), 600, 50'000, {tag});
  overdue.interval.lower = ts + 1;
  overdue.computed_at = ts + 1;
  ASSERT_TRUE(server.Insert(overdue).ok());
  ASSERT_TRUE(server.Insert(StillValid(FnKey("stable", 1), 600, 1'000)).ok());
  clock.Advance(Millis(400));  // 400 ms > 1.5 x 100 ms: overdue

  // Mutations run the op-counter sweep, which demotes the overdue entry (validity intact:
  // it still serves hits as still-valid until evicted or truncated).
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(server.Insert(StillValid(FnKey("filler", i), 400, 2'000)).ok());
  }
  EXPECT_GT(server.stats().ttl_demotions, 0u);
  LookupRequest probe_overdue = Probe(FnKey("volatile", 100));
  probe_overdue.bounds_lo = ts + 1;
  LookupResponse before_evict = server.Lookup(probe_overdue);
  ASSERT_TRUE(before_evict.hit) << "demotion must not change what the entry serves";
  EXPECT_TRUE(before_evict.still_valid);

  // Capacity pressure: the demoted entry is evicted stale-first, before every still-valid
  // entry — its 50x benefit score notwithstanding. The cheap stable entry survives it.
  uint64_t stale_evictions_before = server.stats().evictions_capacity_stale;
  for (uint64_t i = 0; i < 64 && server.Lookup(probe_overdue).hit; ++i) {
    ASSERT_TRUE(server.Insert(StillValid(FnKey("pressure", i), 900, 2'000)).ok());
  }
  EXPECT_FALSE(server.Lookup(probe_overdue).hit) << "overdue entry must go first";
  EXPECT_GT(server.stats().evictions_capacity_stale, stale_evictions_before);
  EXPECT_TRUE(server.Lookup(Probe(FnKey("stable", 1))).hit)
      << "stable entry outlives the TTL-demoted one";
}

TEST(CacheAdmissionSizing, LearnedLifetimeOfZeroStillDemotes) {
  // A ManualClock that does not move between insert and truncation teaches a lifetime of
  // exactly 0 µs. That is a learned value, not "not learned yet": any entry of the function
  // older than 0 µs has outlived it.
  ManualClock clock;
  clock.Set(Seconds(100));
  CacheServer::Options options = OneShardOptions(64 * 1024);
  options.lifetime_min_samples = 1;
  options.sweep_interval_ops = 1;  // every mutation runs the sweep (and the TTL pass)
  options.admission_min_samples = 1'000'000;
  CacheServer server("ttl-zero", &clock, options);
  auto tag = InvalidationTag::Concrete("t", "i", "k");

  InsertRequest first = StillValid(FnKey("instant", 1), 500, 5'000, {tag});
  first.interval.lower = 11;
  first.computed_at = 11;
  ASSERT_TRUE(server.Insert(first).ok());
  InvalidationMessage msg;
  msg.seqno = 1;
  msg.ts = 12;
  msg.wallclock = clock.Now();
  msg.tags = {tag};
  server.Deliver(msg);  // truncated at the instant it was inserted: learned lifetime 0
  std::vector<FunctionStatsEntry> stats = server.FunctionStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].truncations, 1u);
  EXPECT_EQ(stats[0].ewma_lifetime_us, 0.0);

  InsertRequest second = StillValid(FnKey("instant", 2), 500, 5'000, {tag});
  second.interval.lower = 13;
  second.computed_at = 13;
  ASSERT_TRUE(server.Insert(second).ok());
  EXPECT_EQ(server.stats().ttl_demotions, 0u) << "an entry aged 0 µs has not outlived 0 µs";
  clock.Advance(1);
  ASSERT_TRUE(server.Insert(StillValid(FnKey("other", 1), 500, 5'000)).ok());
  EXPECT_EQ(server.stats().ttl_demotions, 1u);
}

TEST(CacheAdmissionSizing, FunctionsOverTheProfileCapAreNeitherProfiledNorLearned) {
  ManualClock clock;
  clock.Set(Seconds(100));
  CacheServer::Options options = OneShardOptions(8 * 1024);
  options.max_function_profiles = 1;
  options.lifetime_min_samples = 1;
  options.sweep_interval_ops = 1;
  options.admission_min_samples = 0;
  CacheServer server("cap", &clock, options);
  auto tag_first = InvalidationTag::Concrete("t", "i", "first");
  auto tag_second = InvalidationTag::Concrete("t", "i", "second");

  // The first function seen takes the only profile; the second is over the cap.
  std::shared_ptr<const AdvisoryHints> hints;
  InsertRequest first = StillValid(FnKey("first", 0), 600, 1'000, {tag_first});
  first.interval.lower = 11;
  first.computed_at = 11;
  ASSERT_TRUE(server.Insert(first, &hints).ok());
  EXPECT_NE(hints, nullptr);
  InsertRequest second = StillValid(FnKey("second", 0), 600, 1'000, {tag_second});
  second.interval.lower = 11;
  second.computed_at = 11;
  ASSERT_TRUE(server.Insert(second, &hints).ok());
  EXPECT_EQ(hints, nullptr) << "an unprofiled function publishes no hints";
  ASSERT_TRUE(server.Lookup(Probe(FnKey("first", 0))).hit);
  ASSERT_TRUE(server.Lookup(Probe(FnKey("second", 0))).hit);

  // Both are truncated 100 ms after insert; only the first learns the lifetime.
  clock.Advance(Millis(100));
  InvalidationMessage msg;
  msg.seqno = 1;
  msg.ts = 12;
  msg.wallclock = clock.Now();
  msg.tags = {tag_first, tag_second};
  server.Deliver(msg);

  // Fresh entries of both outlive 1.5 x 100 ms; only the first function's is demoted.
  for (const char* fn : {"first", "second"}) {
    InsertRequest req = StillValid(FnKey(fn, 1), 600, 1'000);
    req.interval.lower = 13;
    req.computed_at = 13;
    ASSERT_TRUE(server.Insert(req).ok());
  }
  clock.Advance(Seconds(1));
  ASSERT_TRUE(server.Insert(StillValid(FnKey("second", 2), 600, 1'000)).ok());
  EXPECT_EQ(server.stats().ttl_demotions, 1u) << "only the profiled function is TTL-learned";

  // Capacity pressure with unhit entries drives the first function's benefit-per-byte below
  // the watermark until it is declined; the second, unprofiled, is never declined.
  bool first_declined = false;
  for (uint64_t i = 0; i < 500 && !first_declined; ++i) {
    first_declined = server.Insert(StillValid(FnKey("first", 100 + i), 600, 1'000)).code() ==
                     StatusCode::kDeclined;
  }
  EXPECT_TRUE(first_declined);
  EXPECT_GT(server.aging_floor(), 0.0);
  for (uint64_t i = 0; i < 200; ++i) {
    EXPECT_NE(server.Insert(StillValid(FnKey("second", 100 + i), 600, 1'000)).code(),
              StatusCode::kDeclined);
  }

  std::vector<FunctionStatsEntry> stats = server.FunctionStats();
  ASSERT_EQ(stats.size(), 1u) << "the unprofiled function has no stats, hits included";
  EXPECT_EQ(stats[0].function, "first");
  EXPECT_GT(stats[0].fills, 1u);
  EXPECT_GT(stats[0].admission_rejects, 0u);
  EXPECT_EQ(stats[0].hits, 1u);
  EXPECT_EQ(stats[0].truncations, 1u);
  EXPECT_NEAR(stats[0].ewma_lifetime_us, 100'000.0, 1.0);
}

TEST(CacheAdmissionSizing, AdvisoryHintsFlowOnInsertAndLookupResponses) {
  ManualClock clock;
  clock.Set(Seconds(100));
  CacheServer::Options options = OneShardOptions(64 * 1024);
  options.lifetime_min_samples = 1;
  CacheServer server("hints", &clock, options);
  auto tag = InvalidationTag::Concrete("t", "i", "g");

  // First insert: hints published with the optimistic profile.
  std::shared_ptr<const AdvisoryHints> hints;
  ASSERT_TRUE(server.Insert(StillValid(FnKey("fn", 1), 500, 5'000, {tag}), &hints).ok());
  ASSERT_NE(hints, nullptr);
  EXPECT_EQ(hints->learned_lifetime_us, 0u) << "nothing learned before any truncation";
  EXPECT_GT(hints->observed_bpb, 0.0);
  EXPECT_DOUBLE_EQ(hints->decline_rate, 0.0);

  // Truncate it 250 ms later: the next insert's hints carry the learned lifetime.
  clock.Advance(Millis(250));
  InvalidationMessage msg;
  msg.seqno = 1;
  msg.ts = 50;
  msg.wallclock = clock.Now();
  msg.tags = {tag};
  server.Deliver(msg);
  InsertRequest second = StillValid(FnKey("fn", 2), 500, 5'000, {tag});
  second.interval.lower = 51;
  second.computed_at = 51;
  ASSERT_TRUE(server.Insert(second, &hints).ok());
  ASSERT_NE(hints, nullptr);
  EXPECT_NEAR(static_cast<double>(hints->learned_lifetime_us), 250'000.0, 1.0);

  // A lookup hit serves the stored snapshot (zero-copy alias of the published hints).
  LookupRequest probe = Probe(FnKey("fn", 2));
  probe.bounds_lo = 51;
  LookupResponse resp = server.Lookup(probe);
  ASSERT_TRUE(resp.hit);
  ASSERT_NE(resp.hints, nullptr);
  EXPECT_EQ(resp.hints->learned_lifetime_us, hints->learned_lifetime_us);
}

}  // namespace
}  // namespace txcache
