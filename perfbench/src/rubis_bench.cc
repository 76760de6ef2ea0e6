// Wall-clock RUBiS benchmark: one driver thread runs the real stack in one process —
// RubisSession/RubisApp (derived-tag mode) → TxCacheClient → CacheCluster → CacheTransport →
// CacheServer/CacheShard, with Database, Pincushion and InvalidationBus alongside.
//
//   rubis_bench --workload browse_hot --seed 1 --seconds 30 --trace 0 [--commit C]
//               [--out-dir D]
//
// A run is three set-ups, each followed by identical measured passes. A set-up builds the
// stack from scratch, loads the dataset and warms the cache (timed as setup_s). A pass is a
// child process forked from the warmed set-up that times a fixed count of interactions, so
// every pass starts from the same state without paying for another set-up. The pass count
// follows --seconds and the workload's nominal set-up and pass times. A fixed count, not a
// fixed time, keeps the workload the same however fast the build is: bids on auctions closed
// earlier in the run are refused, so the mix drifts with the number of interactions. Because
// passes repeat the same interactions, each interaction's latency (and each chunk's time) is
// the least over the passes: the program's own costs recur in every pass, a stall another
// guest of the host causes does not.
// The application clock is a ManualClock advanced a fixed step per interaction, so cache
// behaviour follows the seed rather than the host's speed; latencies and throughput are
// wall-clock (steady_clock).
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and traced set-ups
// and reports the per-layer metrics, measured from spans the benchmark records around the
// interaction, every CacheTransport call and every invalidation delivery (trace.h).
//
// The last line of stdout is the result object; the line before it holds the labels (host,
// build, seed, interaction counts, commit) and the per-class accounting.
#include <dirent.h>
#include <poll.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"
#include "src/bus/bus.h"
#include "src/cache/cache_cluster.h"
#include "src/cache/cache_server.h"
#include "src/core/txcache_client.h"
#include "src/db/database.h"
#include "src/net/net_server.h"
#include "src/net/transport.h"
#include "src/pincushion/pincushion.h"
#include "src/rubis/app.h"
#include "src/rubis/data.h"
#include "src/rubis/schema.h"
#include "src/rubis/session.h"
#include "src/util/clock.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using txcache::CacheCluster;
using txcache::CacheServer;
using txcache::CacheStats;
using txcache::ClientStats;
using txcache::Database;
using txcache::InvalidationBus;
using txcache::ManualClock;
using txcache::Pincushion;
using txcache::Status;
using txcache::TxCacheClient;
using txcache::WallClock;
using txcache::rubis::Interaction;

// Application time per interaction. Every pass stays inside the 30 s default staleness
// (browse_hot: 505k interactions, 15 s), because past it a read-only stream re-pins its
// unchanged snapshot on every transaction: Pincushion::Register keeps the first pinned_at of
// a timestamp, so the re-pin never becomes fresh.
constexpr WallClock kStepPerInteraction = 30;
constexpr size_t kCacheNodes = 2;  // the paper's two dedicated cache nodes (§8)
constexpr uint64_t kAuditEvery = 64;  // read-only interactions between consistency audits
constexpr double kDatasetScale = 0.1;  // RubisScale::InMemory: 16k users, 3.5k+5k auctions
constexpr uint64_t kChunk = 1000;  // measured interactions per throughput chunk
constexpr uint32_t kSpanCsvInteractions = 20'000;  // spans written out: the first interactions

struct Workload {
  const char* name;
  bool read_only_mix;   // bidding-mix weights with read/write picks resampled away
  bool socket;          // CacheTransport over TCP to one-worker NetServers, else loopback
  size_t node_capacity_bytes;
  uint64_t warmup_ops;
  uint64_t measured_ops;
  // Read/write interactions timed after the measured stream on the read-only workloads, so
  // they report write latency against their warm cache without touching the read figures.
  uint64_t rw_block_ops;
  // Nominal wall times on the 4-vCPU development VM of one set-up (load, warm-up, teardown)
  // and of one pass (fork, page copy, measured stream, RW block, audits). --seconds buys
  // the pass count from them, so the count never follows the host's momentary speed.
  double setup_s;
  double pass_s;
};

constexpr Workload kWorkloads[] = {
    {"browse_hot", true, false, size_t{64} << 20, 200'000, 300'000, 5'000, 2.0, 2.3},
    {"browse_socket", true, true, size_t{64} << 20, 200'000, 80'000, 5'000, 2.0, 3.0},
    {"bid_tight", false, false, size_t{4} << 20, 30'000, 60'000, 0, 1.4, 1.8},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir;
};

int64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Sets the affinity of every thread of the process, so the NetServer workers follow the
// driver. Every RPC is synchronous, so the driver and the epoll workers never need to run at
// once; on one CPU an RPC costs two same-core switches instead of cross-core wake-ups, whose
// cost on a shared virtual machine swung socket throughput by 4x between runs.
void PinAllThreads(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    (void)sched_setaffinity(0, sizeof(one), &one);
    return;
  }
  while (dirent* entry = readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) {
      (void)sched_setaffinity(tid, sizeof(one), &one);
    }
  }
  closedir(dir);
}

// Wall time of a fixed ~1 ms dependent multiply-and-store chain on the current CPU.
volatile uint64_t probe_sink;

int64_t ProbeNs() {
  uint64_t x = 1;
  const int64_t start = NowNs();
  for (int i = 0; i < 400'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    probe_sink = x;
  }
  return NowNs() - start;
}

// Pins the process to the CPU, of those in `allowed`, that runs the probe fastest right now
// (best of three probes each), and returns it. On a shared virtual machine the virtual CPUs
// run at different and changing speeds — a fixed loop ran 2x slower on one than on another
// at the same moment — as other guests load the cores beneath them. Choosing at the start
// of each phase keeps the timings off a CPU that is being shared at that moment.
int PinToFastestCpu(const cpu_set_t& allowed) {
  int best = -1;
  int64_t best_ns = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) {
      continue;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      continue;
    }
    const int64_t ns = std::min({ProbeNs(), ProbeNs(), ProbeNs()});
    if (best < 0 || ns < best_ns) {
      best = cpu;
      best_ns = ns;
    }
  }
  if (best >= 0) {
    PinAllThreads(best);
  }
  return best;
}

// Refusals the application is built to give: a bid or buy-now on an auction that closed
// earlier in the run. Correct behaviour, whose count depends only on seed and count.
bool IsBusinessRefusal(Interaction i, const Status& st) {
  return (i == Interaction::kStoreBid || i == Interaction::kStoreBuyNow) &&
         st.code() == txcache::StatusCode::kNotFound &&
         st.message() == "item is no longer active";
}

// --- the oracle of the consistency audit: the same fields GetItemImpl/GetUserImpl fill, read
// straight from the database at its latest commit ---

bool ReadRow(Database* db, const char* table, const char* index, int64_t id,
             txcache::Row* out) {
  auto txn = db->BeginReadOnly(db->LatestCommitTs());
  if (!txn.ok()) {
    return false;
  }
  auto r = db->Execute(txn.value(), txcache::Query::From(txcache::AccessPath::IndexEq(
                                        table, index, txcache::Row{txcache::Value(id)})));
  (void)db->Commit(txn.value());
  if (!r.ok() || r.value().rows.empty()) {
    return false;
  }
  *out = r.value().rows[0];
  return true;
}

bool SameItemAsDatabase(Database* db, const txcache::rubis::ItemInfo& got, int64_t id) {
  using txcache::rubis::ItemsCol;
  txcache::Row row;
  bool closed = false;
  if (!ReadRow(db, txcache::rubis::kItems, txcache::rubis::kItemsPk, id, &row)) {
    closed = true;
    if (!ReadRow(db, txcache::rubis::kOldItems, txcache::rubis::kOldItemsPk, id, &row)) {
      return !got.found;
    }
  }
  return got.found && got.closed == closed && got.id == row[ItemsCol::kId].AsInt() &&
         got.name == row[ItemsCol::kName].AsString() &&
         got.description == row[ItemsCol::kDescription].AsString() &&
         got.initial_price == row[ItemsCol::kInitialPrice].AsDouble() &&
         got.quantity == row[ItemsCol::kQuantity].AsInt() &&
         got.buy_now == row[ItemsCol::kBuyNow].AsDouble() &&
         got.nb_of_bids == row[ItemsCol::kNbOfBids].AsInt() &&
         got.max_bid == row[ItemsCol::kMaxBid].AsDouble() &&
         got.end_date == row[ItemsCol::kEndDate].AsInt() &&
         got.seller == row[ItemsCol::kSeller].AsInt() &&
         got.category == row[ItemsCol::kCategory].AsInt();
}

bool SameUserAsDatabase(Database* db, const txcache::rubis::UserInfo& got, int64_t id) {
  using txcache::rubis::UsersCol;
  txcache::Row row;
  if (!ReadRow(db, txcache::rubis::kUsers, txcache::rubis::kUsersPk, id, &row)) {
    return !got.found;
  }
  return got.found && got.id == row[UsersCol::kId].AsInt() &&
         got.nickname == row[UsersCol::kNickname].AsString() &&
         got.rating == row[UsersCol::kRating].AsInt() &&
         got.region == row[UsersCol::kRegion].AsInt() &&
         got.creation_date == row[UsersCol::kCreationDate].AsInt();
}

// Carries the warm-up over loopback and, once switched, everything after it over the socket.
// Both transports answer every RPC identically (the transport parity contract), so the
// measured stream starts from the cache state a loopback warm-up leaves — browse_hot's —
// without paying for a socket warm-up in every set-up.
class WarmupOverLoopback final : public txcache::CacheTransport {
 public:
  explicit WarmupOverLoopback(std::shared_ptr<txcache::CacheTransport> loopback)
      : loopback_(std::move(loopback)) {}

  void SwitchToSocket(std::shared_ptr<txcache::CacheTransport> socket) {
    socket_ = std::move(socket);
    live_ = socket_.get();
  }

  const std::string& name() const override { return loopback_->name(); }
  txcache::LookupResponse Lookup(const txcache::LookupRequest& req) override {
    return live_->Lookup(req);
  }
  txcache::MultiLookupResponse MultiLookup(const txcache::MultiLookupRequest& req) override {
    return live_->MultiLookup(req);
  }
  void MultiLookup(const txcache::MultiLookupRequest& req, const std::vector<uint32_t>& indices,
                   txcache::MultiLookupResponse* out) override {
    live_->MultiLookup(req, indices, out);
  }
  txcache::Status Insert(const txcache::InsertRequest& req,
                         std::shared_ptr<const txcache::AdvisoryHints>* hints_out) override {
    return live_->Insert(req, hints_out);
  }
  txcache::IntentResponse AcquireIntent(const txcache::IntentRequest& req) override {
    return live_->AcquireIntent(req);
  }
  txcache::IntentResponse ReleaseIntent(const txcache::IntentRequest& req) override {
    return live_->ReleaseIntent(req);
  }
  txcache::CacheServer* local_server() const override { return loopback_->local_server(); }
  uint64_t transport_failures() const override { return live_->transport_failures(); }

 private:
  std::shared_ptr<txcache::CacheTransport> loopback_;
  std::shared_ptr<txcache::CacheTransport> socket_;
  txcache::CacheTransport* live_ = loopback_.get();
};

// One set-up's stack. Members are declared in dependency order so they are destroyed in
// reverse: clients before the cluster, the cluster's transports before the NetServers they
// talk to, the NetServers before the cache nodes they serve.
class Stack {
 public:
  Stack(const Workload& w, uint64_t seed, Tracer* tracer) : clock_(txcache::Seconds(1'000'000)) {
    db_ = std::make_unique<Database>(&clock_);
    db_->set_invalidation_bus(&bus_);
    CacheServer::Options cache_options;
    cache_options.capacity_bytes = w.node_capacity_bytes;
    for (size_t i = 0; i < kCacheNodes; ++i) {
      nodes_.push_back(
          std::make_unique<CacheServer>("cache-" + std::to_string(i), &clock_, cache_options));
      CacheServer* node = nodes_.back().get();
      if (tracer != nullptr) {
        subscribers_.push_back(std::make_unique<TracingSubscriber>(node, tracer));
        bus_.Subscribe(subscribers_.back().get());
      } else {
        bus_.Subscribe(node);
      }
      std::shared_ptr<txcache::CacheTransport> transport;
      if (w.socket) {
        switches_.push_back(
            std::make_shared<WarmupOverLoopback>(txcache::MakeLoopbackTransport(node)));
        transport = switches_.back();
      } else {
        transport = txcache::MakeLoopbackTransport(node);
      }
      if (tracer != nullptr) {
        transport = std::make_shared<TracingTransport>(std::move(transport), tracer);
      }
      cluster_.AddNode(std::move(transport));
    }
    pincushion_ = std::make_unique<Pincushion>(db_.get(), &clock_);
    auto dataset = txcache::rubis::LoadRubis(
        db_.get(), txcache::rubis::RubisScale::InMemory(kDatasetScale), &clock_, seed);
    if (!dataset.ok()) {
      error_ = "LoadRubis: " + dataset.status().ToString();
      return;
    }
    dataset_ = std::move(dataset.value());
    client_ = std::make_unique<TxCacheClient>(db_.get(), pincushion_.get(), &cluster_, &clock_);
    session_ = std::make_unique<txcache::rubis::RubisSession>(client_.get(), dataset_.get(),
                                                              &clock_, seed * 7919 + 1);
    // The auditor pins through its own pincushion: its fresh pins (staleness 0) must not
    // become snapshots the emulated user reads at.
    audit_pincushion_ = std::make_unique<Pincushion>(db_.get(), &clock_);
    audit_client_ =
        std::make_unique<TxCacheClient>(db_.get(), audit_pincushion_.get(), &cluster_, &clock_);
    audit_app_ =
        std::make_unique<txcache::rubis::RubisApp>(audit_client_.get(), dataset_.get(), &clock_);
    for (txcache::rubis::RubisApp* app : {&session_->app(), audit_app_.get()}) {
      Status st = app->EnableDerivedTags(db_.get());
      if (!st.ok()) {
        error_ = "EnableDerivedTags: " + st.ToString();
        return;
      }
    }
  }

  // Ends the warm-up: socket workloads start a one-worker NetServer per node and carry every
  // later RPC over TCP to it. Called in the pass's own process, so the servers' threads are
  // that process's (fork copies only the calling thread).
  Status EndWarmup() {
    for (size_t i = 0; i < switches_.size(); ++i) {
      CacheServer* node = nodes_[i].get();
      txcache::net::NetServerOptions net_options;
      net_options.num_workers = 1;
      net_servers_.push_back(std::make_unique<txcache::net::NetServer>(node, net_options));
      Status st = net_servers_.back()->Start();
      if (!st.ok()) {
        return st;
      }
      switches_[i]->SwitchToSocket(txcache::MakeSocketTransport(
          node->name(), node, "127.0.0.1", net_servers_.back()->port()));
    }
    return Status::Ok();
  }

  const std::string& error() const { return error_; }
  ManualClock& clock() { return clock_; }
  Database* db() { return db_.get(); }
  txcache::rubis::RubisDataset* dataset() { return dataset_.get(); }
  TxCacheClient* client() { return client_.get(); }
  TxCacheClient* audit_client() { return audit_client_.get(); }
  txcache::rubis::RubisSession* session() { return session_.get(); }
  txcache::rubis::RubisApp* audit_app() { return audit_app_.get(); }

  CacheStats cache_stats() const { return cluster_.TotalStats(); }
  uint64_t frames_served() const {
    uint64_t n = 0;
    for (const auto& s : net_servers_) {
      n += s->frames_served();
    }
    return n;
  }
  uint64_t transport_failures() const {
    uint64_t n = 0;
    for (const auto& t : cluster_.Transports()) {
      n += t->transport_failures();
    }
    return n;
  }
  size_t resident_versions() const {
    size_t n = 0;
    for (const auto& node : nodes_) {
      n += node->version_count();
    }
    return n;
  }
  size_t resident_bytes() const {
    size_t n = 0;
    for (const auto& node : nodes_) {
      n += node->bytes_used();
    }
    return n;
  }

 private:
  ManualClock clock_;
  InvalidationBus bus_;
  std::unique_ptr<Database> db_;
  std::vector<std::unique_ptr<CacheServer>> nodes_;
  std::vector<std::unique_ptr<TracingSubscriber>> subscribers_;
  std::vector<std::unique_ptr<txcache::net::NetServer>> net_servers_;
  std::vector<std::shared_ptr<WarmupOverLoopback>> switches_;
  CacheCluster cluster_;
  std::unique_ptr<Pincushion> pincushion_;
  std::unique_ptr<Pincushion> audit_pincushion_;
  std::unique_ptr<txcache::rubis::RubisDataset> dataset_;
  std::unique_ptr<TxCacheClient> client_;
  std::unique_ptr<txcache::rubis::RubisSession> session_;
  std::unique_ptr<TxCacheClient> audit_client_;
  std::unique_ptr<txcache::rubis::RubisApp> audit_app_;
  std::string error_;
};

struct ClassCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;  // business refusals (read/write only)
};

// How an interaction's latency is reported. A failed or refused interaction has no latency.
enum Class : uint8_t { kRoHit, kRoMiss, kRw, kUntimed };

// What one measured pass over a warmed stack reports.
struct PassResult {
  std::string error;
  double measured_s = 0;  // wall time of the measured stream, audits excluded
  uint64_t ops = 0;
  // Per interaction of the measured stream and then the RW block: its latency and class.
  std::vector<double> us;
  std::vector<uint8_t> cls;
  std::vector<double> chunk_s;  // wall time of each kChunk measured interactions, audits out
  ClassCount ro, rw, rw_block;
  uint64_t audits = 0, audit_hits = 0, audit_mismatches = 0;
  std::vector<std::string> failures;  // the first few failure messages
  ClientStats client;                 // deltas over the measured stream
  CacheStats cache;                   // audits subtracted
  uint64_t frames_served = 0;         // audits subtracted
  uint64_t transport_failures = 0;
  size_t resident_versions = 0;
  size_t resident_bytes = 0;
  int cpu = -1;              // the CPU PinToFastestCpu chose for the measured stream
  int64_t peak_rss_kb = 0;   // of the process that ran the pass
  // Traced passes only: per measured interaction, its outcome and missed calls.
  std::vector<Outcome> outcome;
  std::vector<uint32_t> misses;
};

// Next interaction of the workload's mix: the bidding mix, or its read-only part at the
// same relative weights. `only_rw` resamples until a read/write interaction comes up.
Interaction NextInteraction(txcache::rubis::RubisSession* session, bool read_only_mix,
                            bool only_rw = false) {
  for (;;) {
    const Interaction i = session->Next();
    const bool ro = txcache::rubis::IsReadOnly(i);
    if ((!read_only_mix || ro) && (!only_rw || !ro)) {
      return i;
    }
  }
}

void Fail(std::vector<std::string>* failures, std::string message) {
  if (failures->size() < 5) {
    failures->push_back(std::move(message));
  }
}

// Counts one interaction; true when it succeeded, so its latency is reported.
bool Account(ClassCount* c, Interaction in, const Status& st,
             std::vector<std::string>* failures) {
  ++c->attempted;
  if (st.ok()) {
    return true;
  }
  if (IsBusinessRefusal(in, st)) {
    ++c->rejected;
  } else {
    ++c->failed;
    Fail(failures, std::string(txcache::rubis::InteractionName(in)) + ": " + st.ToString());
  }
  return false;
}

// The set-up: the stack's dataset load and the warm-up interactions.
void WarmUp(const Workload& w, Stack* stack, ClassCount* warmup,
            std::vector<std::string>* failures) {
  txcache::rubis::RubisSession* session = stack->session();
  for (uint64_t i = 0; i < w.warmup_ops; ++i) {
    stack->clock().Advance(kStepPerInteraction);
    const Interaction in = NextInteraction(session, w.read_only_mix);
    (void)Account(warmup, in, session->Run(in), failures);
  }
}

// One measured pass over a warmed stack: the measured stream, then the RW block. It runs in
// a child process forked from the set-up (RunInChild), so every pass of a set-up starts from
// the same state and none sees what another changed.
class Pass {
 public:
  Pass(const Workload& w, uint64_t seed, Tracer* tracer, const cpu_set_t& cpus)
      : w_(w), tracer_(tracer), cpus_(cpus), audit_rng_(seed * 104729 + 3) {}

  PassResult Run(Stack* stack) {
    if (Status st = stack->EndWarmup(); !st.ok()) {
      r_.error = "NetServer start: " + st.ToString();
      return std::move(r_);
    }
    txcache::rubis::RubisSession* session = stack->session();
    TxCacheClient* client = stack->client();
    const ClientStats client_start = client->stats();
    const CacheStats cache_start = stack->cache_stats();
    const uint64_t frames_start = stack->frames_served();
    if (tracer_ != nullptr) {
      r_.outcome.reserve(w_.measured_ops);
      r_.misses.reserve(w_.measured_ops);
    }
    r_.us.assign(w_.measured_ops + w_.rw_block_ops, 0);
    r_.cls.assign(w_.measured_ops + w_.rw_block_ops, kUntimed);
    r_.cpu = PinToFastestCpu(cpus_);
    uint64_t ro_seen = 0;
    const int64_t loop_start = NowNs();
    int64_t chunk_start = loop_start, chunk_audit_ns = 0;
    auto end_chunk = [&] {
      const int64_t now = NowNs();
      r_.chunk_s.push_back(
          static_cast<double>(now - chunk_start - (audit_ns_ - chunk_audit_ns)) / 1e9);
      chunk_start = now;
      chunk_audit_ns = audit_ns_;
    };
    for (uint64_t i = 0; i < w_.measured_ops; ++i) {
      if (i % kChunk == 0 && i > 0) {
        end_chunk();
      }
      stack->clock().Advance(kStepPerInteraction);
      const Interaction in = NextInteraction(session, w_.read_only_mix);
      const bool read_only = txcache::rubis::IsReadOnly(in);
      const ClientStats before = read_only ? client->stats() : ClientStats{};
      const int64_t t0 = NowNs();
      if (tracer_ != nullptr) {
        tracer_->BeginInteraction(static_cast<uint32_t>(i), t0);
      }
      const Status st = session->Run(in);
      const int64_t t1 = NowNs();
      if (tracer_ != nullptr) {
        tracer_->EndInteraction(t1);
      }
      r_.us[i] = static_cast<double>(t1 - t0) / 1e3;
      if (read_only) {
        const ClientStats after = client->stats();
        const uint64_t missed = after.cache_misses - before.cache_misses;
        const Outcome outcome =
            ClassifyInteraction(after.cacheable_calls - before.cacheable_calls, missed);
        if (Account(&r_.ro, in, st, &r_.failures)) {
          r_.cls[i] = outcome == Outcome::kMiss ? kRoMiss : kRoHit;
        }
        if (tracer_ != nullptr) {
          r_.outcome.push_back(outcome);
          r_.misses.push_back(static_cast<uint32_t>(missed));
        }
        if (++ro_seen % kAuditEvery == 0) {
          Audit(stack);
        }
      } else {
        if (Account(&r_.rw, in, st, &r_.failures)) {
          r_.cls[i] = kRw;
        }
        if (tracer_ != nullptr) {
          r_.outcome.push_back(Outcome::kNoCacheableCall);
          r_.misses.push_back(0);
        }
      }
    }
    end_chunk();
    r_.ops = w_.measured_ops;
    r_.measured_s = static_cast<double>(NowNs() - loop_start - audit_ns_) / 1e9;
    r_.client = client->stats();
    r_.client -= client_start;
    r_.cache = stack->cache_stats();
    r_.cache -= cache_start;
    r_.cache -= audit_cache_;
    r_.frames_served = stack->frames_served() - frames_start - audit_frames_;
    r_.transport_failures = stack->transport_failures();
    r_.resident_versions = stack->resident_versions();
    r_.resident_bytes = stack->resident_bytes();

    for (uint64_t j = 0; j < w_.rw_block_ops; ++j) {
      stack->clock().Advance(kStepPerInteraction);
      const Interaction in = NextInteraction(session, /*read_only_mix=*/false, /*only_rw=*/true);
      const int64_t t0 = NowNs();
      if (tracer_ != nullptr) {
        tracer_->BeginInteraction(static_cast<uint32_t>(w_.measured_ops + j), t0);
      }
      const Status st = session->Run(in);
      const int64_t t1 = NowNs();
      if (tracer_ != nullptr) {
        tracer_->EndInteraction(t1);
      }
      if (Account(&r_.rw_block, in, st, &r_.failures)) {
        r_.us[w_.measured_ops + j] = static_cast<double>(t1 - t0) / 1e3;
        r_.cls[w_.measured_ops + j] = kRw;
      }
    }
    r_.peak_rss_kb = PeakRssKb();
    return std::move(r_);
  }

 private:
  // Re-reads one item or user through a second client at staleness 0 and compares it with
  // the database's latest committed state. One driver thread means no writer runs between
  // the two reads. Excluded from the measured time and from the cache counters.
  void Audit(Stack* stack) {
    const int64_t start = NowNs();
    const CacheStats cache_before = stack->cache_stats();
    const uint64_t frames_before = stack->frames_served();
    // Step past the last interaction so no pin taken at its instant counts as fresh enough
    // for staleness 0.
    stack->clock().Advance(1);
    TxCacheClient* ac = stack->audit_client();
    txcache::rubis::RubisApp* app = stack->audit_app();
    const uint64_t hits_before = ac->stats().cache_hits;
    const bool user = r_.audits % 2 == 1;
    ++r_.audits;
    bool same = false;
    Status st = ac->BeginRO(0);
    int64_t id = 0;
    if (st.ok()) {
      if (user) {
        id = stack->dataset()->PickUser(audit_rng_);
        const txcache::rubis::UserInfo got = app->get_user(id);
        st = ac->Commit().status();
        same = SameUserAsDatabase(stack->db(), got, id);
      } else {
        id = stack->dataset()->PickActiveItem(audit_rng_);
        const txcache::rubis::ItemInfo got = app->get_item(id);
        st = ac->Commit().status();
        same = SameItemAsDatabase(stack->db(), got, id);
      }
    }
    if (ac->stats().cache_hits > hits_before) {
      ++r_.audit_hits;
    }
    if (!st.ok() || !same) {
      ++r_.audit_mismatches;
      Fail(&r_.failures, std::string("audit of ") + (user ? "user " : "item ") +
                             std::to_string(id) + ": " +
                             (st.ok() ? "cached value differs from the database" : st.ToString()));
    }
    CacheStats delta = stack->cache_stats();
    delta -= cache_before;
    audit_cache_ += delta;
    audit_frames_ += stack->frames_served() - frames_before;
    audit_ns_ += NowNs() - start;
  }

  const Workload& w_;
  Tracer* tracer_;
  const cpu_set_t& cpus_;
  txcache::Rng audit_rng_;
  PassResult r_;
  CacheStats audit_cache_;
  uint64_t audit_frames_ = 0;
  int64_t audit_ns_ = 0;
};

// Samples pooled over the traced passes, and the per-pass scalars medians are taken of.
struct LayerSamples {
  std::vector<double> lookup_us, insert_us, apply_us, rpc_us;
  std::map<std::string, std::vector<double>> per_pass;
};

// Folds one traced pass's spans and counters into `out`. Only the measured stream's
// interactions (ids below measured_ops) count per operation; deliveries of the read/write
// block after it still feed the per-delivery apply times.
void AnalyzeTracedPass(const Workload& w, const PassResult& r, const Tracer& tracer,
                        LayerSamples* out) {
  const auto& spans = tracer.spans();
  const double n = static_cast<double>(r.ops);
  double self_ns = 0, interaction_ns = 0, apply_ns = 0;
  double deliveries = 0, rpcs = 0, lookup_keys = 0;
  double hit_self_ns = 0, hit_count = 0, miss_self_ns = 0, miss_count = 0, missed_calls = 0;
  std::vector<std::pair<int64_t, int64_t>> children;
  for (size_t i = 0; i < spans.size();) {
    const Span& root = spans[i];
    const bool measured = root.interaction < r.ops;
    children.clear();
    size_t j = i + 1;
    for (; j < spans.size() && spans[j].kind != SpanKind::kInteraction; ++j) {
      const Span& s = spans[j];
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      if (s.parent == static_cast<int32_t>(i)) {
        children.emplace_back(s.start_ns, s.end_ns);
      }
      if (s.kind == SpanKind::kDelivery) {
        out->apply_us.push_back(us);
        if (measured) {
          apply_ns += us * 1e3;
          ++deliveries;
        }
        continue;
      }
      if (!measured) {
        continue;
      }
      ++rpcs;
      out->rpc_us.push_back(us);
      if (s.kind == SpanKind::kLookup || s.kind == SpanKind::kMultiLookup) {
        out->lookup_us.push_back(us);
        lookup_keys += s.items;
      } else if (s.kind == SpanKind::kInsert) {
        out->insert_us.push_back(us);
      }
    }
    if (measured) {
      const auto self = static_cast<double>(SelfTime(root.start_ns, root.end_ns, children));
      self_ns += self;
      interaction_ns += static_cast<double>(root.end_ns - root.start_ns);
      if (r.outcome[root.interaction] == Outcome::kHit) {
        hit_self_ns += self;
        ++hit_count;
      } else if (r.outcome[root.interaction] == Outcome::kMiss) {
        miss_self_ns += self;
        ++miss_count;
        missed_calls += r.misses[root.interaction];
      }
    }
    i = j;
  }
  const ClientStats& c = r.client;
  auto add = [&](const char* name, double v) { out->per_pass[name].push_back(v); };
  add("core.self_us_per_op", self_ns / 1e3 / n);
  const double resolved = static_cast<double>(c.cache_hits + c.cache_misses);
  add("core.hit_ratio", resolved == 0 ? 0 : static_cast<double>(c.cache_hits) / resolved);
  add("core.cacheable_calls_per_op", static_cast<double>(c.cacheable_calls) / n);
  add("core.miss_compulsory_per_op", static_cast<double>(c.miss_compulsory) / n);
  add("core.miss_staleness_per_op", static_cast<double>(c.miss_staleness) / n);
  add("core.miss_capacity_per_op", static_cast<double>(c.miss_capacity) / n);
  add("core.miss_consistency_per_op", static_cast<double>(c.miss_consistency) / n);
  add("pincushion.pins_created_per_op", static_cast<double>(c.pins_created) / n);
  add("cache.lookups_per_op", lookup_keys / n);
  add("cache.inserts_per_op", static_cast<double>(r.cache.inserts) / n);
  add("cache.capacity_evictions_per_op", static_cast<double>(r.cache.capacity_evictions()) / n);
  add("cache.admission_rejects_per_op",
      static_cast<double>(r.cache.admission_rejects + r.cache.admission_rejects_too_large) / n);
  add("cache.resident_versions", static_cast<double>(r.resident_versions));
  add("cache.resident_bytes", static_cast<double>(r.resident_bytes));
  add("bus.deliveries_per_op", deliveries / n);
  add("bus.apply_share", interaction_ns == 0 ? 0 : apply_ns / interaction_ns);
  add("db.tuples_examined_per_op", static_cast<double>(c.db_tuples_examined) / n);
  add("db.index_probes_per_op", static_cast<double>(c.db_index_probes) / n);
  add("db.writes_per_op", static_cast<double>(c.db_writes) / n);
  // Recompute cost per missed call: the self time a miss interaction spends beyond a hit
  // interaction's, divided by the calls it recomputed.
  add("db.recompute_us_per_miss",
      miss_count == 0 || hit_count == 0 || missed_calls == 0
          ? 0
          : (miss_self_ns - miss_count * (hit_self_ns / hit_count)) / 1e3 / missed_calls);
  add("net.rpcs_per_op", w.socket ? rpcs / n : 0);
  add("net.frames_served_per_op", static_cast<double>(r.frames_served) / n);
  add("net.transport_failures", static_cast<double>(r.transport_failures));
  add("rubis.rw_rejected_per_op", static_cast<double>(r.rw.rejected) / n);
}

// --- passes in child processes ---

// Writes one byte of every resident page of the process's private writable mappings. fork()
// shares them copy-on-write; this makes the copies now, before any timing, and not inside
// whichever interactions first write each page.
void CopyWritablePagesNow() {
  std::FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) {
    return;
  }
  const auto page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident;
  char line[512];
  while (std::fgets(line, sizeof(line), maps) != nullptr) {
    uintptr_t lo = 0, hi = 0;
    char perms[5] = {};
    if (std::sscanf(line, "%" SCNxPTR "-%" SCNxPTR " %4s", &lo, &hi, perms) != 3 ||
        std::string_view(perms) != "rw-p") {
      continue;
    }
    resident.assign((hi - lo) / page, 0);
    if (mincore(reinterpret_cast<void*>(lo), hi - lo, resident.data()) != 0) {
      continue;
    }
    for (size_t i = 0; i < resident.size(); ++i) {
      if ((resident[i] & 1) != 0) {
        volatile char* p = reinterpret_cast<volatile char*>(lo + i * page);
        *p = *p;
      }
    }
  }
  std::fclose(maps);
}

// A pass's result as bytes on the pipe from the child that ran it. PassWriter and PassReader
// visit the same fields in the same order (Transfer), so the two cannot drift.
class PassWriter {
 public:
  template <class T>
  void Pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  template <class T>
  void Vec(std::vector<T>& v) {
    size_t n = v.size();
    Pod(n);
    bytes_.append(reinterpret_cast<const char*>(v.data()), n * sizeof(T));
  }
  void Str(std::string& s) {
    size_t n = s.size();
    Pod(n);
    bytes_ += s;
  }
  std::string& bytes() { return bytes_; }

 private:
  std::string bytes_;
};

class PassReader {
 public:
  explicit PassReader(const std::string& bytes) : bytes_(bytes) {}

  template <class T>
  void Pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (Take(sizeof(T))) {
      std::memcpy(&v, bytes_.data() + pos_ - sizeof(T), sizeof(T));
    }
  }
  template <class T>
  void Vec(std::vector<T>& v) {
    size_t n = 0;
    Pod(n);
    if (ok_ && n <= (bytes_.size() - pos_) / sizeof(T) && Take(n * sizeof(T))) {
      v.resize(n);
      std::memcpy(v.data(), bytes_.data() + pos_ - n * sizeof(T), n * sizeof(T));
    } else {
      ok_ = false;
    }
  }
  void Str(std::string& s) {
    size_t n = 0;
    Pod(n);
    if (Take(n)) {
      s.assign(bytes_.data() + pos_ - n, n);
    }
  }
  // Whether every field was there and nothing was left over.
  bool complete() const { return ok_ && pos_ == bytes_.size(); }

 private:
  bool Take(size_t n) {
    ok_ = ok_ && bytes_.size() - pos_ >= n;
    pos_ += ok_ ? n : 0;
    return ok_;
  }

  const std::string& bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

template <class Archive>
void TransferStrings(Archive& ar, std::vector<std::string>& v) {
  size_t n = v.size();
  ar.Pod(n);
  // A count no pass writes (failures keep 5, layer names are a few dozen) is a torn image:
  // the reader stops at the cap and reports the image incomplete.
  v.resize(std::min<size_t>(n, 1024));
  for (std::string& s : v) {
    ar.Str(s);
  }
}

template <class Archive>
void Transfer(Archive& ar, PassResult& r, LayerSamples& layers) {
  ar.Str(r.error);
  ar.Pod(r.measured_s);
  ar.Pod(r.ops);
  ar.Vec(r.us);
  ar.Vec(r.cls);
  ar.Vec(r.chunk_s);
  ar.Pod(r.ro);
  ar.Pod(r.rw);
  ar.Pod(r.rw_block);
  ar.Pod(r.audits);
  ar.Pod(r.audit_hits);
  ar.Pod(r.audit_mismatches);
  TransferStrings(ar, r.failures);
  ar.Pod(r.client);
  ar.Pod(r.cache);
  ar.Pod(r.frames_served);
  ar.Pod(r.transport_failures);
  ar.Pod(r.resident_versions);
  ar.Pod(r.resident_bytes);
  ar.Pod(r.cpu);
  ar.Pod(r.peak_rss_kb);
  ar.Vec(r.outcome);
  ar.Vec(r.misses);
  ar.Vec(layers.lookup_us);
  ar.Vec(layers.insert_us);
  ar.Vec(layers.apply_us);
  ar.Vec(layers.rpc_us);
  // A pass's own samples hold one value per name.
  std::vector<std::string> names;
  std::vector<double> values;
  for (const auto& [name, v] : layers.per_pass) {
    names.push_back(name);
    values.push_back(v.front());
  }
  TransferStrings(ar, names);
  ar.Vec(values);
  for (size_t i = 0; i < names.size() && i < values.size(); ++i) {
    layers.per_pass[names[i]] = {values[i]};
  }
}

// Runs `body` in a child process forked from this one and returns the bytes it wrote. The
// child starts from a copy of this process's memory — the warmed stack — so every pass of a
// set-up starts from the same state. The child dies with this process (PR_SET_PDEATHSIG); one
// still running after kPassTimeoutS is killed; either way it is waited for.
constexpr double kPassTimeoutS = 60;

bool RunInChild(const std::function<std::string()>& body, std::string* out,
                std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
      _exit(3);
    }
    const std::string bytes = body();
    for (size_t off = 0; off < bytes.size();) {
      const ssize_t n = write(fds[1], bytes.data() + off, bytes.size() - off);
      if (n < 0 && errno != EINTR) {
        _exit(4);
      }
      off += n > 0 ? static_cast<size_t>(n) : 0;
    }
    _exit(0);
  }
  close(fds[1]);
  const int64_t deadline = NowNs() + static_cast<int64_t>(kPassTimeoutS * 1e9);
  bool timed_out = false;
  std::vector<char> buf(1 << 16);
  for (;;) {
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) {
      continue;  // interrupted or timed out: the deadline check decides
    }
    const ssize_t n = read(fds[0], buf.data(), buf.size());
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    out->append(buf.data(), static_cast<size_t>(n));
  }
  close(fds[0]);
  if (timed_out) {
    kill(pid, SIGKILL);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out) {
    *error = "pass did not finish within " + std::to_string(kPassTimeoutS) + " s";
    return false;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = WIFSIGNALED(status) ? "pass process killed by signal " +
                                       std::to_string(WTERMSIG(status))
                                 : "pass process exited with " +
                                       std::to_string(WEXITSTATUS(status));
    return false;
  }
  return true;
}

// Adds one traced pass's samples to the run's.
void Merge(LayerSamples&& pass, LayerSamples* run) {
  for (auto [from, to] : {std::pair{&pass.lookup_us, &run->lookup_us},
                          {&pass.insert_us, &run->insert_us},
                          {&pass.apply_us, &run->apply_us},
                          {&pass.rpc_us, &run->rpc_us}}) {
    to->insert(to->end(), from->begin(), from->end());
  }
  for (auto& [name, values] : pass.per_pass) {
    auto& to = run->per_pass[name];
    to.insert(to.end(), values.begin(), values.end());
  }
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rubis_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--commit C] [--out-dir D]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) {
      w = &candidate;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr, "rubis_bench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) {
    std::fprintf(stderr, "rubis_bench: sched_getaffinity failed\n");
    return 1;
  }
  const int nproc = CPU_COUNT(&cpus);

  // A run is a few set-ups, each followed by passes over its warmed stack. Untraced passes
  // give the end-to-end figures; a traced run alternates untraced and traced set-ups, so the
  // tracing overhead is measured under the same conditions. The pass count follows --seconds
  // and the workload's nominal times, not the host's speed of the moment: every run of a
  // workload does the same work, and takes its least timings over the same number of passes.
  const int setups = args.trace ? 4 : 3;
  constexpr int kMaxPasses = 40;
  const int passes = std::clamp(
      static_cast<int>(std::lround((args.seconds / setups - w->setup_s) / w->pass_s)), 1,
      kMaxPasses);
  // No pass or set-up starts after this much wall time once each kind of pass has run twice,
  // so a run ends well inside three minutes even on a slow host.
  constexpr double kLastStartS = 100;
  const int64_t run_start = NowNs();
  std::vector<PassResult> plain, traced;
  std::vector<double> setup_times;
  ClassCount warmup;
  std::vector<std::string> failures;
  LayerSamples layers;
  Tracer tracer;
  std::string setup_cpus, pass_cpus;
  auto out_of_time = [&] {
    const bool enough = plain.size() >= 2 && (!args.trace || traced.size() >= 2);
    return enough && static_cast<double>(NowNs() - run_start) / 1e9 >= kLastStartS;
  };
  for (int s = 0; s < setups && !out_of_time(); ++s) {
    const bool traced_setup = args.trace && s % 2 == 1;
    const int setup_cpu = PinToFastestCpu(cpus);
    const int64_t setup_start = NowNs();
    auto stack = std::make_unique<Stack>(*w, args.seed, traced_setup ? &tracer : nullptr);
    if (!stack->error().empty()) {
      std::fprintf(stderr, "rubis_bench: set-up failed: %s\n", stack->error().c_str());
      return 1;
    }
    WarmUp(*w, stack.get(), &warmup, &failures);
    setup_times.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
    setup_cpus += std::string(setup_cpus.empty() ? "" : ", ") + std::to_string(setup_cpu);
    std::fprintf(stderr, "%s set-up %d%s (cpu %d): %.3f s\n", w->name, s,
                 traced_setup ? " (traced)" : "", setup_cpu, setup_times.back());
    for (int p = 0; p < passes && !out_of_time(); ++p) {
      auto body = [&] {
        CopyWritablePagesNow();
        PassResult r = Pass(*w, args.seed, traced_setup ? &tracer : nullptr, cpus).Run(stack.get());
        LayerSamples pass_layers;
        if (traced_setup && r.error.empty()) {
          AnalyzeTracedPass(*w, r, tracer, &pass_layers);
          // Every traced pass writes the file; the last one's spans are what it holds.
          const std::string path = args.out_dir + "/spans-" + w->name + "-seed" +
                                   std::to_string(args.seed) + ".csv";
          if (!args.out_dir.empty() && !tracer.WriteCsv(path, kSpanCsvInteractions)) {
            std::fprintf(stderr, "rubis_bench: cannot write %s\n", path.c_str());
          }
        }
        PassWriter writer;
        Transfer(writer, r, pass_layers);
        return std::move(writer.bytes());
      };
      std::string bytes, error;
      PassResult r;
      LayerSamples pass_layers;
      if (RunInChild(body, &bytes, &error)) {
        PassReader reader(bytes);
        Transfer(reader, r, pass_layers);
        error = reader.complete() ? r.error : "pass result truncated";
      }
      if (!error.empty()) {
        std::fprintf(stderr, "rubis_bench: pass failed: %s\n", error.c_str());
        return 1;
      }
      pass_cpus += std::string(pass_cpus.empty() ? "" : ", ") + std::to_string(r.cpu);
      std::fprintf(stderr,
                   "%s pass %d.%d (cpu %d): %" PRIu64 " ops in %.3f s; hits %" PRIu64
                   ", misses %" PRIu64 ", db queries %" PRIu64 ", rejected %" PRIu64
                   ", invalidations %" PRIu64 "\n",
                   w->name, s, p, r.cpu, r.ops, r.measured_s, r.client.cache_hits,
                   r.client.cache_misses, r.client.db_queries, r.rw.rejected,
                   r.cache.invalidation_messages);
      if (traced_setup) {
        Merge(std::move(pass_layers), &layers);
        traced.push_back(std::move(r));
      } else {
        plain.push_back(std::move(r));
      }
    }
  }

  // --- accounting over every pass ---
  uint64_t attempted = 0, failed = 0, audits = 0, audit_hits = 0, audit_mismatches = 0;
  ClassCount ro, rw, rw_block;
  bool passes_identical = true;
  std::vector<PassResult*> all;
  for (auto* set : {&plain, &traced}) {
    for (PassResult& r : *set) {
      all.push_back(&r);
    }
  }
  for (PassResult* r : all) {
    for (auto [sum, part] : {std::pair{&ro, &r->ro}, {&rw, &r->rw}, {&rw_block, &r->rw_block}}) {
      sum->attempted += part->attempted;
      sum->failed += part->failed;
      sum->rejected += part->rejected;
    }
    audits += r->audits;
    audit_hits += r->audit_hits;
    audit_mismatches += r->audit_mismatches;
    for (const std::string& f : r->failures) {
      Fail(&failures, f);
    }
    const PassResult& first = *all.front();
    passes_identical = passes_identical && r->client.cache_hits == first.client.cache_hits &&
                       r->client.cache_misses == first.client.cache_misses &&
                       r->client.db_queries == first.client.db_queries &&
                       r->rw.rejected == first.rw.rejected &&
                       r->cache.invalidation_messages == first.cache.invalidation_messages;
  }
  attempted = warmup.attempted + ro.attempted + rw.attempted + rw_block.attempted + audits;
  failed = warmup.failed + ro.failed + rw.failed + rw_block.failed + audit_mismatches;

  // --- metrics ---
  std::vector<Metric> metrics;
  std::map<std::string, std::string> tails;
  bool percentiles_ok = true;
  // A percentile the sample count cannot support is an error, never a silently lower one.
  auto pct = [&](const char* name, std::vector<double> samples, double p, const char* unit) {
    std::sort(samples.begin(), samples.end());
    const Tail tail = HighestSupportedPercentile(samples);
    tails[name] = "{\"samples\": " + std::to_string(samples.size()) +
                  ", \"highest_supported_pct\": " + Num(tail.pct) +
                  ", \"value\": " + Num(tail.value) + "}";
    if (!PercentileSupported(samples.size(), p)) {
      std::fprintf(stderr, "rubis_bench: %s needs more samples than %zu\n", name, samples.size());
      percentiles_ok = false;
      return;
    }
    metrics.push_back({name, PercentileOfSorted(samples, p), unit});
  };
  // Each interaction's latency, and each chunk's time, is the least over the untraced
  // passes (FoldLeast): the passes repeat the same interactions from the same state, so this
  // keeps what the program costs and drops stalls other guests of the host cause.
  std::vector<double> least_us, least_chunk_s;
  std::vector<uint8_t> least_cls, chunk_cls;
  for (const PassResult& r : plain) {
    FoldLeast(r.us, r.cls, &least_us, &least_cls);
    FoldLeast(r.chunk_s, std::vector<uint8_t>(r.chunk_s.size(), 0), &least_chunk_s, &chunk_cls);
  }
  std::vector<double> by_class[kUntimed];
  for (size_t i = 0; i < least_us.size(); ++i) {
    if (least_cls[i] != kUntimed) {
      by_class[least_cls[i]].push_back(least_us[i]);
    }
  }
  double least_measured_s = 0;
  for (double c : least_chunk_s) {
    least_measured_s += c;
  }
  auto per_pass = [](const std::vector<PassResult>& passes, auto fn) {
    std::vector<double> v;
    for (const PassResult& r : passes) {
      v.push_back(fn(r));
    }
    return Median(v);
  };
  auto throughput = [](const PassResult& r) { return static_cast<double>(r.ops) / r.measured_s; };

  if (!args.trace) {
    metrics.push_back(
        {"throughput_ops_s", static_cast<double>(w->measured_ops) / least_measured_s, "ops/s"});
    pct("ro_hit_latency_p50_us", by_class[kRoHit], 50, "us");
    pct("ro_miss_latency_p50_us", by_class[kRoMiss], 50, "us");
    pct("rw_latency_p50_us", by_class[kRw], 50, "us");
    // The mean, not a tail: 0.5-1% of commits trigger a full staleness sweep (milliseconds
    // against ~0.15 ms), so p99 sits on that cliff and flips between the two modes from seed
    // to seed, and the pass has too few commits for p99.9. The mean carries the sweeps'
    // cost in proportion to how often they happen.
    metrics.push_back({"rw_latency_mean_us", Mean(by_class[kRw]), "us"});
    metrics.push_back({"db_queries_per_op", per_pass(plain, [](const PassResult& r) {
                         return static_cast<double>(r.client.db_queries) /
                                static_cast<double>(r.ops);
                       }),
                       "1/op"});
    metrics.push_back(
        {"setup_s", Median(setup_times), "s"});
    // Every pass runs the same interactions from the same state, so the first pass's peak is
    // the footprint; later passes would add only allocator noise.
    metrics.push_back(
        {"peak_rss_mb", static_cast<double>(plain.front().peak_rss_kb) / 1024.0, "MB"});
  } else {
    static const std::map<std::string, const char*> kUnits = {
        {"core.self_us_per_op", "us/op"},       {"core.hit_ratio", "ratio"},
        {"cache.resident_versions", "count"},   {"cache.resident_bytes", "bytes"},
        {"bus.apply_share", "ratio"},           {"db.recompute_us_per_miss", "us"},
        {"net.transport_failures", "count"},
    };
    for (const auto& [name, values] : layers.per_pass) {
      auto unit = kUnits.find(name);
      metrics.push_back({name, Median(values), unit == kUnits.end() ? "1/op" : unit->second});
    }
    metrics.push_back({"cache.lookup_us_mean", Mean(layers.lookup_us), "us"});
    pct("cache.lookup_us_p99", layers.lookup_us, 99, "us");
    metrics.push_back({"cache.insert_us_mean", Mean(layers.insert_us), "us"});
    metrics.push_back({"bus.apply_us_mean", Mean(layers.apply_us), "us"});
    if (layers.apply_us.empty()) {
      metrics.push_back({"bus.apply_us_p99", 0, "us"});
    } else {
      pct("bus.apply_us_p99", layers.apply_us, 99, "us");
    }
    metrics.push_back({"bus.apply_us_max",
                       layers.apply_us.empty()
                           ? 0
                           : *std::max_element(layers.apply_us.begin(), layers.apply_us.end()),
                       "us"});
    if (w->socket) {
      pct("net.rpc_us_p50", layers.rpc_us, 50, "us");
      pct("net.rpc_us_p99", layers.rpc_us, 99, "us");
    } else {
      metrics.push_back({"net.rpc_us_p50", 0, "us"});
      metrics.push_back({"net.rpc_us_p99", 0, "us"});
    }
    metrics.push_back(
        {"trace.overhead", per_pass(traced, throughput) / per_pass(plain, throughput), "ratio"});
  }

  const bool correct = failed == 0 && audits > 0 && audit_hits > 0 && percentiles_ok;

  // --- labels: host, build, clock, seed, counts, commit, per-class accounting ---
  std::string labels = "{\"labels\": {\"workload\": " + Quote(w->name) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"nproc\": " + std::to_string(nproc) +
                       ", \"setup_cpus\": [" + setup_cpus + "]" +
                       ", \"pass_cpus\": [" + pass_cpus + "]" +
                       ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
                       ", \"clock\": \"wall\", \"app_clock_us_per_interaction\": " +
                       std::to_string(kStepPerInteraction) +
                       ", \"commit\": " + Quote(args.commit) +
                       ", \"setups\": " + std::to_string(setup_times.size()) +
                       ", \"passes\": {\"untraced\": " + std::to_string(plain.size()) +
                       ", \"traced\": " + std::to_string(traced.size()) + "}" +
                       ", \"interactions\": {\"warmup_per_setup\": " +
                       std::to_string(w->warmup_ops) +
                       ", \"measured_per_pass\": " + std::to_string(w->measured_ops) +
                       ", \"rw_block_per_pass\": " + std::to_string(w->rw_block_ops) + "}" +
                       ", \"passes_identical\": " + (passes_identical ? "true" : "false") + "}";
  auto class_json = [](const ClassCount& c) {
    return "{\"attempted\": " + std::to_string(c.attempted) +
           ", \"failed\": " + std::to_string(c.failed) +
           ", \"rejected\": " + std::to_string(c.rejected) + "}";
  };
  labels += ", \"classes\": {\"warmup\": " + class_json(warmup) +
            ", \"ro\": " + class_json(ro) + ", \"rw\": " + class_json(rw) +
            ", \"rw_block\": " + class_json(rw_block) + "}";
  labels += ", \"audits\": {\"run\": " + std::to_string(audits) +
            ", \"cache_hits\": " + std::to_string(audit_hits) +
            ", \"mismatches\": " + std::to_string(audit_mismatches) + "}";
  labels += ", \"percentile_samples\": {";
  for (auto it = tails.begin(); it != tails.end(); ++it) {
    labels += (it == tails.begin() ? "" : ", ") + Quote(it->first) + ": " + it->second;
  }
  labels += "}, \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    labels += (i == 0 ? "" : ", ") + Quote(failures[i]);
  }
  labels += "]}";
  std::printf("%s\n", labels.c_str());

  std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    result += (i == 0 ? "" : ", ") + Quote(metrics[i].name) + ": {\"value\": " +
              Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
