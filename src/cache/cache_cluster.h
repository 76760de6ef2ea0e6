// A fleet of cache servers addressed through consistent hashing (paper §4): every application
// node holds the full node list and maps keys directly to the owning server.
//
// Every data-plane RPC (Lookup, MultiLookup, Insert, intent acquire/release) is issued
// through a CacheTransport (src/net/transport.h): the loopback transport keeps the original
// in-process method-call path, the socket transport rides the binary wire protocol over real
// TCP. AddNode(CacheServer*) picks the transport via the process-global default factory
// (TXCACHE_TRANSPORT=socket flips the whole suite); management operations — membership,
// stats, snapshots, hot-key export, replication hooks — reach the node's in-process server
// object via CacheTransport::local_server().
//
// Membership is dynamic (docs/architecture.md §"Membership and recovery"): AddNode/RemoveNode
// may race with lookups from application threads, so the ring and node map live behind a
// shared mutex, and every successful change bumps the ring's membership epoch. Cluster-level
// Lookup/Insert/MultiLookup stamp that epoch on their responses so clients can detect stale
// routing and refresh it. Churn is never an error: a key whose owner is departed or unroutable
// degrades to a kNodeUnavailable miss (counted in CacheStats::nodes_unavailable), and a down
// or joining node answers its own positions as misses — the caller recomputes, exactly as the
// paper's "a vanished node is just misses" failure model prescribes. Transport failures
// (connect refused, timeout, mid-request disconnect) degrade identically: the socket
// transport absorbs them into kNodeUnavailable answers before the cluster ever sees them.
#ifndef SRC_CACHE_CACHE_CLUSTER_H_
#define SRC_CACHE_CACHE_CLUSTER_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cache/cache_server.h"
#include "src/cluster/consistent_hash.h"
#include "src/net/transport.h"
#include "src/util/hash.h"

namespace txcache {

class CacheCluster {
 public:
  explicit CacheCluster(size_t virtual_nodes_per_node = 64) : ring_(virtual_nodes_per_node) {}

  // The cluster does not own servers; callers keep them alive. The transport wrapping the
  // server comes from the default factory (loopback unless TXCACHE_TRANSPORT=socket or an
  // installed factory says otherwise).
  bool AddNode(CacheServer* server) { return AddNode(MakeDefaultTransport(server)); }

  // Explicit-transport form (tests aim transports at dead endpoints; deployments mix nodes).
  bool AddNode(std::shared_ptr<CacheTransport> transport) {
    if (transport == nullptr) {
      return false;
    }
    size_t auto_keys = 0;
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      if (!ring_.AddNode(transport->name())) {
        return false;
      }
      nodes_[transport->name()] = transport;
      auto_keys = auto_replication_keys_;
    }
    // A node joining a fleet with auto-replication enabled gets the hook immediately (outside
    // the membership lock: set_replication_hook takes the server's own leaf mutex).
    CacheServer* server = transport->local_server();
    if (auto_keys != 0 && server != nullptr) {
      AttachReplicationHook(server, auto_keys);
    }
    ClearIntentsAfterRingChange(nullptr);
    return true;
  }

  bool RemoveNode(const std::string& name) {
    std::shared_ptr<CacheTransport> departed;
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      if (!ring_.RemoveNode(name)) {
        return false;
      }
      auto it = nodes_.find(name);
      if (it != nodes_.end()) {
        departed = std::move(it->second);
        nodes_.erase(it);
      }
    }
    if (departed != nullptr && departed->local_server() != nullptr) {
      // Detach the auto-replication hook (if any): the departed server may outlive this
      // cluster, and its Deliver tail must not call back into a dead fleet.
      departed->local_server()->set_replication_hook(nullptr);
    }
    ClearIntentsAfterRingChange(std::move(departed));
    return true;
  }

  // Current membership epoch (bumped on every successful AddNode/RemoveNode).
  uint64_t epoch() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return ring_.epoch();
  }

  // --- hot-key replication ---
  // Replication factor R: each hot key lives on its primary plus R-1 distinct ring
  // successors (pushed by ReplicateHotKeys), and a lookup whose primary answers
  // kNodeUnavailable fails over to those successors. R=1 (default) disables both. Replica
  // reads stay consistent without any cross-node coordination because the invalidation bus
  // fans out to every node: a replica's copy is truncated by the same stream messages that
  // truncate the primary's, so the freshest version a replica holds is never staler than
  // what the bus has published — exactly the single-node guarantee.
  void set_replication(size_t r) { replication_.store(std::max<size_t>(r, 1), std::memory_order_relaxed); }
  size_t replication() const { return replication_.load(std::memory_order_relaxed); }

  // One replication round: each node drains its hot-key sketch and pushes the newest
  // still-valid version of its `max_keys_per_node` hottest keys to the R-1 other members of
  // each key's replica set (skipping itself). Pushes go through the normal Insert path on
  // the replica — admission may decline, a joining replica refuses, and insert-time history
  // replay truncates a copy the replica's stream position has already invalidated. Returns
  // the number of accepted pushes this round (also accumulated in replica_pushes()).
  // Normally driven in the background by EnableAutoReplication below; still callable
  // directly for benches that replicate between measurement rounds.
  size_t ReplicateHotKeys(size_t max_keys_per_node) {
    size_t pushes = 0;
    for (CacheServer* primary : Nodes()) {
      if (primary != nullptr) {
        pushes += ReplicateHotKeysFromNode(primary, max_keys_per_node);
      }
    }
    return pushes;
  }

  // One node's share of a replication round (see ReplicateHotKeys). This is the unit the
  // background cadence fires: CacheServer's Deliver tail calls it for its own node every
  // Options::replication_interval_messages deliveries, so replication rides the invalidation
  // traffic itself — a fleet under write load keeps its replicas warm with no driver loop.
  size_t ReplicateHotKeysFromNode(CacheServer* primary, size_t max_keys_per_node) {
    const size_t replication = replication_.load(std::memory_order_relaxed);
    if (replication < 2 || max_keys_per_node == 0) {
      return 0;
    }
    std::vector<InsertRequest> hot = primary->ExportHotKeys(max_keys_per_node);
    if (hot.empty()) {
      return 0;
    }
    // Resolve every key's replica set under one shared-lock hop; push with it released
    // (same discipline as Lookup: membership writes never wait behind cache work). The
    // shared_ptr copies keep each replica's transport alive across a concurrent RemoveNode.
    std::vector<std::pair<std::shared_ptr<CacheTransport>, const InsertRequest*>> dispatch;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      for (const InsertRequest& req : hot) {
        for (const std::string& name : ring_.ReplicasForHash(req.key_hash, replication)) {
          if (name == primary->name()) {
            continue;  // the exporter already holds it
          }
          auto it = nodes_.find(name);
          if (it != nodes_.end()) {
            dispatch.emplace_back(it->second, &req);
          }
        }
      }
    }
    size_t pushes = 0;
    for (auto& [replica, req] : dispatch) {
      if (replica->Insert(*req, nullptr).ok()) {
        ++pushes;
      }
    }
    replica_pushes_.fetch_add(pushes, std::memory_order_relaxed);
    return pushes;
  }

  // Turns on background replication: every current node (and every node added later) gets a
  // Deliver-tail hook that pushes its own hot keys to its ring replicas, paced by the node's
  // Options::replication_interval_messages. The cluster must outlive the servers' delivery
  // traffic (or nodes must be RemoveNode'd first — that detaches the hook). Pass 0 to turn
  // the background cadence off again.
  void EnableAutoReplication(size_t max_keys_per_node) {
    std::vector<CacheServer*> nodes;
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      auto_replication_keys_ = max_keys_per_node;
      nodes.reserve(nodes_.size());
      for (const auto& [_, transport] : nodes_) {
        if (transport->local_server() != nullptr) {
          nodes.push_back(transport->local_server());
        }
      }
    }
    for (CacheServer* server : nodes) {
      if (max_keys_per_node == 0) {
        server->set_replication_hook(nullptr);
      } else {
        AttachReplicationHook(server, max_keys_per_node);
      }
    }
  }

  // Lookups answered by a replica after the primary answered kNodeUnavailable.
  uint64_t replica_redirects() const {
    return replica_redirects_.load(std::memory_order_relaxed);
  }
  // Accepted hot-key pushes across all ReplicateHotKeys rounds.
  uint64_t replica_pushes() const { return replica_pushes_.load(std::memory_order_relaxed); }

  // Routes a key to its owning node's in-process server (nullptr-free: an unroutable key or
  // a fully remote node without a local server object is kUnavailable, never kInternal —
  // under churn that key is a miss, not a bug).
  Result<CacheServer*> NodeForKey(const std::string& key) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto node_or = NodeForHashLocked(Fnv1a(key));
    if (!node_or.ok()) {
      return node_or.status();
    }
    CacheServer* server = node_or.value()->local_server();
    if (server == nullptr) {
      return Status::Unavailable("node has no in-process server");
    }
    return server;
  }

  // Single lookup through cluster routing. An unroutable key answers a kNodeUnavailable miss
  // (a down/joining owner answers the same itself). The response carries the membership
  // epoch the routing decision was made at. The shared lock covers only the routing
  // decision, never the server call: the lock-striped shards stay the unit of contention,
  // and membership writes never wait behind slow cache work. A server resolved just before
  // its RemoveNode is still safe to call — servers are caller-owned and outlive the cluster,
  // so the request simply completes under the routing view it was issued at (its epoch).
  LookupResponse Lookup(const LookupRequest& req) const {
    std::shared_ptr<CacheTransport> node;
    uint64_t epoch = 0;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      epoch = ring_.epoch();
      // Hash-once: the client's carried key hash routes the ring here and the shard probe
      // below; the key is never rehashed.
      auto node_or = NodeForHashLocked(RequestKeyHash(req));
      if (node_or.ok()) {
        node = node_or.value();
      }
    }
    LookupResponse resp;
    if (node == nullptr) {
      resp.miss = MissKind::kNodeUnavailable;
      nodes_unavailable_.fetch_add(1, std::memory_order_relaxed);
    } else {
      resp = node->Lookup(req);
      resp.served_by = node->name();
    }
    resp.ring_epoch = epoch;
    if (resp.miss == MissKind::kNodeUnavailable) {
      // Primary down/joining/departed: a hot key replicated to the ring successors can still
      // be served warm (a flash crowd must not turn into a miss storm because one node died).
      TryReplicaFailover(req, &resp);
    }
    return resp;
  }

  // Stores one fill on the owning node. kUnavailable (unroutable key, down/joining owner)
  // means the fill is simply not cached; kDeclined / kDeclinedTooLarge are the admission
  // gate's policy outcomes. The response carries the owning node's fresh advisory snapshot
  // for the function (accepts and declines alike).
  InsertResponse Insert(const InsertRequest& req) const {
    std::shared_ptr<CacheTransport> node;
    Status route = Status::Ok();
    InsertResponse resp;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      resp.ring_epoch = ring_.epoch();
      auto node_or = NodeForHashLocked(RequestKeyHash(req));
      if (node_or.ok()) {
        node = node_or.value();
      } else {
        route = node_or.status();
      }
    }
    resp.status = node != nullptr ? node->Insert(req, &resp.hints) : route;
    if (node != nullptr) {
      resp.served_by = node->name();
    }
    return resp;
  }

  // --- write intents (optimistic read-write transactions) ---
  // Routes a write-intent acquire/release to the key's owning node; same route-then-dispatch
  // discipline (and epoch stamp) as Lookup. An unroutable key or a down/joining owner answers
  // kUnavailable, which callers treat as vacuous success: a node serving no reads protects
  // nothing, and its intents were dropped wholesale anyway (see CacheServer::Crash/Join).
  // Every AddNode/RemoveNode drops every node's intents too, since releases follow the ring.
  // Intents deliberately do NOT fail over to replicas — the intent guards the PRIMARY's
  // copy, the one an in-transaction reader would hit; replicas learn of the write from the
  // invalidation stream like everyone else.
  IntentResponse AcquireIntent(const IntentRequest& req) const {
    return RouteIntent(req, /*acquire=*/true);
  }
  IntentResponse ReleaseIntent(const IntentRequest& req) const {
    return RouteIntent(req, /*acquire=*/false);
  }

  // Batched lookups across the fleet: groups the batch per owning node (consistent hashing on
  // each key), issues one MultiLookup per node touched, and reassembles responses in request
  // order — one round-trip per node instead of one per key. A position whose owner departed
  // mid-batch degrades to a kNodeUnavailable miss at its request-order slot; only an entirely
  // empty ring fails the call.
  Result<MultiLookupResponse> MultiLookup(const MultiLookupRequest& req) const {
    MultiLookupResponse resp;
    resp.responses.resize(req.lookups.size());
    // Route the whole batch under the shared lock, then dispatch to the owning nodes with
    // the lock released (see Lookup above for why that is safe). Over the socket transport
    // each dispatch is ONE pipelined MultiLookup frame per node — the batch still costs one
    // round-trip per node touched, not one per key.
    std::vector<std::pair<std::shared_ptr<CacheTransport>, std::vector<uint32_t>>> dispatch;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      resp.ring_epoch = ring_.epoch();
      // Hash-once batch routing: reuse each entry's carried key hash for the whole ring pass.
      std::vector<uint64_t> hashes;
      hashes.reserve(req.lookups.size());
      for (const LookupRequest& lookup : req.lookups) {
        hashes.push_back(RequestKeyHash(lookup));
      }
      auto groups_or = ring_.GroupByNode(hashes);
      if (!groups_or.ok()) {
        return groups_or.status();  // empty ring: the whole fleet is gone
      }
      dispatch.reserve(groups_or.value().size());
      for (auto& [name, indices] : groups_or.value()) {
        auto it = nodes_.find(name);
        if (it == nodes_.end()) {
          // The ring names a node with no live server (departed under our feet): those
          // positions become misses with correct request-order reassembly, never an error.
          for (uint32_t i : indices) {
            resp.responses[i].miss = MissKind::kNodeUnavailable;
          }
          nodes_unavailable_.fetch_add(indices.size(), std::memory_order_relaxed);
          continue;
        }
        dispatch.emplace_back(it->second, std::move(indices));
      }
    }
    for (auto& [node, indices] : dispatch) {
      // Scatter form: each node answers its positions straight into the shared response.
      node->MultiLookup(req, indices, &resp);
      for (uint32_t i : indices) {
        resp.responses[i].served_by = node->name();
      }
    }
    if (replication_.load(std::memory_order_relaxed) > 1) {
      // Per-position replica failover, same contract as Lookup. Only unavailable positions
      // pay the extra routing hop, so the warm path stays one round-trip per node.
      for (uint32_t i = 0; i < resp.responses.size(); ++i) {
        if (resp.responses[i].miss == MissKind::kNodeUnavailable) {
          TryReplicaFailover(req.lookups[i], &resp.responses[i]);
        }
      }
    }
    return resp;
  }

  size_t node_count() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return nodes_.size();
  }

  // In-process server objects of the fleet (management plane). Fully remote nodes (no local
  // server) are skipped.
  std::vector<CacheServer*> Nodes() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::vector<CacheServer*> out;
    out.reserve(nodes_.size());
    for (const auto& [_, transport] : nodes_) {
      if (transport->local_server() != nullptr) {
        out.push_back(transport->local_server());
      }
    }
    return out;
  }

  // The fleet's transports (one per node, whatever their kind).
  std::vector<std::shared_ptr<CacheTransport>> Transports() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::vector<std::shared_ptr<CacheTransport>> out;
    out.reserve(nodes_.size());
    for (const auto& [_, transport] : nodes_) {
      out.push_back(transport);
    }
    return out;
  }

  CacheStats TotalStats() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    CacheStats total;
    for (const auto& [_, transport] : nodes_) {
      if (transport->local_server() != nullptr) {
        total += transport->local_server()->stats();
      }
    }
    // Routing failures the cluster answered itself (no server to charge them to). They count
    // as lookups too, so fleet hit_rate() reflects the traffic churn turned away.
    const uint64_t unroutable = nodes_unavailable_.load(std::memory_order_relaxed);
    total.lookups += unroutable;
    total.nodes_unavailable += unroutable;
    return total;
  }

  // Fleet-wide per-function cost/benefit profiles: each function's fills/hits/rejects summed
  // across the nodes that own its keys, with the EWMA benefit-per-byte averaged weighted by
  // fills. Sorted by function name.
  std::vector<FunctionStatsEntry> TotalFunctionStats() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::unordered_map<std::string, FunctionStatsEntry> merged;
    for (const auto& [_, transport] : nodes_) {
      CacheServer* server = transport->local_server();
      if (server == nullptr) {
        continue;
      }
      for (FunctionStatsEntry& e : server->FunctionStats()) {
        auto it = merged.find(e.function);
        if (it == merged.end()) {
          merged.emplace(e.function, std::move(e));
          continue;
        }
        FunctionStatsEntry& m = it->second;
        const uint64_t total_fills = m.fills + e.fills;
        if (total_fills > 0) {
          m.ewma_benefit_per_byte =
              (m.ewma_benefit_per_byte * static_cast<double>(m.fills) +
               e.ewma_benefit_per_byte * static_cast<double>(e.fills)) /
              static_cast<double>(total_fills);
        }
        // Learned lifetimes merge weighted by the truncation counts that taught them.
        const uint64_t total_truncations = m.truncations + e.truncations;
        if (total_truncations > 0) {
          m.ewma_lifetime_us = (m.ewma_lifetime_us * static_cast<double>(m.truncations) +
                                e.ewma_lifetime_us * static_cast<double>(e.truncations)) /
                               static_cast<double>(total_truncations);
        }
        m.truncations = total_truncations;
        m.fills = total_fills;
        m.admission_rejects += e.admission_rejects;
        m.declined_too_large += e.declined_too_large;
        m.hits += e.hits;
        m.bytes_inserted += e.bytes_inserted;
        m.fill_cost_total_us += e.fill_cost_total_us;
      }
    }
    std::vector<FunctionStatsEntry> out;
    out.reserve(merged.size());
    for (auto& [_, e] : merged) {
      out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(),
              [](const FunctionStatsEntry& a, const FunctionStatsEntry& b) {
                return a.function < b.function;
              });
    return out;
  }

  void FlushAll() {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [_, transport] : nodes_) {
      if (transport->local_server() != nullptr) {
        transport->local_server()->Flush();
      }
    }
  }

  void ResetStatsAll() {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [_, transport] : nodes_) {
      if (transport->local_server() != nullptr) {
        transport->local_server()->ResetStats();
      }
    }
    nodes_unavailable_.store(0, std::memory_order_relaxed);
  }

  size_t TotalBytesUsed() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    size_t n = 0;
    for (const auto& [_, transport] : nodes_) {
      if (transport->local_server() != nullptr) {
        n += transport->local_server()->bytes_used();
      }
    }
    return n;
  }

 private:
  // A ring change re-routes keys, and a release follows the ring: an intent held by a key's
  // old owner (or by a departed node) could never be released, and would block writers again
  // if the key routed back. Intents are advisory — serializability comes from commit-time
  // validation — so every node drops them wholesale, as on Crash/Join/Flush.
  void ClearIntentsAfterRingChange(std::shared_ptr<CacheTransport> departed) {
    std::vector<std::shared_ptr<CacheTransport>> nodes;
    if (departed != nullptr) {
      nodes.push_back(std::move(departed));
    }
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      for (const auto& [name, transport] : nodes_) {
        nodes.push_back(transport);
      }
    }
    for (const auto& transport : nodes) {
      if (transport->local_server() != nullptr) {
        transport->local_server()->ClearIntents();
      }
    }
  }

  IntentResponse RouteIntent(const IntentRequest& req, bool acquire) const {
    std::shared_ptr<CacheTransport> node;
    uint64_t epoch = 0;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      epoch = ring_.epoch();
      auto node_or = NodeForHashLocked(RequestKeyHash(req));
      if (node_or.ok()) {
        node = node_or.value();
      }
    }
    IntentResponse resp;
    if (node == nullptr) {
      resp.status = Status::Unavailable("no cache node owns this key");
    } else {
      resp = acquire ? node->AcquireIntent(req) : node->ReleaseIntent(req);
      resp.served_by = node->name();
    }
    resp.ring_epoch = epoch;
    return resp;
  }

  // Installs the Deliver-tail hook on one server (see EnableAutoReplication). The hook
  // captures `this`; RemoveNode and EnableAutoReplication(0) detach it.
  void AttachReplicationHook(CacheServer* server, size_t max_keys_per_node) {
    server->set_replication_hook([this, max_keys_per_node](CacheServer* s) {
      ReplicateHotKeysFromNode(s, max_keys_per_node);
    });
  }

  // Replica failover for one position: try the key's ring successors (primary excluded) and
  // adopt the first answer that is not itself kNodeUnavailable — a hit for a replicated hot
  // key, an honest recomputable miss from a live node otherwise. Preserves the caller's
  // ring_epoch stamp. Returns true when a replica's answer was adopted.
  bool TryReplicaFailover(const LookupRequest& req, LookupResponse* resp) const {
    const size_t replication = replication_.load(std::memory_order_relaxed);
    if (replication < 2) {
      return false;
    }
    const uint64_t key_hash = RequestKeyHash(req);
    std::vector<std::shared_ptr<CacheTransport>> fallbacks;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto primary_or = ring_.NodeForKey(key_hash);
      for (const std::string& name : ring_.ReplicasForHash(key_hash, replication)) {
        if (primary_or.ok() && name == primary_or.value()) {
          continue;  // that one already answered unavailable
        }
        auto it = nodes_.find(name);
        if (it != nodes_.end()) {
          fallbacks.push_back(it->second);
        }
      }
    }
    for (const std::shared_ptr<CacheTransport>& replica : fallbacks) {
      LookupResponse alt = replica->Lookup(req);
      if (alt.miss != MissKind::kNodeUnavailable) {
        alt.ring_epoch = resp->ring_epoch;
        alt.served_by = replica->name();
        *resp = std::move(alt);
        replica_redirects_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  Result<std::shared_ptr<CacheTransport>> NodeForHashLocked(uint64_t key_hash) const {
    auto name_or = ring_.NodeForKey(key_hash);
    if (!name_or.ok()) {
      return name_or.status();
    }
    auto it = nodes_.find(name_or.value());
    if (it == nodes_.end()) {
      return Status::Unavailable("ring references a departed node");
    }
    return it->second;
  }

  // Guards ring_ and nodes_ against membership changes racing application traffic. Reads
  // (routing, stats) share; AddNode/RemoveNode are exclusive and brief.
  mutable std::shared_mutex mu_;
  ConsistentHashRing ring_;
  std::unordered_map<std::string, std::shared_ptr<CacheTransport>> nodes_;
  mutable std::atomic<uint64_t> nodes_unavailable_{0};

  // Hot-key replication factor and counters (see set_replication). replica_redirects_ is
  // mutable because failover happens on the const lookup path.
  std::atomic<size_t> replication_{1};
  mutable std::atomic<uint64_t> replica_redirects_{0};
  std::atomic<uint64_t> replica_pushes_{0};
  // Background replication budget per node per round; nonzero iff EnableAutoReplication is on
  // (guarded by mu_ so AddNode reads a consistent value).
  size_t auto_replication_keys_ = 0;
};

}  // namespace txcache

#endif  // SRC_CACHE_CACHE_CLUSTER_H_
