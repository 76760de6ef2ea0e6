// Spans recorded by the benchmark from outside the program: at the interaction boundary,
// around every CacheTransport call and around every invalidation delivery. The wrappers are
// installed only in traced set-ups (CacheCluster::AddNode(shared_ptr<CacheTransport>) and
// InvalidationBus::Subscribe), so untraced set-ups run the stack exactly as deployed.
//
// One driver thread issues every interaction, and deliveries run synchronously on it inside
// the committing interaction, so the tracer needs no locking: the NetServer worker threads
// never touch it.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bus/bus.h"
#include "src/cache/cache_server.h"
#include "src/net/transport.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kInteraction,
  kLookup,       // CacheTransport::Lookup
  kMultiLookup,  // CacheTransport::MultiLookup (both forms)
  kInsert,       // CacheTransport::Insert
  kIntent,       // CacheTransport::AcquireIntent / ReleaseIntent
  kDelivery,     // InvalidationSubscriber::Deliver on one cache node
};

inline const char* SpanKindName(SpanKind kind) {
  static constexpr const char* kNames[] = {"interaction", "cache.lookup", "cache.multilookup",
                                           "cache.insert", "cache.intent", "bus.delivery"};
  return kNames[static_cast<size_t>(kind)];
}

struct Span {
  SpanKind kind = SpanKind::kInteraction;
  uint32_t interaction = 0;  // id of the interaction the span belongs to
  int32_t parent = -1;       // index of the enclosing span in Tracer::spans(), -1 for a root
  uint32_t items = 1;        // keys carried (MultiLookup), else 1
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  // Opens the root span of interaction `id`; every span opened before EndInteraction is its
  // descendant.
  void BeginInteraction(uint32_t id, int64_t start_ns) {
    interaction_ = id;
    stack_.clear();
    stack_.push_back(Open(SpanKind::kInteraction, 1, start_ns));
  }
  void EndInteraction(int64_t end_ns) {
    spans_[stack_.front()].end_ns = end_ns;
    stack_.clear();
  }

  // RAII child span of whatever span is innermost. Outside an interaction (set-up,
  // warm-up, audits) it records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanKind kind, uint32_t items = 1)
        : tracer_(tracer->stack_.empty() ? nullptr : tracer) {
      if (tracer_ != nullptr) {
        index_ = tracer_->Open(kind, items, NowNs());
        tracer_->stack_.push_back(index_);
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->spans_[index_].end_ns = NowNs();
        tracer_->stack_.pop_back();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    stack_.clear();
  }
  // Writes the spans of interactions below `max_interaction` as CSV:
  // name,interaction,parent,items,start_ns,end_ns.
  bool WriteCsv(const std::string& path, uint32_t max_interaction) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "name,interaction,parent,items,start_ns,end_ns\n");
    for (const Span& s : spans_) {
      if (s.interaction >= max_interaction) {
        continue;
      }
      std::fprintf(f, "%s,%u,%d,%u,%lld,%lld\n", SpanKindName(s.kind), s.interaction, s.parent,
                   s.items, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  int32_t Open(SpanKind kind, uint32_t items, int64_t start_ns) {
    Span s;
    s.kind = kind;
    s.interaction = interaction_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.items = items;
    s.start_ns = start_ns;
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }

  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  uint32_t interaction_ = 0;
};

// Times every data-plane RPC one cache node answers, whatever transport carries it.
class TracingTransport final : public txcache::CacheTransport {
 public:
  TracingTransport(std::shared_ptr<txcache::CacheTransport> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const std::string& name() const override { return inner_->name(); }
  txcache::LookupResponse Lookup(const txcache::LookupRequest& req) override {
    Tracer::Scope span(tracer_, SpanKind::kLookup);
    return inner_->Lookup(req);
  }
  txcache::MultiLookupResponse MultiLookup(const txcache::MultiLookupRequest& req) override {
    Tracer::Scope span(tracer_, SpanKind::kMultiLookup,
                       static_cast<uint32_t>(req.lookups.size()));
    return inner_->MultiLookup(req);
  }
  void MultiLookup(const txcache::MultiLookupRequest& req, const std::vector<uint32_t>& indices,
                   txcache::MultiLookupResponse* out) override {
    Tracer::Scope span(tracer_, SpanKind::kMultiLookup, static_cast<uint32_t>(indices.size()));
    inner_->MultiLookup(req, indices, out);
  }
  txcache::Status Insert(const txcache::InsertRequest& req,
                         std::shared_ptr<const txcache::AdvisoryHints>* hints_out) override {
    Tracer::Scope span(tracer_, SpanKind::kInsert);
    return inner_->Insert(req, hints_out);
  }
  txcache::IntentResponse AcquireIntent(const txcache::IntentRequest& req) override {
    Tracer::Scope span(tracer_, SpanKind::kIntent);
    return inner_->AcquireIntent(req);
  }
  txcache::IntentResponse ReleaseIntent(const txcache::IntentRequest& req) override {
    Tracer::Scope span(tracer_, SpanKind::kIntent);
    return inner_->ReleaseIntent(req);
  }
  txcache::CacheServer* local_server() const override { return inner_->local_server(); }
  uint64_t transport_failures() const override { return inner_->transport_failures(); }

 private:
  std::shared_ptr<txcache::CacheTransport> inner_;
  Tracer* tracer_;
};

// Times every invalidation-stream delivery to one cache node.
class TracingSubscriber final : public txcache::InvalidationSubscriber {
 public:
  TracingSubscriber(txcache::CacheServer* server, Tracer* tracer)
      : server_(server), tracer_(tracer) {}

  void Deliver(const txcache::InvalidationMessage& msg) override {
    Tracer::Scope span(tracer_, SpanKind::kDelivery);
    server_->Deliver(msg);
  }

 private:
  txcache::CacheServer* server_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
