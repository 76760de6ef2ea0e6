// MAKE-CACHEABLE (paper §2.1): wraps a pure function so that calls are transparently memoized
// through the cache with full transactional consistency.
//
// The cache key is derived from the function's registered name plus the deterministic binary
// serialization of its arguments — the application never chooses keys (a documented source of
// MediaWiki bugs the paper cites). The result type must be Serde-serializable.
//
// Automatic management: every miss fill runs inside a frame (FrameGuard below), and the frame
// meters what the fill cost — wall-clock elapsed plus weighted database work. The measured
// cost ships with the insert, where the cache's cost-aware policy uses benefit-per-byte to
// decide admission and eviction; the application never annotates anything. The function name
// is the cost-accounting bucket (CacheKeyFunction parses it back out of the key), so per-
// function profiles in CacheServer::FunctionStats() line up 1:1 with MakeCacheable calls.
#ifndef SRC_CORE_CACHEABLE_FUNCTION_H_
#define SRC_CORE_CACHEABLE_FUNCTION_H_

#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/txcache_client.h"
#include "src/util/serde.h"

namespace txcache {

// Deterministic cache key: function name, NUL, serialized arguments.
template <typename... Args>
std::string MakeCacheKey(const std::string& name, const Args&... args) {
  Writer w;
  w.PutString(name);
  (SerializeValue(w, args), ...);
  return w.Take();
}

// Pops the frame on exceptions so a throwing cacheable function cannot corrupt the stack.
class FrameGuard {
 public:
  explicit FrameGuard(TxCacheClient* client) : client_(client) { client_->FrameBegin(); }
  ~FrameGuard() {
    if (!finished_) {
      client_->FrameAbandon();
    }
  }
  FrameGuard(const FrameGuard&) = delete;
  FrameGuard& operator=(const FrameGuard&) = delete;

  FrameOutcome Finish() {
    finished_ = true;
    return client_->FrameEnd();
  }

 private:
  TxCacheClient* client_;
  bool finished_ = false;
};

template <typename Ret, typename... Args>
class CacheableFunction {
 public:
  CacheableFunction() = default;
  CacheableFunction(TxCacheClient* client, std::string name, std::function<Ret(Args...)> fn)
      : client_(client), name_(std::move(name)), fn_(std::move(fn)) {}

  Ret operator()(const Args&... args) const {
    // Outside a read-only transaction (or in no-cache mode) the implementation runs directly:
    // plain read/write transactions bypass the cache entirely (§2.2). Optimistic read-write
    // transactions read through it, validated at commit, but never store.
    if (client_ == nullptr || !client_->ShouldUseCache()) {
      if (client_ != nullptr) {
        if (client_->in_optimistic_rw()) {
          // Optimistic read-write transaction: read through the cache with the read recorded
          // for commit-time validation. On a miss — or an early intent conflict, which this
          // interface cannot surface as a status — recompute at the snapshot; the engine
          // tag-tracks those reads into the same read set, so commit validation protects the
          // recompute exactly as it would the hit. Results are never stored (our own
          // uncommitted writes may have dirtied them).
          client_->CountCacheableCall();
          auto hit = client_->ReadInTx(MakeCacheKey(name_, args...), &name_);
          if (hit.ok()) {
            auto decoded = DeserializeFromString<Ret>(*hit.value());
            if (decoded.ok()) {
              return decoded.take();
            }
          }
          return fn_(args...);
        }
        client_->CountBypassedCall();
      }
      return fn_(args...);
    }
    client_->CountCacheableCall();
    const std::string key = MakeCacheKey(name_, args...);
    auto hit = client_->CacheLookup(key, &name_);
    if (hit.ok()) {
      auto decoded = DeserializeFromString<Ret>(*hit.value());
      if (decoded.ok()) {
        return decoded.take();
      }
      // Corrupt or incompatible payload (e.g. after a software update changed Ret): fall
      // through and recompute; the insert below will collide with the stored version and be
      // dropped, but the caller still gets a correct answer.
    }
    FrameGuard guard(client_);
    Ret ret = fn_(args...);
    FrameOutcome outcome = guard.Finish();
    client_->CacheStore(key, SerializeToString(ret), outcome, &name_);
    return ret;
  }

  // Batched call: when one logical operation fans out to many keys (a page rendering N items,
  // a feed resolving N users), resolve every argument tuple through a single MULTILOOKUP
  // round-trip per cache node instead of one per key. Misses are recomputed and stored
  // individually, and pin-set narrowing threads through the batched responses in order, so
  // the transactional-consistency guarantees are identical to sequential calls. Results are
  // positionally aligned with `calls`.
  std::vector<Ret> Batch(const std::vector<std::tuple<Args...>>& calls) const {
    std::vector<Ret> out;
    out.reserve(calls.size());
    if (client_ == nullptr || !client_->ShouldUseCache()) {
      // Degenerate to per-element calls, which keep the RW-bypass / no-cache semantics.
      for (const auto& call : calls) {
        out.push_back(std::apply(*this, call));
      }
      return out;
    }
    std::vector<std::string> keys;
    keys.reserve(calls.size());
    for (const auto& call : calls) {
      client_->CountCacheableCall();
      keys.push_back(std::apply(
          [this](const Args&... args) { return MakeCacheKey(name_, args...); }, call));
    }
    std::vector<Result<TxCacheClient::CachedValue>> hits =
        client_->CacheMultiLookup(keys, &name_);
    for (size_t i = 0; i < calls.size(); ++i) {
      if (hits[i].ok()) {
        auto decoded = DeserializeFromString<Ret>(*hits[i].value());
        if (decoded.ok()) {
          out.push_back(decoded.take());
          continue;
        }
      }
      FrameGuard guard(client_);
      Ret ret = std::apply(fn_, calls[i]);
      FrameOutcome outcome = guard.Finish();
      client_->CacheStore(keys[i], SerializeToString(ret), outcome, &name_);
      out.push_back(std::move(ret));
    }
    return out;
  }

  const std::string& name() const { return name_; }

  // Latest advisory hints the cache fleet published for this function, as observed on this
  // client's lookup/insert responses (automatic-management feedback loop). Call sites may use
  // them to adapt fill sizing (shrink results whose decline_rate says the cache refuses
  // them) or re-fetch pacing (learned_lifetime_us says how long results actually live) —
  // never to reason about validity; see AdvisoryHints in cache_types.h for the contract.
  std::optional<AdvisoryHints> hints() const {
    return client_ == nullptr ? std::nullopt : client_->AdvisoryHintsFor(name_);
  }

 private:
  TxCacheClient* client_ = nullptr;
  std::string name_;
  std::function<Ret(Args...)> fn_;
};

template <typename Ret, typename... Args, typename Fn>
auto TxCacheClient::MakeCacheable(std::string name, Fn&& fn) {
  return CacheableFunction<Ret, Args...>(this, std::move(name),
                                         std::function<Ret(Args...)>(std::forward<Fn>(fn)));
}

}  // namespace txcache

#endif  // SRC_CORE_CACHEABLE_FUNCTION_H_
