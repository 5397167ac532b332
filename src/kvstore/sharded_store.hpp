// Consistent-hash sharded key-value tier.
//
// The paper's single Redis VM makes checkpoint persistence the restore-time
// bottleneck: COMMIT serialises one PUT per stateful task through one
// server, and INIT one GET per restoring task.  ShardedStore spreads the
// same Store API over N store VMs behind a consistent-hash ring (finalised
// FNV-1a key hash onto 64 virtual points per shard), so checkpoint traffic
// scales with the shard count while every key keeps a deterministic home.
//
// The three multi-key operations — put_batch, get_batch (the INIT prefetch
// MGET) and del_batch (delta-checkpoint GC) — share one scatter-gather:
// keys group by owning shard, each group goes out as one pipelined request,
// all in parallel, and the caller's `done` fires once with the AND of the
// shard verdicts (get_batch also reassembles values in request order).  An
// empty request is still one request: it goes to shard 0 and pays its
// round trip, at every shard count, as on the unsharded Store.
//
// put_pipelined() lets single-key COMMIT PUTs linger briefly
// (StoreConfig::pipeline_linger) and flushes them as one put_batch per
// (client VM, shard).  It is the one operation that branches on the shard
// count: with one shard it is a plain put() and schedules no linger timer.
// That branch, the ring lookup (shard 0 without hashing when there is one
// shard) and shard 0's seed (the unsharded store's) keep --kv-shards 1
// runs byte-identical to the pre-sharding baseline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/lifetime.hpp"
#include "kvstore/store.hpp"

namespace rill::kvstore {

class RILL_PINNED ShardedStore {
 public:
  using PutDone = Store::PutDone;
  using GetDone = Store::GetDone;
  using MGetDone = Store::MGetDone;
  using FaultHook = Store::FaultHook;

  /// One Store per host VM.  `rng_seed_base` seeds shard 0 exactly as the
  /// unsharded store was seeded; further shards derive independent streams
  /// from it.
  ShardedStore(sim::Engine& engine, net::Network& network,
               std::vector<VmId> hosts, StoreConfig config,
               std::uint64_t rng_seed_base);

  // ---- Store-compatible API (routed by key) ----
  void put(VmId client, std::string key, Bytes value, PutDone done);
  void put_batch(VmId client, std::vector<std::pair<std::string, Bytes>> kvs,
                 PutDone done);
  void get(VmId client, std::string key, GetDone done);
  void get_batch(VmId client, std::vector<std::string> keys, MGetDone done);
  /// Pipelined multi-DELETE: one MDEL per owning shard.  Delta-checkpoint
  /// compaction uses this to drop superseded blobs in one round-trip per
  /// shard.
  void del_batch(VmId client, std::vector<std::string> keys, PutDone done);

  /// Coalescing PUT for checkpoint COMMIT traffic: lingers for
  /// `config.pipeline_linger` collecting same-(client,shard) writes, then
  /// flushes them as one pipelined put_batch.  Every caller's `done`
  /// observes the batch verdict.  With one shard this is a plain put().
  void put_pipelined(VmId client, std::string key, Bytes value, PutDone done);

  void set_fault_hook(FaultHook* hook);
  void set_tracer(obs::Tracer* tracer);

  // ---- inspection ----
  [[nodiscard]] std::optional<Bytes> peek(const std::string& key) const;
  [[nodiscard]] std::size_t size() const noexcept;
  /// Rolled-up counters across every shard.
  [[nodiscard]] StoreStats stats() const noexcept;
  [[nodiscard]] const StoreStats& shard_stats(int shard) const noexcept {
    return shards_[static_cast<std::size_t>(shard)]->stats();
  }
  [[nodiscard]] int shards() const noexcept {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] Store& shard(int i) noexcept {
    return *shards_[static_cast<std::size_t>(i)];
  }
  /// Shard 0's host — the unsharded store's VM, kept for compatibility.
  [[nodiscard]] VmId host() const noexcept { return shards_.front()->host(); }
  [[nodiscard]] const StoreConfig& config() const noexcept {
    return shards_.front()->config();
  }

  /// Ring lookup: which shard owns `key`.  Pure function of the key and the
  /// shard count (no RNG), so placement is reproducible across runs.
  [[nodiscard]] int shard_for(const std::string& key) const noexcept;

 private:
  struct PendingBatch {
    std::vector<std::pair<std::string, Bytes>> kvs;
    std::vector<PutDone> dones;
    bool armed{false};
  };

  /// The one scatter-gather behind put_batch, get_batch and del_batch.
  /// Groups `items` by owning shard (request order kept within a group),
  /// calls `issue(shard, group, slots, verdict)` once per owning shard —
  /// `slots` are the group's indices in `items` and `verdict(ok)` must run
  /// exactly once — and calls `done` with the AND of the verdicts after
  /// the last shard answers.  An empty `items` is issued to shard 0.
  template <typename Item, typename Issue>
  void scatter_gather(std::vector<Item> items, Issue issue, PutDone done);

  void flush(std::uint32_t client_vm, int shard);

  sim::Engine& engine_;
  std::vector<std::unique_ptr<Store>> shards_;
  /// Sorted consistent-hash ring: (point, shard index).  Empty when there
  /// is only one shard.
  std::vector<std::pair<std::uint64_t, int>> ring_;
  /// Linger buffers for put_pipelined, keyed (client VM, shard).
  std::map<std::pair<std::uint32_t, int>, PendingBatch> pending_;
};

}  // namespace rill::kvstore
