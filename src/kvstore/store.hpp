// Redis-like key-value store substrate.
//
// The paper persists checkpoints with Storm's native Redis bindings to a
// Redis v3.2.8 instance on a dedicated Azure D3 VM.  We reproduce the part
// that matters to migration: a remote store with realistic round-trip and
// per-item costs.  The paper's own micro-benchmark ("it takes just 100 ms
// to checkpoint 2000 events to Redis from Storm") calibrates the defaults:
// 0.6 ms RTT + ~45 µs per pipelined item + byte transfer time ≈ 100 ms for
// 2000 small events.
//
// The client half is hardened against injected faults: every operation has
// a per-request timeout and is retried with capped exponential backoff and
// jitter up to `max_attempts` before surfacing failure.  All operations are
// idempotent (PUT overwrites, GET reads, DEL re-deletes), so retries are
// safe.  A FaultHook (implemented by chaos::ChaosInjector) can make the
// server unavailable or slow for a window — per shard, when the store is
// one member of a ShardedStore.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/bytes.hpp"
#include "common/lifetime.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace rill::obs {
class Tracer;
}

namespace rill::kvstore {

struct StoreConfig {
  /// Base request round-trip on top of network latency.
  SimDuration request_overhead = time::us(600);
  /// Per-item service cost inside the store (command parse + hash insert),
  /// applied to each element of a pipelined batch.
  SimDuration per_item_cost = time::us(45);
  /// Store-side processing per byte of value payload.
  double ns_per_byte = 12.0;

  // ---- client-side fault handling ----
  /// Fixed floor for giving up on one attempt.  The effective per-attempt
  /// timeout scales with the request: floor + timeout_cost_factor × the
  /// expected service cost, so an arbitrarily large pipelined batch is
  /// never doomed to time out on every attempt.
  SimDuration request_timeout = time::ms(800);
  /// Multiple of the expected service cost added to `request_timeout` for
  /// each attempt's deadline.
  double timeout_cost_factor = 2.0;
  /// Total attempts per operation (1 first try + N-1 retries).
  int max_attempts = 4;
  /// Exponential backoff between attempts: base × 2^(attempt-1), capped,
  /// with multiplicative jitter in [1, 1 + jitter).
  SimDuration backoff_base = time::ms(50);
  SimDuration backoff_cap = time::sec(1);
  double backoff_jitter = 0.25;

  /// How long ShardedStore::put_pipelined lingers collecting single PUTs
  /// before flushing them as one per-shard batch (only applies when the
  /// store is sharded; see sharded_store.hpp).
  SimDuration pipeline_linger = time::ms(2);
};

struct StoreStats {
  std::uint64_t puts{0};
  std::uint64_t gets{0};
  std::uint64_t deletes{0};
  std::uint64_t batch_items{0};
  std::uint64_t bytes_written{0};
  std::uint64_t bytes_read{0};
  // Fault-handling counters.
  std::uint64_t timeouts{0};          ///< attempts that hit request_timeout
  std::uint64_t retries{0};           ///< attempts after the first
  std::uint64_t failed_requests{0};   ///< operations that exhausted attempts
  std::uint64_t outage_drops{0};      ///< requests swallowed by an outage

  StoreStats& operator+=(const StoreStats& o) noexcept {
    puts += o.puts;
    gets += o.gets;
    deletes += o.deletes;
    batch_items += o.batch_items;
    bytes_written += o.bytes_written;
    bytes_read += o.bytes_read;
    timeouts += o.timeouts;
    retries += o.retries;
    failed_requests += o.failed_requests;
    outage_drops += o.outage_drops;
    return *this;
  }
};

/// The server side: an in-memory map living on a dedicated VM, plus the
/// hardened client logic (the two halves share the latency model).
class RILL_PINNED Store {
 public:
  /// Availability hook (implemented by chaos::ChaosInjector): consulted
  /// when a request reaches the server VM.  `shard` identifies which
  /// member of a ShardedStore is asking (0 for the unsharded store), so
  /// faults can target a single shard.
  class FaultHook {
   public:
    virtual ~FaultHook() = default;
    [[nodiscard]] virtual bool unavailable(int shard) = 0;
    [[nodiscard]] virtual SimDuration extra_latency(int shard) = 0;
  };

  Store(sim::Engine& engine, net::Network& network, VmId host,
        StoreConfig config = {},
        Rng rng = Rng{0x9e3779b97f4a7c15ull})
      : engine_(engine),
        network_(network),
        host_(host),
        config_(config),
        rng_(rng) {}

  using PutDone = std::function<void(bool ok)>;
  using GetDone = std::function<void(bool ok, std::optional<Bytes> value)>;
  /// Pipelined multi-GET result: one slot per requested key, in order.
  using MGetDone =
      std::function<void(bool ok, std::vector<std::optional<Bytes>> values)>;

  /// Asynchronous PUT from a client slot's VM; `done(ok)` runs on the
  /// client side after the value is durable and the reply has crossed
  /// back, or with ok=false after all attempts timed out.
  void put(VmId client, std::string key, Bytes value, PutDone done);

  /// Pipelined multi-PUT: one request round-trip, per-item service cost.
  /// This is what makes CCR's pending-event checkpoint cheap.
  void put_batch(VmId client, std::vector<std::pair<std::string, Bytes>> kvs,
                 PutDone done);

  /// Asynchronous GET; delivers (true, nullopt) if the key is absent and
  /// (false, nullopt) if the store could not be reached.
  void get(VmId client, std::string key, GetDone done);

  /// Pipelined multi-GET (Redis MGET): one round-trip, per-item service
  /// cost; absent keys come back as nullopt in their slot.
  void get_batch(VmId client, std::vector<std::string> keys, MGetDone done);

  /// Pipelined multi-DELETE: one round-trip, per-item service cost.  Used
  /// by delta-checkpoint compaction to drop superseded blobs in bulk.
  void del_batch(VmId client, std::vector<std::string> keys, PutDone done);

  void set_fault_hook(FaultHook* hook) noexcept { fault_hook_ = hook; }

  /// Flight recorder: each operation becomes a span covering all attempts,
  /// with retry/timeout instants annotating the fault handling.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Which ShardedStore member this store is (0 when unsharded).  Shifts
  /// the flight-recorder lane so each shard traces on its own track and is
  /// passed to the FaultHook for per-shard fault targeting.
  void set_shard(int index) noexcept { shard_ = index; }
  [[nodiscard]] int shard() const noexcept { return shard_; }

  /// Synchronous inspection for tests; bypasses the latency model.
  [[nodiscard]] std::optional<Bytes> peek(const std::string& key) const;
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] const StoreStats& stats() const noexcept { return stats_; }
  [[nodiscard]] VmId host() const noexcept { return host_; }
  [[nodiscard]] const StoreConfig& config() const noexcept { return config_; }

 private:
  /// One client request: the operation and its payload.
  enum class Op : std::uint8_t { Put, Get, MGet, MDel };
  struct Request {
    Op op{Op::Put};
    std::vector<std::pair<std::string, Bytes>> kvs;  ///< Put payload
    std::string key;                                 ///< Get key
    std::vector<std::string> keys;                   ///< MGet / MDel keys
  };
  /// What comes back from one applied request.
  struct Reply {
    std::optional<Bytes> value;                 ///< Get
    std::vector<std::optional<Bytes>> values;   ///< MGet
  };
  using AttemptDone = std::function<void(bool ok, Reply reply)>;

  /// Run one attempt of `req`, retrying on timeout; the terminal outcome
  /// reaches `done` exactly once.
  void attempt(VmId client, std::shared_ptr<const Request> req, int attempt_no,
               AttemptDone done);
  /// Begin the per-operation span (kNoSpan when tracing is off) / close it
  /// with the terminal verdict.
  [[nodiscard]] std::uint64_t begin_op_span(const char* op, std::size_t items);
  void end_op_span(std::uint64_t span, bool ok);
  /// Server-side work for one request that reached the store: applies it
  /// to the map and fills `reply` and its payload size.
  void apply(const Request& req, Reply& reply, std::size_t& reply_bytes);

  SimDuration service_cost(std::size_t items, std::size_t bytes) const;
  /// Per-attempt deadline for a request of this size (floor + scaled cost).
  SimDuration attempt_timeout(std::size_t items, std::size_t bytes) const;
  SimDuration backoff_delay(int attempt_no);

  sim::Engine& engine_;
  net::Network& network_;
  VmId host_;
  StoreConfig config_;
  Rng rng_;
  int shard_{0};
  FaultHook* fault_hook_{nullptr};
  rill::obs::Tracer* tracer_{nullptr};
  std::unordered_map<std::string, Bytes> data_;
  StoreStats stats_;
};

}  // namespace rill::kvstore
