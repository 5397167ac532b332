#include "kvstore/sharded_store.hpp"

#include <algorithm>
#include <cassert>

namespace rill::kvstore {

namespace {

/// Virtual points per shard; enough that a 4-shard ring spreads a few dozen
/// checkpoint keys within a few percent of even.
constexpr int kVnodesPerShard = 64;

/// FNV-1a with a splitmix finalizer — a fixed, platform-independent key
/// hash (std::hash would tie ring placement to the standard library).  Raw
/// FNV-1a avalanches poorly into the high bits for short keys, and the ring
/// lookup is ordered by exactly those bits, so sequential task keys would
/// pile into one arc; the finalizer spreads them.
std::uint64_t key_hash(const std::string& key) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return splitmix64_mix(h + kSplitMix64Gamma);
}

/// The routing key of a scatter-gather item (PUT pair or bare key).
const std::string& key_of(const std::pair<std::string, Bytes>& kv) noexcept {
  return kv.first;
}
const std::string& key_of(const std::string& key) noexcept { return key; }

}  // namespace

ShardedStore::ShardedStore(sim::Engine& engine, net::Network& network,
                           std::vector<VmId> hosts, StoreConfig config,
                           std::uint64_t rng_seed_base)
    : engine_(engine) {
  assert(!hosts.empty());
  shards_.reserve(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    // Shard 0 reduces to exactly the unsharded store's seed; other shards
    // fork independent jitter streams from the same base.
    const std::uint64_t seed = splitmix64_mix(
        (rng_seed_base ^ (kSplitMix64Gamma * static_cast<std::uint64_t>(i))) +
        kSplitMix64Gamma);
    auto store = std::make_unique<Store>(engine, network, hosts[i], config,
                                         Rng(seed));
    store->set_shard(static_cast<int>(i));
    shards_.push_back(std::move(store));
  }
  if (shards_.size() > 1) {
    ring_.reserve(shards_.size() * kVnodesPerShard);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      for (int v = 0; v < kVnodesPerShard; ++v) {
        const std::uint64_t point = splitmix64_mix(
            ((static_cast<std::uint64_t>(i) << 16 |
              static_cast<std::uint64_t>(v)) ^
             0x7269'6c6c'7368'6172ull) +
            kSplitMix64Gamma);
        ring_.emplace_back(point, static_cast<int>(i));
      }
    }
    std::sort(ring_.begin(), ring_.end());
  }
}

int ShardedStore::shard_for(const std::string& key) const noexcept {
  if (ring_.empty()) return 0;
  const std::uint64_t h = key_hash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, int>& p, std::uint64_t v) {
        return p.first < v;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

void ShardedStore::put(VmId client, std::string key, Bytes value,
                       PutDone done) {
  shards_[static_cast<std::size_t>(shard_for(key))]->put(
      client, std::move(key), std::move(value), std::move(done));
}

template <typename Item, typename Issue>
void ShardedStore::scatter_gather(std::vector<Item> items, Issue issue,
                                  PutDone done) {
  std::vector<std::vector<Item>> groups(shards_.size());
  std::vector<std::vector<std::size_t>> slots(shards_.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto s = static_cast<std::size_t>(shard_for(key_of(items[i])));
    groups[s].push_back(std::move(items[i]));
    slots[s].push_back(i);
  }
  if (items.empty()) {
    // The empty-request rule: an empty batch is still one request, sent to
    // shard 0 and paying its round trip, exactly as on the unsharded Store.
    issue(*shards_.front(), std::move(groups.front()),
          std::move(slots.front()), std::move(done));
    return;
  }
  // AND-aggregate the per-shard verdicts; `done` fires once, after the
  // slowest shard answers.
  struct Gather {
    int remaining{0};
    bool ok{true};
    PutDone done;
  };
  auto gather = std::make_shared<Gather>();
  gather->done = std::move(done);
  for (const auto& g : groups) {
    if (!g.empty()) ++gather->remaining;
  }
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    issue(*shards_[s], std::move(groups[s]), std::move(slots[s]),
          [gather](bool ok) {
            gather->ok = gather->ok && ok;
            if (--gather->remaining == 0 && gather->done) {
              gather->done(gather->ok);
            }
          });
  }
}

void ShardedStore::put_batch(VmId client,
                             std::vector<std::pair<std::string, Bytes>> kvs,
                             PutDone done) {
  scatter_gather(
      std::move(kvs),
      [client](Store& shard, std::vector<std::pair<std::string, Bytes>> group,
               std::vector<std::size_t> /*slots*/, PutDone verdict) {
        shard.put_batch(client, std::move(group), std::move(verdict));
      },
      std::move(done));
}

void ShardedStore::get(VmId client, std::string key, GetDone done) {
  shards_[static_cast<std::size_t>(shard_for(key))]->get(
      client, std::move(key), std::move(done));
}

void ShardedStore::get_batch(VmId client, std::vector<std::string> keys,
                             MGetDone done) {
  // Each shard's MGET reply scatters back into the request-order slots.
  auto values =
      std::make_shared<std::vector<std::optional<Bytes>>>(keys.size());
  scatter_gather(
      std::move(keys),
      [client, values](Store& shard, std::vector<std::string> group,
                       std::vector<std::size_t> slots, PutDone verdict) {
        shard.get_batch(
            client, std::move(group),
            [values, slots = std::move(slots), verdict = std::move(verdict)](
                bool ok, std::vector<std::optional<Bytes>> got) {
              for (std::size_t j = 0; j < slots.size(); ++j) {
                (*values)[slots[j]] = std::move(got[j]);
              }
              verdict(ok);
            });
      },
      [values, done = std::move(done)](bool ok) {
        if (done) done(ok, std::move(*values));
      });
}

void ShardedStore::del_batch(VmId client, std::vector<std::string> keys,
                             PutDone done) {
  scatter_gather(
      std::move(keys),
      [client](Store& shard, std::vector<std::string> group,
               std::vector<std::size_t> /*slots*/, PutDone verdict) {
        shard.del_batch(client, std::move(group), std::move(verdict));
      },
      std::move(done));
}

void ShardedStore::put_pipelined(VmId client, std::string key, Bytes value,
                                 PutDone done) {
  if (shards_.size() == 1) {
    // Unsharded: no coalescing, no linger timer — the event schedule stays
    // identical to the pre-sharding store.
    shards_[0]->put(client, std::move(key), std::move(value), std::move(done));
    return;
  }
  const int shard = shard_for(key);
  PendingBatch& pb = pending_[{client.value, shard}];
  pb.kvs.emplace_back(std::move(key), std::move(value));
  pb.dones.push_back(std::move(done));
  if (!pb.armed) {
    pb.armed = true;
    engine_.schedule_detached(config().pipeline_linger,
                     [this, cv = client.value, shard] { flush(cv, shard); });
  }
}

void ShardedStore::flush(std::uint32_t client_vm, int shard) {
  auto it = pending_.find({client_vm, shard});
  if (it == pending_.end() || it->second.kvs.empty()) return;
  PendingBatch batch = std::move(it->second);
  it->second = PendingBatch{};
  auto dones = std::make_shared<std::vector<PutDone>>(std::move(batch.dones));
  shards_[static_cast<std::size_t>(shard)]->put_batch(
      VmId{client_vm}, std::move(batch.kvs), [dones](bool ok) {
        for (PutDone& d : *dones) {
          if (d) d(ok);
        }
      });
}

void ShardedStore::set_fault_hook(FaultHook* hook) {
  for (auto& s : shards_) s->set_fault_hook(hook);
}

void ShardedStore::set_tracer(obs::Tracer* tracer) {
  for (auto& s : shards_) s->set_tracer(tracer);
}

std::optional<Bytes> ShardedStore::peek(const std::string& key) const {
  return shards_[static_cast<std::size_t>(shard_for(key))]->peek(key);
}

std::size_t ShardedStore::size() const noexcept {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->size();
  return n;
}

StoreStats ShardedStore::stats() const noexcept {
  StoreStats total;
  for (const auto& s : shards_) total += s->stats();
  return total;
}

}  // namespace rill::kvstore
