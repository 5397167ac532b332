// ShardedStore facade: consistent-hash routing, per-shard stats rollup,
// pipelined COMMIT coalescing and the cross-shard MGET used by the INIT
// prefetch.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "kvstore/sharded_store.hpp"
#include "sim/engine.hpp"

namespace rill::kvstore {
namespace {

struct ShardedFixture : ::testing::Test {
  static constexpr int kShards = 4;

  sim::Engine engine;
  cluster::Cluster clu{engine};
  VmId client_vm;
  std::vector<VmId> hosts;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<ShardedStore> store;

  void SetUp() override { build(kShards); }

  void build(int nshards) {
    client_vm = clu.provision(cluster::VmType::D2, "client");
    hosts.clear();
    for (int s = 0; s < nshards; ++s) {
      hosts.push_back(clu.provision(cluster::VmType::D3, "redis"));
    }
    net::NetworkConfig ncfg;
    ncfg.jitter_frac = 0.0;
    network = std::make_unique<net::Network>(engine, clu, ncfg, Rng(1));
    store = std::make_unique<ShardedStore>(engine, *network, hosts,
                                           StoreConfig{}, /*seed_base=*/42);
  }

  static Bytes bytes_of(std::string_view s) {
    return Bytes(s.begin(), s.end());
  }
};

TEST_F(ShardedFixture, RingPlacementIsDeterministicAndSpread) {
  std::set<int> used;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "task/" + std::to_string(i);
    const int shard = store->shard_for(key);
    EXPECT_EQ(shard, store->shard_for(key));  // pure function of the key
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, kShards);
    used.insert(shard);
  }
  // 200 keys over 64 vnodes/shard: every shard must own some of them.
  EXPECT_EQ(used.size(), static_cast<std::size_t>(kShards));
}

TEST_F(ShardedFixture, SingleShardRoutesEverythingToShardZero) {
  sim::Engine e2;
  cluster::Cluster clu2{e2};
  std::vector<VmId> one{clu2.provision(cluster::VmType::D3, "redis")};
  net::NetworkConfig ncfg;
  ncfg.jitter_frac = 0.0;
  net::Network net2(e2, clu2, ncfg, Rng(1));
  ShardedStore single(e2, net2, one, StoreConfig{}, 42);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(single.shard_for("k" + std::to_string(i)), 0);
  }
}

TEST_F(ShardedFixture, PutRoutesToOwningShardAndRollsUp) {
  for (int i = 0; i < 40; ++i) {
    store->put(client_vm, "k" + std::to_string(i), bytes_of("v"),
               [](bool ok) { EXPECT_TRUE(ok); });
  }
  engine.run();

  std::uint64_t total = 0;
  int shards_hit = 0;
  for (int s = 0; s < store->shards(); ++s) {
    const StoreStats& ss = store->shard_stats(s);
    total += ss.puts;
    if (ss.puts > 0) ++shards_hit;
    // Every key must live on the shard the ring names.
    for (std::size_t k = 0; k < 40; ++k) {
      const std::string key = "k" + std::to_string(k);
      EXPECT_EQ(store->shard(s).peek(key).has_value(),
                store->shard_for(key) == s);
    }
  }
  EXPECT_EQ(total, 40u);
  EXPECT_GT(shards_hit, 1);
  EXPECT_EQ(store->stats().puts, 40u);  // rollup equals per-shard sum
  EXPECT_EQ(store->size(), 40u);
}

TEST_F(ShardedFixture, PutBatchSplitsByShardAndAndsTheVerdict) {
  std::vector<std::pair<std::string, Bytes>> kvs;
  for (int i = 0; i < 32; ++i) {
    kvs.emplace_back("b" + std::to_string(i), bytes_of("x"));
  }
  bool ok = false;
  store->put_batch(client_vm, std::move(kvs), [&](bool s) { ok = s; });
  engine.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(store->stats().batch_items, 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(store->peek("b" + std::to_string(i)).has_value());
  }
  // One pipelined request per owning shard, not one per key.
  std::uint64_t requests = 0;
  for (int s = 0; s < store->shards(); ++s) {
    requests += store->shard_stats(s).puts;
  }
  EXPECT_LE(requests, static_cast<std::uint64_t>(kShards));
}

TEST_F(ShardedFixture, PipelinedPutsCoalescePerShard) {
  int done = 0;
  for (int i = 0; i < 24; ++i) {
    store->put_pipelined(client_vm, "p" + std::to_string(i), bytes_of("y"),
                         [&](bool ok) {
                           EXPECT_TRUE(ok);
                           ++done;
                         });
  }
  engine.run();
  EXPECT_EQ(done, 24);
  // The linger window must have merged the 24 singles into at most one
  // batch per shard.
  std::uint64_t requests = 0;
  for (int s = 0; s < store->shards(); ++s) {
    requests += store->shard_stats(s).puts;
  }
  EXPECT_LE(requests, static_cast<std::uint64_t>(kShards));
  EXPECT_EQ(store->stats().batch_items, 24u);
}

TEST_F(ShardedFixture, GetBatchReassemblesInRequestOrder) {
  store->put(client_vm, "g0", bytes_of("v0"), [](bool) {});
  store->put(client_vm, "g2", bytes_of("v2"), [](bool) {});
  engine.run();

  std::vector<std::optional<Bytes>> got;
  bool ok = false;
  store->get_batch(client_vm, {"g0", "g1", "g2"},
                   [&](bool s, std::vector<std::optional<Bytes>> values) {
                     ok = s;
                     got = std::move(values);
                   });
  engine.run();
  EXPECT_TRUE(ok);
  ASSERT_EQ(got.size(), 3u);
  ASSERT_TRUE(got[0].has_value());
  EXPECT_EQ(*got[0], bytes_of("v0"));
  EXPECT_FALSE(got[1].has_value());  // absent key → nullopt, in place
  ASSERT_TRUE(got[2].has_value());
  EXPECT_EQ(*got[2], bytes_of("v2"));
}

TEST_F(ShardedFixture, ShardTargetedOutageFailsOnlyThatShardsKeys) {
  struct OneShardDown final : Store::FaultHook {
    int down_shard{0};
    bool unavailable(int shard) override { return shard == down_shard; }
    SimDuration extra_latency(int /*shard*/) override { return 0; }
  } hook;
  // Pick any key and kill its owning shard; a key on another shard must
  // still commit while the victim exhausts its retries.
  const std::string victim = "victim-key";
  hook.down_shard = store->shard_for(victim);
  std::string bystander;
  for (int i = 0;; ++i) {
    bystander = "bystander" + std::to_string(i);
    if (store->shard_for(bystander) != hook.down_shard) break;
  }
  store->set_fault_hook(&hook);

  std::optional<bool> victim_ok, bystander_ok;
  store->put(client_vm, victim, bytes_of("v"),
             [&](bool ok) { victim_ok = ok; });
  store->put(client_vm, bystander, bytes_of("v"),
             [&](bool ok) { bystander_ok = ok; });
  engine.run();
  ASSERT_TRUE(victim_ok.has_value());
  ASSERT_TRUE(bystander_ok.has_value());
  EXPECT_FALSE(*victim_ok);
  EXPECT_TRUE(*bystander_ok);
  EXPECT_GT(store->shard_stats(hook.down_shard).failed_requests, 0u);
  for (int s = 0; s < store->shards(); ++s) {
    if (s != hook.down_shard) {
      EXPECT_EQ(store->shard_stats(s).failed_requests, 0u);
    }
  }
}

TEST_F(ShardedFixture, EmptyPutBatchStillCompletes) {
  bool ok = false;
  store->put_batch(client_vm, {}, [&](bool s) { ok = s; });
  engine.run();
  EXPECT_TRUE(ok);
}

TEST_F(ShardedFixture, DelBatchSplitsByOwnerAndFailsOnlyTheDownShardsKeys) {
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) keys.push_back("d" + std::to_string(i));
  for (const std::string& k : keys) {
    store->put(client_vm, k, bytes_of("v"), [](bool) {});
  }
  engine.run();

  const std::vector<std::string> first(keys.begin(), keys.begin() + 16);
  const std::vector<std::string> second(keys.begin() + 16, keys.end());
  std::set<int> first_owners, second_owners;
  for (const std::string& k : first) first_owners.insert(store->shard_for(k));
  for (const std::string& k : second) {
    second_owners.insert(store->shard_for(k));
  }
  ASSERT_GT(first_owners.size(), 1u);
  ASSERT_GT(second_owners.size(), 1u);

  // Healthy tier: one MDEL per owning shard, every key gone.
  std::optional<bool> ok;
  store->del_batch(client_vm, first, [&](bool s) { ok = s; });
  engine.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
  for (const std::string& k : first) EXPECT_FALSE(store->peek(k).has_value());
  std::uint64_t requests = 0;
  for (int s = 0; s < store->shards(); ++s) {
    requests += store->shard_stats(s).deletes;
    EXPECT_EQ(store->shard_stats(s).deletes,
              first_owners.contains(s) ? 1u : 0u);
  }
  EXPECT_EQ(requests, first_owners.size());
  EXPECT_EQ(store->stats().batch_items, 32u + 16u);

  // One shard down: the batch verdict fails, only that shard's keys
  // survive, and no other shard records a failure.
  struct OneShardDown final : Store::FaultHook {
    int down_shard{0};
    bool unavailable(int shard) override { return shard == down_shard; }
    SimDuration extra_latency(int /*shard*/) override { return 0; }
  } hook;
  hook.down_shard = store->shard_for(second.front());
  store->set_fault_hook(&hook);
  ok.reset();
  store->del_batch(client_vm, second, [&](bool s) { ok = s; });
  engine.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
  for (const std::string& k : second) {
    EXPECT_EQ(store->peek(k).has_value(),
              store->shard_for(k) == hook.down_shard)
        << k;
  }
  for (int s = 0; s < store->shards(); ++s) {
    EXPECT_EQ(store->shard_stats(s).failed_requests > 0,
              s == hook.down_shard);
  }
}

/// The one empty-request rule, at 1 shard and at 4: an empty put_batch,
/// get_batch or del_batch is one request to shard 0, completing ok after a
/// round trip (not synchronously), and no other shard sees it.
class EmptyRequestRule : public ShardedFixture,
                         public ::testing::WithParamInterface<int> {
 protected:
  void SetUp() override { build(GetParam()); }

  void expect_one_shard0_round_trip(SimTime done_at) {
    EXPECT_GT(done_at, SimTime{0});
    for (int s = 0; s < store->shards(); ++s) {
      const StoreStats& ss = store->shard_stats(s);
      EXPECT_EQ(ss.puts + ss.gets + ss.deletes, s == 0 ? 1u : 0u)
          << "shard " << s;
      EXPECT_EQ(ss.batch_items, 0u);
    }
  }
};

TEST_P(EmptyRequestRule, PutBatch) {
  std::optional<bool> ok;
  SimTime done_at = 0;
  store->put_batch(client_vm, {}, [&](bool s) {
    ok = s;
    done_at = engine.now();
  });
  EXPECT_FALSE(ok.has_value());
  engine.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
  EXPECT_EQ(store->shard_stats(0).puts, 1u);
  expect_one_shard0_round_trip(done_at);
}

TEST_P(EmptyRequestRule, GetBatch) {
  std::optional<bool> ok;
  SimTime done_at = 0;
  std::vector<std::optional<Bytes>> got{std::nullopt};
  store->get_batch(client_vm, {},
                   [&](bool s, std::vector<std::optional<Bytes>> values) {
                     ok = s;
                     got = std::move(values);
                     done_at = engine.now();
                   });
  EXPECT_FALSE(ok.has_value());
  engine.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(store->shard_stats(0).gets, 1u);
  expect_one_shard0_round_trip(done_at);
}

TEST_P(EmptyRequestRule, DelBatch) {
  std::optional<bool> ok;
  SimTime done_at = 0;
  store->del_batch(client_vm, {}, [&](bool s) {
    ok = s;
    done_at = engine.now();
  });
  EXPECT_FALSE(ok.has_value());
  engine.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
  EXPECT_EQ(store->shard_stats(0).deletes, 1u);
  expect_one_shard0_round_trip(done_at);
}

INSTANTIATE_TEST_SUITE_P(Shards, EmptyRequestRule, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "Shard" +
                                  (info.param == 1 ? "" : "s");
                         });

}  // namespace
}  // namespace rill::kvstore
