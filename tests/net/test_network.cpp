#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace rill::net {
namespace {

struct NetFixture : ::testing::Test {
  sim::Engine engine;
  cluster::Cluster clu{engine};
  VmId vm1, vm2;

  void SetUp() override {
    vm1 = clu.provision(cluster::VmType::D2, "vm1");
    vm2 = clu.provision(cluster::VmType::D2, "vm2");
  }

  Network make(NetworkConfig cfg = {}) {
    cfg.jitter_frac = 0.0;  // deterministic latency for exact assertions
    return Network(engine, clu, cfg, Rng(1));
  }
};

TEST_F(NetFixture, IntraVmIsFasterThanInterVm) {
  Network net = make();
  SimTime intra = 0, inter = 0;
  net.send(vm1, vm1, 0, [&] { intra = engine.now(); });
  net.send(vm1, vm2, 0, [&] { inter = engine.now(); });
  engine.run();
  EXPECT_LT(intra, inter);
  EXPECT_EQ(intra, static_cast<SimTime>(time::us(150)));
  EXPECT_EQ(inter, static_cast<SimTime>(time::us(1200)));
}

TEST_F(NetFixture, BytesAddWireTime) {
  NetworkConfig cfg;
  cfg.jitter_frac = 0.0;
  cfg.ns_per_byte = 1000.0;  // 1 us per byte for easy math
  Network net(engine, clu, cfg, Rng(1));
  SimTime t = 0;
  net.send(vm1, vm1, 100, [&] { t = engine.now(); });
  engine.run();
  EXPECT_EQ(t, static_cast<SimTime>(time::us(250)));  // 150 + 100
}

TEST_F(NetFixture, FifoPerVmPair) {
  // Even with per-message size differences, a (from, to) channel must
  // deliver in send order — the checkpoint sweep correctness depends on it.
  NetworkConfig cfg;
  cfg.ns_per_byte = 1000.0;
  cfg.jitter_frac = 0.0;
  Network net(engine, clu, cfg, Rng(1));
  std::vector<int> order;
  net.send(vm1, vm2, 10000, [&] { order.push_back(1); });  // slow big message
  net.send(vm1, vm2, 0, [&] { order.push_back(2); });      // fast small one
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(NetFixture, IndependentPairsDoNotBlock) {
  NetworkConfig cfg;
  cfg.ns_per_byte = 1000.0;
  cfg.jitter_frac = 0.0;
  Network net(engine, clu, cfg, Rng(1));
  std::vector<int> order;
  net.send(vm1, vm2, 100000, [&] { order.push_back(1); });
  net.send(vm2, vm1, 0, [&] { order.push_back(2); });  // different channel
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(NetFixture, JitterStaysWithinBound) {
  NetworkConfig cfg;
  cfg.jitter_frac = 0.25;
  cfg.ns_per_byte = 0.0;
  Network net(engine, clu, cfg, Rng(7));
  for (int i = 0; i < 200; ++i) {
    const SimTime sent = engine.now();
    SimTime arrived = 0;
    net.send(vm1, vm2, 0, [&arrived, &e = engine] { arrived = e.now(); });
    engine.run();
    const auto latency = static_cast<SimDuration>(arrived - sent);
    EXPECT_GE(latency, time::us(1200));
    EXPECT_LE(latency, time::us(1500));
  }
}

TEST_F(NetFixture, StatsCountMessages) {
  Network net = make();
  net.send(vm1, vm1, 10, [] {});
  net.send(vm1, vm2, 20, [] {});
  net.send(vm2, vm1, 30, [] {});
  engine.run();
  EXPECT_EQ(net.stats().messages_sent, 3u);
  EXPECT_EQ(net.stats().intra_vm, 1u);
  EXPECT_EQ(net.stats().inter_vm, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 60u);
}

TEST_F(NetFixture, SendBetweenSlotsRoutesByHostVm) {
  Network net = make();
  const SlotId s1 = clu.vm(vm1).slots[0];
  const SlotId s2 = clu.vm(vm1).slots[1];
  const SlotId s3 = clu.vm(vm2).slots[0];
  SimTime same = 0, cross = 0;
  net.send_between_slots(s1, s2, 0, [&] { same = engine.now(); });
  net.send_between_slots(s1, s3, 0, [&] { cross = engine.now(); });
  engine.run();
  EXPECT_LT(same, cross);
}

TEST(Network, FifoHoldsForVmProvisionedAfterTrafficStarted) {
  // The FIFO table is sized to the VMs that exist when traffic starts; a
  // VM provisioned later grows it.  Channels to and from the new VM must
  // be FIFO from their first message, and the old channels must keep
  // their history across the growth.
  sim::Engine engine;
  cluster::Cluster clu{engine};
  const VmId a = clu.provision(cluster::VmType::D2, "a");
  const VmId b = clu.provision(cluster::VmType::D2, "b");
  NetworkConfig cfg;
  cfg.jitter_frac = 0.0;
  cfg.ns_per_byte = 1000.0;  // 1 us per byte: size sets the wire time
  Network net(engine, clu, cfg, Rng(1));
  std::vector<int> order;
  net.send(a, b, 10000, [&] { order.push_back(1); });  // slow, in flight

  const VmId c = clu.provision(cluster::VmType::D2, "c");
  net.send(a, b, 0, [&] { order.push_back(2); });  // must wait behind 1
  net.send(c, a, 10000, [&] { order.push_back(3); });
  net.send(c, a, 0, [&] { order.push_back(4); });  // must wait behind 3
  const VmId d = clu.provision(cluster::VmType::D2, "d");
  net.send(a, d, 20000, [&] { order.push_back(5); });
  net.send(a, d, 0, [&] { order.push_back(6); });  // must wait behind 5
  // a's row grew for d: a→b must still remember message 1's arrival.
  net.send(a, b, 0, [&] { order.push_back(7); });
  engine.run();
  // 1–4 and 7 all arrive at 11.2 ms (FIFO-clamped), 5 and 6 at 21.2 ms.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 7, 5, 6}));
}

}  // namespace
}  // namespace rill::net
