// Tests for the two-level ring hierarchy (Section 2: scaling past one
// ring) and the protocol stack running across it.
#include <gtest/gtest.h>

#include "bbp/endpoint.h"
#include "common/bytes.h"
#include "scramnet/hierarchy.h"
#include "scramnet/sim_port.h"
#include "scrshm/barrier.h"

namespace scrnet::scramnet {
namespace {

std::vector<u8> make_span_msg() {
  std::vector<u8> v(24);
  fill_pattern(v, 7);
  return v;
}

HierarchyConfig small_h() {
  HierarchyConfig cfg;
  cfg.leaf_rings = 3;
  cfg.leaf.nodes = 4;
  cfg.leaf.bank_words = 1u << 14;
  return cfg;
}

TEST(Hierarchy, TopologyMath) {
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  EXPECT_EQ(h.nodes(), 12u);
  EXPECT_EQ(h.ring_of(0), 0u);
  EXPECT_EQ(h.ring_of(5), 1u);
  EXPECT_EQ(h.local_of(5), 1u);
  EXPECT_TRUE(h.is_bridge(4));
  EXPECT_FALSE(h.is_bridge(5));
}

TEST(Hierarchy, WriteReflectsToAllTwelveNodes) {
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  h.host_write(5, 100, 0xABCD);
  sim.run();
  for (u32 n = 0; n < 12; ++n)
    EXPECT_EQ(h.host_read(n, 100), 0xABCDu) << "node " << n;
}

TEST(Hierarchy, LocalRingFasterThanCrossRing) {
  // Write from node 1 (ring 0): node 2 (same ring) must see it well before
  // node 6 (ring 1, through two bridges).
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  h.host_write(1, 7, 42);
  SimTime local_at = 0, remote_at = 0;
  sim.spawn("probe", [&](sim::Process& p) {
    while (h.host_read(2, 7) != 42) p.delay(ns(100));
    local_at = p.now();
    while (h.host_read(6, 7) != 42) p.delay(ns(100));
    remote_at = p.now();
  });
  sim.run();
  EXPECT_LT(to_us(local_at), 2.0);
  EXPECT_GT(remote_at, local_at + us(2));  // at least one bridge latency more
  EXPECT_LE(remote_at, h.full_propagation_bound() + us(1));
}

TEST(Hierarchy, PerSenderOrderHoldsAcrossBridges) {
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  h.host_write(1, 10, 111);  // data
  h.host_write(1, 11, 222);  // flag
  bool checked = false;
  sim.spawn("probe", [&](sim::Process& p) {
    for (int i = 0; i < 1000; ++i) {
      p.delay(ns(200));
      if (h.host_read(9, 11) == 222) {  // ring 2
        EXPECT_EQ(h.host_read(9, 10), 111u) << "flag passed data across bridges";
        checked = true;
        return;
      }
    }
  });
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(Hierarchy, BackbonePacketAccounting) {
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  h.host_write(0, 1, 5);
  h.host_write(7, 2, 6);
  sim.run();
  EXPECT_EQ(h.backbone_packets(), 2u);
  // Each leaf carries its own host packets plus one down-leg per packet
  // from another leaf: 2 host packets + 2 * 2 re-serializations.
  u64 leaf_packets = 0;
  for (u32 r = 0; r < 3; ++r) leaf_packets += h.leaf_of(r * 4).packets_sent();
  EXPECT_EQ(leaf_packets, 6u);
}

TEST(Hierarchy, SamePicosecondWritesCrossTheBackboneInNodeOrder) {
  // Nodes 2 and 1 share leaf 0 and write at the same picosecond; node 2's
  // process runs first. The leaf medium arbitrates the tie in node order,
  // so node 1's word reaches node 9 on leaf 2 first.
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  for (u32 n : {2u, 1u})
    sim.spawn("n" + std::to_string(n), [&h, n](sim::Process&) {
      h.host_write(n, 20 + n, n);
    });
  SimTime seen1 = 0, seen2 = 0;
  sim.spawn("probe", [&](sim::Process& p) {
    while (seen1 == 0 || seen2 == 0) {
      p.delay(ns(10));
      if (seen1 == 0 && h.host_read(9, 21) == 1) seen1 = p.now();
      if (seen2 == 0 && h.host_read(9, 22) == 2) seen2 = p.now();
    }
  });
  sim.run();
  EXPECT_LT(seen1, seen2) << "node 1's word at " << to_us(seen1)
                          << " us, node 2's at " << to_us(seen2) << " us";
}

TEST(Hierarchy, WatchedWriteWakesHostsOnOtherLeaves) {
  // Interrupt-driven receive across the hierarchy: node 4 is a bridge
  // (reached by the backbone), node 9 sits behind one (reached by a
  // down-leg walk). Without an interrupt at either, the watcher deadlocks.
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  u32 woke = 0;
  for (u32 n : {4u, 9u})
    sim.spawn("w" + std::to_string(n), [&, n](sim::Process& p) {
      SimHostPort port(h.leaf_of(n), h.local_of(n), p);
      port.watch_range(30, 31);
      port.wait_write();
      EXPECT_EQ(port.read_u32(30), 77u);
      ++woke;
    });
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(h.leaf_of(1), h.local_of(1), p);
    port.write_u32(30, 77);
  });
  sim.run();
  EXPECT_EQ(woke, 2u);
}

TEST(Hierarchy, BbpRunsAcrossRings) {
  // The BillBoard Protocol on a 12-node hierarchy: cross-ring p2p and a
  // system-wide multicast, no protocol changes.
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  u32 got_mcast = 0;
  sim.spawn("sender", [&](sim::Process& p) {
    SimHostPort port(h.leaf_of(1), h.local_of(1), p);
    bbp::Endpoint ep(port, 12, 1);
    ASSERT_TRUE(ep.send(6, make_span_msg()).ok());
    std::vector<u32> dests;
    for (u32 r = 0; r < 12; ++r)
      if (r != 1) dests.push_back(r);
    ASSERT_TRUE(ep.mcast(dests, make_span_msg()).ok());
    ep.drain();
  });
  for (u32 r = 0; r < 12; ++r) {
    if (r == 1) continue;
    sim.spawn("rx" + std::to_string(r), [&, r](sim::Process& p) {
      SimHostPort port(h.leaf_of(r), h.local_of(r), p);
      bbp::Endpoint ep(port, 12, r);
      std::vector<u8> buf(24);
      if (r == 6) {  // gets the p2p message first (in-order from sender 1)
        auto res = ep.recv(1, buf);
        ASSERT_TRUE(res.ok());
        EXPECT_TRUE(check_pattern(buf, 7));
      }
      auto res = ep.recv(1, buf);
      ASSERT_TRUE(res.ok());
      EXPECT_TRUE(check_pattern(buf, 7));
      ++got_mcast;
    });
  }
  sim.run();
  EXPECT_EQ(got_mcast, 11u);
}

TEST(Hierarchy, ShmBarrierAcrossRings) {
  sim::Simulation sim;
  HierarchyConfig cfg = small_h();
  cfg.leaf_rings = 2;
  cfg.leaf.nodes = 3;
  RingHierarchy h(sim, cfg);
  constexpr u32 kN = 6, kPhases = 5;
  std::vector<u32> arrived(kPhases, 0);
  bool ok = true;
  for (u32 id = 0; id < kN; ++id) {
    sim.spawn("p" + std::to_string(id), [&, id](sim::Process& p) {
      SimHostPort port(h.leaf_of(id), h.local_of(id), p);
      scrshm::Arena arena(0, 1024);
      scrshm::DisseminationBarrier bar(port, arena, kN, id);
      for (u32 phase = 0; phase < kPhases; ++phase) {
        p.delay(us(1) * ((id * 11 + phase) % 7));
        ++arrived[phase];
        bar.wait();
        if (arrived[phase] != kN) ok = false;
      }
    });
  }
  sim.run();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace scrnet::scramnet
