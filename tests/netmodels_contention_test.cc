// Contention and edge-case tests for the baseline fabrics.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "netmodels/fabric.h"
#include "netmodels/myrinet.h"
#include "netmodels/tcp.h"

namespace scrnet::netmodels {
namespace {

template <typename F>
std::vector<SimTime> arrival_times(F&& make_and_send, u32 host, u32 n) {
  sim::Simulation sim;
  auto net = make_and_send(sim);
  std::vector<SimTime> times;
  sim.spawn("rx", [&](sim::Process& p) {
    for (u32 i = 0; i < n; ++i) {
      net->rx(host).pop(p);
      times.push_back(p.now());
    }
  });
  sim.run();
  return times;
}

TEST(Contention, EthernetOutputPortSerializesTwoSenders) {
  // Hosts 0 and 1 each send a full frame to host 2 at t=0: the switch's
  // output port must serialize them one frame time apart.
  auto times = arrival_times(
      [](sim::Simulation& sim) {
        auto net = std::make_unique<Fabric>(sim, 3, LinkConfig::fast_ethernet());
        net->transmit(Frame{0, 2, std::vector<u8>(1462)});
        net->transmit(Frame{1, 2, std::vector<u8>(1462)});
        return net;
      },
      2, 2);
  const double gap = to_us(times[1] - times[0]);
  EXPECT_NEAR(gap, 120.0, 3.0);  // 1500B * 8 / 100Mb
}

TEST(Contention, MyrinetWormStallsOnBusyOutput) {
  auto times = arrival_times(
      [](sim::Simulation& sim) {
        auto net = std::make_unique<Fabric>(sim, 3, LinkConfig::myrinet());
        net->transmit(Frame{0, 2, std::vector<u8>(8000)});
        net->transmit(Frame{1, 2, std::vector<u8>(8000)});
        return net;
      },
      2, 2);
  // Second worm waits for the first's tail: gap ~ one 8016B serialization
  // at 1.28 Gb/s ~ 50us.
  const double gap = to_us(times[1] - times[0]);
  EXPECT_NEAR(gap, 50.1, 3.0);
}

TEST(Contention, AtmCellTrainsShareTheOutputLink) {
  auto times = arrival_times(
      [](sim::Simulation& sim) {
        auto net = std::make_unique<Fabric>(sim, 3, LinkConfig::atm());
        net->transmit(Frame{0, 2, std::vector<u8>(4800)});  // ~101 cells
        net->transmit(Frame{1, 2, std::vector<u8>(4800)});
        return net;
      },
      2, 2);
  const double cell_train_us = 101 * 53 * 8 / 155.52;
  EXPECT_NEAR(to_us(times[1] - times[0]), cell_train_us, 5.0);
}

TEST(Contention, DistinctDestinationsDontBlockEachOther) {
  // Host 0 sends a big frame to 1; host 2's frame to 3 must not queue
  // behind it (separate output ports).
  sim::Simulation sim;
  Fabric net(sim, 4, LinkConfig::fast_ethernet());
  net.transmit(Frame{0, 1, std::vector<u8>(1462)});
  net.transmit(Frame{2, 3, std::vector<u8>(64)});
  SimTime t_small = 0, t_big = 0;
  sim.spawn("rx1", [&](sim::Process& p) {
    net.rx(1).pop(p);
    t_big = p.now();
  });
  sim.spawn("rx3", [&](sim::Process& p) {
    net.rx(3).pop(p);
    t_small = p.now();
  });
  sim.run();
  EXPECT_LT(t_small, t_big);  // the small one never waited
}

TEST(Tcp, ZeroByteSendCarriesHeaderOnlySegment) {
  sim::Simulation sim;
  Fabric net(sim, 2, LinkConfig::fast_ethernet());
  sim.spawn("tx", [&](sim::Process& p) {
    TcpStack stack(net, 0, TcpConfig::fast_ethernet());
    stack.send(p, 1, {});
  });
  sim.spawn("rx", [&](sim::Process& p) {
    Frame f = net.rx(1).pop(p);
    EXPECT_EQ(f.payload.size(), 40u);  // TCP/IP headers, no data
  });
  sim.run();
}

TEST(Tcp, InterleavedStreamsReassembleIndependently) {
  sim::Simulation sim;
  Fabric net(sim, 3, LinkConfig::fast_ethernet());
  constexpr u32 kBytes = 6000;  // several segments each
  sim.spawn("tx1", [&](sim::Process& p) {
    TcpStack stack(net, 0, TcpConfig::fast_ethernet());
    std::vector<u8> m(kBytes);
    fill_pattern(m, 1);
    stack.send(p, 2, m);
  });
  sim.spawn("tx2", [&](sim::Process& p) {
    TcpStack stack(net, 1, TcpConfig::fast_ethernet());
    std::vector<u8> m(kBytes);
    fill_pattern(m, 2);
    stack.send(p, 2, m);
  });
  sim.spawn("rx", [&](sim::Process& p) {
    TcpStack stack(net, 2, TcpConfig::fast_ethernet());
    std::vector<u8> b1(kBytes), b2(kBytes);
    stack.recv(p, 0, b1, kBytes);
    stack.recv(p, 1, b2, kBytes);
    EXPECT_TRUE(check_pattern(b1, 1));
    EXPECT_TRUE(check_pattern(b2, 2));
  });
  sim.run();
}

TEST(Tcp, NonBlockingAbsorbThenPeekConsume) {
  sim::Simulation sim;
  Fabric net(sim, 2, LinkConfig::fast_ethernet());
  sim.spawn("tx", [&](sim::Process& p) {
    TcpStack stack(net, 0, TcpConfig::fast_ethernet());
    std::vector<u8> m(100);
    fill_pattern(m, 7);
    stack.send(p, 1, m);
  });
  sim.spawn("rx", [&](sim::Process& p) {
    TcpStack stack(net, 1, TcpConfig::fast_ethernet());
    u8 first20[20];
    while (!stack.peek(0, first20)) {
      stack.try_absorb(p);
      p.delay(us(5));
    }
    EXPECT_EQ(stack.buffered(0), 100u);
    std::vector<u8> out(100);
    stack.consume(p, 0, out, 100);
    EXPECT_TRUE(check_pattern(out, 7));
    EXPECT_EQ(stack.buffered(0), 0u);
  });
  sim.run();
}

TEST(Myrinet, BigMessageSplitsAtMtu) {
  sim::Simulation sim;
  Fabric net(sim, 2, LinkConfig::myrinet());
  sim.spawn("tx", [&](sim::Process& p) {
    MyrinetApi api(net, 0);
    std::vector<u8> m(20000);  // > 8192 MTU: 3 frames
    fill_pattern(m, 9);
    api.send(p, 1, m);
  });
  sim.spawn("rx", [&](sim::Process& p) {
    MyrinetApi api(net, 1);
    std::vector<u8> out(20000);
    api.recv(p, 0, out, 20000);
    EXPECT_TRUE(check_pattern(out, 9));
  });
  sim.run();
  EXPECT_EQ(net.frames_delivered(), 3u);
}

}  // namespace
}  // namespace scrnet::netmodels
