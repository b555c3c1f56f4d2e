// Tests for the hybrid SCRAMNet+bulk-network channel (paper Section 7).
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "harness/cluster.h"

namespace scrnet::scrmpi {
namespace {

using harness::run_hybrid_mpi;
using harness::TcpFabricKind;

constexpr u32 kThreshold = 2048;

TEST(Hybrid, SmallAndLargeMessagesBothDeliver) {
  run_hybrid_mpi(2, TcpFabricKind::kMyrinet, kThreshold,
                 [](sim::Process&, Mpi& mpi) {
                   const Comm& w = mpi.world();
                   if (mpi.rank(w) == 0) {
                     std::vector<u8> small(64), large(32 * 1024);
                     fill_pattern(small, 1);
                     fill_pattern(large, 2);
                     mpi.send(small.data(), 64, Datatype::kByte, 1, 0, w);
                     mpi.send(large.data(), 32 * 1024, Datatype::kByte, 1, 0, w);
                   } else {
                     std::vector<u8> small(64), large(32 * 1024);
                     mpi.recv(small.data(), 64, Datatype::kByte, 0, 0, w);
                     mpi.recv(large.data(), 32 * 1024, Datatype::kByte, 0, 0, w);
                     EXPECT_TRUE(check_pattern(small, 1));
                     EXPECT_TRUE(check_pattern(large, 2));
                   }
                 });
}

TEST(Hybrid, CrossNetworkOrderingPreserved) {
  // Alternate small (SCRAMNet) and large (Myrinet) messages with the same
  // tag; MPI matching is FIFO per (src,tag), so delivery must stay in send
  // order even though the big ones take a different wire.
  run_hybrid_mpi(2, TcpFabricKind::kMyrinet, kThreshold,
                 [](sim::Process&, Mpi& mpi) {
                   const Comm& w = mpi.world();
                   constexpr int kN = 12;
                   if (mpi.rank(w) == 0) {
                     for (int i = 0; i < kN; ++i) {
                       const u32 n = (i % 2 == 0) ? 16u : 8000u;
                       std::vector<u8> msg(n);
                       fill_pattern(msg, static_cast<u32>(i));
                       mpi.send(msg.data(), n, Datatype::kByte, 1, 5, w);
                     }
                   } else {
                     for (int i = 0; i < kN; ++i) {
                       const u32 n = (i % 2 == 0) ? 16u : 8000u;
                       std::vector<u8> buf(n);
                       MpiStatus st =
                           mpi.recv(buf.data(), n, Datatype::kByte, 0, 5, w);
                       ASSERT_EQ(st.count_bytes, n)
                           << "message " << i << " out of order across networks";
                       ASSERT_TRUE(check_pattern(buf, static_cast<u32>(i)));
                     }
                   }
                 });
}

TEST(Hybrid, CollectivesStayOnScramnet) {
  run_hybrid_mpi(4, TcpFabricKind::kMyrinet, kThreshold,
                 [](sim::Process&, Mpi& mpi) {
                   mpi.set_bcast_algo(CollAlgo::kNativeMcast);
                   mpi.set_barrier_algo(CollAlgo::kNativeMcast);
                   const Comm& w = mpi.world();
                   std::vector<u8> buf(256);
                   if (mpi.rank(w) == 0) fill_pattern(buf, 9);
                   mpi.bcast(buf.data(), 256, Datatype::kByte, 0, w);
                   EXPECT_TRUE(check_pattern(buf, 9));
                   mpi.barrier(w);
                 });
}

TEST(Hybrid, LatencyTracksScramnetForSmall) {
  auto oneway = [](u32 bytes) {
    SimTime t0 = 0, t1 = 0;
    run_hybrid_mpi(2, TcpFabricKind::kMyrinet, kThreshold,
                   [&](sim::Process& p, Mpi& mpi) {
                     const Comm& w = mpi.world();
                     std::vector<u8> buf(std::max<u32>(bytes, 1));
                     if (mpi.rank(w) == 0) {
                       t0 = p.now();
                       mpi.send(buf.data(), bytes, Datatype::kByte, 1, 0, w);
                     } else {
                       mpi.recv(buf.data(), bytes, Datatype::kByte, 0, 0, w);
                       t1 = p.now();
                     }
                   });
    return to_us(t1 - t0);
  };
  // Small messages: near SCRAMNet-MPI latency (well under Myrinet TCP's).
  EXPECT_LT(oneway(4), 60.0);
  // Large messages: near Myrinet speed -- far faster than SCRAMNet's ring
  // (64 KB over 16.7 MB/s would be ~3900 us).
  EXPECT_LT(oneway(64 * 1024), 2600.0);
}

TEST(Hybrid, TrafficSplitMatchesThreshold) {
  // Count which device carried what via a hand-built pair of ranks.
  sim::Simulation sim;
  scramnet::Ring ring(sim, scramnet::RingConfig{});
  netmodels::Fabric fabric(sim, 2, netmodels::LinkConfig::myrinet());
  u64 low = 0, high = 0;
  for (u32 r = 0; r < 2; ++r) {
    sim.spawn("rank" + std::to_string(r), [&, r](sim::Process& p) {
      scramnet::SimHostPort port(ring, r, p);
      bbp::Endpoint ep(port, 2, r);
      BbpChannel lowdev(ep);
      netmodels::TcpStack stack(fabric, r, netmodels::TcpConfig::myrinet());
      SockChannel highdev(stack, p, 2);
      HybridChannel dev(lowdev, highdev, kThreshold);
      Mpi mpi(dev);
      const Comm& w = mpi.world();
      if (r == 0) {
        std::vector<u8> msg(16 * 1024);
        for (int i = 0; i < 3; ++i)
          mpi.send(msg.data(), 100, Datatype::kByte, 1, 0, w);
        for (int i = 0; i < 2; ++i)
          mpi.send(msg.data(), 16 * 1024, Datatype::kByte, 1, 0, w);
        low = dev.low_packets();
        high = dev.high_packets();
      } else {
        std::vector<u8> buf(16 * 1024);
        for (int i = 0; i < 3; ++i)
          mpi.recv(buf.data(), 100, Datatype::kByte, 0, 0, w);
        for (int i = 0; i < 2; ++i)
          mpi.recv(buf.data(), 16 * 1024, Datatype::kByte, 0, 0, w);
      }
    });
  }
  sim.run();
  EXPECT_EQ(low, 3u);
  EXPECT_EQ(high, 2u);
}

TEST(Hybrid, FuzzRandomSizesAcrossThreshold) {
  // Random message sizes straddling the split point, same tag, both
  // directions concurrently: strict per-(src,tag) FIFO and bit-exact
  // payloads must survive the dual-rail split.
  constexpr int kMsgs = 60;
  run_hybrid_mpi(2, TcpFabricKind::kMyrinet, kThreshold,
                 [](sim::Process&, Mpi& mpi) {
                   const Comm& w = mpi.world();
                   const u32 me = static_cast<u32>(mpi.rank(w));
                   const u32 peer = 1 - me;
                   // Both sides derive the identical size plan per sender.
                   auto size_of = [](u32 sender, int i) {
                     Rng rng(sender * 7919u + static_cast<u32>(i));
                     return 1u + static_cast<u32>(rng.below(3 * kThreshold));
                   };
                   std::vector<Request> sends;
                   std::vector<std::vector<u8>> outs(kMsgs);
                   for (int i = 0; i < kMsgs; ++i) {
                     outs[static_cast<usize>(i)].resize(size_of(me, i));
                     fill_pattern(outs[static_cast<usize>(i)],
                                  me * 1000 + static_cast<u32>(i));
                     sends.push_back(mpi.isend(outs[static_cast<usize>(i)].data(),
                                               size_of(me, i), Datatype::kByte,
                                               static_cast<i32>(peer), 3, w));
                   }
                   for (int i = 0; i < kMsgs; ++i) {
                     const u32 n = size_of(peer, i);
                     std::vector<u8> buf(n);
                     MpiStatus st = mpi.recv(buf.data(), n, Datatype::kByte,
                                             static_cast<i32>(peer), 3, w);
                     ASSERT_EQ(st.count_bytes, n) << "order broken at " << i;
                     ASSERT_TRUE(check_pattern(buf, peer * 1000 + static_cast<u32>(i)));
                   }
                   mpi.waitall(sends, w);
                 });
}

}  // namespace
}  // namespace scrnet::scrmpi
