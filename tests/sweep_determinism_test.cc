// sweep::Runner: job-queue correctness and the bit-identical
// determinism contract. The stress cases deliberately run multi-fiber
// simulations on many worker threads at once -- the exact configuration
// the ThreadSanitizer CI job checks (fibers carry TSan annotations, so the
// scheduler under test is the production one).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/benchops.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "sweep/runner.h"

namespace scrnet {
namespace {

using sweep::Runner;

/// A BBP one-way latency series (4 nodes), one runner job per size.
std::vector<double> oneway_sweep(Runner& r, const std::vector<u32>& sizes,
                                 u32 iters, u32 warmup) {
  return r.map("bbp_oneway", sizes, [=](u32 bytes) {
    return harness::bbp_oneway_us(bytes, 4, iters, warmup);
  });
}

TEST(Runner, InlineWhenJobsIsOne) {
  Runner r(1);
  EXPECT_EQ(r.jobs(), 1u);
  auto f = r.submit([] { return 42; });
  // jobs==1 runs at submit time, so the future is ready before get().
  EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get(), 42);
}

TEST(Runner, ResultsArriveInSubmissionOrder) {
  Runner r(4);
  std::vector<sweep::Future<int>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(r.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[static_cast<usize>(i)].get(), i * i);
}

TEST(Runner, ExceptionsRethrowAtGet) {
  Runner r(2);
  auto ok = r.submit([] { return 1; });
  auto bad = r.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 1);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(Runner, DestructorDrainsOutstandingWork) {
  std::atomic<int> ran{0};
  {
    Runner r(4);
    for (int i = 0; i < 64; ++i)
      (void)r.submit([&ran] { return ++ran; });
    // Futures dropped on the floor: the destructor must still run all 64.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(Runner, MapPreservesElementOrder) {
  Runner r(4);
  const std::vector<u32> xs{5, 3, 9, 1, 7, 2, 8};
  const auto ys = r.map("sq", xs, [](u32 x) { return x * x; });
  ASSERT_EQ(ys.size(), xs.size());
  for (usize i = 0; i < xs.size(); ++i) EXPECT_EQ(ys[i], xs[i] * xs[i]);
}

// The determinism contract on real simulations: a latency sweep at jobs=8
// must be byte-identical (exact doubles) to the jobs=1 sequential
// baseline, regardless of completion order.
TEST(SweepDeterminism, ParallelMatchesSequentialBitExact) {
  const std::vector<u32> sizes{0, 4, 16, 64, 256};
  Runner seq(1), par(8);
  const auto a = oneway_sweep(seq, sizes, 4, 1);
  const auto b = oneway_sweep(par, sizes, 4, 1);
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    // Bit-exact, not approximately equal.
    EXPECT_EQ(a[i], b[i]) << "size index " << i;
  }
}

// Shuffled heterogeneous workload: big jobs submitted first so completion
// order inverts submission order on a multi-worker pool. Results must
// still come back in submission order.
TEST(SweepDeterminism, CompletionOrderInversionIsInvisible) {
  std::vector<u32> sizes{1000, 750, 512, 256, 64, 16, 4, 0};
  Runner seq(1), par(8);
  const auto a = oneway_sweep(seq, sizes, 4, 1);
  const auto b = oneway_sweep(par, sizes, 4, 1);
  for (usize i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// 64 multi-fiber simulations over 8 workers. Each job spins up a 4-node
// cluster (dozens of fibers and their thread_local switch state) -- the
// stress case for rule 2 of the determinism contract.
TEST(SweepDeterminism, StressManyJobsFewWorkers) {
  std::vector<u32> sizes;
  for (u32 i = 0; i < 64; ++i) sizes.push_back((i % 16) * 32);
  Runner seq(1), par(8);
  const auto a = oneway_sweep(seq, sizes, 2, 1);
  const auto b = oneway_sweep(par, sizes, 2, 1);
  ASSERT_EQ(a.size(), 64u);
  for (usize i = 0; i < 64; ++i) EXPECT_EQ(a[i], b[i]) << "job " << i;
}

/// 8-rank BBP neighbor exchange; every rank's finish time plus the run's
/// final time -- the run's whole observable timestamp surface. `stagger`
/// offsets each rank's start; without it every rank requests the medium
/// at identical picoseconds, so the ring's node-ordered arbitration
/// decides every tie.
std::vector<SimTime> bbp_ring_times(bool stagger) {
  constexpr u32 kNodes = 8;
  std::vector<SimTime> done(kNodes, 0);
  const SimTime end = harness::run_scramnet_bbp(
      kNodes, [&](sim::Process& p, bbp::Endpoint& ep) {
        const u32 me = ep.rank();
        const u32 right = (me + 1) % kNodes;
        const u32 left = (me + kNodes - 1) % kNodes;
        if (stagger) p.delay(ns(73) * (me + 1));
        std::vector<u8> msg(96, static_cast<u8>(me));
        std::vector<u8> buf(96);
        for (u32 i = 0; i < 20; ++i) {
          ASSERT_TRUE(ep.send(right, msg).ok());
          ASSERT_TRUE(ep.recv(left, buf).ok());
          EXPECT_EQ(buf[0], static_cast<u8>(left));
        }
        done[me] = p.now();
      });
  done.push_back(end);
  return done;
}

TEST(RunDeterminism, BbpRingExchangeRepeatsBitExactly) {
  for (bool stagger : {true, false}) {
    const std::vector<SimTime> ref = bbp_ring_times(stagger);
    EXPECT_EQ(bbp_ring_times(stagger), ref) << "stagger=" << stagger;
  }
}

/// 8-rank MPI pairwise sendrecv (partners me ^ 1); per-rank finish times
/// plus the run's final time.
std::vector<SimTime> mpi_exchange_times() {
  constexpr u32 kNodes = 8;
  std::vector<SimTime> done(kNodes, 0);
  const SimTime end = harness::run_scramnet_mpi(
      kNodes, [&](sim::Process& p, scrmpi::Mpi& mpi) {
        const scrmpi::Comm& w = mpi.world();
        const int me = mpi.rank(w);
        const int peer = me ^ 1;
        for (int i = 0; i < 10; ++i) {
          int mine = me * 100 + i, theirs = -1;
          mpi.sendrecv(&mine, 1, scrmpi::Datatype::kInt32, peer, 0, &theirs, 1,
                       scrmpi::Datatype::kInt32, peer, 0, w);
          EXPECT_EQ(theirs, peer * 100 + i);
        }
        done[static_cast<u32>(me)] = p.now();
      });
  done.push_back(end);
  return done;
}

TEST(RunDeterminism, MpiPairwiseExchangeRepeatsBitExactly) {
  const std::vector<SimTime> ref = mpi_exchange_times();
  EXPECT_EQ(mpi_exchange_times(), ref);
}

// Each job gets a private obs sink: events recorded inside a job are
// invisible to the global sink and to sibling jobs.
TEST(SweepSinks, PerRunSinkIsolation) {
  obs::Tracer::global().clear();
  obs::Tracer::global().enable(true);
  Runner r(4);
  std::vector<sweep::Future<usize>> futs;
  for (int i = 0; i < 16; ++i)
    futs.push_back(r.submit("iso", [] {
      obs::Tracer::current().instant(obs::Layer::kSim, 0, "in-job", 0);
      // Exactly the events this job wrote, nobody else's.
      return obs::Tracer::current().events();
    }));
  for (auto& f : futs) EXPECT_EQ(f.get(), 1u);
  EXPECT_EQ(obs::Tracer::global().events(), 0u);
  obs::Tracer::global().enable(false);
}

// Labeled sinks flush to "<base>.<label>" so two concurrently finishing
// runs can never interleave one JSON document.
TEST(SweepSinks, LabeledFlushWritesSuffixedFile) {
  obs::Tracer::global().enable(true);
  obs::Sink sink("flushcheck-0001");
  {
    obs::Sink::Scope scope(sink);
    obs::Tracer::current().instant(obs::Layer::kSim, 0, "evt", 0);
  }
  const std::string base = ::testing::TempDir() + "sweep_trace.json";
  ASSERT_TRUE(sink.flush_trace_to(base));
  const std::string path = base + ".flushcheck-0001";
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << path;
  std::fclose(f);
  std::remove(path.c_str());
  obs::Tracer::global().enable(false);
}

// A job that throws still flushes its labeled sink. SCRNET_TRACE is read
// once at process start, so the job runs in a death-test child re-executed
// with the variable set; the parent then looks for "<base>.<label>".
TEST(SweepSinks, ThrowingJobStillFlushesItsSink) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "sweep_throw_flush";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string base = (dir / "trace.json").string();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_EQ(setenv("SCRNET_TRACE", base.c_str(), 1), 0);
  EXPECT_EXIT(
      {
        Runner r(2);
        auto f = r.submit("boom", []() -> int {
          obs::Tracer::current().instant(obs::Layer::kSim, 0, "pre-throw", 0);
          throw std::runtime_error("boom");
        });
        try {
          (void)f.get();
        } catch (const std::runtime_error&) {
          std::exit(0);
        }
        std::exit(1);
      },
      ::testing::ExitedWithCode(0), "");
  unsetenv("SCRNET_TRACE");
  std::vector<std::string> files;
  for (const auto& e : fs::directory_iterator(dir))
    files.push_back(e.path().filename().string());
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].rfind("trace.json.boom-", 0), 0u) << files[0];
  fs::remove_all(dir);
}

// A simulation constructed inside a job publishes into that job's sink
// (Simulation captures Sink::current() at construction).
TEST(SweepSinks, SimulationBindsToJobSink) {
  Runner r(2);
  auto f = r.submit("bind", [] {
    sim::Simulation sim;
    return &sim.sink() == &obs::Sink::current() &&
           !obs::Sink::current().is_global();
  });
  EXPECT_TRUE(f.get());
  // Outside any job, new simulations bind to the global sink.
  sim::Simulation sim;
  EXPECT_TRUE(&sim.sink() == &obs::Sink::global());
}

}  // namespace
}  // namespace scrnet
