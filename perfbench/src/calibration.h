// Host-speed calibration for the end-to-end times.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent over minutes (neighbours' load on the same cores and memory). The
// drift moves every timing of a run together and is larger than any bound a
// regression check could use. The benchmark therefore times a fixed
// reference kernel that shares no code with the simulator (a sort of 256 Ki
// keys and a 16 MiB copy, twice) before every iteration and every batch of
// set-up samples, once on one thread and once on as many threads as the
// workload's sweep. It scales the run's median times by kReferenceMs / (the
// kernel's median time): wall time by the kernel on the workload's threads,
// CPU and set-up time by the kernel on one thread. They read as seconds of a
// host on which the kernel takes kReferenceMs. A change to the simulator
// cannot change the kernel, so it cannot hide in the scale; the raw times are
// printed next to the calibrated ones.
#pragma once

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "spans.h"

namespace perfbench {

class Calibration {
 public:
  /// The kernel's time on one thread of the 4-core Xeon VM the benchmark was
  /// defined on.
  /// Only the scale of the reported numbers depends on it.
  static constexpr double kReferenceMs = 60.0;

  /// Buffers for up to `max_threads` copies of the kernel.
  explicit Calibration(u32 max_threads)
      : keys_(kKeys), src_(kCopyBytes, 0x5A), lanes_(max_threads) {
    scrnet::Rng rng(0xCA11B);
    for (u32& k : keys_) k = static_cast<u32>(rng());
  }

  /// Runs `threads` copies of the kernel at once, each on its own thread;
  /// returns the host time in ms until the last one finished. Run on as many
  /// threads as a workload, the kernel gets the same share of the host's
  /// cores as the workload does.
  double measure_ms(u32 threads) {
    const i64 t0 = now_ns();
    std::vector<std::thread> running;
    for (u32 i = 0; i < threads && i < lanes_.size(); ++i)
      running.emplace_back([this, i] { lanes_[i].run(keys_, src_); });
    for (std::thread& t : running) t.join();
    return static_cast<double>(now_ns() - t0) / 1e6;
  }

 private:
  static constexpr std::size_t kKeys = std::size_t{1} << 18;
  static constexpr std::size_t kCopyBytes = std::size_t{16} << 20;

  /// One thread's buffers.
  struct Lane {
    std::vector<u32> work;
    std::vector<scrnet::u8> dst = std::vector<scrnet::u8>(kCopyBytes);

    void run(const std::vector<u32>& keys, const std::vector<scrnet::u8>& src) {
      for (int rep = 0; rep < 2; ++rep) {
        work = keys;
        std::sort(work.begin(), work.end());
        std::memcpy(dst.data(), src.data(), kCopyBytes);
      }
    }
  };

  std::vector<u32> keys_;
  std::vector<scrnet::u8> src_;
  std::vector<Lane> lanes_;
};

}  // namespace perfbench
