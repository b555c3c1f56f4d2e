// The benchmark's three workloads. Each runs a fixed amount of work through
// the public functions of harness, sweep, scramnet, bbp and scrmpi, checks
// every virtual-time result, and reports the deterministic cost counts the
// layers published for it.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "golden.h"
#include "spans.h"

namespace perfbench {

using scrnet::u64;

enum class Workload { kPaperSuite, kRingStream, kLargeNSync };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Named counts, summed over every simulation of an iteration.
using Tally = std::map<std::string, double>;

/// The counts that must repeat exactly for a given seed: across two runs,
/// between traced and untraced runs and at any sweep worker count.
inline const std::vector<std::string>& deterministic_counts() {
  static const std::vector<std::string> names{
      "sim.events", "bbp.polls", "ring.packets", "mpi.packets_handled",
      "net.frames_delivered"};
  return names;
}

struct Context {
  u64 seed = 1;
  u64 iteration = 0;   // paper_suite draws a fresh submission order per iteration
  u32 sweep_jobs = 1;  // workers for paper_suite's sweep::Runner
  SpanLog* spans = nullptr;
  GoldenSet* golden = nullptr;
};

struct IterResult {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;  // first few failure messages
  Tally counts;
  /// Mean |sim - paper| / paper in percent over the paper's headline points
  /// this workload contains; unset when it contains none.
  std::optional<double> paper_err_pct;
  // Host time of the sweep jobs, measured in every run.
  std::vector<double> job_s;  // execution time of each job (one simulation)
  std::map<std::string, std::vector<double>> host;  // named host-time samples
  double sweep_wall_s = 0;
  u32 sweep_workers = 1;

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

/// Sweep workers the workload runs its simulations on.
u32 worker_threads(Workload w, const Context& ctx);

/// One iteration of the workload's fixed work.
IterResult run_iteration(Workload w, const Context& ctx);

/// Host seconds of one zero-op harness::run_* at each of the workload's
/// cluster shapes (build and tear down, no traffic).
double run_setup_once(Workload w);

}  // namespace perfbench
