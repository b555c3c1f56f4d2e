// perfbench: the repository benchmark. One command, one process:
//
//   perfbench --workload <paper_suite|ring_stream|large_n_sync> --seed <n>
//             --seconds <s> --trace <0|1> [--golden-dir DIR] [--trace-out FILE]
//   perfbench --selftest --seed <n> [--golden-dir DIR]
//
// A run first times the workload's set-up (zero-op clusters) several times,
// then repeats the workload's fixed work until --seconds have passed and
// reports medians, calibrated for host speed (calibration.h). --trace 0
// prints the end-to-end metrics; --trace 1
// alternates untraced and traced iterations and prints the per-layer
// metrics. Every virtual-time result is checked; the last stdout line is a
// JSON object {"correct","attempted","failed","metrics"}. The exit code is
// non-zero when any check fails.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibration.h"
#include "obs/counters.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// Environment knobs of the simulator that would change what is measured.
constexpr const char* kPinnedEnv[] = {
    "SCRNET_JOBS",           "SCRNET_SIM_JOBS",       "SCRNET_SIM_SKEW",
    "SCRNET_SIM_FORCE_WORKERS", "SCRNET_RNDV_EAGER_MAX", "SCRNET_COLL_TABLE",
    "SCRNET_TRACE",          "SCRNET_COUNTERS"};

// glibc's malloc, pinned to a fixed mmap threshold. At its adaptive defaults
// whether a 4 MiB ring bank is mmap'd and faulted in afresh or reuses freed
// heap depends on the allocation history, and set-up and paper_suite times
// swung by a quarter between otherwise identical runs. A fixed threshold
// turns the adaptation off: every bank is mapped and faulted in every time,
// so that cost is always measured.
constexpr const char* kMallocTunables = "glibc.malloc.mmap_threshold=1048576";

/// Some of these are read during static initialisation (and the malloc
/// tunables at process start), so setting them here is not enough:
/// re-execute with the pinned environment. Returns once it is in place.
void pin_environment(char** argv) {
  bool changed = false;
  for (const char* name : kPinnedEnv)
    if (std::getenv(name)) {
      unsetenv(name);
      changed = true;
    }
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  if (!tunables || std::strcmp(tunables, kMallocTunables) != 0) {
    setenv("GLIBC_TUNABLES", kMallocTunables, 1);
    changed = true;
  }
  if (!changed) return;
  execv("/proc/self/exe", argv);
  std::perror("perfbench: re-exec with the pinned environment");
  std::exit(2);
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string golden_dir = "bench/golden";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--golden-dir DIR] [--trace-out FILE]\n"
               "       perfbench --selftest --seed N [--golden-dir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = std::stoull(val());
    else if (a == "--seconds") o.seconds = std::stod(val());
    else if (a == "--trace") o.trace = val() != "0";
    else if (a == "--golden-dir") o.golden_dir = val();
    else if (a == "--trace-out") o.trace_out = val();
    else if (a == "--selftest") o.selftest = true;
    else usage("unknown argument " + a);
  }
  return o;
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

u32 nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Current resident memory, from /proc/self/statm; 0 if it cannot be read.
double rss_mb() {
  std::ifstream is("/proc/self/statm");
  u64 size = 0, resident = 0;
  if (!(is >> size >> resident)) return 0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One timed iteration.
struct Timed {
  IterResult r;
  double wall_s = 0;
  double cpu_s = 0;
  bool traced = false;
  std::vector<Span> spans;
};

Timed timed_iteration(Workload w, const Context& ctx) {
  Timed t;
  t.traced = ctx.spans->on();
  const double c0 = cpu_seconds();
  const i64 w0 = now_ns();
  t.r = run_iteration(w, ctx);
  t.wall_s = static_cast<double>(now_ns() - w0) / 1e9;
  t.cpu_s = cpu_seconds() - c0;
  t.spans = ctx.spans->take();
  return t;
}

/// Compares the deterministic counts of `b` against `a`; returns mismatches.
std::vector<std::string> count_mismatches(const Tally& a, const Tally& b) {
  std::vector<std::string> out;
  for (const std::string& k : deterministic_counts()) {
    const double x = a.count(k) ? a.at(k) : -1, y = b.count(k) ? b.at(k) : -1;
    if (x != y) {
      std::ostringstream os;
      os << k << " " << std::setprecision(15) << x << " != " << y;
      out.push_back(os.str());
    }
  }
  return out;
}

/// Durations (ms) of the spans called `name`, optionally only at rank 0.
std::vector<double> span_ms(const std::vector<Timed>& its, const char* name, bool rank0_only) {
  std::vector<double> ms;
  for (const Timed& t : its)
    for (const Span& s : t.spans)
      if (std::strcmp(s.name, name) == 0 && (!rank0_only || s.rank == 0)) ms.push_back(s.ms());
  return ms;
}

std::vector<Metric> per_layer_metrics(const std::vector<Timed>& untraced,
                                      const std::vector<Timed>& traced, double setup_s) {
  const Tally& c = traced.front().r.counts;
  auto n = [&](const char* k) { return c.at(k); };
  std::vector<double> job_ms, per_iter_job_s, busy, longest, untraced_wall;
  std::map<std::string, std::vector<double>> host;
  for (const Timed& t : untraced) {
    for (double s : t.r.job_s) job_ms.push_back(s * 1e3);
    per_iter_job_s.push_back(sum(t.r.job_s));
    busy.push_back(ratio(sum(t.r.job_s), t.r.sweep_wall_s * t.r.sweep_workers));
    longest.push_back(*std::max_element(t.r.job_s.begin(), t.r.job_s.end()));
    untraced_wall.push_back(t.wall_s);
    for (const auto& [k, v] : t.r.host) host[k].insert(host[k].end(), v.begin(), v.end());
  }
  std::vector<double> traced_wall;
  for (const Timed& t : traced) traced_wall.push_back(t.wall_s);
  const double wall = median(untraced_wall);
  const IterResult& r0 = traced.front().r;

  std::vector<Metric> m{
      {"sim.events", n("sim.events"), "count"},
      {"sim.ns_per_event", ratio(median(per_iter_job_s) * 1e9, n("sim.events")), "ns"},
  };
  for (const char* s : {"fixed4_64k", "fixed4_128k", "fixed4_256k"}) {
    const std::string k = std::string("sim.ns_per_event.") + s;
    m.push_back({k, host.count(k) ? median(host[k]) : 0.0, "ns"});
  }
  for (const char* k : {"sim.queue.overflow_posted", "sim.queue.max_calendar",
                        "sim.queue.heap_fallback", "sim.stacks_mapped", "sim.stacks_reused",
                        "ring.packets", "ring.words"})
    m.push_back({k, n(k), "count"});
  m.push_back({"ring.events_per_packet", ratio(n("sim.events"), n("ring.packets")), "ratio"});
  m.push_back({"bbp.polls", n("bbp.polls"), "count"});
  m.push_back({"bbp.polls_per_recv", ratio(n("bbp.polls"), n("bbp.recvs")), "ratio"});
  m.push_back({"bbp.polls_per_event", ratio(n("bbp.polls"), n("sim.events")), "ratio"});
  m.push_back({"bbp.polls_per_event.n256", ratio(n("bbp.polls.n256"), n("sim.events.n256")),
               "ratio"});
  for (const char* k : {"bbp.send_stalls", "bbp.gc_runs", "bbp.slots_reclaimed", "bbp.timeouts",
                        "mpi.packets_handled"})
    m.push_back({k, n(k), "count"});
  m.push_back({"mpi.packets_per_op", ratio(n("mpi.packets_handled"), n("mpi.ops")), "ratio"});
  const std::vector<double> barrier = span_ms(traced, "mpi.barrier", true);
  const std::vector<double> bcast = span_ms(traced, "bbp.bcast", false);
  m.push_back({"mpi.barrier_host_ms", median(barrier), "ms"});
  m.push_back({"mpi.barrier_host_ms_max", percentile(barrier, 100), "ms"});
  m.push_back({"bbp.bcast_host_ms", median(bcast), "ms"});
  m.push_back({"bbp.bcast_host_ms_max", percentile(bcast, 100), "ms"});
  m.push_back({"net.frames_delivered", n("net.frames_delivered"), "count"});
  m.push_back({"net.frames_dropped", n("net.frames_dropped"), "count"});
  m.push_back({"harness.setup_ms", setup_s * 1e3, "ms"});
  m.push_back({"harness.point_ms_p50", percentile(job_ms, 50), "ms"});
  m.push_back({"harness.point_ms_p90", percentile(job_ms, 90), "ms"});
  m.push_back({"harness.points", static_cast<double>(job_ms.size()), "count"});
  m.push_back({"sweep.jobs", static_cast<double>(r0.job_s.size()), "count"});
  m.push_back({"sweep.busy_frac", median(busy), "ratio"});
  m.push_back({"sweep.longest_job_s", median(longest), "s"});
  m.push_back({"trace.overhead_pct", ratio(median(traced_wall) - wall, wall) * 100.0, "%"});
  return m;
}

void print_result(bool correct, u64 attempted, u64 failed, const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << std::setprecision(15) << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i)
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << ms[i].value
       << ", \"unit\": \"" << ms[i].unit << "\"}";
  os << "}}";
  std::cout << os.str() << std::endl;
}

int selftest(const Options& opt, GoldenSet& golden) {
  SpanLog spans;
  int bad = 0;
  for (Workload w : {Workload::kPaperSuite, Workload::kRingStream, Workload::kLargeNSync}) {
    Context ctx{
      .seed = opt.seed, .sweep_jobs = std::min(4u, nproc()), .spans = &spans, .golden = &golden};
    std::vector<std::pair<std::string, IterResult>> runs;
    runs.emplace_back("untraced", run_iteration(w, ctx));
    runs.emplace_back("untraced again", run_iteration(w, ctx));
    spans.set_on(true);
    runs.emplace_back("traced", run_iteration(w, ctx));
    spans.set_on(false);
    (void)spans.take();
    if (w == Workload::kPaperSuite) {
      ctx.sweep_jobs = 1;
      runs.emplace_back("1 sweep worker", run_iteration(w, ctx));
    }
    for (const auto& [label, r] : runs) {
      for (const std::string& e : r.errors)
        std::cout << "FAIL " << workload_name(w) << " (" << label << "): " << e << "\n";
      bad += r.failed > 0;
      for (const std::string& e : count_mismatches(runs.front().second.counts, r.counts)) {
        std::cout << "FAIL " << workload_name(w) << " (" << label << "): " << e << "\n";
        ++bad;
      }
    }
    for (const std::string& k : deterministic_counts())
      std::cout << "count " << workload_name(w) << " " << k << " " << std::setprecision(15)
                << runs.front().second.counts.at(k) << "\n";
  }
  std::cout << (bad ? "selftest FAILED\n" : "selftest ok\n");
  return bad ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  pin_environment(argv);
  const Options opt = parse(argc, argv);
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to measure an unoptimised build (" << PERFBENCH_BUILD_TYPE
            << ")\n";
  return 2;
#endif
  std::cout << "env nproc=" << nproc() << " cpu=\"" << cpu_model()
            << "\" build=" << PERFBENCH_BUILD_TYPE << "\n";
  scrnet::obs::Counters::global().enable(true);
  GoldenSet golden(opt.golden_dir);
  if (opt.selftest) return selftest(opt, golden);

  const auto w = parse_workload(opt.workload);
  if (!w) usage("unknown workload '" + opt.workload + "'");
  if (opt.seconds <= 0) usage("--seconds must be positive");
  // A hung simulation must not outlive the run: SIGALRM's default action
  // ends the process with a non-zero status and no result line.
  alarm(static_cast<unsigned>(opt.seconds * 3 + 100));
  if (!golden.get("fig1_latency")) {
    std::cerr << "perfbench: no golden tables under " << opt.golden_dir << "\n";
    return 2;
  }

  // Set-up: zero-op clusters, timed for about a second (at least three
  // times) up front and again after every iteration for a tenth of its
  // wall time, so the samples span the whole run like the iterations do.
  // The calibration kernel runs before every batch of set-up samples and
  // every iteration, on one thread (core_ms) and on as many threads as the
  // workload's sweep (wide_ms). Medians are reported.
  SpanLog spans;
  Context ctx{
      .seed = opt.seed, .sweep_jobs = std::min(4u, nproc()), .spans = &spans, .golden = &golden};
  const u32 workers = worker_threads(*w, ctx);
  Calibration calib(workers);
  std::vector<double> setup, core_ms, wide_ms;
  auto calibrate = [&] {
    core_ms.push_back(calib.measure_ms(1));
    wide_ms.push_back(workers == 1 ? core_ms.back() : calib.measure_ms(workers));
  };
  auto time_setup = [&](double budget_s, std::size_t min_reps) {
    calibrate();
    double total = 0;
    for (std::size_t n = 0; n < min_reps || total < budget_s; ++n) {
      setup.push_back(run_setup_once(*w));
      total += setup.back();
    }
  };
  for (int i = 0; i < 2; ++i) calibrate();
  // The benchmark's own memory (binary, golden tables, calibration buffers)
  // is resident from here on; peak_rss_mb reports the peak above it.
  const double baseline_rss_mb = rss_mb();
  time_setup(1.0, 3);

  // Fixed work, repeated until --seconds have passed. Iteration 0 warms
  // the allocator and page cache; it is checked but not timed. The traced
  // run alternates untraced and traced iterations.
  const std::size_t min_each = opt.trace ? 2 : 5;
  std::vector<Timed> untraced, traced;
  u64 attempted = 0, failed = 0;
  std::vector<std::string> errors;
  Tally warmup_counts;
  i64 start = 0;
  for (std::size_t i = 0;; ++i) {
    const bool elapsed = i > 0 && static_cast<double>(now_ns() - start) / 1e9 >= opt.seconds;
    if (elapsed && untraced.size() >= min_each && (!opt.trace || traced.size() >= min_each))
      break;
    if (i == 1) start = now_ns();
    spans.set_on(opt.trace && i % 2 == 0 && i > 0);
    ctx.iteration = i;
    calibrate();
    Timed t = timed_iteration(*w, ctx);
    attempted += t.r.attempted;
    failed += t.r.failed;
    errors.insert(errors.end(), t.r.errors.begin(), t.r.errors.end());
    if (i == 0) warmup_counts = t.r.counts;
    for (std::string& e : count_mismatches(warmup_counts, t.r.counts)) {
      ++failed;
      errors.push_back("count changed between iterations: " + e);
    }
    std::cout << std::setprecision(6) << "iteration " << i
              << (i == 0 ? " warm-up" : t.traced ? " traced" : "") << " wall_s " << t.wall_s
              << " cpu_s " << t.cpu_s << " calibration_ms " << core_ms.back() << " "
              << wide_ms.back() << "\n";
    if (i == 0) continue;
    time_setup(0.1 * t.wall_s, 1);
    (t.traced ? traced : untraced).push_back(std::move(t));
  }
  // Wall time scales with the host's speed on the workload's threads; CPU
  // time and the single-threaded set-up with its speed on one core.
  const double wall_scale = Calibration::kReferenceMs / median(wide_ms);
  const double core_scale = Calibration::kReferenceMs / median(core_ms);
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i)
    std::cout << "FAIL " << errors[i] << "\n";

  std::vector<Metric> metrics;
  if (!opt.trace) {
    std::vector<double> wall, cpu;
    for (const Timed& t : untraced) {
      wall.push_back(t.wall_s);
      cpu.push_back(t.cpu_s);
    }
    metrics = {{"wall_s", median(wall) * wall_scale, "s"},
               {"setup_s", median(setup) * core_scale, "s"},
               {"cpu_s", median(cpu) * core_scale, "s"},
               {"peak_rss_mb", peak_rss_mb() - baseline_rss_mb, "MB"}};
    std::cout << "raw wall_s " << median(wall) << " setup_s " << median(setup) << " cpu_s "
              << median(cpu) << " (uncalibrated); baseline_rss_mb " << baseline_rss_mb << "\n";
  } else {
    metrics = per_layer_metrics(untraced, traced, median(setup));
    if (!opt.trace_out.empty()) {
      std::vector<Span> all;
      for (const Timed& t : traced) all.insert(all.end(), t.spans.begin(), t.spans.end());
      if (!SpanLog::write_json(opt.trace_out, all))
        std::cerr << "perfbench: cannot write " << opt.trace_out << "\n";
    }
  }

  std::cout << std::setprecision(6) << "workload " << opt.workload << " seed " << opt.seed
            << " iterations " << untraced.size() << "+" << traced.size()
            << " calibration_kernel_ms " << median(core_ms) << " (1 thread) " << median(wide_ms)
            << " (" << workers << (workers == 1 ? " thread)\n" : " threads)\n");
  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " " << m.value << " " << m.unit << "\n";
  std::cout << "metric fail_ratio "
            << ratio(static_cast<double>(failed), static_cast<double>(attempted)) << " ratio\n";
  const auto& err = untraced.front().r.paper_err_pct;
  if (err) std::cout << "metric paper_err_pct " << *err << " %\n";
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}
