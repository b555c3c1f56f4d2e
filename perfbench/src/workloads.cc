#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <numeric>
#include <span>

#include "common/rng.h"
#include "common/table.h"
#include "harness/benchops.h"
#include "harness/cluster.h"
#include "obs/counters.h"
#include "obs/sink.h"
#include "scramnet/ring.h"
#include "sweep/runner.h"

namespace perfbench {

using namespace scrnet;
using harness::TcpFabricKind;
using scrmpi::CollAlgo;

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kPaperSuite, Workload::kRingStream, Workload::kLargeNSync})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPaperSuite: return "paper_suite";
    case Workload::kRingStream: return "ring_stream";
    case Workload::kLargeNSync: return "large_n_sync";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

/// What one sweep job (one simulation) hands back to the main thread.
struct JobOut {
  double value = 0;  // the point's virtual-time result, where it has one
  Tally counts;
  std::map<std::string, double> host;  // host-time samples taken in the job
  u64 attempted = 1;
  std::vector<std::string> errors;  // semantic failures found in the job
  double exec_s = 0;
};

/// Kernel counters snapshotted from inside rank bodies (the harness owns
/// the Simulation). Every field is monotone, so the snapshot of the last
/// rank to finish is the run's value.
struct KernelSnap {
  u64 overflow_posted = 0, max_calendar = 0, heap_fallback = 0;
  u64 stacks_mapped = 0, stacks_reused = 0;

  void take(const sim::Simulation& sim) {
    const auto q = sim.queue_stats();
    const auto s = sim.stack_stats();
    overflow_posted = std::max(overflow_posted, q.overflow_posted);
    max_calendar = std::max(max_calendar, q.max_calendar);
    heap_fallback = std::max(heap_fallback, q.heap_fallback);
    stacks_mapped = std::max<u64>(stacks_mapped, s.mapped);
    stacks_reused = std::max<u64>(stacks_reused, s.reused);
  }

  void add_to(Tally& t) const {
    t["sim.queue.overflow_posted"] += static_cast<double>(overflow_posted);
    t["sim.queue.max_calendar"] =
        std::max(t["sim.queue.max_calendar"], static_cast<double>(max_calendar));
    t["sim.queue.heap_fallback"] += static_cast<double>(heap_fallback);
    t["sim.stacks_mapped"] += static_cast<double>(stacks_mapped);
    t["sim.stacks_reused"] += static_cast<double>(stacks_reused);
  }
};

/// Every count an iteration reports, so each appears even when zero.
Tally empty_tally() {
  Tally t;
  for (const char* k :
       {"sim.events", "sim.queue.overflow_posted", "sim.queue.max_calendar",
        "sim.queue.heap_fallback", "sim.stacks_mapped", "sim.stacks_reused",
        "ring.packets", "ring.words", "bbp.polls", "bbp.recvs", "bbp.send_stalls",
        "bbp.gc_runs", "bbp.slots_reclaimed", "bbp.timeouts",
        "mpi.packets_handled", "mpi.ops", "mpi.op_timeouts",
        "net.frames_delivered", "net.frames_dropped", "sim.events.n256", "bbp.polls.n256"})
    t[k] = 0;
  return t;
}

/// Counts the harness published into this job's obs::Sink.
void read_published(Tally& t, u32 nodes) {
  const obs::Counters& c = obs::Counters::current();
  auto get = [&](const std::string& g, const char* n) {
    return static_cast<double>(c.get(g, n));
  };
  t["sim.events"] += get("sim", "events_executed");
  t["ring.packets"] += get("ring", "packets_sent");
  t["ring.words"] += get("ring", "words_replicated");
  t["net.frames_delivered"] += get("net", "frames_delivered");
  t["net.frames_dropped"] += get("net", "frames_dropped");
  for (u32 r = 0; r < nodes; ++r) {
    const std::string b = "bbp.rank" + std::to_string(r);
    for (const char* n : {"polls", "recvs", "send_stalls", "gc_runs", "slots_reclaimed",
                          "timeouts"})
      t[std::string("bbp.") + n] += get(b, n);
    const std::string m = "mpi.rank" + std::to_string(r);
    t["mpi.packets_handled"] += get(m, "packets_handled");
    t["mpi.op_timeouts"] += get(m, "op_timeouts");
    for (const char* n : {"sends", "recvs", "bcasts", "barriers"})
      t["mpi.ops"] += get(m, n);
  }
}

/// Submits jobs to a sweep::Runner, times each, and folds the results into
/// an IterResult in submission order. A job span runs from submit to get.
class Sweep {
 public:
  Sweep(const Context& ctx, u32 workers, IterResult& out)
      : ctx_(ctx), runner_(workers), out_(out), t0_(now_ns()) {
    out_.sweep_workers = runner_.jobs();
  }

  /// fn(parent_span, sim_id) -> JobOut, run as one job.
  void submit(std::function<JobOut(u32, u32)> fn) {
    const u32 sim = static_cast<u32>(pending_.size()) + 1;
    Pending p;
    p.span.name = "sweep.job";
    p.span.sim = sim;
    if (ctx_.spans->on()) {
      p.span.id = ctx_.spans->next_id();
      p.span.start_ns = now_ns();
    }
    const u32 parent = p.span.id;
    p.fut = runner_.submit("perfbench", [fn = std::move(fn), parent, sim] {
      const i64 t = now_ns();
      JobOut o;
      try {
        o = fn(parent, sim);
      } catch (const std::exception& e) {
        o.errors.push_back(std::string("exception: ") + e.what());
      }
      o.exec_s = static_cast<double>(now_ns() - t) / 1e9;
      return o;
    });
    pending_.push_back(std::move(p));
  }

  /// Collects every job in submission order; check(i, job) may add failures.
  void finish(const std::function<void(usize, JobOut&)>& check = {}) {
    for (usize i = 0; i < pending_.size(); ++i) {
      JobOut o = pending_[i].fut.get();
      if (pending_[i].span.id != 0) {
        pending_[i].span.end_ns = now_ns();
        ctx_.spans->record(pending_[i].span);
      }
      out_.attempted += o.attempted;
      for (auto& e : o.errors) out_.fail(std::move(e));
      if (check) check(i, o);
      for (const auto& [k, v] : o.host) out_.host[k].push_back(v);
      for (const auto& [k, v] : o.counts) {
        if (k == "sim.queue.max_calendar")
          out_.counts[k] = std::max(out_.counts[k], v);
        else
          out_.counts[k] += v;
      }
      out_.job_s.push_back(o.exec_s);
    }
    out_.sweep_wall_s = static_cast<double>(now_ns() - t0_) / 1e9;
  }

 private:
  struct Pending {
    Span span;
    sweep::Future<JobOut> fut;
  };
  const Context& ctx_;
  sweep::Runner runner_;
  IterResult& out_;
  i64 t0_;
  std::vector<Pending> pending_;
};

/// Compare a printed result against its golden cell.
void check_golden(IterResult& r, GoldenSet& golden, const std::string& file,
                  usize table, const std::string& key, const std::string& column,
                  double value) {
  const Golden* g = golden.get(file);
  const auto cell = g ? g->cell(table, key, column) : std::nullopt;
  const std::string got = Table::num(value);
  if (!cell)
    r.fail(file + ": no golden cell [" + key + ", " + column + "]");
  else if (*cell != got)
    r.fail(file + " [" + key + ", " + column + "]: golden " + *cell + ", got " + got);
}

/// Running mean of |sim - paper| / paper, in percent.
struct PaperErr {
  double sum = 0;
  u32 n = 0;
  void add(double sim, double paper) {
    sum += std::fabs(sim - paper) / paper * 100.0;
    ++n;
  }
  std::optional<double> mean() const {
    return n ? std::optional<double>(sum / n) : std::nullopt;
  }
};

// ---------------------------------------------------------------------------
// paper_suite: every point of Figures 1-6, one sweep job per point
// ---------------------------------------------------------------------------

struct PaperPoint {
  const char* file;
  usize table;
  const char* column;
  u32 key;          // message bytes, or node count for Figure 6
  const char* fn;   // harness function, names the span
  double paper;     // headline reference value (us), 0 if none
  std::function<double()> measure;
};

std::vector<PaperPoint> paper_points() {
  std::vector<PaperPoint> pts;
  // `paper` maps a key to its EXPERIMENTS.md headline value (the abstract's
  // and Section 5's numbers, in us).
  auto add = [&](const char* file, usize table, const char* column,
                 const std::vector<u32>& keys, const char* fn, std::function<double(u32)> f,
                 const std::map<u32, double>& paper = {}) {
    for (u32 k : keys) {
      const auto ref = paper.find(k);
      pts.push_back({file, table, column, k, fn, ref == paper.end() ? 0.0 : ref->second,
                     [f, k] { return f(k); }});
    }
  };
  const auto bbp = [](u32 b) { return harness::bbp_oneway_us(b); };
  const auto mpi = [](u32 b) { return harness::mpi_scramnet_oneway_us(b); };
  const auto tcp_api = [](TcpFabricKind k) {
    return [k](u32 b) { return harness::tcp_api_oneway_us(k, b); };
  };
  const auto mpi_tcp = [](TcpFabricKind k) {
    return [k](u32 b) { return harness::mpi_tcp_oneway_us(k, b); };
  };
  const auto scr_bcast = [](CollAlgo a) {
    return [a](u32 b) { return harness::mpi_scramnet_bcast_us(b, a); };
  };
  const auto scr_barrier = [](CollAlgo a) {
    return [a](u32 n) { return harness::mpi_scramnet_barrier_us(a, n); };
  };
  const auto tcp_barrier = [](TcpFabricKind k) {
    return [k](u32 n) { return harness::mpi_tcp_barrier_us(k, n); };
  };

  const std::vector<u32> f1_small{0, 4, 8, 16, 32, 48, 64};
  const std::vector<u32> f1_large{0, 128, 256, 384, 512, 640, 768, 896, 1000};
  add("fig1_latency", 0, "SCRAMNet API (us)", f1_small, "harness.bbp_oneway_us", bbp,
      {{0, 6.5}, {4, 7.8}});
  add("fig1_latency", 0, "MPI (us)", f1_small, "harness.mpi_scramnet_oneway_us", mpi,
      {{0, 44.0}, {4, 49.0}});
  add("fig1_latency", 1, "SCRAMNet API (us)", f1_large, "harness.bbp_oneway_us", bbp);
  add("fig1_latency", 1, "MPI (us)", f1_large, "harness.mpi_scramnet_oneway_us", mpi);

  const std::vector<u32> f2{0, 4, 64, 128, 256, 512, 750, 1000, 1500, 2000, 3000, 4000, 5000};
  add("fig2_api_networks", 0, "SCRAMNet API (us)", f2, "harness.bbp_oneway_us", bbp);
  add("fig2_api_networks", 0, "FastEth TCP (us)", f2, "harness.tcp_api_oneway_us",
      tcp_api(TcpFabricKind::kFastEthernet));
  add("fig2_api_networks", 0, "ATM TCP (us)", f2, "harness.tcp_api_oneway_us",
      tcp_api(TcpFabricKind::kAtm));
  add("fig2_api_networks", 0, "Myrinet API (us)", f2, "harness.myrinet_api_oneway_us",
      [](u32 b) { return harness::myrinet_api_oneway_us(b); });
  add("fig2_api_networks", 0, "Myrinet TCP (us)", f2, "harness.tcp_api_oneway_us",
      tcp_api(TcpFabricKind::kMyrinet));

  const std::vector<u32> f35{0, 4, 64, 128, 256, 384, 512, 640, 768, 896, 1000};
  add("fig3_mpi_networks", 0, "SCRAMNet MPI (us)", f35, "harness.mpi_scramnet_oneway_us", mpi);
  add("fig3_mpi_networks", 0, "FastEth MPI (us)", f35, "harness.mpi_tcp_oneway_us",
      mpi_tcp(TcpFabricKind::kFastEthernet));
  add("fig3_mpi_networks", 0, "ATM MPI (us)", f35, "harness.mpi_tcp_oneway_us",
      mpi_tcp(TcpFabricKind::kAtm));

  const std::vector<u32> f4{0, 4, 16, 64, 128, 256, 512, 750, 1000};
  add("fig4_bcast_vs_p2p", 0, "Point-to-Point (us)", f4, "harness.bbp_oneway_us", bbp);
  add("fig4_bcast_vs_p2p", 0, "4-node Broadcast (us)", f4, "harness.bbp_bcast_us",
      [](u32 b) { return harness::bbp_bcast_us(b); }, {{4, 10.1}});

  add("fig5_mpi_bcast", 0, "FastEth p2p-tree (us)", f35, "harness.mpi_tcp_bcast_us",
      [](u32 b) { return harness::mpi_tcp_bcast_us(TcpFabricKind::kFastEthernet, b); });
  add("fig5_mpi_bcast", 0, "SCRAMNet p2p-tree (us)", f35, "harness.mpi_scramnet_bcast_us",
      scr_bcast(CollAlgo::kPointToPoint));
  add("fig5_mpi_bcast", 0, "SCRAMNet API-mcast (us)", f35, "harness.mpi_scramnet_bcast_us",
      scr_bcast(CollAlgo::kNativeMcast));

  const std::vector<u32> f6{2, 3, 4};
  add("fig6_barrier", 0, "SCRAMNet w/API (us)", f6, "harness.mpi_scramnet_barrier_us",
      scr_barrier(CollAlgo::kNativeMcast), {{4, 37.0}});
  add("fig6_barrier", 0, "SCRAMNet w/p2p (us)", f6, "harness.mpi_scramnet_barrier_us",
      scr_barrier(CollAlgo::kPointToPoint));
  add("fig6_barrier", 0, "FastEth p2p (us)", f6, "harness.mpi_tcp_barrier_us",
      tcp_barrier(TcpFabricKind::kFastEthernet));
  add("fig6_barrier", 0, "ATM p2p (us)", f6, "harness.mpi_tcp_barrier_us",
      tcp_barrier(TcpFabricKind::kAtm));

  return pts;
}

void paper_suite(const Context& ctx, IterResult& r) {
  static const std::vector<PaperPoint> pts = paper_points();
  // The seed varies only the submission order; results are collected per
  // point, so every expected value stays valid. Each iteration draws its own
  // order, so a run's median covers many schedules, not one lucky or
  // unlucky tail.
  std::vector<usize> order(pts.size());
  std::iota(order.begin(), order.end(), usize{0});
  Rng rng(ctx.seed ^ (ctx.iteration * 0x9E3779B97F4A7C15ULL));
  for (usize i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);

  SpanLog& spans = *ctx.spans;
  Sweep sweep(ctx, worker_threads(Workload::kPaperSuite, ctx), r);
  for (usize idx : order) {
    const PaperPoint* pt = &pts[idx];
    sweep.submit([pt, &spans](u32 parent, u32 sim) {
      JobOut o;
      {
        Scoped s(spans, pt->fn, parent, sim);
        o.value = pt->measure();
      }
      o.counts = empty_tally();
      read_published(o.counts, 4);
      return o;
    });
  }
  PaperErr err;
  sweep.finish([&](usize i, JobOut& o) {
    const PaperPoint& pt = pts[order[i]];
    if (!o.errors.empty()) return;
    check_golden(r, *ctx.golden, pt.file, pt.table, std::to_string(pt.key), pt.column,
                 o.value);
    if (pt.paper > 0) err.add(o.value, pt.paper);
  });
  r.paper_err_pct = err.mean();
}

// ---------------------------------------------------------------------------
// ring_stream: bulk streams on a 4-node ring
// ---------------------------------------------------------------------------

struct RawStream {
  scramnet::PacketMode mode;
  u32 bytes;
  const char* label;       // names the per-stream ns/event sample
  const char* golden_row;  // tbl_ring_throughput row of the same packet mode
  double paper;            // Section 2 headline throughput (MB/s), 0 if none
  SimTime end_ps;          // virtual completion time (ps) when the benchmark was defined
};

// The golden rows were measured on 1 MB streams. Every length prints the same
// two-decimal throughput, which a small retiming would not change, so the
// exact completion time is pinned too. A change that retimes the ring on
// purpose updates end_ps together with the goldens.
constexpr RawStream kRawStreams[] = {
    {scramnet::PacketMode::kFixed4, 64u << 10, "fixed4_64k", "fixed 4-byte packets", 0.0,
     10083651456},
    {scramnet::PacketMode::kFixed4, 128u << 10, "fixed4_128k", "fixed 4-byte packets", 0.0,
     20166102912},
    {scramnet::PacketMode::kFixed4, 256u << 10, "fixed4_256k", "fixed 4-byte packets", 6.5,
     40331005824},
    {scramnet::PacketMode::kVariable, 1u << 20, "variable_1m", "variable packets (<=1KB)",
     16.7, 62851621760},
};

/// BBP streams: message size over tbl_ring_throughput's 1 MB total.
constexpr u32 kBbpStreamBytes[] = {64, 16384};
constexpr u32 kBbpStreamTotal = 1u << 20;

/// Raw ring throughput as tbl_ring_throughput measures it: stream from
/// node 0 with an instant host, then check every bank holds the words.
JobOut raw_stream(const RawStream& st, const std::vector<u32>& words, SpanLog& spans,
                  u32 parent, u32 sim_id) {
  JobOut o;
  o.counts = empty_tally();
  sim::Simulation sim;
  scramnet::RingConfig cfg;
  cfg.mode = st.mode;
  cfg.bank_words = 1u << 20;
  scramnet::Ring ring(sim, cfg);
  const i64 t0 = now_ns();
  {
    Scoped s(spans, "ring.host_write_block+sim.run", parent, sim_id);
    ring.host_write_block(0, 0, words, 0);
    sim.run();
  }
  const double host_ns = static_cast<double>(now_ns() - t0);
  o.value = static_cast<double>(st.bytes) / 1e6 / (static_cast<double>(sim.now()) / 1e12);
  if (sim.now() != st.end_ps)
    o.errors.push_back(std::string(st.label) + ": finished at " + std::to_string(sim.now()) +
                       " ps, expected " + std::to_string(st.end_ps));
  std::vector<u32> got(words.size());
  for (u32 n = 1; n < ring.nodes(); ++n) {
    ring.host_read_block(n, 0, got);
    if (got != words) o.errors.push_back(std::string(st.label) + ": node " +
                                         std::to_string(n) + " bank differs");
  }
  Tally& t = o.counts;
  const double events = static_cast<double>(sim.events_executed());
  t["sim.events"] += events;
  t["ring.packets"] += static_cast<double>(ring.packets_sent());
  t["ring.words"] += static_cast<double>(ring.words_replicated());
  KernelSnap k;
  k.take(sim);
  k.add_to(t);
  o.host[std::string("sim.ns_per_event.") + st.label] = host_ns / std::max(events, 1.0);
  return o;
}

/// BBP streaming as bbp_throughput_mbps measures it, with seeded payloads
/// that the receiver checks message by message.
JobOut bbp_stream(u32 msg_bytes, const std::vector<u8>& payload, SpanLog& spans,
                  u32 parent, u32 sim_id) {
  JobOut o;
  const u32 msgs = kBbpStreamTotal / msg_bytes;
  SimTime t_start = 0, t_end = 0;
  u32 bad = 0, not_ok = 0;
  KernelSnap k;
  {
    Scoped run(spans, "harness.run_scramnet_bbp", parent, sim_id);
    const u32 run_id = run.id();
    harness::run_scramnet_bbp(4, [&](sim::Process& p, bbp::Endpoint& ep) {
      const u32 me = ep.rank();
      if (me == 0) {
        t_start = p.now();
        for (u32 i = 0; i < msgs; ++i) {
          Scoped s(spans, "bbp.send", run_id, sim_id, me);
          const std::span<const u8> msg(payload.data() + usize{i} * msg_bytes, msg_bytes);
          if (!ep.send(1, msg).ok()) ++not_ok;
        }
        if (!ep.drain().ok()) ++not_ok;
      } else if (me == 1) {
        std::vector<u8> buf(msg_bytes);
        for (u32 i = 0; i < msgs; ++i) {
          Scoped s(spans, "bbp.recv", run_id, sim_id, me);
          const auto res = ep.recv(0, buf);
          if (!res.ok()) {
            ++not_ok;
          } else if (res.value().len != msg_bytes ||
                     std::memcmp(buf.data(), payload.data() + usize{i} * msg_bytes,
                                 msg_bytes) != 0) {
            ++bad;
          }
        }
        t_end = p.now();
      }
      k.take(p.simulation());
    });
  }
  if (bad) o.errors.push_back("bbp stream " + std::to_string(msg_bytes) + " B: " +
                              std::to_string(bad) + " corrupted messages");
  if (not_ok) o.errors.push_back("bbp stream " + std::to_string(msg_bytes) + " B: " +
                                 std::to_string(not_ok) + " calls failed");
  const double secs = static_cast<double>(t_end - t_start) / 1e12;
  o.value = static_cast<double>(msgs) * msg_bytes / 1e6 / secs;
  o.counts = empty_tally();
  read_published(o.counts, 4);
  k.add_to(o.counts);
  return o;
}

void ring_stream(const Context& ctx, IterResult& r) {
  Rng rng(ctx.seed);
  std::vector<std::vector<u32>> raw;
  for (const RawStream& st : kRawStreams) {
    std::vector<u32> words(st.bytes / 4);
    for (u32& w : words) w = static_cast<u32>(rng());
    raw.push_back(std::move(words));
  }
  std::vector<u8> payload(kBbpStreamTotal);
  for (u8& b : payload) b = static_cast<u8>(rng());

  SpanLog& spans = *ctx.spans;
  Sweep sweep(ctx, worker_threads(Workload::kRingStream, ctx), r);
  for (usize i = 0; i < std::size(kRawStreams); ++i)
    sweep.submit([&, i](u32 parent, u32 sim) {
      return raw_stream(kRawStreams[i], raw[i], spans, parent, sim);
    });
  for (u32 bytes : kBbpStreamBytes)
    sweep.submit([&, bytes](u32 parent, u32 sim) {
      return bbp_stream(bytes, payload, spans, parent, sim);
    });
  PaperErr err;
  sweep.finish([&](usize i, JobOut& o) {
    if (!o.errors.empty()) return;
    if (i >= std::size(kRawStreams)) {
      const u32 bytes = kBbpStreamBytes[i - std::size(kRawStreams)];
      check_golden(r, *ctx.golden, "tbl_ring_throughput", 1, std::to_string(bytes),
                   "BBP throughput (MB/s)", o.value);
      return;
    }
    const RawStream& st = kRawStreams[i];
    check_golden(r, *ctx.golden, "tbl_ring_throughput", 0, st.golden_row, "measured (MB/s)",
                 o.value);
    if (st.paper > 0) err.add(o.value, st.paper);
  });
  r.paper_err_pct = err.mean();
}

// ---------------------------------------------------------------------------
// large_n_sync: barriers and broadcasts on flat rings of N=64 and N=256
// ---------------------------------------------------------------------------

struct SyncShape {
  u32 nodes;
  u32 native_barriers;  // MPI barriers over the native BBP multicast
  u32 p2p_barriers;     // MPI barriers over the point-to-point tree
  u32 bcasts;           // BBP 4-byte broadcast rounds
};

constexpr SyncShape kSyncShapes[] = {{64, 4, 4, 8}, {256, 1, 1, 4}};

/// MPI barriers; checks that every rank left every barrier and that none
/// left barrier b before the last rank entered it.
JobOut sync_barriers(const SyncShape& sh, SpanLog& spans, u32 parent, u32 sim_id) {
  JobOut o;
  const u32 n = sh.nodes;
  const u32 total = sh.native_barriers + sh.p2p_barriers;
  o.attempted = total;
  std::vector<SimTime> enter(usize{total} * n, 0), leave(usize{total} * n, 0);
  std::vector<u8> done(usize{total} * n, 0);
  KernelSnap k;
  {
    Scoped run(spans, "harness.run_scramnet_mpi", parent, sim_id);
    const u32 run_id = run.id();
    harness::run_scramnet_mpi(n, [&](sim::Process& p, scrmpi::Mpi& mpi) {
      const scrmpi::Comm& w = mpi.world();
      const u32 me = static_cast<u32>(mpi.rank(w));
      for (u32 b = 0; b < total; ++b) {
        mpi.set_barrier_algo(b < sh.native_barriers ? CollAlgo::kNativeMcast
                                                    : CollAlgo::kPointToPoint);
        enter[usize{b} * n + me] = p.now();
        {
          Scoped s(spans, "mpi.barrier", run_id, sim_id, me);
          mpi.barrier(w);
        }
        leave[usize{b} * n + me] = p.now();
        done[usize{b} * n + me] = 1;
      }
      k.take(p.simulation());
    });
  }
  for (u32 b = 0; b < total; ++b) {
    const usize lo = usize{b} * n;
    const std::span<const u8> ranks_done(done.data() + lo, n);
    const std::span<const SimTime> in(enter.data() + lo, n), out(leave.data() + lo, n);
    if (!std::ranges::all_of(ranks_done, [](u8 d) { return d != 0; }))
      o.errors.push_back("N=" + std::to_string(n) + " barrier " + std::to_string(b) +
                         " did not complete");
    else if (std::ranges::max(in) > std::ranges::min(out))
      o.errors.push_back("N=" + std::to_string(n) + " barrier " + std::to_string(b) +
                         " released a rank early");
  }
  o.counts = empty_tally();
  read_published(o.counts, n);
  k.add_to(o.counts);
  if (o.counts["mpi.op_timeouts"] > 0)
    o.errors.push_back("N=" + std::to_string(n) + ": MPI operations timed out");
  return o;
}

/// BBP broadcast rounds from seeded roots with seeded 4-byte payloads;
/// every receiver checks the payload and acks the root with a 0-byte send.
JobOut sync_bcasts(const SyncShape& sh, u64 seed, SpanLog& spans, u32 parent, u32 sim_id) {
  JobOut o;
  const u32 n = sh.nodes;
  o.attempted = sh.bcasts;
  Rng rng(seed * 1000003u + n);
  std::vector<u32> roots(sh.bcasts);
  std::vector<std::array<u8, 4>> data(sh.bcasts);
  for (u32 i = 0; i < sh.bcasts; ++i) {
    roots[i] = static_cast<u32>(rng.below(n));
    for (u8& b : data[i]) b = static_cast<u8>(rng());
  }
  std::vector<u8> got(usize{sh.bcasts} * n, 0);
  u32 not_ok = 0;
  KernelSnap k;
  {
    Scoped run(spans, "harness.run_scramnet_bbp", parent, sim_id);
    const u32 run_id = run.id();
    harness::run_scramnet_bbp(n, [&](sim::Process& p, bbp::Endpoint& ep) {
      const u32 me = ep.rank();
      std::array<u8, 4> buf{};
      for (u32 i = 0; i < sh.bcasts; ++i) {
        const u32 root = roots[i];
        if (me == root) {
          Scoped round(spans, "bbp.bcast", run_id, sim_id, me);
          std::vector<u32> dests;
          for (u32 d = 0; d < n; ++d)
            if (d != root) dests.push_back(d);
          {
            Scoped s(spans, "bbp.mcast", round.id(), sim_id, me);
            if (!ep.mcast(dests, data[i]).ok()) ++not_ok;
          }
          for (u32 d : dests) {
            Scoped s(spans, "bbp.recv", round.id(), sim_id, me);
            if (!ep.recv(d, buf).ok()) ++not_ok;
          }
          got[usize{i} * n + me] = 1;
        } else {
          {
            Scoped s(spans, "bbp.recv", run_id, sim_id, me);
            const auto res = ep.recv(root, buf);
            if (!res.ok())
              ++not_ok;
            else if (res.value().len == 4 && buf == data[i])
              got[usize{i} * n + me] = 1;
          }
          Scoped s(spans, "bbp.send", run_id, sim_id, me);
          if (!ep.send(root, {}).ok()) ++not_ok;
        }
      }
      if (!ep.drain().ok()) ++not_ok;
      k.take(p.simulation());
    });
  }
  for (u32 i = 0; i < sh.bcasts; ++i)
    if (!std::ranges::all_of(std::span<const u8>(got.data() + usize{i} * n, n),
                             [](u8 g) { return g != 0; }))
      o.errors.push_back("N=" + std::to_string(n) + " broadcast " + std::to_string(i) +
                         ": a receiver missed or corrupted the payload");
  if (not_ok)
    o.errors.push_back("N=" + std::to_string(n) + " broadcasts: " +
                       std::to_string(not_ok) + " BBP calls failed");
  o.counts = empty_tally();
  read_published(o.counts, n);
  k.add_to(o.counts);
  return o;
}

/// Keeps the N=256 share of the counts apart: the poll diagnosis is about
/// the largest ring.
void note_n256(JobOut& o, u32 nodes) {
  if (nodes != 256) return;
  o.counts["sim.events.n256"] = o.counts["sim.events"];
  o.counts["bbp.polls.n256"] = o.counts["bbp.polls"];
}

void large_n_sync(const Context& ctx, IterResult& r) {
  SpanLog& spans = *ctx.spans;
  Sweep sweep(ctx, worker_threads(Workload::kLargeNSync, ctx), r);
  for (const SyncShape& sh : kSyncShapes) {
    sweep.submit([&](u32 parent, u32 sim) {
      JobOut o = sync_barriers(sh, spans, parent, sim);
      note_n256(o, sh.nodes);
      return o;
    });
    sweep.submit([&](u32 parent, u32 sim) {
      JobOut o = sync_bcasts(sh, ctx.seed, spans, parent, sim);
      note_n256(o, sh.nodes);
      return o;
    });
  }
  sweep.finish();
}

/// A rank body that does nothing: the cluster is built and torn down.
template <typename Api>
void idle(sim::Process&, Api&) {}

}  // namespace

u32 worker_threads(Workload w, const Context& ctx) {
  return w == Workload::kPaperSuite ? ctx.sweep_jobs : 1;
}

IterResult run_iteration(Workload w, const Context& ctx) {
  IterResult r;
  r.counts = empty_tally();
  switch (w) {
    case Workload::kPaperSuite: paper_suite(ctx, r); break;
    case Workload::kRingStream: ring_stream(ctx, r); break;
    case Workload::kLargeNSync: large_n_sync(ctx, r); break;
  }
  return r;
}

double run_setup_once(Workload w) {
  // Published counters of these runs go to a throwaway sink.
  obs::Sink sink("setup");
  obs::Sink::Scope scope(sink);
  const i64 t0 = now_ns();
  switch (w) {
    case Workload::kPaperSuite:
      harness::run_scramnet_bbp(4, idle<bbp::Endpoint>);
      for (u32 n = 2; n <= 4; ++n) {
        harness::run_scramnet_mpi(n, idle<scrmpi::Mpi>);
        harness::run_tcp_mpi(n, TcpFabricKind::kFastEthernet, idle<scrmpi::Mpi>);
        harness::run_tcp_mpi(n, TcpFabricKind::kAtm, idle<scrmpi::Mpi>);
      }
      break;
    case Workload::kRingStream:
      for (auto mode : {scramnet::PacketMode::kFixed4, scramnet::PacketMode::kVariable}) {
        sim::Simulation sim;
        scramnet::RingConfig cfg;
        cfg.mode = mode;
        cfg.bank_words = 1u << 20;
        scramnet::Ring ring(sim, cfg);
        sim.run();
      }
      harness::run_scramnet_bbp(4, idle<bbp::Endpoint>);
      break;
    case Workload::kLargeNSync:
      for (const SyncShape& sh : kSyncShapes) {
        harness::run_scramnet_mpi(sh.nodes, idle<scrmpi::Mpi>);
        harness::run_scramnet_bbp(sh.nodes, idle<bbp::Endpoint>);
      }
      break;
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

}  // namespace perfbench
