// Parallel sweep engine: run independent deterministic simulations across
// all cores, bit-identically.
//
// A DES parameter sweep (message sizes x fabrics x node counts -- the
// paper's own methodology, and the shape of every bench/fig* main) is
// embarrassingly parallel: each point is one self-contained
// sim::Simulation that shares no mutable state with its siblings. The
// Runner exploits that:
//
//  * submit(fn) appends one simulation-returning-a-value job to a single
//    FIFO queue drained by N worker threads and returns a std::future;
//  * results are collected through the futures in *submission order*, so
//    a sweep's output is byte-identical to running the same jobs
//    sequentially -- at any --jobs value, in any completion order;
//  * each job runs under its own obs::Sink (see obs/sink.h), so tracing
//    or counters armed during a sweep write one well-formed
//    "<path>.<label>" file per run instead of interleaving runs into one
//    document.
//
// Determinism contract (docs/sweep.md):
//  1. a job must not touch mutable state outside its own closure -- a
//     sim::Simulation plus everything built on it qualifies by
//     construction (the PR de-globalized the one exception, obs);
//  2. each worker thread runs one simulation at a time to completion;
//     fiber switch state (sim/fiber.cc) is thread_local, so sims on
//     sibling workers cannot observe each other's switches;
//  3. the value a job returns must depend only on its inputs -- virtual
//     time, never wall clock.
//
// jobs == 1 degenerates to inline execution on the submitting thread (no
// queue, no threads): the literal sequential baseline the parallel results
// are compared against.
#pragma once

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/sink.h"

namespace scrnet::sweep {

/// Handle to one submitted job's result. get() blocks until the job
/// finishes and rethrows any exception the job threw.
template <typename T>
using Future = std::future<T>;

/// Parse `--jobs N` / `--jobs=N` from a main's argv. Returns 0 when
/// absent, which Runner resolves to default_jobs(). The job count never
/// changes a sweep's output (results are collected in submission order),
/// only its wall clock.
u32 parse_jobs(int argc, char** argv);

class Runner {
 public:
  /// jobs == 0 resolves default_jobs(). jobs == 1 runs every submit
  /// inline on the calling thread; jobs > 1 starts that many workers.
  explicit Runner(u32 jobs = 0);
  /// Runs every queued job, then joins the workers.
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  u32 jobs() const { return jobs_; }

  /// SCRNET_JOBS if set (>0), else std::thread::hardware_concurrency().
  static u32 default_jobs() {
    if (const char* env = std::getenv("SCRNET_JOBS")) {
      const long v = std::atol(env);
      if (v > 0) return static_cast<u32>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }

  /// Submit one job; fn is invoked exactly once, on a worker thread (or
  /// inline when jobs()==1). `label` names the job's obs::Sink output
  /// ("<label>-<seq>" with a process-wide sequence number, so per-run
  /// trace/counter files are unique and stable across --jobs values).
  template <typename F, typename T = std::invoke_result_t<std::decay_t<F>&>>
  Future<T> submit(std::string_view label, F&& fn) {
    auto task = std::make_shared<std::packaged_task<T()>>(
        [fn = std::decay_t<F>(std::forward<F>(fn)),
         sink_label = next_label(label)]() mutable -> T {
          // One private sink per run: simulations constructed inside fn
          // capture it, TRACE_* hooks on this thread record into it, and
          // armed SCRNET_TRACE / SCRNET_COUNTERS output lands in
          // "<path>.<label>" -- also when fn throws.
          obs::Sink sink(std::move(sink_label));
          struct Flush {
            obs::Sink& s;
            ~Flush() { s.flush_env(); }
          } flush{sink};
          obs::Sink::Scope scope(sink);
          return fn();
        });
    Future<T> fut = task->get_future();
    if (jobs_ == 1) {
      (*task)();  // sequential baseline: run now, in submission order
    } else {
      enqueue([task] { (*task)(); });
    }
    return fut;
  }

  template <typename F, typename T = std::invoke_result_t<std::decay_t<F>&>>
  Future<T> submit(F&& fn) {
    return submit("job", std::forward<F>(fn));
  }

  /// Run fn over every element, returning results in element order --
  /// the sweep primitive the figure benches are built on.
  template <typename In, typename F,
            typename T = std::invoke_result_t<std::decay_t<F>&, const In&>>
  std::vector<T> map(std::string_view label, const std::vector<In>& xs, F fn) {
    std::vector<Future<T>> futs;
    futs.reserve(xs.size());
    for (const In& x : xs)
      futs.push_back(submit(label, [fn, x]() { return fn(x); }));
    std::vector<T> out;
    out.reserve(futs.size());
    for (auto& f : futs) out.push_back(f.get());
    return out;
  }

 private:
  std::string next_label(std::string_view base);
  void enqueue(std::function<void()> job);
  void worker();

  u32 jobs_;

  std::mutex mu_;
  std::condition_variable cv_;  // workers: job queued / stopping
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;

  std::vector<std::thread> threads_;  // last: workers use the members above
};

}  // namespace scrnet::sweep
