#include "sweep/runner.h"

#include <atomic>
#include <cstring>

namespace scrnet::sweep {

namespace {
/// Process-wide job sequence for sink labels. Assigned at submit() time on
/// the submitting thread, so the label of the Nth submitted job -- and
/// with it the name of any per-run trace/counters file -- is identical at
/// any --jobs value.
std::atomic<u64> g_job_seq{0};
}  // namespace

u32 parse_jobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
      return static_cast<u32>(std::atol(argv[i + 1]));
    if (std::strncmp(argv[i], "--jobs=", 7) == 0)
      return static_cast<u32>(std::atol(argv[i] + 7));
  }
  return 0;
}

std::string Runner::next_label(std::string_view base) {
  const u64 seq = g_job_seq.fetch_add(1, std::memory_order_relaxed);
  std::string n = std::to_string(seq);
  if (n.size() < 4) n.insert(0, 4 - n.size(), '0');
  return std::string(base) + "-" + n;
}

Runner::Runner(u32 jobs) : jobs_(jobs == 0 ? default_jobs() : jobs) {
  if (jobs_ == 1) return;  // inline mode: no queue, no threads
  threads_.reserve(jobs_);
  for (u32 i = 0; i < jobs_; ++i) threads_.emplace_back([this] { worker(); });
}

Runner::~Runner() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Runner::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void Runner::worker() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      // Exit only once the queue is empty, so jobs whose futures were
      // dropped still run before the destructor returns.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

}  // namespace scrnet::sweep
