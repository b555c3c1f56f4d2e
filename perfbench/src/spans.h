// Host-time spans recorded by the benchmark around each call it makes into
// a layer's public function. Spans live in memory and are written out once
// at the end of a traced run. With the log off a Scoped span reads no clock.
#pragma once

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using scrnet::i64;
using scrnet::u32;

inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  i64 start_ns = 0;
  i64 end_ns = 0;
  u32 id = 0;
  u32 parent = 0;  // 0 = root
  u32 sim = 0;     // simulation (point) the span belongs to
  u32 rank = 0;    // simulated rank for spans inside a rank body
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanLog {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  u32 next_id() { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }

  void record(const Span& s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
  }

  /// Moves out everything recorded since the last take().
  std::vector<Span> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(spans_);
  }

  /// Chrome trace-event JSON (complete "X" events, one track per sim).
  static bool write_json(const std::string& path, const std::vector<Span>& spans) {
    std::ofstream os(path);
    if (!os) return false;
    const i64 t0 = spans.empty() ? 0 : spans.front().start_ns;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.sim
         << ",\"ts\":" << static_cast<double>(s.start_ns - t0) / 1e3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
         << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"sim\":" << s.sim << ",\"rank\":" << s.rank << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  bool on_ = false;
  std::atomic<u32> ids_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span. id() is usable as the parent of nested spans (0 when off).
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, u32 parent, u32 sim, u32 rank = 0)
      : log_(log) {
    if (!log_.on()) return;
    span_ = {name, now_ns(), 0, log_.next_id(), parent, sim, rank};
  }
  ~Scoped() {
    if (span_.id == 0) return;
    span_.end_ns = now_ns();
    log_.record(span_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  u32 id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

}  // namespace perfbench
