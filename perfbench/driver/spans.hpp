#pragma once

// In-memory span and counter log of the traced benchmark run.
//
// The benchmark opens spans from its own code around calls into each
// module's public functions; nothing inside the program is instrumented.
// A span records name, start, end, the span that was open when it started
// (its parent) and the run id (the repetition it belongs to).  Spans are
// kept in a preallocated buffer: when it is full, further spans are counted
// as lost and the exported log is marked truncated instead of silently
// missing time.  Counters record work done (pairs, bytes, halos) at the
// same boundaries.
//
// Single-threaded by design: only the benchmark's driver thread opens and
// closes spans.  Pool workers inside the timed calls are covered by the
// span of the call that launched them.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  // string literal: spans outlive no name
  double t0 = 0.0;
  double t1 = 0.0;
  std::int32_t parent = -1;  // index into spans(), -1 for a root span
  std::int32_t run = 0;
};

struct Counter {
  const char* name = nullptr;
  double value = 0.0;
  std::int32_t run = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  void set_run(std::int32_t run) { run_ = run; }

  /// Opens a span under the innermost open one; returns its id, or -1 when
  /// the buffer is full (the span is then counted as lost).
  std::int32_t open(const char* name) {
    if (spans_.size() >= capacity_) {
      ++lost_;
      return -1;
    }
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_s(), 0.0, current_, run_});
    current_ = id;
    return id;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = now_s();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  void count(const char* name, double value) {
    counters_.push_back({name, value, run_});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Counter>& counters() const { return counters_; }
  std::uint64_t lost() const { return lost_; }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
  std::uint64_t lost_ = 0;
  std::int32_t current_ = -1;
  std::int32_t run_ = 0;
};

/// RAII span; a null recorder (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec != nullptr ? rec->open(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t id_;
};

}  // namespace perfbench
