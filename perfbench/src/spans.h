// In-memory span recorder for the benchmark's traced mode.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public API (never inside the library), on the driving thread
// only: the untraced run pays one branch per call site. Self time is a
// span's duration minus the durations of its direct children; children
// nest strictly inside their parent because spans open and close as a
// stack on one thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

struct Span {
  const char* name = nullptr;  ///< string literal: outlives the recorder
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the recorder's spans, -1 for a root
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int open(const char* name);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  int current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; records nothing while the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Per-name totals over a set of spans, in milliseconds.
struct SpanTotals {
  double self_ms = 0.0;
  double total_ms = 0.0;
  std::size_t calls = 0;
};

std::map<std::string, SpanTotals> summarize(const std::vector<Span>& spans);

/// Durations of the spans called `name`, in recording order.
std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name);

/// Chrome-tracing document ("X" events, microseconds, one thread); each
/// event carries its span id and parent id in args.
std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace perfbench
