#include "spans.h"

#include <chrono>

#include "support/json.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name) {
  spans_.push_back(Span{name, now_ns(), 0, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

std::map<std::string, SpanTotals> summarize(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    SpanTotals& t = totals[spans[i].name];
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms += static_cast<double>(duration - child_ns[i]) / 1e6;
    ++t.calls;
  }
  return totals;
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  fjs::JsonValue events = fjs::JsonValue::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    fjs::JsonValue args = fjs::JsonValue::object();
    args.set("id", fjs::JsonValue::number(static_cast<double>(i)));
    args.set("parent", fjs::JsonValue::number(span.parent));
    fjs::JsonValue event = fjs::JsonValue::object();
    event.set("name", fjs::JsonValue::string(span.name));
    event.set("cat", fjs::JsonValue::string("perfbench"));
    event.set("ph", fjs::JsonValue::string("X"));
    event.set("ts", fjs::JsonValue::number(
                        static_cast<double>(span.start_ns - origin) / 1e3));
    event.set("dur", fjs::JsonValue::number(
                         static_cast<double>(span.end_ns - span.start_ns) /
                         1e3));
    event.set("pid", fjs::JsonValue::number(1));
    event.set("tid", fjs::JsonValue::number(1));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  fjs::JsonValue doc = fjs::JsonValue::object();
  doc.set("displayTimeUnit", fjs::JsonValue::string("ms"));
  doc.set("traceEvents", std::move(events));
  return doc.dump(0);
}

}  // namespace perfbench
