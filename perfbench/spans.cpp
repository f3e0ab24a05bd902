// In-memory span log of the traced run, written out once at exit as Chrome
// trace-event JSON (one complete event per span, trace id and parent in args).
#include <fstream>

#include "common.hpp"

namespace perfbench {

std::int64_t SpanLog::open(const char* name, std::uint64_t trace_id, std::int64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.trace_id = trace_id;
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = parent;
  s.start_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

double SpanLog::close(std::int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  return (s.end_us - s.start_us) / 1000.0;
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  out.precision(15);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
        << ",\"args\":{\"trace_id\":" << s.trace_id << ",\"span\":" << s.id
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
