#include "telemetry/trace.hpp"

#include <fstream>
#include <ostream>

namespace fastjoin::telemetry {

std::uint64_t TraceLog::begin(std::string_view name,
                              std::string_view cat) {
  MutexLock lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return kInvalid;
  }
  TraceSpan s;
  s.name.assign(name);
  s.cat.assign(cat);
  s.start_ns = now_ns();
  s.tid = thread_index();
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void TraceLog::end(std::uint64_t handle) {
  MutexLock lock(mu_);
  if (handle >= spans_.size()) return;
  TraceSpan& s = spans_[handle];
  if (!s.open) return;
  s.open = false;
  s.dur_ns = now_ns() - s.start_ns;
}

void TraceLog::arg(std::uint64_t handle, std::string_view key,
                   std::int64_t value) {
  MutexLock lock(mu_);
  if (handle >= spans_.size()) return;
  spans_[handle].args.push_back({std::string(key), value});
}

void TraceLog::instant(std::string_view name, std::string_view cat) {
  MutexLock lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  TraceSpan s;
  s.name.assign(name);
  s.cat.assign(cat);
  s.start_ns = now_ns();
  s.tid = thread_index();
  s.instant = true;
  s.open = false;
  spans_.push_back(std::move(s));
}

std::size_t TraceLog::size() const {
  MutexLock lock(mu_);
  return spans_.size();
}

std::uint64_t TraceLog::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void TraceLog::clear() {
  MutexLock lock(mu_);
  spans_.clear();
  dropped_ = 0;
}

namespace {
void json_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}
}  // namespace

void TraceLog::write_chrome_trace(std::ostream& os) const {
  MutexLock lock(mu_);
  const std::uint64_t now = now_ns();
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const auto& s : spans_) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\": \"";
    json_escape(os, s.name);
    os << "\", \"cat\": \"";
    json_escape(os, s.cat);
    os << "\", \"ph\": \"" << (s.instant ? 'i' : 'X')
       << "\", \"pid\": 1, \"tid\": " << s.tid
       << ", \"ts\": " << static_cast<double>(s.start_ns) / 1e3;
    if (s.instant) {
      os << ", \"s\": \"t\"";
    } else {
      const std::uint64_t dur =
          s.open ? now - s.start_ns : s.dur_ns;
      os << ", \"dur\": " << static_cast<double>(dur) / 1e3;
    }
    if (!s.args.empty()) {
      os << ", \"args\": {";
      for (std::size_t i = 0; i < s.args.size(); ++i) {
        if (i) os << ", ";
        os << '"';
        json_escape(os, s.args[i].key);
        os << "\": " << s.args[i].value;
      }
      os << '}';
    }
    os << '}';
  }
  os << "\n]}\n";
}

bool TraceLog::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(f);
  return static_cast<bool>(f);
}

TraceLog& TraceLog::global() {
  static TraceLog* t = new TraceLog();  // leaked: outlives worker threads
  return *t;
}

}  // namespace fastjoin::telemetry
