// TraceLog: span-based tracing exported as chrome://tracing /
// Perfetto-compatible JSON.
//
// Spans are rare, structural events — migration phases, checkpoints,
// respawns, replays — so recording takes a mutex (no hot-path
// concern; data-plane visibility comes from MetricRegistry and the
// FlightRecorder instead). Storage is bounded: beyond kMaxSpans the
// log counts drops instead of growing.
//
// Export format: the Chrome Trace Event JSON array ("ph":"X" complete
// events with microsecond ts/dur, plus "ph":"i" instants and "ph":"M"
// thread-name metadata). Load the file at https://ui.perfetto.dev or
// chrome://tracing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_safety.hpp"
#include "telemetry/clock.hpp"

namespace fastjoin::telemetry {

/// One completed or in-flight span / instant event.
struct TraceSpan {
  std::string name;
  std::string cat;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;          ///< 0 while open
  std::uint32_t tid = 0;
  bool instant = false;
  bool open = true;
  /// Up to kMaxArgs small numeric args, rendered into the span's
  /// "args" object.
  struct Arg {
    std::string key;
    std::int64_t value = 0;
  };
  std::vector<Arg> args;
};

class TraceLog {
 public:
  static constexpr std::size_t kMaxSpans = 1 << 16;

  /// Open a span on the calling thread's track. Returns a handle for
  /// end()/arg(); kInvalid when the log is full (all ops on it no-op).
  std::uint64_t begin(std::string_view name, std::string_view cat)
      EXCLUDES(mu_);
  void end(std::uint64_t handle) EXCLUDES(mu_);
  /// Attach a numeric argument (visible in the Perfetto side panel).
  void arg(std::uint64_t handle, std::string_view key, std::int64_t value)
      EXCLUDES(mu_);
  /// Zero-duration marker.
  void instant(std::string_view name, std::string_view cat) EXCLUDES(mu_);

  static constexpr std::uint64_t kInvalid = ~0ull;

  std::size_t size() const EXCLUDES(mu_);
  std::uint64_t dropped() const EXCLUDES(mu_);
  void clear() EXCLUDES(mu_);

  /// Write the Chrome Trace Event JSON. Open spans are emitted with
  /// their current duration.
  void write_chrome_trace(std::ostream& os) const EXCLUDES(mu_);
  bool write_chrome_trace(const std::string& path) const EXCLUDES(mu_);

  static TraceLog& global();

 private:
  mutable Mutex mu_;
  std::vector<TraceSpan> spans_ GUARDED_BY(mu_);
  std::uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

/// RAII span: opens in the constructor, closes in the destructor.
class ScopedSpan {
 public:
  ScopedSpan(TraceLog& log, std::string_view name, std::string_view cat)
      : log_(&log), handle_(log.begin(name, cat)) {}
  ScopedSpan(std::string_view name, std::string_view cat)
      : ScopedSpan(TraceLog::global(), name, cat) {}
  ~ScopedSpan() { log_->end(handle_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(std::string_view key, std::int64_t value) {
    log_->arg(handle_, key, value);
  }

 private:
  TraceLog* log_;
  std::uint64_t handle_;
};

}  // namespace fastjoin::telemetry
