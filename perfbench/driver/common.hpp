// Shared plumbing of the benchmark driver: arguments, the result line,
// the span recorder, input generation and the independent reference
// computations the workloads check the program against.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/record.hpp"

namespace perfbench {

using fastjoin::KeyId;
using fastjoin::Record;
using fastjoin::Side;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// CLOCK_MONOTONIC reading (ns) taken by the launcher just before it
  /// started this process; 0 = use the driver's own start.
  std::int64_t t0_ns = 0;
  /// Directory (relative to the working directory) for sockets and the
  /// trace file.
  std::string out_dir = "perfbench/out";
};

/// The run's verdict: every check is one attempted operation. The last
/// line of stdout is the JSON object the launcher reads.
class Report {
 public:
  /// Count one check; a failed one is described on stderr.
  bool check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// Print the result line and return the process exit code.
  int finish() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------
// Spans. Recorded only in a traced run, around the benchmark's calls
// into each layer; kept in memory and written as a Chrome trace at exit.
// The first 50k spans are kept, so the file stays small.

void tracing_enable(bool on);

class Span {
 public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  const char* name_;
  std::int64_t start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Write the recorded spans as Chrome-trace JSON; false on I/O error.
bool write_chrome_trace(const std::string& path);

// ---------------------------------------------------------------------
// Inputs, all derived from the run's seed.

/// The paper's DiDi-calibrated ride-hailing trace: orders as R, tracks
/// as S, keyed by grid location.
std::vector<Record> didi_trace(std::uint64_t seed, std::uint64_t records,
                               std::uint64_t locations, double order_rate,
                               double track_rate);
/// Two streams of 1M records/s each (stream time) with keys drawn from
/// a zipf distribution (zipf_s = 0: uniform) over `keys` keys.
std::vector<Record> keyed_trace(std::uint64_t seed, std::uint64_t records,
                                std::uint64_t keys, double zipf_s);

/// Full-history equi-join size of recs[0, n): sum over keys of
/// |R_k| * |S_k|, counted apart from the program.
std::uint64_t expected_matches(const Record* recs, std::size_t n);
inline std::uint64_t expected_matches(const std::vector<Record>& recs) {
  return expected_matches(recs.data(), recs.size());
}
/// Keys of recs[0, n) ordered by descending record count.
std::vector<KeyId> hottest_keys(const Record* recs, std::size_t n,
                                std::size_t k);

// ---------------------------------------------------------------------
// Small numeric and process helpers.

double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1].
double quantile(std::vector<double> v, double q);
/// Mean of the best quarter (at least one) of per-round figures: the
/// highest rates or the lowest times. On a shared host, rounds that
/// other tenants slowed down all sit in the other tail, so this tracks
/// what the code can do rather than what the neighbours did.
double best_quarter(std::vector<double> v, bool higher_is_better);
/// Peak resident set of `pid` (VmHWM) in MiB; 0 if unreadable.
double peak_rss_mb(pid_t pid);
/// Sleep (coarse) then spin until the steady clock reaches `deadline_ns`.
void wait_until_ns(std::int64_t deadline_ns);

}  // namespace perfbench
