#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "datagen/keygen.hpp"
#include "datagen/ride_hailing.hpp"
#include "datagen/trace.hpp"

namespace perfbench {

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
  return ok;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

int Report::finish() const {
  std::string line = "{\"correct\": ";
  line += failed_ == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
    if (i != 0) line += ", ";
    line += "\"" + metrics_[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}

// ---------------------------------------------------------------------
// Spans

namespace {

struct SpanEvent {
  const char* layer;
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint32_t tid;
};

constexpr std::size_t kMaxEvents = 50'000;

struct SpanStore {
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> next_tid{1};
  std::mutex mu;
  std::vector<SpanEvent> events;           // guarded by mu
  std::int64_t origin_ns = now_ns();
};

SpanStore& store() {
  static SpanStore s;
  return s;
}

thread_local std::vector<std::uint64_t> t_stack;
thread_local std::uint32_t t_tid = 0;

bool tracing_on() { return store().on.load(std::memory_order_relaxed); }

}  // namespace

void tracing_enable(bool on) { store().on.store(on); }

Span::Span(const char* layer, const char* name) : layer_(layer), name_(name) {
  if (!tracing_on()) return;
  id_ = store().next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_stack.empty() ? 0 : t_stack.back();
  t_stack.push_back(id_);
  start_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t dur = now_ns() - start_;
  t_stack.pop_back();
  if (t_tid == 0) t_tid = store().next_tid.fetch_add(1);
  SpanStore& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.events.size() < kMaxEvents) {
    s.events.push_back({layer_, name_, start_, dur, id_, parent_, t_tid});
  }
}

bool write_chrome_trace(const std::string& path) {
  SpanStore& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const SpanEvent& e = s.events[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"id\": %llu, \"parent\": %llu}}",
                  i == 0 ? "" : ",\n", e.name, e.layer,
                  static_cast<double>(e.start_ns - s.origin_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3, e.tid,
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.parent));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Inputs

namespace {

std::vector<Record> drain(fastjoin::RecordSource& src, std::uint64_t n) {
  std::vector<Record> out(n);
  const std::size_t got = src.next_batch(out.data(), out.size());
  out.resize(got);
  return out;
}

}  // namespace

std::vector<Record> didi_trace(std::uint64_t seed, std::uint64_t records,
                               std::uint64_t locations, double order_rate,
                               double track_rate) {
  fastjoin::RideHailingConfig cfg;
  cfg.num_locations = locations;
  cfg.total_records = records;
  cfg.order_rate = order_rate;
  cfg.track_rate = track_rate;
  cfg.seed = seed;
  fastjoin::RideHailingGenerator gen(cfg);
  return drain(gen, records);
}

std::vector<Record> keyed_trace(std::uint64_t seed, std::uint64_t records,
                                std::uint64_t keys, double zipf_s) {
  fastjoin::KeyStreamSpec r;
  r.dist = zipf_s > 0.0 ? fastjoin::KeyDist::kZipf : fastjoin::KeyDist::kUniform;
  r.num_keys = keys;
  r.zipf_s = zipf_s;
  r.seed = seed * 2 + 1;
  r.scramble = seed ^ 0x9e3779b97f4a7c15ULL;
  fastjoin::KeyStreamSpec s = r;
  s.seed = seed * 2 + 2;
  fastjoin::TraceConfig tc;
  tc.r_rate = 1e6;
  tc.s_rate = 1e6;
  tc.total_records = records;
  tc.seed = seed;
  fastjoin::TraceGenerator gen(r, s, tc);
  std::vector<Record> out = drain(gen, records);
  for (Record& rec : out) rec.payload = rec.seq;
  return out;
}

std::uint64_t expected_matches(const Record* recs, std::size_t n) {
  std::unordered_map<KeyId, std::pair<std::uint64_t, std::uint64_t>> counts;
  counts.reserve(n / 2);
  for (std::size_t i = 0; i < n; ++i) {
    auto& c = counts[recs[i].key];
    (recs[i].side == Side::kR ? c.first : c.second) += 1;
  }
  std::uint64_t total = 0;
  for (const auto& [key, c] : counts) total += c.first * c.second;
  return total;
}

std::vector<KeyId> hottest_keys(const Record* recs, std::size_t n,
                                std::size_t k) {
  std::unordered_map<KeyId, std::uint64_t> counts;
  for (std::size_t i = 0; i < n; ++i) ++counts[recs[i].key];
  std::vector<std::pair<std::uint64_t, KeyId>> v;
  v.reserve(counts.size());
  for (const auto& [key, c] : counts) v.emplace_back(c, key);
  k = std::min(k, v.size());
  std::partial_sort(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                    v.end(), [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  std::vector<KeyId> out;
  for (std::size_t i = 0; i < k; ++i) out.push_back(v[i].second);
  return out;
}

// ---------------------------------------------------------------------
// Helpers

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double best_quarter(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (higher_is_better) std::reverse(v.begin(), v.end());
  const std::size_t k = std::max<std::size_t>(1, v.size() / 4);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += v[i];
  return sum / static_cast<double>(k);
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void wait_until_ns(std::int64_t deadline_ns) {
  for (;;) {
    const std::int64_t left = deadline_ns - now_ns();
    if (left <= 0) return;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    }
  }
}

}  // namespace perfbench
