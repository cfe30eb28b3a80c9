// live_skew and live_wide: the in-process laned LiveEngine, balancer
// off, one producer thread. Each round builds a fresh engine and feeds
// it the whole trace, first closed loop (throughput), then open loop at
// a fixed rate (latency), so every round does the same work and the
// store never outgrows one trace.
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 256;

struct LiveShape {
  std::uint64_t records;       ///< closed-loop round length, per layout
  std::uint64_t open_records;  ///< open-loop round length (a prefix)
  double open_rate;            ///< records/s offered in the open loop
  std::uint32_t instances;     ///< per biclique side
  /// Independent traces per run. With the balancer off, throughput
  /// hangs on where the few hot keys hash; cycling over several key
  /// layouts per run measures the skew, not one draw of it.
  std::uint32_t layouts;
};

// live_skew: the DiDi trace, ~10k locations, 4 instances per side.
constexpr LiveShape kSkew{1'000'000, 1'000'000, 2'000'000.0, 4, 4};
// live_wide: uniform keys over a universe as large as the trace.
constexpr LiveShape kWide{500'000, 250'000, 500'000.0, 2, 1};

std::vector<Record> make_trace(std::uint64_t seed, bool wide) {
  const LiveShape& s = wide ? kWide : kSkew;
  if (wide) return keyed_trace(seed, s.records, s.records, 0.0);
  return didi_trace(seed, s.records, 10'000, 20'000.0, 200'000.0);
}

}  // namespace

LiveRound live_round(const Record* recs, std::size_t n,
                     std::uint32_t instances, double rate) {
  fastjoin::LiveConfig cfg;
  cfg.instances = instances;
  cfg.balancer = false;
  cfg.max_producers = 1;
  LiveRound out;
  fastjoin::LiveEngine engine(cfg);
  {
    Span span("runtime", "start");
    engine.start();
  }
  out.started_ns = now_ns();
  const int producer = engine.register_producer();
  std::int64_t in_push = 0;
  std::int64_t max_lag = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; i += kBatch) {
    const std::size_t m = std::min(kBatch, n - i);
    if (rate > 0.0) {
      const auto due =
          t0 + static_cast<std::int64_t>(static_cast<double>(i) / rate * 1e9);
      wait_until_ns(due);
      max_lag = std::max(max_lag, now_ns() - due);
    }
    const std::int64_t a = now_ns();
    {
      Span span("runtime", "push_batch");
      engine.push_batch(recs + i, m, producer);
    }
    in_push += now_ns() - a;
  }
  const std::int64_t t1 = now_ns();
  {
    Span span("runtime", "finish");
    out.stats = engine.finish();
  }
  out.finish_ms = static_cast<double>(now_ns() - t1) / 1e6;
  out.push_s = static_cast<double>(t1 - t0) / 1e9;
  out.push_call_ns = static_cast<double>(in_push);
  out.gen_lag_max_ms = static_cast<double>(max_lag) / 1e6;
  return out;
}

void check_live_round(Report& rep, const LiveRound& r, std::size_t n,
                      std::uint64_t expected) {
  const auto& s = r.stats;
  rep.check(s.results == expected,
            "live results " + std::to_string(s.results) + " != expected " +
                std::to_string(expected));
  rep.check(s.records_in == n, "live records_in " +
                                   std::to_string(s.records_in) +
                                   " != " + std::to_string(n));
  rep.check(s.stores == n, "live stores " + std::to_string(s.stores) +
                               " != " + std::to_string(n));
  rep.check(s.probes == n, "live probes " + std::to_string(s.probes) +
                               " != " + std::to_string(n));
  rep.check(s.records_dropped == 0,
            "live records_dropped " + std::to_string(s.records_dropped));
}

int run_live(const Args& args, Report& rep, bool wide) {
  const LiveShape& shape = wide ? kWide : kSkew;
  const std::int64_t g0 = now_ns();
  std::vector<std::vector<Record>> traces;
  {
    Span span("datagen", "trace");
    for (std::uint32_t l = 0; l < shape.layouts; ++l) {
      traces.push_back(make_trace(args.seed * shape.layouts + l, wide));
    }
  }
  const double gen_ns = static_cast<double>(now_ns() - g0) /
                        static_cast<double>(shape.records * shape.layouts);
  const std::size_t n = shape.records;
  const std::size_t n_open = shape.open_records;

  double setup_s = 0.0;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<std::uint64_t> expected, expected_open;

  // One cycle feeds every layout once. Closed loop for the first half
  // of the budget; the first cycle warms the allocator and is not
  // reported.
  std::vector<double> rps;
  for (int cycle = 0; cycle < 2 || now_ns() - start < budget / 2; ++cycle) {
    double push_s = 0.0;
    for (std::uint32_t l = 0; l < shape.layouts; ++l) {
      const LiveRound r = live_round(traces[l].data(), n, shape.instances, 0.0);
      if (expected.size() == l) {
        expected.push_back(expected_matches(traces[l].data(), n));
        expected_open.push_back(expected_matches(traces[l].data(), n_open));
      }
      check_live_round(rep, r, n, expected[l]);
      if (cycle == 0 && l == 0) {
        // Set-up: process start to the first engine running.
        setup_s = static_cast<double>(r.started_ns - args.t0_ns) / 1e9;
      }
      push_s += r.push_s;
    }
    const double cycle_rps =
        static_cast<double>(n * shape.layouts) / push_s;
    std::fprintf(stderr, "closed cycle %d: %.0f rec/s\n", cycle, cycle_rps);
    if (cycle == 0) continue;
    rps.push_back(cycle_rps);
  }
  // Open loop at a fixed rate for the second half.
  std::vector<double> p50;
  for (int cycle = 0; cycle == 0 || now_ns() - start < budget; ++cycle) {
    for (std::uint32_t l = 0; l < shape.layouts; ++l) {
      const LiveRound r = live_round(traces[l].data(), n_open,
                                     shape.instances, shape.open_rate);
      check_live_round(rep, r, n_open, expected_open[l]);
      std::fprintf(stderr, "open round %d.%u: p50 %.1f us p99 %.1f us lag %.2f ms\n",
                   cycle, l, r.stats.p50_latency_us, r.stats.p99_latency_us,
                   r.gen_lag_max_ms);
      p50.push_back(r.stats.p50_latency_us);
    }
  }

  if (!args.trace) {
    rep.metric("throughput_rps", best_quarter(rps, true), "records/s");
    rep.metric("latency_p50_us", best_quarter(p50, false), "us");
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", peak_rss_mb(::getpid()), "MiB");
    return 0;
  }
  rep.metric("trace.throughput_rps", best_quarter(rps, true), "records/s");
  run_layers(args, rep, traces[0], shape.instances, gen_ns);
  return 0;
}

}  // namespace perfbench
