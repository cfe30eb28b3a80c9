// frontdoor_mixed: this process is a front-door client of a
// MultiprocRouter in serve mode (2 worker processes on unix sockets, a
// memory StreamLog with retention, checkpoints every 40960 records).
// One connection sends acked 256-record appends, a second sends 2,000
// kQuery reads per second on a fixed schedule beside them, and halfway through each round
// the router migrates the hottest keys. The router's event loop runs on
// this process's main thread.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"
#include "net/connection.hpp"
#include "runtime/multiproc.hpp"
#include "server/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace std::chrono_literals;
namespace srv = fastjoin::server;

constexpr std::uint16_t wire(srv::ClientMsgType t) {
  return static_cast<std::uint16_t>(t);
}

// The round: 5 checkpoint intervals of acked appends over a mildly
// skewed, wide key universe.
constexpr std::uint32_t kWorkers = 2;
constexpr std::size_t kBatch = 256;
constexpr double kQueryRate = 2'000.0;
constexpr std::uint64_t kRecords = 5 * kCheckpointEvery;
constexpr std::uint64_t kKeys = 100'000;
constexpr double kZipf = 0.6;
constexpr std::size_t kMigrateKeys = 4;
constexpr std::size_t kFinalQueries = 32;

/// Per-key counts of records this process has sent, indexed densely.
class SentCounts {
 public:
  SentCounts(const Record* recs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      index_.emplace(recs[i].key, static_cast<std::uint32_t>(index_.size()));
    }
    for (auto& c : counts_) {
      c = std::vector<std::atomic<std::uint64_t>>(index_.size());
    }
  }
  void add(const Record& r) {
    counts_[static_cast<int>(r.side)][index_.at(r.key)].fetch_add(1);
  }
  std::uint64_t get(Side side, KeyId key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? 0
                              : counts_[static_cast<int>(side)][it->second]
                                    .load();
  }

 private:
  std::unordered_map<KeyId, std::uint32_t> index_;
  std::vector<std::atomic<std::uint64_t>> counts_[2];
};

bool hello(fastjoin::net::FrameConn& fc, const std::string& tenant) {
  srv::ClientHelloMsg h;
  h.tenant = tenant;
  fastjoin::net::Frame f;
  srv::ClientHelloAckMsg ack;
  return fc.write_frame(wire(srv::ClientMsgType::kClientHello), encode(h)) &&
         fc.read_frame(f) && decode(f.payload, ack) && ack.ok == 1;
}

bool query(fastjoin::net::FrameConn& fc, std::uint64_t id, KeyId key,
           srv::QueryResultMsg* out) {
  srv::QueryMsg q;
  q.req_id = id;
  q.key = key;
  fastjoin::net::Frame f;
  return fc.write_frame(wire(srv::ClientMsgType::kQuery), encode(q)) &&
         fc.read_frame(f) &&
         f.type == wire(srv::ClientMsgType::kQueryResult) &&
         decode(f.payload, *out);
}

struct ClientLedger {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t admitted_records = 0;
  bool ok = false;
};

}  // namespace

std::string sock_prefix(const Args& args, const std::string& tag) {
  return args.out_dir + "/" + tag + "-" + std::to_string(::getpid());
}

FrontdoorRound frontdoor_round(const Record* recs, std::size_t n,
                               std::size_t migrate_keys,
                               const std::string& sock_prefix, Report& rep) {
  static int round_no = 0;
  const std::string tag = sock_prefix + "-" + std::to_string(round_no++);
  fastjoin::MultiprocConfig cfg;
  cfg.workers = kWorkers;
  cfg.worker_command = {"/proc/self/exe"};
  cfg.endpoint = "unix:" + tag + "-w.sock";
  cfg.checkpoint_every = kCheckpointEvery;
  cfg.serve = true;
  cfg.serve_cfg.endpoint.kind = fastjoin::net::Endpoint::Kind::kUnix;
  cfg.serve_cfg.endpoint.path = tag + "-c.sock";
  // Admission must not be what the workload measures: the tenant
  // bucket is far above anything one connection can offer.
  cfg.serve_cfg.admission.tenant_rate_bytes_per_sec = 1ULL << 40;
  cfg.serve_cfg.admission.tenant_burst_bytes = 1ULL << 32;

  FrontdoorRound out;
  fastjoin::MultiprocRouter router(std::move(cfg));
  std::string err;
  bool started = false;
  {
    Span span("multiproc", "start");
    started = router.start(&err);
  }
  if (!rep.check(started, "router start: " + err)) return out;
  out.started_ns = now_ns();
  const fastjoin::net::Endpoint ep = router.frontdoor()->endpoint();

  SentCounts sent(recs, n);
  const std::vector<KeyId> hot = hottest_keys(recs, n, migrate_keys);
  std::atomic<std::uint64_t> acked{0};
  std::atomic<bool> appends_done{false};
  std::atomic<bool> queries_done{false};
  std::atomic<bool> mig_complete{hot.empty()};
  std::atomic<bool> final_ready{false};
  std::atomic<bool> abort{false};

  // --- append connection: closed loop of acked batches ---------------
  ClientLedger ledger;
  std::thread appender([&] {
    fastjoin::net::FrameConn fc =
        fastjoin::net::FrameConn::connect(ep, 10'000ms, nullptr);
    if (!fc.valid() || !hello(fc, "append")) {
      abort = true;
      appends_done = true;
      return;
    }
    std::uint64_t req = 1;
    const std::int64_t t0 = now_ns();
    std::int64_t paused = 0;
    bool ok = true;
    for (std::size_t i = 0; i < n && ok && !abort; i += kBatch) {
      const std::size_t m = std::min(kBatch, n - i);
      if (i + m == n) {
        // The last batch closes the final checkpoint interval; parked
        // records must be logged before it, so migrations finish first.
        // The pause is not part of the measured append time.
        const std::int64_t p0 = now_ns();
        while (!mig_complete && !abort) std::this_thread::sleep_for(100us);
        paused = now_ns() - p0;
      }
      srv::AppendMsg msg;
      msg.records.resize(m);
      for (std::size_t j = 0; j < m; ++j) {
        const Record& r = recs[i + j];
        msg.records[j] = {r.side, r.key, r.payload};
        sent.add(r);
      }
      for (;;) {
        msg.req_id = req++;
        const std::int64_t a = now_ns();
        fastjoin::net::Frame f;
        {
          Span span("server", "append");
          ok = fc.write_frame(wire(srv::ClientMsgType::kAppend),
                              encode(msg)) &&
               fc.read_frame(f);
        }
        if (!ok) break;
        ++ledger.offered;
        if (f.type == wire(srv::ClientMsgType::kAppendAck)) {
          srv::AppendAckMsg ack;
          ok = decode(f.payload, ack);
          ++ledger.admitted;
          ledger.admitted_records += ack.appended + ack.parked;
          out.ack_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
          break;
        }
        srv::RejectedMsg rej;
        ok = f.type == wire(srv::ClientMsgType::kRejected) &&
             decode(f.payload, rej);
        if (!ok) break;
        ++ledger.rejected;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::max<std::uint32_t>(1, rej.retry_after_ms)));
      }
      acked += m;
    }
    out.append_s = static_cast<double>(now_ns() - t0 - paused) / 1e9;
    ledger.ok = ok && !abort;
    if (!ok) abort = true;
    fc.write_frame(wire(srv::ClientMsgType::kClientBye), {});
    appends_done = true;
  });

  // --- query connection: open loop at a fixed rate -------------------
  bool queries_bounded = true;
  bool final_equal = false;
  std::thread querier([&] {
    fastjoin::net::FrameConn fc =
        fastjoin::net::FrameConn::connect(ep, 10'000ms, nullptr);
    if (!fc.valid() || !hello(fc, "query")) {
      abort = true;
      queries_bounded = false;
      queries_done = true;
      return;
    }
    fastjoin::Xoshiro256 rng(n);
    std::uint64_t req = 1;
    const auto gap = static_cast<std::int64_t>(1e9 / kQueryRate);
    std::int64_t due = now_ns();
    while (!appends_done && !abort) {
      wait_until_ns(due);
      const KeyId key = recs[rng.next_below(n)].key;
      // While a key migrates, the router sums a stale snapshot of the
      // source with a fresh one of the target and counts the moved
      // tuples twice (see CHANGES.md); such answers are not checked.
      const bool settled =
          mig_complete || std::find(hot.begin(), hot.end(), key) == hot.end();
      srv::QueryResultMsg res;
      bool ok = false;
      {
        Span span("server", "query");
        ok = query(fc, req++, key, &res);
      }
      out.query_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
      // A checkpoint can only hold records that were already sent.
      queries_bounded =
          queries_bounded && ok &&
          (!settled || (res.r_tuples <= sent.get(Side::kR, key) &&
                        res.s_tuples <= sent.get(Side::kS, key)));
      due += gap;
    }
    // After the final checkpoint every key's counts are exact.
    while (!final_ready && !abort) std::this_thread::sleep_for(100us);
    final_equal = !abort;
    std::vector<KeyId> keys = hot;
    for (std::size_t i = 0; keys.size() < hot.size() + kFinalQueries; ++i) {
      keys.push_back(recs[(i * 7919) % n].key);
    }
    for (const KeyId key : keys) {
      if (abort) break;
      srv::QueryResultMsg res;
      final_equal = final_equal && query(fc, req++, key, &res) &&
                    res.r_tuples == sent.get(Side::kR, key) &&
                    res.s_tuples == sent.get(Side::kS, key);
    }
    fc.write_frame(wire(srv::ClientMsgType::kClientBye), {});
    queries_done = true;
  });

  // --- router event loop ---------------------------------------------
  const std::int64_t start = now_ns();
  bool migrated = false;
  std::int64_t mig_t0 = 0;
  const std::uint64_t rounds_of_ckpt = n / kCheckpointEvery;
  while (!(appends_done && queries_done)) {
    {
      Span span("multiproc", "pump");
      router.pump(1ms);
    }
    if (!migrated && !hot.empty() && acked >= n / 2) {
      migrated = true;
      mig_t0 = now_ns();
      Span span("multiproc", "request_migration");
      for (const KeyId k : hot) {
        const std::uint32_t from = router.owner(Side::kR, k);
        router.request_migration(Side::kR, from, (from + 1) % kWorkers,
                                 {k});
      }
    }
    if (migrated && !mig_complete && router.migration_idle()) {
      out.migration_ms = static_cast<double>(now_ns() - mig_t0) / 1e6;
      mig_complete = true;
    }
    const auto& st = router.stats();
    if (appends_done && mig_complete && !final_ready &&
        st.checkpoints_completed >=
            kWorkers * rounds_of_ckpt + 2 * st.migrations_completed) {
      final_ready = true;
    }
    if (now_ns() - start > 120'000'000'000LL) abort = true;
  }
  appender.join();
  querier.join();
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    out.workers_peak_rss_mb += peak_rss_mb(router.worker_pid(w));
  }
  bool finished = false;
  {
    Span span("multiproc", "finish");
    finished = router.finish();
  }
  std::remove((tag + "-w.sock").c_str());
  std::remove((tag + "-c.sock").c_str());

  const auto& st = router.stats();
  rep.check(ledger.ok && finished && !abort, "front-door round did not complete");
  rep.check(ledger.offered == ledger.admitted + ledger.rejected,
            "client ledger: offered != admitted + rejected");
  bool router_ledger = router.frontdoor()->stats().tenants.count("append") == 1;
  if (router_ledger) {
    const auto& t = router.frontdoor()->stats().tenants.at("append");
    router_ledger = t.offered_requests ==
                        t.admitted_requests + t.rejected_requests &&
                    t.admitted_requests == ledger.admitted &&
                    t.rejected_requests == ledger.rejected &&
                    t.admitted_records == ledger.admitted_records;
  }
  rep.check(router_ledger, "router ledger disagrees with the client's");
  rep.check(ledger.admitted_records == n,
            "admitted " + std::to_string(ledger.admitted_records) + " of " +
                std::to_string(n) + " records");
  rep.check(queries_bounded, "a query saw more tuples than were sent");
  rep.check(final_equal, "final query counts differ from the sent counts");
  rep.check(st.migrations_completed == hot.size() &&
                st.migrations_aborted == 0,
            "migrations completed " + std::to_string(st.migrations_completed) +
                " of " + std::to_string(hot.size()));
  const std::uint64_t expected = expected_matches(recs, n);
  rep.check(st.matches_total == expected,
            "matches_total " + std::to_string(st.matches_total) +
                " != expected " + std::to_string(expected));
  rep.check(st.records_dropped == 0,
            "records_dropped " + std::to_string(st.records_dropped));
  out.ok = ledger.ok && finished && !abort;
  return out;
}

int run_frontdoor(const Args& args, Report& rep) {
  const std::int64_t g0 = now_ns();
  std::vector<Record> trace;
  {
    Span span("datagen", "trace");
    trace = keyed_trace(args.seed, kRecords, kKeys, kZipf);
  }
  const double gen_ns =
      static_cast<double>(now_ns() - g0) / static_cast<double>(trace.size());
  const std::string socks = sock_prefix(args, "fd");

  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  double setup_s = 0.0;
  std::vector<double> rps, ack_p50;
  double rss = 0.0;
  for (int round = 0; round < 2 || now_ns() - start < budget; ++round) {
    FrontdoorRound r =
        frontdoor_round(trace.data(), trace.size(), kMigrateKeys, socks, rep);
    if (!r.ok) return 1;
    std::fprintf(stderr,
                 "round %d: %.0f rec/s, %zu acks, %zu queries, migration %.1f "
                 "ms\n",
                 round, static_cast<double>(trace.size()) / r.append_s,
                 r.ack_us.size(), r.query_us.size(), r.migration_ms);
    rss = std::max(rss, r.workers_peak_rss_mb);
    if (round == 0) {
      // Set-up: process start to the first router up with its workers.
      setup_s = static_cast<double>(r.started_ns - args.t0_ns) / 1e9;
      continue;
    }
    rps.push_back(static_cast<double>(trace.size()) / r.append_s);
    ack_p50.push_back(quantile(r.ack_us, 0.5));
  }
  if (!args.trace) {
    rep.metric("throughput_rps", best_quarter(rps, true), "records/s");
    rep.metric("latency_p50_us", best_quarter(ack_p50, false), "us");
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", peak_rss_mb(::getpid()) + rss, "MiB");
    return 0;
  }
  rep.metric("trace.throughput_rps", best_quarter(rps, true), "records/s");
  run_layers(args, rep, trace, 2, gen_ns);
  return 0;
}

}  // namespace perfbench
