// The traced run's per-layer numbers. Every probe runs on the same
// slice of the workload's own trace, so the ladder rungs are comparable:
//   L0  a bare JoinStore pair, one thread (engine)
//   L2  + routing, SPSC lanes and worker threads (runtime LiveEngine)
//   L4  + StreamLog, frames and sockets to worker processes (multiproc)
//   L5  + front-door admission and acked client appends (server)
// Each rung is reported in ns/record and as a multiple of L0. Layer
// micro-probes (telemetry, core, ingest, net, server, sim) fill in what
// the rungs do not separate.
#include <malloc.h>
#include <sys/socket.h>

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "core/planner.hpp"
#include "engine/join_store.hpp"
#include "ingest/stream_log.hpp"
#include "net/connection.hpp"
#include "net/wire.hpp"
#include "runtime/multiproc.hpp"
#include "server/admission.hpp"
#include "telemetry/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace std::chrono_literals;
using fastjoin::JoinStore;
using fastjoin::StoredTuple;

/// Slice length: a whole number of front-door checkpoint intervals.
constexpr std::size_t kSlice = 5 * kCheckpointEvery;
constexpr std::size_t kBatch = 256;

double per(std::int64_t ns, std::size_t n) {
  return static_cast<double>(ns) / static_cast<double>(n);
}

StoredTuple stored(const Record& r) {
  StoredTuple st;
  st.seq = r.seq;
  st.payload = r.payload;
  st.ts = r.ts;
  return st;
}

/// The live worker's probe: every stored tuple preceding `r` matches.
std::uint64_t probe(const JoinStore& store, Side store_side, const Record& r) {
  const auto* bucket = store.find(r.key);
  if (bucket == nullptr) return 0;
  std::uint64_t matches = bucket->size();
  for (auto it = bucket->rbegin(); it != bucket->rend(); ++it) {
    if (fastjoin::precedes(it->ts, store_side, it->seq, r.ts, r.side, r.seq)) {
      break;
    }
    --matches;
  }
  return matches;
}

struct L0 {
  double ns_per_record = 0.0;
  double insert_ns = 0.0;
  double probe_ns = 0.0;
  double max_insert_ms = 0.0;
  double bytes_per_tuple = 0.0;
  std::uint64_t matches = 0;
};

/// L0: the trace replayed through a JoinStore per side in one thread.
L0 join_store_replay(const Record* recs, std::size_t n) {
  L0 out;
  {
    Span span("engine", "replay");
    const std::size_t heap0 = mallinfo2().uordblks;
    JoinStore stores[2];
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const Record& r = recs[i];
      const int own = static_cast<int>(r.side);
      out.matches += probe(stores[1 - own], fastjoin::other_side(r.side), r);
      stores[own].insert(r.key, stored(r));
    }
    out.ns_per_record = per(now_ns() - t0, n);
    out.bytes_per_tuple =
        static_cast<double>(mallinfo2().uordblks - heap0) /
        static_cast<double>(n);
  }
  // The same replay with every call timed on its own.
  Span span("engine", "replay_timed");
  JoinStore stores[2];
  std::int64_t ins = 0, prb = 0, max_ins = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = recs[i];
    const int own = static_cast<int>(r.side);
    const std::int64_t a = now_ns();
    probe(stores[1 - own], fastjoin::other_side(r.side), r);
    const std::int64_t b = now_ns();
    stores[own].insert(r.key, stored(r));
    const std::int64_t c = now_ns();
    prb += b - a;
    ins += c - b;
    max_ins = std::max(max_ins, c - b);
  }
  out.insert_ns = per(ins, n);
  out.probe_ns = per(prb, n);
  out.max_insert_ms = static_cast<double>(max_ins) / 1e6;
  return out;
}

void telemetry_probe(Report& rep, const Record* recs, std::size_t n) {
  Span span("telemetry", "probe");
  constexpr std::size_t kOps = 4'000'000;
  auto& reg = fastjoin::telemetry::MetricRegistry::global();
  auto& counter = reg.counter("perfbench.counter");
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kOps; ++i) counter.add(recs[i % n].key & 1);
  rep.metric("telemetry.counter_add_ns", per(now_ns() - t0, kOps), "ns");
  auto& hist = reg.histogram("perfbench.hist");
  t0 = now_ns();
  for (std::size_t i = 0; i < kOps; ++i) {
    hist.record(static_cast<double>(recs[i % n].key % 100'000 + 1));
  }
  rep.metric("telemetry.hist_record_ns", per(now_ns() - t0, kOps), "ns");
}

/// One select_keys call between the heaviest and lightest of
/// `instances` hash partitions of the slice (R stored, S probing).
void core_probe(Report& rep, const Record* recs, std::size_t n,
                std::uint32_t instances) {
  Span span("core", "select_keys");
  std::vector<std::unordered_map<KeyId, fastjoin::KeyLoad>> per_inst(instances);
  for (std::size_t i = 0; i < n; ++i) {
    auto& k = per_inst[recs[i].key % instances][recs[i].key];
    k.key = recs[i].key;
    (recs[i].side == Side::kR ? k.stored : k.queued) += 1;
  }
  std::vector<fastjoin::InstanceLoad> loads(instances);
  for (std::uint32_t i = 0; i < instances; ++i) {
    for (const auto& [key, k] : per_inst[i]) {
      loads[i].stored += k.stored;
      loads[i].queued += k.queued;
    }
  }
  const auto by_load = [&](std::uint32_t a, std::uint32_t b) {
    return loads[a].load() < loads[b].load();
  };
  std::vector<std::uint32_t> ids(instances);
  for (std::uint32_t i = 0; i < instances; ++i) ids[i] = i;
  const std::uint32_t src = *std::max_element(ids.begin(), ids.end(), by_load);
  const std::uint32_t dst = *std::min_element(ids.begin(), ids.end(), by_load);
  fastjoin::KeySelectionInput in;
  in.src = loads[src];
  in.dst = loads[dst];
  for (const auto& [key, k] : per_inst[src]) in.keys.push_back(k);
  std::sort(in.keys.begin(), in.keys.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  fastjoin::PlannerConfig cfg;
  std::vector<double> us;
  for (int i = 0; i < 50; ++i) {
    const std::int64_t t0 = now_ns();
    fastjoin::select_keys(in, cfg);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  rep.metric("core.greedy_fit_us", median(us), "us");
}

void ingest_probe(Report& rep, const Record* recs, std::size_t n) {
  Span span("ingest", "append");
  fastjoin::IngestConfig cfg;
  cfg.enabled = true;
  fastjoin::StreamLog log(cfg);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) log.append(0, recs[i], 0, 1);
  log.flush_all();
  rep.metric("ingest.append_ns", per(now_ns() - t0, n), "ns");
  const auto st = log.stats();
  rep.metric("ingest.bytes_per_record",
             static_cast<double>(st.appended_bytes) /
                 static_cast<double>(st.appended_records),
             "B");
}

void net_probe(Report& rep, const Record* recs, std::size_t n) {
  namespace net = fastjoin::net;
  std::vector<net::DataBatchMsg> batches;
  for (std::size_t i = 0; i < n; i += kBatch) {
    net::DataBatchMsg m;
    for (std::size_t j = i; j < std::min(n, i + kBatch); ++j) {
      m.entries.push_back({j, net::kDeliverStore | net::kDeliverProbe, recs[j]});
    }
    batches.push_back(std::move(m));
  }
  std::vector<std::vector<std::byte>> enc(batches.size());
  std::int64_t t0 = now_ns();
  {
    Span span("net", "encode");
    for (std::size_t b = 0; b < batches.size(); ++b) enc[b] = net::encode(batches[b]);
  }
  rep.metric("net.encode_ns", per(now_ns() - t0, n), "ns");
  std::size_t bytes = 0;
  bool ok = true;
  t0 = now_ns();
  {
    Span span("net", "decode");
    for (const auto& e : enc) {
      net::DataBatchMsg m;
      ok = net::decode(e, m) && ok;
      bytes += e.size() + net::kFrameHeaderBytes;
    }
  }
  rep.metric("net.decode_ns", per(now_ns() - t0, n), "ns");
  rep.check(ok, "DataBatchMsg decode of its own encoding failed");
  rep.metric("net.wire_bytes_per_record",
             static_cast<double>(bytes) / static_cast<double>(n), "B");

  // One 256-entry data frame there and back over a socketpair.
  int fds[2];
  if (!rep.check(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                 "socketpair")) {
    return;
  }
  net::FrameConn a{net::Socket(fds[0])};
  net::FrameConn b{net::Socket(fds[1])};
  std::thread echo([&b] {
    net::Frame f;
    while (b.read_frame(f)) {
      if (!b.write_frame(f.type, f.payload)) break;
    }
  });
  const auto kData = static_cast<std::uint16_t>(net::MsgType::kData);
  std::vector<double> rtt;
  bool echoed = true;
  {
    Span span("net", "frame_rtt");
    for (int i = 0; i < 2'000 && echoed; ++i) {
      const std::int64_t s = now_ns();
      net::Frame f;
      echoed = a.write_frame(kData, enc[static_cast<std::size_t>(i) % enc.size()]) &&
               a.read_frame(f);
      rtt.push_back(static_cast<double>(now_ns() - s) / 1e3);
    }
  }
  ::shutdown(fds[0], SHUT_RDWR);
  echo.join();
  rep.check(echoed, "socketpair echo failed");
  rep.metric("net.frame_rtt_us", median(rtt), "us");
}

void admit_probe(Report& rep) {
  Span span("server", "admit");
  fastjoin::server::AdmissionConfig cfg;
  cfg.tenant_rate_bytes_per_sec = 1ULL << 40;
  cfg.tenant_burst_bytes = 1ULL << 40;
  fastjoin::server::AdmissionController ctl(cfg);
  const std::string tenant = "append";
  const std::uint64_t bytes = fastjoin::server::append_payload_bytes(kBatch);
  constexpr std::size_t kCalls = 1'000'000;
  std::size_t admitted = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kCalls; ++i) {
    admitted += ctl.admit_append(tenant, bytes, kBatch, 0).admitted ? 1 : 0;
  }
  rep.metric("server.admit_ns", per(now_ns() - t0, kCalls), "ns");
  rep.check(admitted == kCalls, "admission refused a batch under an open bucket");
}

}  // namespace

PublishRound publish_round(const Record* recs, std::size_t n,
                           std::uint64_t checkpoint_every, bool migrate,
                           const std::string& sock_prefix, Report& rep) {
  static int round_no = 0;
  const std::string sock =
      sock_prefix + "-" + std::to_string(round_no++) + "-w.sock";
  fastjoin::MultiprocConfig cfg;
  cfg.workers = 2;
  cfg.worker_command = {"/proc/self/exe"};
  cfg.endpoint = "unix:" + sock;
  cfg.checkpoint_every = checkpoint_every;
  PublishRound out;
  fastjoin::MultiprocRouter router(std::move(cfg));
  std::string err;
  if (!rep.check(router.start(&err), "router start: " + err)) return out;
  const std::vector<KeyId> hot = migrate ? hottest_keys(recs, n, 4)
                                         : std::vector<KeyId>{};
  std::int64_t mig_t0 = 0;
  const std::int64_t t0 = now_ns();
  {
    Span span("multiproc", "publish");
    for (std::size_t i = 0; i < n; ++i) {
      router.publish(recs[i]);
      if (i == n / 2 && !hot.empty()) {
        mig_t0 = now_ns();
        for (const KeyId k : hot) {
          const std::uint32_t from = router.owner(Side::kR, k);
          router.request_migration(Side::kR, from, (from + 1) % 2, {k});
        }
      }
      if (mig_t0 != 0 && out.migration_ms == 0.0 && router.migration_idle()) {
        out.migration_ms = static_cast<double>(now_ns() - mig_t0) / 1e6;
      }
    }
    const std::int64_t deadline = now_ns() + 60'000'000'000LL;
    while (!router.migration_idle() && now_ns() < deadline) router.pump(1ms);
    if (mig_t0 != 0 && out.migration_ms == 0.0) {
      out.migration_ms = static_cast<double>(now_ns() - mig_t0) / 1e6;
    }
  }
  out.publish_s = static_cast<double>(now_ns() - t0) / 1e9;
  bool finished = false;
  {
    Span span("multiproc", "finish");
    finished = router.finish();
  }
  std::remove(sock.c_str());
  const auto& st = router.stats();
  const std::uint64_t expected = expected_matches(recs, n);
  rep.check(finished, "router finish timed out");
  rep.check(st.matches_total == expected,
            "L4 matches_total " + std::to_string(st.matches_total) +
                " != expected " + std::to_string(expected));
  rep.check(st.records_dropped == 0, "L4 records_dropped");
  rep.check(st.migrations_completed == hot.size(), "L4 migrations incomplete");
  out.ok = finished;
  return out;
}

void run_layers(const Args& args, Report& rep, const std::vector<Record>& trace,
                std::uint32_t instances, double datagen_ns_per_record) {
  const std::size_t n = std::min(kSlice, trace.size());
  const Record* recs = trace.data();
  const std::uint64_t expected = expected_matches(recs, n);
  const std::string socks = sock_prefix(args, "layers");
  rep.metric("datagen.ns_per_record", datagen_ns_per_record, "ns");

  // L0
  const L0 l0 = join_store_replay(recs, n);
  rep.check(l0.matches == expected, "L0 matches " + std::to_string(l0.matches) +
                                        " != expected " +
                                        std::to_string(expected));
  rep.metric("engine.insert_ns", l0.insert_ns, "ns");
  rep.metric("engine.probe_ns", l0.probe_ns, "ns");
  rep.metric("engine.bytes_per_tuple", l0.bytes_per_tuple, "B");
  rep.metric("engine.max_insert_ms", l0.max_insert_ms, "ms");

  telemetry_probe(rep, recs, n);
  core_probe(rep, recs, n, instances);
  ingest_probe(rep, recs, n);
  net_probe(rep, recs, n);
  admit_probe(rep);

  // L2: closed loop, then open loop at half the L0 rate.
  double l2_ns = 0.0;
  {
    Span span("runtime", "L2");
    const LiveRound closed = live_round(recs, n, instances, 0.0);
    check_live_round(rep, closed, n, expected);
    l2_ns = closed.push_s * 1e9 / static_cast<double>(n);
    rep.metric("runtime.push_ns", closed.push_call_ns / static_cast<double>(n),
               "ns");
    rep.metric("runtime.finish_ms", closed.finish_ms, "ms");
    const LiveRound open = live_round(recs, n, instances, 1e6);
    check_live_round(rep, open, n, expected);
    rep.metric("runtime.gen_lag_max_ms", open.gen_lag_max_ms, "ms");
    rep.metric("runtime.probe_p50_us", open.stats.p50_latency_us, "us");
    rep.metric("runtime.probe_p99_us", open.stats.p99_latency_us, "us");
  }

  // L4: the same slice published without checkpoints, with the
  // front-door cadence, and with that cadence plus a hot-key migration.
  const PublishRound plain = publish_round(recs, n, 0, false, socks, rep);
  const PublishRound ckpt =
      publish_round(recs, n, kCheckpointEvery, false, socks, rep);
  const PublishRound mig =
      publish_round(recs, n, kCheckpointEvery, true, socks, rep);
  const double l4_ns = plain.publish_s * 1e9 / static_cast<double>(n);
  rep.metric("multiproc.publish_ns", l4_ns, "ns");
  rep.metric("multiproc.checkpoint_ns_per_record",
             (ckpt.publish_s - plain.publish_s) * 1e9 / static_cast<double>(n),
             "ns");
  rep.metric("multiproc.migration_ms", mig.migration_ms, "ms");

  // L5: acked front-door appends of the slice, queries beside them.
  FrontdoorRound l5;
  {
    Span span("server", "L5");
    l5 = frontdoor_round(recs, n, 0, socks + "-fd", rep);
  }
  const double l5_ns = l5.append_s * 1e9 / static_cast<double>(n);
  rep.metric("server.ack_p50_us", quantile(l5.ack_us, 0.5), "us");
  rep.metric("server.ack_p99_us", quantile(l5.ack_us, 0.99), "us");
  rep.metric("server.query_p50_us", quantile(l5.query_us, 0.5), "us");

  rep.metric("ladder.L0_ns", l0.ns_per_record, "ns");
  rep.metric("ladder.L2_ns", l2_ns, "ns");
  rep.metric("ladder.L4_ns", l4_ns, "ns");
  rep.metric("ladder.L5_ns", l5_ns, "ns");
  rep.metric("runtime.L2_over_L0", l2_ns / l0.ns_per_record, "ratio");
  rep.metric("multiproc.L4_over_L0", l4_ns / l0.ns_per_record, "ratio");
  rep.metric("server.L5_over_L0", l5_ns / l0.ns_per_record, "ratio");

  // The simulator on the same slice.
  std::int64_t t0 = now_ns();
  fastjoin::RunReport fj, bs;
  {
    Span span("sim", "fastjoin");
    fj = sim_run(recs, n, fastjoin::SystemKind::kFastJoin);
  }
  const double fj_s = static_cast<double>(now_ns() - t0) / 1e9;
  t0 = now_ns();
  {
    Span span("sim", "bistream");
    bs = sim_run(recs, n, fastjoin::SystemKind::kBiStream);
  }
  const double bs_s = static_cast<double>(now_ns() - t0) / 1e9;
  rep.check(fj.results == expected && bs.results == expected,
            "sim results differ from the trace count");
  rep.metric("sim.fastjoin_wall_s", fj_s, "s");
  rep.metric("sim.bistream_wall_s", bs_s, "s");
  rep.metric("sim.migrations", static_cast<double>(fj.migrations), "count");
  rep.metric("sim.tuples_migrated", static_cast<double>(fj.tuples_migrated),
             "count");
  rep.metric("sim.mean_li", fj.mean_li, "ratio");
  rep.metric("sim.results_per_s", fj.mean_throughput, "results/s");
  rep.metric("sim.latency_p99_ms", fj.p99_latency_ms, "ms");
}

}  // namespace perfbench
