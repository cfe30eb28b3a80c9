// The workloads and the traced layer ladder. Each workload owns
// one round function that the traced run reuses on a slice of the same
// trace, so the ladder measures exactly the calls the workload makes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "runtime/live_engine.hpp"

namespace perfbench {

// ----- live plane (in-process LiveEngine) -----------------------------

struct LiveRound {
  std::int64_t started_ns = 0;  ///< engine running, before the first push
  double push_s = 0.0;          ///< producer time, first push to last
  double push_call_ns = 0.0;    ///< producer time inside push_batch
  double finish_ms = 0.0;       ///< LiveEngine::finish()
  double gen_lag_max_ms = 0.0;  ///< open loop: worst lateness vs schedule
  fastjoin::LiveStats stats;
};

/// Feed recs[0, n) through a fresh laned LiveEngine (balancer off) from
/// one producer in 256-record batches: closed loop when rate == 0,
/// otherwise on a fixed schedule of `rate` records/s.
LiveRound live_round(const Record* recs, std::size_t n,
                     std::uint32_t instances, double rate);
/// The per-round checks of the live plane against `expected` matches.
void check_live_round(Report& rep, const LiveRound& r, std::size_t n,
                      std::uint64_t expected);

int run_live(const Args& args, Report& rep, bool wide);

// ----- front door (MultiprocRouter in serve mode) ---------------------

/// The front door's checkpoint cadence, in records.
inline constexpr std::uint64_t kCheckpointEvery = 40'960;

struct FrontdoorRound {
  std::int64_t started_ns = 0;  ///< router and workers up
  double append_s = 0.0;  ///< first append sent to last ack received
  std::vector<double> ack_us;
  std::vector<double> query_us;
  double migration_ms = 0.0;   ///< request_migration -> migration_idle()
  double workers_peak_rss_mb = 0.0;
  bool ok = false;             ///< the round ran to its end
};

/// One session against a fresh 2-worker router: one connection appends
/// recs[0, n) acked, a second queries at a fixed rate, and halfway the
/// router migrates the `migrate_keys` hottest keys. n must be a whole
/// number of checkpoint intervals. Every check is counted in `rep`.
FrontdoorRound frontdoor_round(const Record* recs, std::size_t n,
                               std::size_t migrate_keys,
                               const std::string& sock_prefix, Report& rep);

int run_frontdoor(const Args& args, Report& rep);

// ----- multi-process plane without the front door (L4) ----------------

struct PublishRound {
  double publish_s = 0.0;
  double migration_ms = 0.0;
  bool ok = false;
};
/// Publish recs[0, n) through a fresh 2-worker router and finish.
PublishRound publish_round(const Record* recs, std::size_t n,
                           std::uint64_t checkpoint_every, bool migrate,
                           const std::string& sock_prefix, Report& rep);

// ----- simulation ----------------------------------------------------

/// SimJoinEngine with the paper-figure bench cost model (48 instances,
/// Theta = 2.2), run to completion over recs[0, n).
fastjoin::RunReport sim_run(const Record* recs, std::size_t n,
                            fastjoin::SystemKind system);

// ----- traced run ----------------------------------------------------

/// Per-layer metrics and the L0/L2/L4/L5 ladder on the first records
/// of the workload's trace. `instances` is the workload's live fan-out.
void run_layers(const Args& args, Report& rep, const std::vector<Record>& trace,
                std::uint32_t instances, double datagen_ns_per_record);

/// Relative path prefix for this process's unix sockets.
std::string sock_prefix(const Args& args, const std::string& tag);

}  // namespace perfbench
