// The simulator probe of the traced run: SimJoinEngine runs FastJoin
// (GreedyFit, Theta = 2.2, 48 instances) and BiStream over a trace with
// the cost model of the paper-figure benches. Its virtual-time results
// are deterministic per trace; the wall clock measures how fast the
// simulator, dispatcher, cost model and planner get through it.
#include <algorithm>

#include "datagen/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

class VectorSource final : public fastjoin::RecordSource {
 public:
  VectorSource(const Record* recs, std::size_t n) : recs_(recs), n_(n) {}
  std::optional<Record> next() override {
    if (i_ == n_) return std::nullopt;
    return recs_[i_++];
  }

 private:
  const Record* recs_;
  std::size_t n_;
  std::size_t i_ = 0;
};

}  // namespace

fastjoin::RunReport sim_run(const Record* recs, std::size_t n,
                            fastjoin::SystemKind system) {
  using namespace fastjoin;
  EngineConfig cfg;
  cfg.instances = 48;
  cfg.cost.kind = ProbeCostKind::kHashIndex;
  cfg.cost.store_cost = 150 * kNanosPerMicro;
  cfg.cost.probe_base = 150 * kNanosPerMicro;
  cfg.cost.probe_per_match = 400.0 * kNanosPerMicro;
  cfg.cost.probe_match_cap = 1024;
  cfg.dispatch_latency = 100 * kNanosPerMicro;
  cfg.migration.control_latency = 200 * kNanosPerMicro;
  cfg.migration.link_bytes_per_sec = 125e6;
  cfg.migration.tuple_bytes = 48;
  cfg.balancer.planner.theta = 2.2;
  cfg.balancer.monitor_period = kNanosPerSec / 4;
  cfg.balancer.min_heaviest_load = 1e4;
  cfg.contrand_group = 2;
  cfg.metrics.rate_window = kNanosPerSec / 4;
  const SimTime span = n == 0 ? 0 : recs[n - 1].ts - recs[0].ts;
  cfg.metrics.warmup = std::min(from_seconds(2.0), span / 5);
  // Run the backlog to completion, so every match is counted.
  cfg.drain = true;
  apply_system(cfg, system);
  VectorSource src(recs, n);
  SimJoinEngine engine(cfg);
  return engine.run(src, span + from_seconds(2.0));
}

}  // namespace perfbench
