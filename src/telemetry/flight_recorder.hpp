// FlightRecorder: per-thread fixed-size ring buffers of recent
// data/control-plane events, dumped on crash, migration abort, or test
// failure.
//
// Recording is a handful of relaxed atomic stores into the calling
// thread's own ring — wait-free, no branches on shared state, cheap
// enough for the data plane's per-batch (not per-record) granularity.
// Rings of exited threads are retained (a crashed worker's last events
// are exactly what a dump is for) up to kMaxRings, after which the
// least-recently-retired ring is recycled.
//
// The dump is a racy-but-safe read: every field is a relaxed atomic,
// so a dump taken while threads are still recording sees a torn but
// well-defined picture — fine for diagnostics, clean under TSan.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace fastjoin::telemetry {

/// Event vocabulary of the live runtime's two planes plus ingest.
/// Codes are stable small ints so dumps from different builds line up.
enum class FlightEvent : std::uint16_t {
  kNone = 0,
  // --- data plane ---------------------------------------------------
  kBatchPushed,      ///< a=records in batch, b=delivered deliveries
  kLaneBlocked,      ///< backpressure wait began; a=side/worker, b=lane
  kLaneClosedDrop,   ///< push hit a closed/crashed lane; a=side/worker
  // --- control plane ------------------------------------------------
  kCtrlSelect,       ///< a=side/worker
  kCtrlHold,         ///< a=side/worker, b=keys held
  kCtrlHoldAck,      ///< a=side/worker
  kCtrlRoutePublish, ///< a=side/group, b=keys rerouted
  kCtrlTakeForward,  ///< a=side/worker, b=records forwarded
  kCtrlAbsorb,       ///< a=side/worker, b=tuples in batch
  kCtrlRelease,      ///< a=side/worker, b=records released
  kCtrlAbort,        ///< a=side/worker, b=replay_pending
  kCtrlCheckpoint,   ///< a=side/worker, b=tuples snapshotted
  kCtrlWindow,       ///< window advance; a=side/worker
  // --- fault tolerance ----------------------------------------------
  kCrash,            ///< a=side/worker
  kRespawn,          ///< a=side/worker, b=tuples restored
  kReplay,           ///< a=side/worker, b=records replayed
  kMigrationStart,   ///< a=side/src, b=side/dst
  kMigrationDone,    ///< a=side/src, b=tuples moved
  kMigrationAbort,   ///< a=side/src, b=side/dst
  // --- ingest -------------------------------------------------------
  kIngestAppend,     ///< a=partition, b=records appended
  kIngestBackpressure, ///< a=partition
  kIngestTruncate,   ///< a=partition, b=records retired
  kIngestReplayRead, ///< a=partition, b=records read
  // --- serving front door --------------------------------------------
  kServeReject,      ///< a=reject reason (server::RejectReason),
                     ///< b=retry_after_ms
  kServeShed,        ///< global-budget shed state flip; a=1 entering
                     ///< shed, 0 leaving, b=inflight bytes at the flip
};

const char* flight_event_name(FlightEvent ev);

/// Pack a (side, instance) pair into one event argument.
inline std::uint64_t flight_id(int side, std::uint64_t instance) {
  return (static_cast<std::uint64_t>(side) << 32) | instance;
}

/// Record one event into the calling thread's ring. Wait-free.
void flight_record(FlightEvent ev, std::uint64_t a = 0,
                   std::uint64_t b = 0);

/// Merge every thread's ring (live and retired) into `os`, oldest
/// event first per thread, with thread labels and ns timestamps.
void flight_dump(std::ostream& os);

/// flight_dump to a file; returns false when the file cannot be
/// opened. The dump is complete (not appended).
bool flight_dump(const std::string& path);

/// Total events ever recorded by this process (post-wrap events still
/// count; used by tests).
std::uint64_t flight_recorded_total();

/// Events kept per thread ring.
inline constexpr std::size_t kFlightRingCapacity = 1024;
/// Retained rings (live + retired) before recycling.
inline constexpr std::size_t kFlightMaxRings = 128;

}  // namespace fastjoin::telemetry
