// DMA-TA: temporal alignment of DMA transfers (Section 4.1).
//
// The aligner buffers the *first* DMA-memory request of any transfer that
// finds its target chip in a low-power mode, trying to gather k = ceil(Rm
// / Rb) requests from distinct I/O buses so the chip's active cycles are
// fully utilized once it wakes. A chip's gated requests are released when
//   (a) k distinct buses are represented among them (full utilization), or
//   (b) k requests are pending for the chip -- "there is no need to
//       collect more DMA-memory requests to each memory chip than
//       necessary to achieve full utilization", or
//   (c) a gated transfer has used up its own delay budget: each transfer
//       of n requests earns n * mu * T of slack, and spending more than
//       that on its first request would break the average-service-time
//       guarantee (deadlines are staggered by arrival time, which avoids
//       synchronized release convoys), or
//   (d) the global slack account says waiting longer is unsafe:
//       n * U / 2 >= Slack with U = m * T * ceil(r / k), or the account is
//       exhausted.
// The class is passive: `MemoryController` feeds it arrivals, epochs, and
// CPU accesses, and executes the releases it requests.
//
// Each decision costs O(1), not a scan of the chip's gated list: `Gate`
// folds every new request into a per-chip summary (distinct buses, the
// most requests pending on one bus, the earliest deadline; the list's
// length is the count) and `TakeGated` resets it. The lists themselves
// stay for release order and the protocol checker's introspection.
//
// Limit: at most kMaxBuses (64) I/O buses, so a chip's buses fit in one
// 64-bit mask, and every gated transfer's bus id is below `bus_count`
// (the constructor and `Gate` enforce both; the paper's systems have a
// handful of buses).
#ifndef DMASIM_CORE_TEMPORAL_ALIGNER_H_
#define DMASIM_CORE_TEMPORAL_ALIGNER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/dma_aware_config.h"
#include "core/slack_account.h"
#include "io/dma_transfer.h"
#include "util/check.h"
#include "util/time.h"
#include "util/units.h"

namespace dmasim {

// One buffered first request. The controller's temporary buffering of
// these is the "little buffer space" of Section 4.1.4; `MaxBufferedBytes`
// tracks its worst-case occupancy.
struct GatedRequest {
  DmaTransfer* transfer = nullptr;
  std::int64_t chunk_bytes = 0;
  Tick gated_at = 0;
  // Latest release time compatible with the transfer's own delay budget.
  Tick deadline = 0;
};

// Why the most recent release decision fired, at the granularity the
// observability layer reports (the coarser quorum/slack statistics
// counters keep their historical mapping: kBufferCap counts as quorum).
enum class ReleaseCause : int {
  kQuorum = 0,       // k distinct buses gathered (full utilization).
  kBufferCap,        // Gated depth hit gather_depth + k.
  kDeadline,         // A transfer exhausted its own delay budget.
  kSlackExhausted,   // Global slack account ran dry.
  kSlackBound,       // Expected drain delay exceeds remaining slack.
  kCpuPriority,      // A processor access activated the chip anyway.
  kEpochExhausted,   // Epoch safety valve drained the oldest chip.
};
inline constexpr int kReleaseCauseCount = 7;

const char* ReleaseCauseName(ReleaseCause cause);

class TemporalAligner {
 public:
  // The most I/O buses a system may have: the aligner's per-chip bus set
  // and the controller's coalesced-run groups are one 64-bit mask each.
  // Configuration checks (ValidateOptions, the CLIs) read it from here.
  static constexpr int kMaxBuses = 64;

  // `k` is the number of I/O buses that saturate the memory bandwidth;
  // `bus_count` is r in the paper's notation (at most 64, see above);
  // `t_request` is T, the unmanaged service time of one DMA-memory
  // request (one I/O-bus slot).
  TemporalAligner(const TemporalAlignmentConfig& config, int chip_count,
                  int bus_count, int k, Tick t_request);

  bool enabled() const { return config_.enabled; }
  SlackAccount& slack() { return slack_; }
  const SlackAccount& slack() const { return slack_; }
  int k() const { return k_; }

  // Whether gating `transfer` is worthwhile at all: its delay budget must
  // exceed the configured cost-benefit floor.
  bool WorthGating(const DmaTransfer& transfer,
                   std::int64_t chunk_bytes) const;

  // Outcome of gating a request.
  struct GateResult {
    bool release_now = false;  // A release condition is already met.
    Tick deadline = 0;         // When to re-check if not released before.
  };

  // Buffers the first request of `transfer` for `chip`.
  GateResult Gate(int chip, DmaTransfer* transfer, std::int64_t chunk_bytes,
                  Tick now);

  // True if `chip` currently holds gated requests.
  bool HasGated(int chip) const {
    return !gated_[static_cast<std::size_t>(chip)].empty();
  }

  int PendingFor(int chip) const {
    return static_cast<int>(gated_[static_cast<std::size_t>(chip)].size());
  }
  int TotalPending() const { return total_pending_; }

  // Read-only view of `chip`'s gated requests, in gating order. This is
  // the protocol checker's introspection seam (src/check): state
  // canonicalization and the conservation properties need the buffered
  // (bus, gated_at, deadline) triples, not just the count.
  const std::vector<GatedRequest>& GatedFor(int chip) const {
    return gated_[static_cast<std::size_t>(chip)];
  }

  // Whether `chip`'s gated requests should be released at time `now`.
  // Reads only the chip's summary (see the file comment).
  bool ShouldRelease(int chip, Tick now) const;

  // Releases `chip`: moves its gated requests, in gating order, into
  // `*taken` (whose previous contents are dropped) by swapping the two
  // vectors, and resets the chip's summary. The chip keeps `*taken`'s old
  // storage for its next gates, so a caller that passes the same buffer
  // to every release makes the gate path allocation-free after that
  // buffer's first release.
  void TakeGated(int chip, std::vector<GatedRequest>* taken);

  // Epoch boundary: debits the slack and returns the chips that must be
  // released as a result. The list is owned by the aligner and valid
  // until the next call, like last_epoch_causes().
  const std::vector<int>& OnEpoch(Tick now);

  // A processor access of `service_time` hit `chip`.
  void OnCpuAccess(int chip, Ticks service_time);

  // Statistics.
  std::uint64_t TotalGated() const { return total_gated_; }
  std::uint64_t ReleasedByQuorum() const { return released_quorum_; }
  std::uint64_t ReleasedBySlack() const { return released_slack_; }
  std::int64_t MaxBufferedBytes() const { return max_buffered_bytes_; }
  const TemporalAlignmentConfig& config() const { return config_; }

  // Fine-grained attribution of the most recent ShouldRelease that
  // returned true (observability; the controller supplies kCpuPriority
  // itself for releases that bypass ShouldRelease).
  ReleaseCause last_release_cause() const { return last_release_cause_; }

  // Causes parallel to the chip list returned by the most recent OnEpoch
  // call, captured at the moment each chip's release decision was made
  // (the shared last_release_cause() slot is overwritten as the epoch
  // loop scans later chips).
  const std::vector<ReleaseCause>& last_epoch_causes() const {
    return last_epoch_causes_;
  }

 private:
  // What the release rule reads of one chip's gated list.
  struct GateSummary {
    int distinct_buses = 0;
    int max_per_bus = 0;  // m: the most requests pending on one bus.
    Tick earliest_deadline = std::numeric_limits<Tick>::max();
  };

  // Upper bound U on the time to drain the chip's pending requests.
  double DrainBound(int chip) const;
  // Rule (b)'s depth: the most requests a chip holds when every
  // release_now is executed.
  std::size_t BufferCap() const {
    return static_cast<std::size_t>(gather_depth_ + k_);
  }

  TemporalAlignmentConfig config_;
  int bus_count_;
  int k_;
  int gather_depth_;
  SlackAccount slack_;

  std::vector<std::vector<GatedRequest>> gated_;  // Per chip.
  std::vector<GateSummary> summaries_;            // Per chip.
  // Requests pending per (chip, bus), chip-major, bus_count_ per chip.
  std::vector<int> pending_per_bus_;
  int total_pending_ = 0;
  std::int64_t buffered_bytes_ = 0;

  std::uint64_t total_gated_ = 0;
  // Attribution of the most recent release decision, updated by
  // ShouldRelease (mutable because the check is logically const).
  mutable bool last_release_was_quorum_ = false;
  mutable ReleaseCause last_release_cause_ = ReleaseCause::kQuorum;
  std::vector<int> epoch_releases_;
  std::vector<ReleaseCause> last_epoch_causes_;
  std::uint64_t released_quorum_ = 0;
  std::uint64_t released_slack_ = 0;
  std::int64_t max_buffered_bytes_ = 0;
};

}  // namespace dmasim

#endif  // DMASIM_CORE_TEMPORAL_ALIGNER_H_
