// DMA-aware memory controller (the paper's primary contribution).
//
// The controller owns the memory chips and I/O buses, routes logical pages
// to chips, gives processor accesses priority, and layers the two
// DMA-aware techniques on top of the chip-local low-power policy:
//   * DMA-TA (`TemporalAligner` + `SlackAccount`): first requests of
//     transfers headed to sleeping chips are buffered until enough
//     requests from distinct buses have gathered or the slack account
//     forces a release (Section 4.1);
//   * PL (`PopularityTracker` + `LayoutManager`): pages are periodically
//     migrated so popular pages concentrate on a few hot chips
//     (Section 4.2), increasing alignment opportunities and letting cold
//     chips sleep.
#ifndef DMASIM_CORE_MEMORY_CONTROLLER_H_
#define DMASIM_CORE_MEMORY_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dma_aware_config.h"
#include "core/layout_manager.h"
#include "core/popularity_tracker.h"
#include "core/temporal_aligner.h"
#include "io/dma_transfer.h"
#include "io/io_bus.h"
#include "io/transfer_pool.h"
#include "mem/chip_power_model.h"
#include "mem/memory_chip.h"
#include "mem/power_model.h"
#include "mem/power_policy.h"
#include "mon/monitor_config.h"
#include "mon/region_monitor.h"
#include "obs/event_trace.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"
#include "stats/accumulators.h"
#include "stats/energy.h"
#include "stats/histogram.h"
#include "util/time.h"

namespace dmasim {

// Static description of the simulated memory system. Defaults follow the
// paper's setup: 32 x 32 MB RDRAM chips (1 GB), three PCI-X buses whose
// bandwidth is exactly one third of the 3.2 GB/s memory bandwidth (the
// 12-cycles-per-8-byte arithmetic of Fig. 2a).
struct MemorySystemConfig {
  int chips = 32;
  int pages_per_chip = 4096;       // 32 MB chips of 8 KB pages.
  std::int64_t page_bytes = 8192;
  PowerModel power;
  // Which chip power/timing model the chips instantiate. The RDRAM
  // default consumes the `power` parameter block; see
  // mem/chip_power_model.h for the family.
  ChipModelKind chip_model = ChipModelKind::kRdram;
  // Calibration knobs for the kDdr4 member (ignored elsewhere). Defaults
  // are the pristine DDR4-2400 values; tests perturb them to seed faults.
  Ddr4Options ddr4;

  int bus_count = 3;
  // 8 bytes per 12 memory cycles.
  double bus_bandwidth = 8.0 / (12.0 * 625.0e-12);
  // DMA-memory request size used for event simulation. The paper's PCI-X
  // request size is 8 bytes; simulating at that granularity costs two
  // events per 8 bytes moved, so the default coarsens requests to 512
  // bytes (64x fewer events). Because bus and memory bandwidth scale the
  // same way, per-chunk serving/idle proportions — and therefore every
  // energy fraction — are unchanged (see DESIGN.md); only event-level
  // interleaving granularity is coarser. Set 8 for the literal paper
  // timing.
  std::int64_t chunk_bytes = 512;

  // Serve back-to-back chunks of an uncontended transfer in one event
  // (identical results, fewer events). Off reproduces the strict
  // two-events-per-chunk execution.
  bool coalesce_chunk_runs = true;

  DmaAwareConfig dma;

  // Online access monitor + declarative schemes (src/mon). Disabled by
  // default; when disabled the controller schedules no monitor events and
  // runs bit-identically to a build without the monitor.
  MonitorConfig monitor;

  std::uint64_t TotalPages() const {
    return static_cast<std::uint64_t>(chips) *
           static_cast<std::uint64_t>(pages_per_chip);
  }
  double MemoryBandwidth() const {
    const ChipTiming timing = ChipModelTiming(chip_model, power);
    return timing.bytes_per_cycle / TicksToSeconds(timing.cycle);
  }
  // k = ceil(Rm / Rb), with a tolerance so the paper's exact 3x ratio
  // yields k = 3.
  int AlignmentQuorum() const;
  // T: one I/O-bus slot for a chunk-sized request.
  Tick RequestTime() const;
};

struct ControllerStats {
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t cpu_accesses = 0;
  std::uint64_t migrations = 0;        // Page copies charged.
  std::uint64_t migration_rounds = 0;  // PL intervals that planned moves.
  std::uint64_t deferred_migrations = 0;
};

class MemoryController : public DmaRequestSink {
 public:
  using Callback = SmallFunction<void(Tick)>;

  // `policy` must outlive the controller.
  MemoryController(Simulator* simulator, const MemorySystemConfig& config,
                   const LowPowerPolicy* policy);
  ~MemoryController() override;

  MemoryController(const MemoryController&) = delete;
  MemoryController& operator=(const MemoryController&) = delete;

  // Starts a DMA transfer of `bytes` for `logical_page` on `bus`.
  // `on_complete` fires when the final DMA-memory request has been served.
  // Returns the transfer id.
  std::uint64_t StartDmaTransfer(int bus, std::uint64_t logical_page,
                                 std::int64_t bytes, DmaKind kind,
                                 Callback on_complete);

  // A processor access (cache-line granularity) to `logical_page`.
  // The callback goes straight into a ChipRequest, hence the smaller
  // capture budget than the transfer-level Callback.
  void CpuAccess(std::uint64_t logical_page, std::int64_t bytes,
                 ChipCallback on_complete = {});

  // DmaRequestSink:
  void DeliverChunk(DmaTransfer* transfer, std::int64_t chunk_bytes,
                    bool first) override;

  // --- Results -----------------------------------------------------------

  // Flushes chip accounting and returns the aggregate energy breakdown.
  EnergyBreakdown CollectEnergy();

  // uf = DMA serving time / (DMA serving time + active-idle-DMA time)
  // (Section 5.3).
  double UtilizationFactor();

  // Per DMA-memory-request service time (bus issue -> chip completion),
  // including any DMA-TA gating delay.
  const RunningMean& ChunkServiceTime() const { return chunk_service_; }
  // Per-transfer latency (start -> last chunk served).
  const RunningMean& TransferLatency() const { return transfer_latency_; }

  const ControllerStats& stats() const { return stats_; }
  const TemporalAligner& aligner() const { return *aligner_; }
  const PopularityTracker& popularity() const { return popularity_; }
  // Null unless config.monitor.enabled.
  const RegionMonitor* monitor() const { return monitor_.get(); }

  // DMA transfers started per chip (shows how PL concentrates traffic).
  const std::vector<std::uint64_t>& TransfersPerChip() const {
    return transfers_per_chip_;
  }
  // Fraction of transfers that targeted the busiest chip.
  double HottestChipShare() const;

  int ChipOf(std::uint64_t logical_page) const {
    DMASIM_EXPECTS(logical_page < page_to_chip_.size());
    return page_to_chip_[logical_page];
  }
  // Chip of every logical page (ChipOf for all pages at once).
  const std::vector<std::int32_t>& page_to_chip() const {
    return page_to_chip_;
  }
  MemoryChip& chip(int index) { return *chips_[static_cast<std::size_t>(index)]; }
  IoBus& bus(int index) { return *buses_[static_cast<std::size_t>(index)]; }
  int chip_count() const { return static_cast<int>(chips_.size()); }
  int bus_count() const { return static_cast<int>(buses_.size()); }
  const MemorySystemConfig& config() const { return config_; }
  // The chip power/timing model instance all chips share.
  const ChipPowerModel& chip_model() const { return *chip_model_; }
  std::uint64_t InFlightTransfers() const { return pool_.ActiveCount(); }

  // Observability hook points, filled in by SimulationObserver. All
  // pointers are optional (null = not collected); none of them influences
  // simulation behaviour.
  struct ObsHooks {
    // Ticks a gated first request waited before its chip was released.
    Histogram* gate_delay = nullptr;
    // Per-transfer latency (start -> last chunk served), ticks.
    Histogram* transfer_latency = nullptr;
    EventTracer* tracer = nullptr;
  };
  void SetObsHooks(const ObsHooks& hooks) { obs_ = hooks; }

 private:
  void ForwardChunk(DmaTransfer* transfer, std::int64_t chunk_bytes,
                    Tick issue_time, bool first);
  void OnChunkComplete(DmaTransfer* transfer, std::int64_t chunk_bytes,
                       Tick issue_time, Tick completion);
  void CompleteTransfer(DmaTransfer* transfer, Tick completion);
  // `cause` is attribution for observability only.
  void ReleaseChip(int chip_index, ReleaseCause cause);
  void ScheduleEpoch();
  void ScheduleLayoutInterval();
  void RunLayoutInterval();
  // Schedules the access monitor's occupancy probe at the first sampling
  // tick strictly after Now(). The probe does not re-arm itself.
  void ArmMonitorProbe();
  void ScheduleMonitorAggregation();

  // --- Chunk-run coalescing ----------------------------------------------
  // A "run" serves consecutive chunks of one transfer that exclusively
  // owns its chip and bus in a single run-end event instead of 2 events
  // per chunk. TryStartRun bounds the run by the kernel's next pending
  // event (Simulator::NextPendingTick): only chunks completing strictly
  // before that horizon are absorbed, so nothing can execute, observe, or
  // schedule during the run window — the elided events form a contiguous
  // sequence-number block and every surviving event keeps its exact
  // (time, seq) order, which is what keeps artifacts byte-identical.
  // FinishRun replays the absorbed bookkeeping in identical order, to the
  // same floating-point sums. SettleRun / SettleAllRuns remain for
  // boundary cases where external callers (CollectEnergy,
  // UtilizationFactor, or direct driver/test API calls) need mid-run
  // state; during event execution the horizon rule makes them no-ops.
  bool TryStartRun(DmaTransfer* transfer, Tick now);
  std::uint64_t AdvanceRunChunks(DmaTransfer* transfer, Tick bound);
  void SettleRun(DmaTransfer* transfer, Tick bound);
  void SettleAllRuns(Tick bound);
  void FinishRun(DmaTransfer* transfer, std::uint64_t generation);

  Simulator* simulator_;
  MemorySystemConfig config_;
  std::unique_ptr<ChipPowerModel> chip_model_;
  std::vector<std::unique_ptr<MemoryChip>> chips_;
  std::vector<std::unique_ptr<IoBus>> buses_;
  std::vector<std::int32_t> page_to_chip_;

  std::unique_ptr<TemporalAligner> aligner_;
  PopularityTracker popularity_;
  LayoutManager layout_;
  // The oracle's referenced pages as planner input, rebuilt every round.
  std::vector<PageCountRun> oracle_runs_;
  std::unique_ptr<RegionMonitor> monitor_;  // Null when disabled.
  // A probe event is pending (armed by a transfer that started unseen).
  bool probe_armed_ = false;

  TransferPool pool_;
  std::uint64_t next_transfer_id_ = 1;
  std::uint64_t layout_intervals_run_ = 0;

  // Active runs, indexed both ways for O(1) settle on perturbation.
  std::vector<DmaTransfer*> run_by_chip_;
  std::vector<DmaTransfer*> run_by_bus_;
  int active_runs_ = 0;

  RunningMean chunk_service_;
  RunningMean transfer_latency_;
  ControllerStats stats_;
  std::vector<std::uint64_t> transfers_per_chip_;

  ObsHooks obs_;
};

}  // namespace dmasim

#endif  // DMASIM_CORE_MEMORY_CONTROLLER_H_
