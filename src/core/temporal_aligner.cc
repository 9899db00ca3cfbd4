#include "core/temporal_aligner.h"

#include <algorithm>

namespace dmasim {

TemporalAligner::TemporalAligner(const TemporalAlignmentConfig& config,
                                 int chip_count, int bus_count, int k,
                                 Tick t_request)
    : config_(config),
      bus_count_(bus_count),
      k_(k),
      gather_depth_(std::max(
          k, static_cast<int>(config.gather_depth_factor * k + 0.5))),
      slack_(std::max(config.mu, 0.0), t_request, config.slack_cap_requests),
      gated_(static_cast<std::size_t>(chip_count)),
      summaries_(static_cast<std::size_t>(chip_count)) {
  DMASIM_EXPECTS(chip_count > 0);
  DMASIM_EXPECTS(bus_count > 0);
  // See the header's limit note.
  DMASIM_EXPECTS(bus_count <= kMaxBuses);
  DMASIM_EXPECTS(k > 0);
  DMASIM_EXPECTS(config.gather_depth_factor >= 1.0);
  pending_per_bus_.assign(static_cast<std::size_t>(chip_count) *
                              static_cast<std::size_t>(bus_count),
                          0);
  // A chip holds at most gather_depth + k requests while its releases
  // are executed (rule b fires at that depth), so with every list and
  // release buffer reserved to that, the gate path never allocates.
  for (std::vector<GatedRequest>& list : gated_) list.reserve(BufferCap());
  epoch_releases_.reserve(static_cast<std::size_t>(chip_count));
  last_epoch_causes_.reserve(static_cast<std::size_t>(chip_count));
}

const char* ReleaseCauseName(ReleaseCause cause) {
  switch (cause) {
    case ReleaseCause::kQuorum:
      return "quorum";
    case ReleaseCause::kBufferCap:
      return "buffer-cap";
    case ReleaseCause::kDeadline:
      return "deadline";
    case ReleaseCause::kSlackExhausted:
      return "slack-exhausted";
    case ReleaseCause::kSlackBound:
      return "slack-bound";
    case ReleaseCause::kCpuPriority:
      return "cpu-priority";
    case ReleaseCause::kEpochExhausted:
      return "epoch-exhausted";
  }
  return "?";
}

namespace {

// The transfer's own delay budget: it contributes one mu*T credit per
// DMA-memory request, all of which may be spent delaying its first one.
Tick TransferBudget(const DmaTransfer& transfer, std::int64_t chunk_bytes,
                    double mu, Tick t_request) {
  const std::int64_t requests =
      (transfer.total_bytes + chunk_bytes - 1) / chunk_bytes;
  return static_cast<Tick>(mu * static_cast<double>(t_request) *
                           static_cast<double>(requests));
}

}  // namespace

bool TemporalAligner::WorthGating(const DmaTransfer& transfer,
                                  std::int64_t chunk_bytes) const {
  return TransferBudget(transfer, chunk_bytes, slack_.mu(),
                        slack_.t_request()) >= config_.min_gating_budget;
}

TemporalAligner::GateResult TemporalAligner::Gate(int chip,
                                                  DmaTransfer* transfer,
                                                  std::int64_t chunk_bytes,
                                                  Tick now) {
  DMASIM_EXPECTS(enabled());
  DMASIM_EXPECTS(transfer != nullptr);
  // DMA-TA lockstep: only a transfer's very first request may ever be
  // delayed — at gate time exactly one chunk has been issued (the one
  // being buffered) and none served.
  DMASIM_CHECK_EQ(transfer->issued_bytes, chunk_bytes);
  DMASIM_CHECK_EQ(transfer->completed_bytes, 0);
  const int bus = transfer->bus_id;
  DMASIM_EXPECTS(bus >= 0 && bus < bus_count_);
  auto& list = gated_[static_cast<std::size_t>(chip)];
  transfer->blocked = true;
  transfer->gated_at = now;
  transfer->obs_was_gated = true;

  const Tick budget =
      TransferBudget(*transfer, chunk_bytes, slack_.mu(), slack_.t_request());

  GatedRequest request{transfer, chunk_bytes, now, now + budget};
  list.push_back(request);
  GateSummary& summary = summaries_[static_cast<std::size_t>(chip)];
  int& on_bus = pending_per_bus_[static_cast<std::size_t>(chip) *
                                     static_cast<std::size_t>(bus_count_) +
                                 static_cast<std::size_t>(bus)];
  if (on_bus++ == 0) ++summary.distinct_buses;
  summary.max_per_bus = std::max(summary.max_per_bus, on_bus);
  summary.earliest_deadline =
      std::min(summary.earliest_deadline, request.deadline);
  ++total_pending_;
  ++total_gated_;
  buffered_bytes_ += chunk_bytes;
  max_buffered_bytes_ = std::max(max_buffered_bytes_, buffered_bytes_);
  return GateResult{ShouldRelease(chip, now), request.deadline};
}

double TemporalAligner::DrainBound(int chip) const {
  // U = m * T * ceil(r / k), m = max pending-per-bus for this chip.
  const int m = summaries_[static_cast<std::size_t>(chip)].max_per_bus;
  const int groups = (bus_count_ + k_ - 1) / k_;  // ceil(r / k)
  return static_cast<double>(m) * static_cast<double>(slack_.t_request()) *
         static_cast<double>(groups);
}

bool TemporalAligner::ShouldRelease(int chip, Tick now) const {
  const auto& list = gated_[static_cast<std::size_t>(chip)];
  if (list.empty()) return false;
  const GateSummary& summary = summaries_[static_cast<std::size_t>(chip)];
  // (a) Full utilization achievable: k distinct buses gathered.
  if (summary.distinct_buses >= k_ &&
      static_cast<int>(list.size()) >= gather_depth_) {
    last_release_was_quorum_ = true;
    last_release_cause_ = ReleaseCause::kQuorum;
    return true;
  }
  // (b) Buffer cap: with fewer than k distinct buses, waiting can still
  // upgrade the alignment, but not indefinitely -- beyond the configured
  // depth plus k the marginal gain cannot justify further queueing.
  if (static_cast<int>(list.size()) >= gather_depth_ + k_) {
    last_release_was_quorum_ = true;
    last_release_cause_ = ReleaseCause::kBufferCap;
    return true;
  }
  last_release_was_quorum_ = false;
  // (c) A gated transfer exhausted its own delay budget.
  if (summary.earliest_deadline <= now) {
    last_release_cause_ = ReleaseCause::kDeadline;
    return true;
  }
  // (d) Global guarantee: slack exhausted, or expected queueing delay of
  // the pending requests exceeds the remaining slack.
  if (slack_.Exhausted()) {
    last_release_cause_ = ReleaseCause::kSlackExhausted;
    return true;
  }
  const double n = static_cast<double>(list.size());
  const double expected_delay = n * DrainBound(chip) / 2.0;
  if (expected_delay >= slack_.slack()) {
    last_release_cause_ = ReleaseCause::kSlackBound;
    return true;
  }
  return false;
}

void TemporalAligner::TakeGated(int chip, std::vector<GatedRequest>* taken) {
  DMASIM_EXPECTS(taken != nullptr);
  taken->clear();
  taken->reserve(BufferCap());  // Once per caller buffer; see the ctor.
  taken->swap(gated_[static_cast<std::size_t>(chip)]);
  total_pending_ -= static_cast<int>(taken->size());
  DMASIM_CHECK_GE(total_pending_, 0);
  int* per_bus = &pending_per_bus_[static_cast<std::size_t>(chip) *
                                   static_cast<std::size_t>(bus_count_)];
  for (const GatedRequest& request : *taken) {
    buffered_bytes_ -= request.chunk_bytes;
    per_bus[request.transfer->bus_id] = 0;
  }
  summaries_[static_cast<std::size_t>(chip)] = GateSummary{};
  if (!taken->empty()) {
    if (last_release_was_quorum_) {
      ++released_quorum_;
    } else {
      ++released_slack_;
    }
  }
}

const std::vector<int>& TemporalAligner::OnEpoch(Tick now) {
  slack_.DebitEpoch(Ticks(config_.epoch_length), total_pending_);
  std::vector<int>& to_release = epoch_releases_;
  to_release.clear();
  last_epoch_causes_.clear();
  if (total_pending_ == 0) return to_release;

  if (slack_.Exhausted()) {
    // Safety valve: the per-transfer deadlines (rule c) already bound each
    // request's delay, so on global exhaustion it suffices to drain the
    // single chip holding the oldest request. Releasing *all* gated chips
    // here would synchronize their transfers onto shared I/O buses and
    // stretch every one of them (a convoy), wasting the energy the
    // technique is meant to save.
    int oldest_chip = -1;
    Tick oldest = 0;
    for (int chip = 0; chip < static_cast<int>(gated_.size()); ++chip) {
      for (const GatedRequest& request : gated_[static_cast<std::size_t>(
               chip)]) {
        if (oldest_chip < 0 || request.gated_at < oldest) {
          oldest = request.gated_at;
          oldest_chip = chip;
        }
      }
    }
    if (oldest_chip >= 0) {
      to_release.push_back(oldest_chip);
      last_epoch_causes_.push_back(ReleaseCause::kEpochExhausted);
    }
    return to_release;
  }

  for (int chip = 0; chip < static_cast<int>(gated_.size()); ++chip) {
    if (HasGated(chip) && ShouldRelease(chip, now)) {
      to_release.push_back(chip);
      last_epoch_causes_.push_back(last_release_cause_);
    }
  }
  return to_release;
}

void TemporalAligner::OnCpuAccess(int chip, Ticks service_time) {
  const int pending = PendingFor(chip);
  if (pending > 0) slack_.DebitCpuService(service_time, pending);
}

}  // namespace dmasim
