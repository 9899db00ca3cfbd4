// Differential test of DMA-TA's release decisions: the aligner decides
// from per-chip summaries that Gate updates and TakeGated resets, and a
// reference kept here recomputes rules (a)-(d) by scanning the chip's
// gated list on every call. Seeded random sequences of gates, releases,
// epochs, CPU accesses, slack credits and clock advances (onto exact
// deadlines too) must give the same decision, cause, epoch release list
// and release contents after every step.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/temporal_aligner.h"
#include "io/dma_transfer.h"
#include "util/random.h"

namespace dmasim {
namespace {

constexpr Tick kT = 480000;  // One 512-byte bus slot (ps).
constexpr std::int64_t kChunk = 512;

struct Decision {
  bool release = false;
  ReleaseCause cause = ReleaseCause::kQuorum;
};

// The rules as a scan of the gated list: distinct buses by bitmask, m
// by a 64-slot histogram, rule (c) by visiting every deadline.
class ReferenceAligner {
 public:
  ReferenceAligner(const TemporalAlignmentConfig& config, int bus_count,
                   int k)
      : bus_count_(bus_count),
        k_(k),
        gather_depth_(std::max(
            k, static_cast<int>(config.gather_depth_factor * k + 0.5))) {}

  // Mirrors one ShouldRelease call, including which release counter the
  // next non-empty TakeGated bumps.
  Decision ShouldRelease(const TemporalAligner& aligner, int chip,
                         Tick now) {
    const std::vector<GatedRequest>& list = aligner.GatedFor(chip);
    if (list.empty()) return {};
    std::uint64_t mask = 0;
    for (const GatedRequest& request : list) {
      mask |= 1ULL << (request.transfer->bus_id & 63);
    }
    int distinct = 0;
    for (; mask != 0; mask &= mask - 1) ++distinct;
    const int size = static_cast<int>(list.size());
    if (distinct >= k_ && size >= gather_depth_) {
      last_was_quorum_ = true;
      return {true, ReleaseCause::kQuorum};
    }
    if (size >= gather_depth_ + k_) {
      last_was_quorum_ = true;
      return {true, ReleaseCause::kBufferCap};
    }
    last_was_quorum_ = false;
    for (const GatedRequest& request : list) {
      if (request.deadline <= now) return {true, ReleaseCause::kDeadline};
    }
    const SlackAccount& slack = aligner.slack();
    if (slack.Exhausted()) return {true, ReleaseCause::kSlackExhausted};
    int per_bus[64] = {};
    int m = 0;
    for (const GatedRequest& request : list) {
      m = std::max(m, ++per_bus[request.transfer->bus_id & 63]);
    }
    const int groups = (bus_count_ + k_ - 1) / k_;
    const double drain = static_cast<double>(m) *
                         static_cast<double>(slack.t_request()) *
                         static_cast<double>(groups);
    if (static_cast<double>(size) * drain / 2.0 >= slack.slack()) {
      return {true, ReleaseCause::kSlackBound};
    }
    return {};
  }

  // The chips (and causes) OnEpoch must return, read after its debit.
  void Epoch(const TemporalAligner& aligner, int chips, Tick now,
             std::vector<int>* released, std::vector<ReleaseCause>* causes) {
    released->clear();
    causes->clear();
    if (aligner.TotalPending() == 0) return;
    if (aligner.slack().Exhausted()) {
      int oldest_chip = -1;
      Tick oldest = 0;
      for (int chip = 0; chip < chips; ++chip) {
        for (const GatedRequest& request : aligner.GatedFor(chip)) {
          if (oldest_chip < 0 || request.gated_at < oldest) {
            oldest = request.gated_at;
            oldest_chip = chip;
          }
        }
      }
      released->push_back(oldest_chip);
      causes->push_back(ReleaseCause::kEpochExhausted);
      return;
    }
    for (int chip = 0; chip < chips; ++chip) {
      const Decision decision = ShouldRelease(aligner, chip, now);
      if (decision.release) {
        released->push_back(chip);
        causes->push_back(decision.cause);
      }
    }
  }

  bool last_was_quorum() const { return last_was_quorum_; }

 private:
  int bus_count_;
  int k_;
  int gather_depth_;
  bool last_was_quorum_ = false;
};

std::string Where(int seed, int step) {
  return "seed " + std::to_string(seed) + " step " + std::to_string(step);
}

// One seeded sequence; returns false (after reporting) on the first
// mismatch. Every cause the aligner decides goes into `causes`.
bool RunSequence(int seed, std::set<ReleaseCause>* causes) {
  Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 17);
  const int chips = 1 + static_cast<int>(rng.NextBounded(8));
  const int buses = seed == 0 ? 64 : 1 + static_cast<int>(rng.NextBounded(4));
  const int k = 1 + static_cast<int>(rng.NextBounded(3));
  TemporalAlignmentConfig config;
  config.enabled = true;
  config.gather_depth_factor = 1.0 + 0.25 * static_cast<double>(
                                             rng.NextBounded(5));
  // mu in [0, 5]; every eighth sequence runs at exactly 0 (no slack).
  config.mu = rng.NextBounded(8) == 0 ? 0.0 : 5.0 * rng.NextDouble();
  config.epoch_length =
      kT / 4 + static_cast<Tick>(rng.NextBounded(8 * kT));
  TemporalAligner aligner(config, chips, buses, k, kT);
  ReferenceAligner reference(config, buses, k);

  std::deque<DmaTransfer> transfers;  // Stable addresses.
  std::vector<std::vector<GatedRequest>> gated(
      static_cast<std::size_t>(chips));
  std::vector<GatedRequest> taken;
  std::vector<int> epoch_chips;
  std::vector<ReleaseCause> epoch_causes;
  std::uint64_t quorum = 0;
  std::uint64_t slack = 0;
  Tick now = 0;
  int step = 0;

  const auto check = [&](bool ok, const char* what) {
    if (!ok) ADD_FAILURE() << Where(seed, step) << ": " << what;
    return ok;
  };
  // TakeGated, against the reference's copy of the chip's list.
  const auto take = [&](int chip) {
    const bool quorum_flag = reference.last_was_quorum();
    aligner.TakeGated(chip, &taken);
    std::vector<GatedRequest>& expected =
        gated[static_cast<std::size_t>(chip)];
    bool same = taken.size() == expected.size();
    for (std::size_t i = 0; same && i < taken.size(); ++i) {
      same = taken[i].transfer == expected[i].transfer &&
             taken[i].chunk_bytes == expected[i].chunk_bytes &&
             taken[i].gated_at == expected[i].gated_at &&
             taken[i].deadline == expected[i].deadline;
    }
    if (!expected.empty()) ++(quorum_flag ? quorum : slack);
    expected.clear();
    return check(same, "TakeGated contents or order") &&
           check(!aligner.HasGated(chip), "TakeGated left requests") &&
           check(aligner.ReleasedByQuorum() == quorum &&
                     aligner.ReleasedBySlack() == slack,
                 "release counters");
  };

  for (step = 0; step < 160; ++step) {
    const std::uint64_t op = rng.NextBounded(100);
    if (op < 38) {
      // Gate a new transfer's first request, as DeliverChunk does.
      const int chip = static_cast<int>(rng.NextBounded(
          static_cast<std::uint64_t>(chips)));
      DmaTransfer& transfer = transfers.emplace_back();
      transfer.id = transfers.size();
      transfer.bus_id = static_cast<int>(
          rng.NextBounded(static_cast<std::uint64_t>(buses)));
      const std::int64_t requests =
          1 + static_cast<std::int64_t>(rng.NextBounded(16));
      transfer.total_bytes = requests * kChunk -
                             static_cast<std::int64_t>(rng.NextBounded(2)) * 8;
      transfer.issued_bytes = kChunk;
      aligner.slack().CreditArrival();
      const TemporalAligner::GateResult result =
          aligner.Gate(chip, &transfer, kChunk, now);
      const Tick deadline =
          now + static_cast<Tick>(aligner.slack().mu() *
                                  static_cast<double>(kT) *
                                  static_cast<double>(requests));
      gated[static_cast<std::size_t>(chip)].push_back(
          GatedRequest{&transfer, kChunk, now, deadline});
      const Decision decision = reference.ShouldRelease(aligner, chip, now);
      if (!check(result.deadline == deadline, "Gate deadline") ||
          !check(result.release_now == decision.release, "Gate release_now")) {
        return false;
      }
      if (result.release_now) {
        causes->insert(aligner.last_release_cause());
        if (!check(aligner.last_release_cause() == decision.cause,
                   "Gate cause")) {
          return false;
        }
        if (rng.NextBounded(4) != 0 && !take(chip)) return false;
      }
    } else if (op < 50) {
      const int chip = static_cast<int>(rng.NextBounded(
          static_cast<std::uint64_t>(chips)));
      if (!take(chip)) return false;
    } else if (op < 60) {
      // Epoch boundary, then release what it returns, as the controller
      // does.
      const std::vector<int> released = aligner.OnEpoch(now);
      const std::vector<ReleaseCause> released_causes =
          aligner.last_epoch_causes();
      causes->insert(released_causes.begin(), released_causes.end());
      reference.Epoch(aligner, chips, now, &epoch_chips, &epoch_causes);
      if (!check(released == epoch_chips, "OnEpoch chips") ||
          !check(released_causes == epoch_causes, "OnEpoch causes")) {
        return false;
      }
      for (const int chip : released) {
        if (!take(chip)) return false;
      }
    } else if (op < 68) {
      const int chip = static_cast<int>(rng.NextBounded(
          static_cast<std::uint64_t>(chips)));
      aligner.OnCpuAccess(
          chip, Ticks(static_cast<Tick>(rng.NextBounded(2 * kT))));
    } else if (op < 78) {
      const std::uint64_t credits = 1 + rng.NextBounded(12);
      for (std::uint64_t i = 0; i < credits; ++i) {
        aligner.slack().CreditArrival();
      }
    } else {
      // Advance the clock: by a random span, or exactly onto (or just
      // before) a pending deadline, where rule (c)'s <= decides.
      std::vector<Tick> deadlines;
      for (const auto& list : gated) {
        for (const GatedRequest& request : list) {
          if (request.deadline >= now) deadlines.push_back(request.deadline);
        }
      }
      const std::uint64_t how = rng.NextBounded(3);
      if (how == 0 || deadlines.empty()) {
        now += static_cast<Tick>(rng.NextBounded(40 * kT));
      } else {
        const Tick target = deadlines[rng.NextBounded(deadlines.size())];
        now = how == 1 || target == now ? target : target - 1;
      }
    }

    // After every step, every chip's decision and cause agree.
    for (int chip = 0; chip < chips; ++chip) {
      const bool actual = aligner.ShouldRelease(chip, now);
      const Decision expected = reference.ShouldRelease(aligner, chip, now);
      if (!check(actual == expected.release, "ShouldRelease")) return false;
      if (actual) {
        causes->insert(aligner.last_release_cause());
        if (!check(aligner.last_release_cause() == expected.cause,
                   "last_release_cause")) {
          return false;
        }
      }
      const std::vector<GatedRequest>& list = aligner.GatedFor(chip);
      if (!check(list.size() == gated[static_cast<std::size_t>(chip)].size(),
                 "GatedFor size")) {
        return false;
      }
    }
  }
  return true;
}

TEST(TemporalAlignerDifferentialTest, SummariesDecideAsTheListScanDoes) {
  std::set<ReleaseCause> causes;
  for (int seed = 0; seed < 240; ++seed) {
    if (!RunSequence(seed, &causes)) break;
  }
  // Every cause the aligner itself decides occurred (kCpuPriority is the
  // controller's).
  for (const ReleaseCause cause :
       {ReleaseCause::kQuorum, ReleaseCause::kBufferCap,
        ReleaseCause::kDeadline, ReleaseCause::kSlackExhausted,
        ReleaseCause::kSlackBound, ReleaseCause::kEpochExhausted}) {
    EXPECT_EQ(causes.count(cause), 1u) << ReleaseCauseName(cause);
  }
}

}  // namespace
}  // namespace dmasim
