#include "trace/workloads.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace/zipf.h"
#include "util/check.h"
#include "util/random.h"

namespace dmasim {
namespace {

bool EarlierTime(const TraceRecord& a, const TraceRecord& b) {
  return a.time < b.time;
}

// Sorts draws from [0, 1) in expected linear time: a counting pass over
// one equal-width bucket per draw, then an insertion sort that only has
// to order the few draws sharing a bucket. Keeps its buffers between
// calls.
class UnitDrawSorter {
 public:
  void Sort(std::vector<double>* draws) {
    const std::size_t n = draws->size();
    auto bucket = [n](double u) {
      return std::min(static_cast<std::size_t>(u * static_cast<double>(n)),
                      n - 1);
    };
    bucket_ends_.assign(n + 1, 0);
    for (const double u : *draws) ++bucket_ends_[bucket(u) + 1];
    for (std::size_t b = 1; b <= n; ++b) bucket_ends_[b] += bucket_ends_[b - 1];
    sorted_.resize(n);
    for (const double u : *draws) sorted_[bucket_ends_[bucket(u)]++] = u;
    for (std::size_t i = 1; i < n; ++i) {
      const double u = sorted_[i];
      std::size_t j = i;
      for (; j > 0 && sorted_[j - 1] > u; --j) sorted_[j] = sorted_[j - 1];
      sorted_[j] = u;
    }
    draws->swap(sorted_);
  }

 private:
  std::vector<double> sorted_;
  std::vector<std::uint32_t> bucket_ends_;
};

}  // namespace

Trace GenerateWorkload(const WorkloadSpec& spec) {
  DMASIM_EXPECTS(spec.client_reads_per_ms > 0.0);
  DMASIM_EXPECTS(spec.duration > 0);
  DMASIM_EXPECTS(spec.write_fraction >= 0.0 && spec.write_fraction <= 1.0);
  DMASIM_EXPECTS(spec.miss_ratio >= 0.0 && spec.miss_ratio <= 1.0);
  DMASIM_EXPECTS(spec.burst_factor >= 1.0);
  // No record may precede its own request: the merge below relies on it.
  DMASIM_EXPECTS(spec.cpu_window >= 0);
  DMASIM_EXPECTS(spec.sequential_gap >= 0);
  // ReadTrace rejects a record of no bytes, so none may be generated.
  DMASIM_EXPECTS(spec.page_bytes > 0);
  DMASIM_EXPECTS(spec.cpu_access_bytes > 0);

  Rng rng(spec.seed);
  ZipfPagePicker picker(spec.pages, spec.zipf_alpha);

  // Recency pool for temporal locality (ring buffer of distinct pages).
  std::vector<std::uint64_t> pool;
  std::size_t pool_cursor = 0;
  auto pick_page = [&]() {
    if (spec.locality_probability > 0.0 && !pool.empty() &&
        rng.NextDouble() < spec.locality_probability) {
      return pool[rng.NextBounded(pool.size())];
    }
    const std::uint64_t page = picker.Pick(rng);
    if (spec.locality_probability > 0.0) {
      if (pool.size() < spec.locality_pool_pages) {
        pool.push_back(page);
      } else {
        pool[pool_cursor] = page;
        pool_cursor = (pool_cursor + 1) % pool.size();
      }
    }
    return page;
  };

  Trace trace;
  // Rough reservation: requests plus CPU accesses.
  const double per_ms =
      spec.client_reads_per_ms * (1.0 + spec.cpu_accesses_per_transfer);
  trace.reserve(static_cast<std::size_t>(
      per_ms * static_cast<double>(spec.duration) / kMillisecond * 1.1));

  // One pass, with no sort of the whole trace: `trace` always holds the
  // records drawn so far in (time, draw order), the order a stable sort
  // by time gives. Each request's records go into `batch` in that order
  // and are merged into the pending tail of `trace`, the records later
  // than the request. Nothing before the tail can move: arrivals strictly
  // increase and no record precedes its own request.
  Trace batch;
  std::vector<double> draws;
  UnitDrawSorter draw_sorter;

  // Renormalize the exponential mean so that burst-shortened gaps do not
  // inflate the average arrival rate.
  const double burst_shrink =
      (1.0 - spec.burst_fraction) + spec.burst_fraction / spec.burst_factor;
  const double mean_gap_ps = static_cast<double>(kMillisecond) /
                             spec.client_reads_per_ms / burst_shrink;
  Tick now = 0;
  while (true) {
    double gap = rng.NextExponential(mean_gap_ps);
    if (spec.burst_fraction > 0.0 && rng.NextDouble() < spec.burst_fraction) {
      gap /= spec.burst_factor;
    }
    now += static_cast<Tick>(gap) + 1;
    if (now >= spec.duration) break;

    TraceRecord request;
    request.time = now;
    request.kind = rng.NextDouble() < spec.write_fraction
                       ? TraceEventKind::kClientWrite
                       : TraceEventKind::kClientRead;
    request.page = pick_page();
    request.bytes = spec.page_bytes;
    batch.assign(1, request);

    if (spec.sequential_run_mean > 1.0) {
      // Geometric run of consecutive pages (a scan), in time order.
      const double continue_probability = 1.0 - 1.0 / spec.sequential_run_mean;
      std::uint64_t page = request.page;
      Tick when = now;
      while (rng.NextDouble() < continue_probability) {
        page = (page + 1) % spec.pages;
        when += spec.sequential_gap;
        if (when >= spec.duration) break;
        TraceRecord next = request;
        next.time = when;
        next.page = page;
        batch.push_back(next);
      }
    }
    const std::size_t run_end = batch.size();

    if (spec.cpu_accesses_per_transfer > 0.0) {
      // The accesses differ only in time, so sorting their draws puts
      // them in time order; equal times are identical records.
      draws.resize(rng.NextPoisson(spec.cpu_accesses_per_transfer));
      for (double& u : draws) u = rng.NextDouble();
      draw_sorter.Sort(&draws);
      const double window = static_cast<double>(spec.cpu_window);
      for (const double u : draws) {
        const Tick time = now + static_cast<Tick>(u * window);
        if (time >= spec.duration) break;  // So is every later access.
        batch.push_back({time, request.page, spec.cpu_access_bytes,
                         TraceEventKind::kCpuAccess});
      }
    }
    // The accesses were drawn after the scan run, so they follow it on
    // equal times.
    std::inplace_merge(batch.begin(), batch.begin() + run_end, batch.end(),
                       EarlierTime);

    std::size_t pending = trace.size();
    while (pending > 0 && trace[pending - 1].time > now) --pending;
    const std::size_t drawn = trace.size();
    trace.insert(trace.end(), batch.begin(), batch.end());
    std::inplace_merge(trace.begin() + pending, trace.begin() + drawn,
                       trace.end(), EarlierTime);
  }
  return trace;
}

WorkloadSpec OltpStorageSpec() {
  WorkloadSpec spec;
  spec.name = "OLTP-St";
  spec.client_reads_per_ms = 45.0;
  spec.miss_ratio = 16.7 / 45.0;
  // Zipf(1) over the full page space reproduces Fig. 4's popularity CDF
  // over *referenced* pages: for traces of this rate and length, the top
  // ~20% of touched pages receive ~60% of the DMA accesses (verified by
  // bench_fig4_popularity_cdf).
  spec.zipf_alpha = 1.0;
  // Real storage traces are bursty; the Poisson-only arrival process is
  // reserved for the Synthetic-* presets (Table 2).
  spec.burst_factor = 8.0;
  spec.burst_fraction = 0.3;
  spec.seed = 0x517;
  return spec;
}

WorkloadSpec SyntheticStorageSpec() {
  WorkloadSpec spec;
  spec.name = "Synthetic-St";
  spec.client_reads_per_ms = 80.0;  // + 20 disk DMAs/ms = 100 transfers/ms.
  spec.miss_ratio = 0.25;
  spec.zipf_alpha = 1.0;
  spec.seed = 0x5717;
  return spec;
}

WorkloadSpec OltpDatabaseSpec() {
  WorkloadSpec spec;
  spec.name = "OLTP-Db";
  spec.client_reads_per_ms = 100.0;
  spec.miss_ratio = 0.0;  // Table 2: processor + network DMA accesses only.
  spec.zipf_alpha = 1.0;  // See OltpStorageSpec on Fig. 4.
  spec.burst_factor = 8.0;
  spec.burst_fraction = 0.3;
  spec.cpu_accesses_per_transfer = 233.0;
  spec.request_compute_time = 5 * kMillisecond;  // TPC-C transaction work.
  spec.seed = 0xDB;
  return spec;
}

WorkloadSpec SyntheticDatabaseSpec() {
  WorkloadSpec spec;
  spec.name = "Synthetic-Db";
  spec.client_reads_per_ms = 100.0;
  spec.miss_ratio = 0.0;
  spec.zipf_alpha = 1.0;
  spec.cpu_accesses_per_transfer = 100.0;  // 10,000 accesses/ms.
  spec.request_compute_time = 5 * kMillisecond;
  spec.seed = 0x5DB;
  return spec;
}

WorkloadSpec DssStorageSpec() {
  WorkloadSpec spec;
  spec.name = "DSS-St";
  // Scan-dominated: fewer request starts, each a ~16-page sequential run,
  // comparable aggregate bandwidth to OLTP-St.
  spec.client_reads_per_ms = 4.0;
  spec.miss_ratio = 0.5;  // Scans stream from disk half the time.
  spec.zipf_alpha = 0.6;  // Mild skew: fact tables dominate.
  spec.sequential_run_mean = 16.0;
  spec.seed = 0xD55;
  return spec;
}

WorkloadSpec WithIntensity(WorkloadSpec spec, double transfers_per_ms) {
  DMASIM_EXPECTS(transfers_per_ms > 0.0);
  spec.client_reads_per_ms = transfers_per_ms / (1.0 + spec.miss_ratio);
  return spec;
}

WorkloadSpec WithCpuAccessesPerTransfer(WorkloadSpec spec, double accesses) {
  DMASIM_EXPECTS(accesses >= 0.0);
  spec.cpu_accesses_per_transfer = accesses;
  return spec;
}

}  // namespace dmasim
