// Workload trace records.
//
// A trace is a time-sorted sequence of client-level events that the server
// layer expands into DMA transfers and processor accesses (Fig. 1 of the
// paper): a client read becomes a network DMA (cache hit) or a disk DMA
// followed by a network DMA (miss); a client write becomes a network DMA
// in and a deferred disk write; a CPU access is a 64-byte cache-line
// reference served by the memory directly.
#ifndef DMASIM_TRACE_TRACE_H_
#define DMASIM_TRACE_TRACE_H_

#include <cstdint>
#include <vector>

#include "util/time.h"

namespace dmasim {

enum class TraceEventKind : int {
  kClientRead = 0,
  kClientWrite,
  kCpuAccess,
};

// Fields run from widest to narrowest, so a record packs into 24 bytes
// with no padding; an OLTP-Db trace holds 23.3k of them per ms.
struct TraceRecord {
  Tick time = 0;
  std::uint64_t page = 0;   // Logical page number.
  std::int32_t bytes = 0;   // Payload size (page size or cache line).
  TraceEventKind kind = TraceEventKind::kClientRead;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};
static_assert(sizeof(TraceRecord) == 24);

using Trace = std::vector<TraceRecord>;

// Returns true if records are sorted by non-decreasing time.
bool IsTimeSorted(const Trace& trace);

// Basic aggregate statistics about a trace.
struct TraceSummary {
  std::uint64_t client_reads = 0;
  std::uint64_t client_writes = 0;
  std::uint64_t cpu_accesses = 0;
  Tick duration = 0;
  std::uint64_t distinct_pages = 0;

  double ReadsPerMs() const {
    return duration > 0 ? static_cast<double>(client_reads) /
                              (static_cast<double>(duration) / kMillisecond)
                        : 0.0;
  }
  double CpuAccessesPerMs() const {
    return duration > 0 ? static_cast<double>(cpu_accesses) /
                              (static_cast<double>(duration) / kMillisecond)
                        : 0.0;
  }
};

TraceSummary Summarize(const Trace& trace);

// Popularity CDF point: the most popular `page_fraction` of referenced
// pages receive `access_fraction` of all DMA-triggering accesses.
struct CdfPoint {
  double page_fraction = 0.0;
  double access_fraction = 0.0;
};

// Computes the popularity CDF of client read/write events (Fig. 4).
// Returns points at each integer percent of pages, plus (0, 0).
std::vector<CdfPoint> PopularityCdf(const Trace& trace);

// Fraction of accesses covered by the top `page_fraction` of pages
// (interpolated from the CDF).
double AccessShareOfTopPages(const std::vector<CdfPoint>& cdf,
                             double page_fraction);

}  // namespace dmasim

#endif  // DMASIM_TRACE_TRACE_H_
