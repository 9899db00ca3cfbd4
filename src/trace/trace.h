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

#include "util/check.h"
#include "util/time.h"

namespace dmasim {

// Unsigned, so that a 2-bit field holds every kind.
enum class TraceEventKind : std::uint8_t {
  kClientRead = 0,
  kClientWrite,
  kCpuAccess,
};

// The widest values a record holds: pages below 2^32 (the paper's 1 GB
// memory is 2^17 pages of 8 KB) and payloads of 1 to 2^29 - 1 bytes.
inline constexpr std::uint64_t kTracePageLimit = std::uint64_t{1} << 32;
inline constexpr std::int64_t kMaxTraceRecordBytes =
    (std::int64_t{1} << 29) - 1;

// 16 bytes: the time, a 32-bit page, and the payload size and kind
// packed into the last 4. An OLTP-Db trace holds 23.3k records per ms.
struct TraceRecord {
  TraceRecord() = default;
  // Aborts unless `record_page` and `record_bytes` are within the limits
  // above, so no value is truncated into its field.
  TraceRecord(Tick record_time, std::uint64_t record_page,
              std::int64_t record_bytes, TraceEventKind record_kind)
      : time(record_time),
        page(static_cast<std::uint32_t>(record_page)),
        bytes(static_cast<std::int32_t>(record_bytes)),
        kind(record_kind) {
    DMASIM_EXPECTS(record_page < kTracePageLimit);
    DMASIM_EXPECTS(record_bytes >= 1 && record_bytes <= kMaxTraceRecordBytes);
  }

  Tick time = 0;
  std::uint32_t page = 0;    // Logical page number.
  std::int32_t bytes : 30 = 0;  // Payload size (page size or cache line).
  TraceEventKind kind : 2 = TraceEventKind::kClientRead;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};
static_assert(sizeof(TraceRecord) == 16);

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
