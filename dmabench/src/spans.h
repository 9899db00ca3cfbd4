// Host-time spans recorded from outside the simulator.
//
// The benchmark wraps its own calls into each layer's public functions
// (trace generation, the data server's ingress calls, the low-power
// policy, the kernel's RunUntil, result collection) in spans. A span has
// a name, a start, an end and the id of the span that was open when it
// began. Totals per name (count, total time, self time = total minus the
// time covered by child spans) are kept for every span; the span records
// themselves are kept in memory up to a fixed capacity and written out
// when the benchmark ends.
#ifndef DMABENCH_SPANS_H_
#define DMABENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dmabench {

enum class SpanName : std::uint8_t {
  kTraceGenerate = 0,  // GenerateWorkload.
  kRunUntil,           // Simulator::RunUntil (kernel + everything below).
  kServerRead,         // DataServer::ClientRead.
  kServerWrite,        // DataServer::ClientWrite.
  kServerCpu,          // DataServer::CpuAccess.
  kPolicy,             // LowPowerPolicy::NextStep.
  kCollect,            // CollectRunResults (incl. the CollectEnergy flush).
  kFleetRun,           // RunFleet.
};
inline constexpr int kSpanNameCount = 8;

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  // Keeps the first `capacity` span records; totals cover every span.
  explicit SpanRecorder(std::size_t capacity);

  void Begin(SpanName name) {
    stack_.push_back(Open{next_id_++, name, Now(), 0});
  }

  void End() {
    const std::int64_t end = Now();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = end - open.start_ns;
    Totals& totals = totals_[static_cast<int>(open.name)];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - open.child_ns;
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (records_.size() < capacity_) {
      records_.push_back(Record{open.id, parent, open.name, open.start_ns, end});
    } else {
      ++dropped_;
    }
  }

  const Totals& totals(SpanName name) const {
    return totals_[static_cast<int>(name)];
  }
  // Forgets totals and records (the next span ids continue).
  void Reset();

  std::uint64_t dropped() const { return dropped_; }
  std::size_t recorded() const { return records_.size(); }

  // Writes the kept records as CSV (id,parent,name,start_ns,end_ns;
  // parent 0 = a root span). Returns false when the file can't be written.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t id;
    SpanName name;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Record {
    std::uint32_t id;
    std::uint32_t parent;
    SpanName name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::size_t capacity_;
  std::uint32_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::array<Totals, kSpanNameCount> totals_ = {};
};

// Records one span around its own lifetime.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, SpanName name) : recorder_(recorder) {
    recorder_->Begin(name);
  }
  ~SpanScope() { recorder_->End(); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace dmabench

#endif  // DMABENCH_SPANS_H_
