#include "spans.h"

#include <cstdio>

namespace dmabench {

namespace {

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kTraceGenerate:
      return "trace.generate";
    case SpanName::kRunUntil:
      return "sim.run_until";
    case SpanName::kServerRead:
      return "server.client_read";
    case SpanName::kServerWrite:
      return "server.client_write";
    case SpanName::kServerCpu:
      return "server.cpu_access";
    case SpanName::kPolicy:
      return "mem.policy";
    case SpanName::kCollect:
      return "stats.collect";
    case SpanName::kFleetRun:
      return "fleet.run";
  }
  return "?";
}

}  // namespace

SpanRecorder::SpanRecorder(std::size_t capacity)
    : origin_(std::chrono::steady_clock::now()), capacity_(capacity) {}

void SpanRecorder::Reset() {
  stack_.clear();
  records_.clear();
  dropped_ = 0;
  totals_ = {};
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id,parent,name,start_ns,end_ns\n");
  for (const Record& record : records_) {
    std::fprintf(out, "%u,%u,%s,%lld,%lld\n", record.id, record.parent,
                 SpanNameText(record.name),
                 static_cast<long long>(record.start_ns),
                 static_cast<long long>(record.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace dmabench
