#include "trace/trace_io.h"

#include <istream>
#include <ostream>
#include <sstream>

namespace dmasim {
namespace {

char KindChar(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kClientRead:
      return 'R';
    case TraceEventKind::kClientWrite:
      return 'W';
    case TraceEventKind::kCpuAccess:
      return 'C';
  }
  return '?';
}

bool KindFromChar(char c, TraceEventKind* kind) {
  switch (c) {
    case 'R':
      *kind = TraceEventKind::kClientRead;
      return true;
    case 'W':
      *kind = TraceEventKind::kClientWrite;
      return true;
    case 'C':
      *kind = TraceEventKind::kCpuAccess;
      return true;
    default:
      return false;
  }
}

}  // namespace

std::size_t WriteTrace(const Trace& trace, std::ostream& os) {
  os << "# dmasim trace v1: time_ps kind page bytes\n";
  for (const TraceRecord& record : trace) {
    os << record.time << ' ' << KindChar(record.kind) << ' ' << record.page
       << ' ' << record.bytes << '\n';
  }
  return trace.size();
}

bool ReadTrace(std::istream& is, Trace* out, std::string* error) {
  Trace parsed;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;

    std::istringstream fields(line);
    // Parsed wide, so a value past a record field's limit is rejected
    // rather than truncated into the field.
    Tick time = 0;
    char kind_char = '?';
    std::uint64_t page = 0;
    std::int64_t bytes = 0;
    TraceEventKind kind = TraceEventKind::kClientRead;
    std::string trailing;
    if (!(fields >> time >> kind_char >> page >> bytes) ||
        !KindFromChar(kind_char, &kind) || time < 0 ||
        page >= kTracePageLimit || bytes < 1 ||
        bytes > kMaxTraceRecordBytes ||
        // Records must be in time order (equal times are fine): RunTrace
        // replays them as they come.
        (!parsed.empty() && time < parsed.back().time) ||
        // A record is exactly four fields; anything after `bytes` (e.g.
        // "100 R 5 4096 junk") means a corrupted or mis-columned trace
        // and must not be silently accepted.
        static_cast<bool>(fields >> trailing)) {
      if (error != nullptr) {
        std::ostringstream message;
        message << "malformed trace record at line " << line_number << ": "
                << line;
        *error = message.str();
      }
      return false;
    }
    parsed.emplace_back(time, page, bytes, kind);
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace dmasim
