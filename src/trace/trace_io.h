// Text serialization of traces.
//
// Format: one record per line, `<time_ps> <kind> <page> <bytes>` where
// kind is R (client read), W (client write), or C (CPU access), in
// non-decreasing time order. Lines starting with '#' are comments. The
// format is deliberately trivial so external traces can be converted into
// it with a one-line awk script.
#ifndef DMASIM_TRACE_TRACE_IO_H_
#define DMASIM_TRACE_TRACE_IO_H_

#include <iosfwd>
#include <string>

#include "trace/trace.h"

namespace dmasim {

// Writes `trace` to `os`. Returns the number of records written.
std::size_t WriteTrace(const Trace& trace, std::ostream& os);

// Parses a trace from `is`. Returns false (and leaves `out` untouched) on
// malformed input; `error` receives a diagnostic if non-null.
bool ReadTrace(std::istream& is, Trace* out, std::string* error = nullptr);

}  // namespace dmasim

#endif  // DMASIM_TRACE_TRACE_IO_H_
