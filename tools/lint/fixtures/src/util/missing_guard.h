// expect-lint: header-guard
// Fixture: a header with no include guard at all is reported on line 1.

namespace dmasim {}
