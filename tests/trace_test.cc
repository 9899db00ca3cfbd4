// Tests for trace records, summaries, popularity CDF, and text I/O.
#include "trace/trace.h"

#include <sstream>

#include <gtest/gtest.h>

#include "trace/trace_io.h"

namespace dmasim {
namespace {

Trace SmallTrace() {
  return Trace{
      {0, 1, 8192, TraceEventKind::kClientRead},
      {10, 1, 64, TraceEventKind::kCpuAccess},
      {20, 2, 8192, TraceEventKind::kClientRead},
      {30, 1, 8192, TraceEventKind::kClientWrite},
      {40, 1, 8192, TraceEventKind::kClientRead},
  };
}

TEST(TraceTest, IsTimeSorted) {
  EXPECT_TRUE(IsTimeSorted(SmallTrace()));
  Trace unsorted = SmallTrace();
  std::swap(unsorted[0], unsorted[4]);
  EXPECT_FALSE(IsTimeSorted(unsorted));
  EXPECT_TRUE(IsTimeSorted(Trace{}));
}

TEST(TraceTest, SummarizeCounts) {
  const TraceSummary summary = Summarize(SmallTrace());
  EXPECT_EQ(summary.client_reads, 3u);
  EXPECT_EQ(summary.client_writes, 1u);
  EXPECT_EQ(summary.cpu_accesses, 1u);
  EXPECT_EQ(summary.distinct_pages, 2u);
  EXPECT_EQ(summary.duration, 40);
}

TEST(TraceTest, SummaryRates) {
  Trace trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back({static_cast<Tick>(i) * (kMillisecond / 10), 0, 8192,
                     TraceEventKind::kClientRead});
  }
  const TraceSummary summary = Summarize(trace);
  EXPECT_NEAR(summary.ReadsPerMs(), 10.0, 0.2);
}

TEST(PopularityCdfTest, IsMonotonicAndEndsAtOne) {
  Trace trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back({i, static_cast<std::uint64_t>(i % 10), 8192,
                     TraceEventKind::kClientRead});
  }
  const auto cdf = PopularityCdf(trace);
  ASSERT_GE(cdf.size(), 2u);
  EXPECT_DOUBLE_EQ(cdf.front().access_fraction, 0.0);
  EXPECT_DOUBLE_EQ(cdf.back().access_fraction, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].access_fraction, cdf[i - 1].access_fraction);
    EXPECT_GE(cdf[i].page_fraction, cdf[i - 1].page_fraction);
  }
}

TEST(PopularityCdfTest, SkewedTraceShowsSkew) {
  Trace trace;
  Tick t = 0;
  // Page 0 gets 90 accesses; pages 1..9 get one each.
  for (int i = 0; i < 90; ++i) {
    trace.push_back({t++, 0, 8192, TraceEventKind::kClientRead});
  }
  for (std::uint64_t page = 1; page <= 9; ++page) {
    trace.push_back({t++, page, 8192, TraceEventKind::kClientRead});
  }
  const auto cdf = PopularityCdf(trace);
  // The top 10% of pages (page 0) carries ~91% of accesses.
  EXPECT_NEAR(AccessShareOfTopPages(cdf, 0.10), 90.0 / 99.0, 0.02);
}

TEST(PopularityCdfTest, IgnoresCpuAccesses) {
  Trace trace;
  trace.push_back({0, 1, 8192, TraceEventKind::kClientRead});
  for (int i = 0; i < 50; ++i) {
    trace.push_back({i + 1, 2, 64, TraceEventKind::kCpuAccess});
  }
  const auto cdf = PopularityCdf(trace);
  EXPECT_DOUBLE_EQ(cdf.back().access_fraction, 1.0);
  EXPECT_DOUBLE_EQ(AccessShareOfTopPages(cdf, 1.0), 1.0);
  // Only one page counted.
  const TraceSummary summary = Summarize(trace);
  EXPECT_EQ(summary.distinct_pages, 1u);
}

TEST(PopularityCdfTest, EmptyTrace) {
  const auto cdf = PopularityCdf(Trace{});
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(AccessShareOfTopPages(cdf, 0.5), 0.0);
}

TEST(TraceIoTest, RoundTrips) {
  const Trace original = SmallTrace();
  std::stringstream stream;
  EXPECT_EQ(WriteTrace(original, stream), original.size());
  Trace parsed;
  std::string error;
  ASSERT_TRUE(ReadTrace(stream, &parsed, &error)) << error;
  EXPECT_EQ(parsed, original);
}

TEST(TraceIoTest, SkipsCommentsAndBlankLines) {
  std::istringstream input(
      "# header\n"
      "\n"
      "5 R 17 8192\n"
      "# middle comment\n"
      "9 C 17 64\n");
  Trace parsed;
  ASSERT_TRUE(ReadTrace(input, &parsed));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].kind, TraceEventKind::kClientRead);
  EXPECT_EQ(parsed[1].kind, TraceEventKind::kCpuAccess);
  EXPECT_EQ(parsed[0].page, 17u);
}

TEST(TraceIoTest, RejectsMalformedKind) {
  std::istringstream input("5 X 17 8192\n");
  Trace parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(input, &parsed, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(TraceIoTest, RejectsNegativeTime) {
  std::istringstream input("-5 R 17 8192\n");
  Trace parsed;
  EXPECT_FALSE(ReadTrace(input, &parsed));
}

TEST(TraceIoTest, RejectsMissingFields) {
  std::istringstream input("5 R 17\n");
  Trace parsed;
  EXPECT_FALSE(ReadTrace(input, &parsed));
}

TEST(TraceIoTest, RejectsZeroBytes) {
  std::istringstream input("5 W 17 0\n");
  Trace parsed;
  EXPECT_FALSE(ReadTrace(input, &parsed));
}

TEST(TraceIoTest, FailedParseLeavesOutputUntouched) {
  Trace parsed = SmallTrace();
  std::istringstream input("garbage\n");
  EXPECT_FALSE(ReadTrace(input, &parsed));
  EXPECT_EQ(parsed, SmallTrace());
}

TEST(TraceIoTest, RejectsTrailingGarbage) {
  // A record is exactly four fields; a fifth means a mis-columned trace.
  std::istringstream input("5 R 17 8192 junk\n");
  Trace parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(input, &parsed, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_NE(error.find("junk"), std::string::npos);
}

TEST(TraceIoTest, RejectsTrailingNumericField) {
  // Even a well-formed-looking extra number must not be dropped silently:
  // it usually means the columns are shifted and `bytes` is wrong.
  std::istringstream input("5 R 17 8192 100\n");
  Trace parsed;
  EXPECT_FALSE(ReadTrace(input, &parsed));
}

TEST(TraceIoTest, TrailingWhitespaceIsAccepted) {
  std::istringstream input("5 R 17 8192   \n");
  Trace parsed;
  std::string error;
  ASSERT_TRUE(ReadTrace(input, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].bytes, 8192);
}

TEST(TraceIoTest, RejectsOutOfOrderRecord) {
  std::istringstream input(
      "# header\n"
      "20 R 1 8192\n"
      "10 R 2 8192\n");
  Trace parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(input, &parsed, &error));
  EXPECT_NE(error.find("malformed trace record at line 3: 10 R 2 8192"),
            std::string::npos)
      << error;
}

TEST(TraceIoTest, EqualTimesAreAccepted) {
  std::istringstream input(
      "20 R 1 8192\n"
      "20 C 1 64\n"
      "20 R 2 8192\n");
  Trace parsed;
  std::string error;
  ASSERT_TRUE(ReadTrace(input, &parsed, &error)) << error;
  EXPECT_EQ(parsed.size(), 3u);
}

TEST(TraceIoTest, ErrorReportsCorrectLineNumber) {
  // Comments and blank lines still count toward the reported line number,
  // so the message points at the actual file line.
  std::istringstream input(
      "# header\n"
      "5 R 17 8192\n"
      "\n"
      "9 C 17 64 tail\n");
  Trace parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(input, &parsed, &error));
  EXPECT_NE(error.find("line 4"), std::string::npos);
}

}  // namespace
}  // namespace dmasim
