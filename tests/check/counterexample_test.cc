// Tests of the counterexample file format: lossless round-trip,
// line-numbered parse diagnostics, replay semantics, and the committed
// fixture under tests/check/data/ (the same file the full-simulator
// replay suite re-executes).
#include "check/counterexample.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "check/check_config.h"
#include "check/explorer.h"

#ifndef DMASIM_SOURCE_DIR
#error "DMASIM_SOURCE_DIR must point at the repository root"
#endif

namespace dmasim::check {
namespace {

Counterexample ResyncCounterexample() {
  Counterexample ce;
  ce.config.fault = CheckFault::kResyncSkip;
  ce.property = "check.power-state-legality";
  ce.message = "chip 0 woke in zero ticks";
  ce.actions = {{ActionKind::kCpuAccess, 0, 0}};
  return ce;
}

TEST(CounterexampleTest, FormatParsesBackLosslessly) {
  Counterexample ce = ResyncCounterexample();
  ce.config.chips = 3;
  ce.config.buses = 3;
  ce.config.mu = 1.5;
  ce.config.epoch_length = 2 * kMicrosecond;
  ce.config.policy = CheckPolicy::kStaticPowerdown;
  ce.actions.push_back({ActionKind::kArrive, 2, 1});
  ce.actions.push_back({ActionKind::kStepDown, 0, 2});
  ce.actions.push_back({ActionKind::kAdvance, 0, 0});

  Counterexample parsed;
  std::string error;
  ASSERT_TRUE(ParseCounterexampleText(FormatCounterexample(ce), &parsed,
                                      &error))
      << error;
  EXPECT_EQ(parsed.config.chips, 3);
  EXPECT_EQ(parsed.config.buses, 3);
  EXPECT_DOUBLE_EQ(parsed.config.mu, 1.5);
  EXPECT_EQ(parsed.config.epoch_length, 2 * kMicrosecond);
  EXPECT_EQ(parsed.config.policy, CheckPolicy::kStaticPowerdown);
  EXPECT_EQ(parsed.config.fault, CheckFault::kResyncSkip);
  EXPECT_EQ(parsed.property, ce.property);
  EXPECT_EQ(parsed.message, ce.message);
  ASSERT_EQ(parsed.actions.size(), ce.actions.size());
  for (std::size_t i = 0; i < ce.actions.size(); ++i) {
    EXPECT_EQ(parsed.actions[i], ce.actions[i]) << i;
  }
}

TEST(CounterexampleTest, MultilineMessagesAreFlattenedOnWrite) {
  Counterexample ce = ResyncCounterexample();
  ce.message = "first line\nsecond line";
  Counterexample parsed;
  std::string error;
  ASSERT_TRUE(ParseCounterexampleText(FormatCounterexample(ce), &parsed,
                                      &error))
      << error;
  EXPECT_EQ(parsed.message, "first line second line");
}

TEST(CounterexampleTest, BadHeaderIsRejectedWithLineNumber) {
  Counterexample parsed;
  std::string error;
  EXPECT_FALSE(ParseCounterexampleText("bogus\n", &parsed, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("header"), std::string::npos) << error;
}

TEST(CounterexampleTest, UnknownKeyIsRejectedWithLineNumber) {
  std::string text = FormatCounterexample(ResyncCounterexample());
  // Inject a typo'd key right after the header (line 2).
  text.insert(text.find('\n') + 1, "chps 2\n");
  Counterexample parsed;
  std::string error;
  EXPECT_FALSE(ParseCounterexampleText(text, &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("chps"), std::string::npos) << error;
}

TEST(CounterexampleTest, NumericValuesParseStrictlyInsideTheFlagRanges) {
  // Each line replaces the fixture's own value for its key, on the same
  // line; the whole value must be one number inside the key's range.
  const char* const hostile[] = {
      "chips 2abc",          "chips 0",
      "chips 9",             "buses 200",
      "k 0",                 "mu -3",
      "mu nan",              "mu 1e9",
      "transfer_requests 100000000",
      "t_request 0",         "epoch_length 1.5",
      "max_arrivals 17",     "max_depth 0",
      "max_cpu_accesses -1", "max_epochs 4294967296",
      "gather_depth_factor 0.5",
      "slack_cap_requests 0",
      "min_gating_budget -1",
      "cpu_access_bytes 0",  "cpu_access_bytes 8193",
      "chips 2 ",            "mu  ",
  };
  const std::string text = FormatCounterexample(ResyncCounterexample());
  for (const char* line : hostile) {
    const std::string entry(line);
    const std::string key = entry.substr(0, entry.find(' '));
    const std::size_t at = text.find("\n" + key + " ");
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t end = text.find('\n', at + 1);
    std::string edited = text;
    edited.replace(at + 1, end - at - 1, entry);
    const int line_number =
        1 + static_cast<int>(std::count(text.begin(),
                                        text.begin() + static_cast<long>(at) +
                                            1,
                                        '\n'));
    Counterexample parsed;
    std::string error;
    EXPECT_FALSE(ParseCounterexampleText(edited, &parsed, &error)) << entry;
    EXPECT_NE(error.find("line " + std::to_string(line_number) + ":"),
              std::string::npos)
        << entry << ": " << error;
    EXPECT_NE(error.find("\"" + key + "\""), std::string::npos)
        << entry << ": " << error;
  }
  // The ends of each range are accepted.
  for (const char* line : {"chips 1", "chips 4", "mu 0", "mu 1000",
                           "transfer_requests 1000", "cpu_access_bytes 8192",
                           "gather_depth_factor 16", "min_gating_budget 0"}) {
    const std::string entry(line);
    const std::string key = entry.substr(0, entry.find(' '));
    const std::size_t at = text.find("\n" + key + " ");
    const std::size_t end = text.find('\n', at + 1);
    std::string edited = text;
    edited.replace(at + 1, end - at - 1, entry);
    Counterexample parsed;
    std::string error;
    EXPECT_TRUE(ParseCounterexampleText(edited, &parsed, &error))
        << entry << ": " << error;
  }
}

TEST(CounterexampleTest, MalformedActionIsRejected) {
  Counterexample ce = ResyncCounterexample();
  std::string text = FormatCounterexample(ce);
  const std::size_t at = text.find("cpu 0\n");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 5, "cpu x");
  Counterexample parsed;
  std::string error;
  EXPECT_FALSE(ParseCounterexampleText(text, &parsed, &error));
  EXPECT_NE(error.find("malformed action"), std::string::npos) << error;
}

TEST(CounterexampleTest, TruncatedActionListIsRejected) {
  Counterexample ce = ResyncCounterexample();
  std::string text = FormatCounterexample(ce);
  const std::size_t at = text.find("cpu 0\n");
  ASSERT_NE(at, std::string::npos);
  text.erase(at);  // Drop the action line and the trailing "end".
  Counterexample parsed;
  std::string error;
  EXPECT_FALSE(ParseCounterexampleText(text, &parsed, &error));
  EXPECT_NE(error.find("end of input"), std::string::npos) << error;
}

TEST(CounterexampleTest, ReplayReproducesASeededFault) {
  const Counterexample ce = ResyncCounterexample();
  std::string observed;
  EXPECT_TRUE(ReplayCounterexample(ce, &observed));
  EXPECT_NE(observed.find("check.power-state-legality"), std::string::npos)
      << observed;
}

TEST(CounterexampleTest, ReplayFailsCleanlyWithoutTheFault) {
  Counterexample ce = ResyncCounterexample();
  ce.config.fault = CheckFault::kNone;  // Pristine model: nothing fires.
  std::string observed;
  EXPECT_FALSE(ReplayCounterexample(ce, &observed));
  EXPECT_EQ(observed, "no violation reproduced");
}

TEST(CounterexampleTest, CommittedResyncFixtureReplays) {
  const std::string path =
      std::string(DMASIM_SOURCE_DIR) +
      "/tests/check/data/resync_skip.counterexample";
  Counterexample ce;
  std::string error;
  ASSERT_TRUE(ReadCounterexampleFile(path, &ce, &error)) << error;
  EXPECT_EQ(ce.config.fault, CheckFault::kResyncSkip);
  EXPECT_EQ(ce.property, "check.power-state-legality");
  ASSERT_FALSE(ce.actions.empty());

  std::string observed;
  EXPECT_TRUE(ReplayCounterexample(ce, &observed)) << observed;
}

TEST(CounterexampleTest, WriteAndReadFileRoundTrips) {
  CheckerConfig config;
  config.fault = CheckFault::kResyncSkip;
  Explorer explorer(config);
  const ExploreResult result = explorer.Run();
  ASSERT_TRUE(result.violation.has_value());

  Counterexample ce;
  ce.config = config;
  ce.property = result.violation->property;
  ce.message = result.violation->message;
  ce.actions = result.violation->actions;

  const std::string path =
      ::testing::TempDir() + "/dmasim_check_roundtrip.counterexample";
  std::string error;
  ASSERT_TRUE(WriteCounterexampleFile(ce, path, &error)) << error;
  Counterexample loaded;
  ASSERT_TRUE(ReadCounterexampleFile(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.property, ce.property);
  ASSERT_EQ(loaded.actions.size(), ce.actions.size());
  std::string observed;
  EXPECT_TRUE(ReplayCounterexample(loaded, &observed)) << observed;
}

}  // namespace
}  // namespace dmasim::check
