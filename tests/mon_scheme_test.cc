// Tests for the scheme parser: the full accepted grammar, and the
// rejection contract — every malformed input is refused with a
// diagnostic naming the 1-based line it came from.
#include "mon/scheme_parser.h"

#include <ostream>
#include <string>

#include <gtest/gtest.h>

namespace dmasim {
namespace {

TEST(SchemeParserTest, ParsesAllActionsAndWildcards) {
  const SchemeParseResult result = ParseSchemeString(
      "1 1 8 * 0 migrate-hot\n"
      "64 * 0 1 4 pin-cold\n"
      "* * 0 0 8 demote-chip\n");
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.rules.size(), 3u);

  EXPECT_EQ(result.rules[0].size_lo, 1u);
  EXPECT_EQ(result.rules[0].size_hi, 1u);
  EXPECT_EQ(result.rules[0].acc_lo, 8u);
  EXPECT_EQ(result.rules[0].acc_hi, UINT64_MAX);
  EXPECT_EQ(result.rules[0].age_lo, 0u);
  EXPECT_EQ(result.rules[0].action, SchemeAction::kMigrateHot);

  EXPECT_EQ(result.rules[1].size_lo, 64u);
  EXPECT_EQ(result.rules[1].size_hi, UINT64_MAX);
  EXPECT_EQ(result.rules[1].acc_hi, 1u);
  EXPECT_EQ(result.rules[1].age_lo, 4u);
  EXPECT_EQ(result.rules[1].action, SchemeAction::kPinCold);

  EXPECT_EQ(result.rules[2].size_lo, 0u);  // `*` lower bound.
  EXPECT_EQ(result.rules[2].action, SchemeAction::kDemoteChip);
}

TEST(SchemeParserTest, ParsesDemoteDepthSuffix) {
  const SchemeParseResult result = ParseSchemeString(
      "* * 0 0 8 demote-chip\n"
      "* * 0 0 32 demote-chip:2\n"
      "* * 0 0 64 demote-chip:3\n");
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.rules.size(), 3u);
  EXPECT_EQ(result.rules[0].demote_depth, 1);  // Suffix-less default.
  EXPECT_EQ(result.rules[1].demote_depth, 2);
  EXPECT_EQ(result.rules[2].demote_depth, 3);
  for (const SchemeRule& rule : result.rules) {
    EXPECT_EQ(rule.action, SchemeAction::kDemoteChip);
  }
}

TEST(SchemeParserTest, SkipsBlanksAndComments) {
  const SchemeParseResult result = ParseSchemeString(
      "# full-line comment\n"
      "\n"
      "   \n"
      "1 1 8 * 0 migrate-hot # trailing comment is fine\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.rules.size(), 1u);
}

TEST(SchemeParserTest, EmptyInputYieldsNoRules) {
  const SchemeParseResult result = ParseSchemeString("");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.rules.empty());
}

TEST(SchemeParserTest, RuleMatchingIsInclusiveOnBothEnds) {
  const SchemeParseResult result =
      ParseSchemeString("2 4 3 9 5 migrate-hot\n");
  ASSERT_TRUE(result.ok());
  const SchemeRule& rule = result.rules[0];
  EXPECT_TRUE(rule.MatchesRegion(2, 3, 5));
  EXPECT_TRUE(rule.MatchesRegion(4, 9, 7));
  EXPECT_FALSE(rule.MatchesRegion(1, 5, 5));   // Size below.
  EXPECT_FALSE(rule.MatchesRegion(5, 5, 5));   // Size above.
  EXPECT_FALSE(rule.MatchesRegion(3, 2, 5));   // Access below.
  EXPECT_FALSE(rule.MatchesRegion(3, 10, 5));  // Access above.
  EXPECT_FALSE(rule.MatchesRegion(3, 5, 4));   // Too young.
}

// --- Rejection contract -------------------------------------------------
// Each malformed input names the exact line. The line number matters:
// scheme files are hand-edited configs and "something is wrong somewhere"
// diagnostics do not survive contact with a 30-line file.

struct BadScheme {
  const char* name;
  const char* text;
  const char* expected_fragment;
};

// Prints the case name. Without it gtest dumps the struct's pointer bytes,
// and the test names discovered from that dump change with every load
// address.
void PrintTo(const BadScheme& bad, std::ostream* os) { *os << bad.name; }

class SchemeParserRejectionTest
    : public ::testing::TestWithParam<BadScheme> {};

TEST_P(SchemeParserRejectionTest, RejectsWithLineNumber) {
  const SchemeParseResult result = ParseSchemeString(GetParam().text);
  ASSERT_FALSE(result.ok()) << "accepted: " << GetParam().text;
  EXPECT_NE(result.error.find(GetParam().expected_fragment),
            std::string::npos)
      << "error was: " << result.error;
  EXPECT_TRUE(result.rules.empty() || !result.ok());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, SchemeParserRejectionTest,
    ::testing::Values(
        // Too few fields.
        BadScheme{"TooFewFields",
                  "1 1 8 *\n", "at line 1: expected 6 fields"},
        // Trailing garbage after a complete rule.
        BadScheme{"TrailingGarbage",
                  "1 1 8 * 0 migrate-hot extra\n",
                  "at line 1: trailing garbage 'extra'"},
        // Out-of-order ranges.
        BadScheme{"SizeRangeOutOfOrder",
                  "4 2 0 * 0 pin-cold\n",
                  "at line 1: size range out of order"},
        BadScheme{"AccessRangeOutOfOrder",
                  "1 1 9 3 0 migrate-hot\n",
                  "at line 1: access range out of order"},
        // Unknown action.
        BadScheme{"UnknownAction",
                  "1 1 8 * 0 promote\n",
                  "at line 1: unknown action 'promote'"},
        // Non-numeric bounds.
        BadScheme{"NonNumericSize",
                  "one 1 8 * 0 migrate-hot\n", "at line 1: bad size range"},
        BadScheme{"NonNumericAge",
                  "1 1 8 * never migrate-hot\n",
                  "at line 1: bad age bound"},
        BadScheme{"NegativeAccess",
                  "1 1 -3 * 0 migrate-hot\n",
                  "at line 1: bad access range"},
        // Decimal overflow is rejected, not wrapped.
        BadScheme{"SizeOverflow",
                  "1 99999999999999999999 0 * 0 pin-cold\n",
                  "at line 1: bad size range"},
        // Demote depth must be a positive number...
        BadScheme{"DemoteDepthZero",
                  "* * 0 0 8 demote-chip:0\n",
                  "at line 1: bad demote depth '0'"},
        BadScheme{"DemoteDepthNonNumeric",
                  "* * 0 0 8 demote-chip:two\n",
                  "at line 1: bad demote depth 'two'"},
        BadScheme{"DemoteDepthEmpty",
                  "* * 0 0 8 demote-chip:\n",
                  "at line 1: bad demote depth ''"},
        // ...and only demote-chip takes one.
        BadScheme{"DepthOnMigrateHot",
                  "1 1 8 * 0 migrate-hot:2\n",
                  "at line 1: depth suffix is only valid for demote-chip"},
        BadScheme{"DepthOnPinCold",
                  "64 * 0 1 4 pin-cold:1\n",
                  "at line 1: depth suffix is only valid for demote-chip"},
        // The diagnostic points at the offending line, not line 1:
        // comments and valid rules above it still count.
        BadScheme{"ErrorOnLineFour",
                  "# header\n"
                  "1 1 8 * 0 migrate-hot\n"
                  "\n"
                  "64 * 0 1 4 pin-cool\n",
                  "at line 4: unknown action 'pin-cool'"},
        BadScheme{"ErrorOnLineTwo",
                  "1 1 8 * 0 migrate-hot\n"
                  "1 1 8 *\n",
                  "at line 2: expected 6 fields"}));

TEST(SchemeParserTest, MissingFileNamesThePath) {
  const SchemeParseResult result =
      ParseSchemeFile("/nonexistent/no.scheme");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("/nonexistent/no.scheme"), std::string::npos);
}

TEST(SchemeParserTest, ActionNamesRoundTrip) {
  EXPECT_EQ(SchemeActionName(SchemeAction::kMigrateHot), "migrate-hot");
  EXPECT_EQ(SchemeActionName(SchemeAction::kPinCold), "pin-cold");
  EXPECT_EQ(SchemeActionName(SchemeAction::kDemoteChip), "demote-chip");
}

}  // namespace
}  // namespace dmasim
