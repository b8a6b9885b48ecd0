// The CLI's one-table contract: every flag the parser accepts comes from
// flag_table(), and --help is generated from the same rows — so asserting
// "every table row appears in the rendered help, and every row resolves
// through find_flag" pins the property that a flag cannot exist without
// being documented.
#include "harness/cli_flags.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace gpusim {
namespace {

TEST(CliFlagsTest, EveryFlagAppearsInHelp) {
  const std::string help = render_usage("gpusim_cli");
  for (const FlagInfo& flag : flag_table()) {
    EXPECT_NE(help.find(flag.name), std::string::npos)
        << flag.name << " missing from --help output";
  }
}

TEST(CliFlagsTest, EveryFlagRoundTripsThroughFindFlag) {
  for (const FlagInfo& flag : flag_table()) {
    const FlagInfo* found = find_flag(flag.name);
    ASSERT_NE(found, nullptr) << flag.name;
    EXPECT_EQ(found->id, flag.id) << flag.name;
  }
}

TEST(CliFlagsTest, FlagNamesAreUniqueAndWellFormed) {
  std::set<std::string> names;
  std::set<FlagId> ids;
  for (const FlagInfo& flag : flag_table()) {
    const std::string name = flag.name;
    EXPECT_TRUE(name.rfind("--", 0) == 0) << name << " must start with --";
    EXPECT_TRUE(names.insert(name).second) << "duplicate flag " << name;
    EXPECT_TRUE(ids.insert(flag.id).second) << "duplicate id for " << name;
    ASSERT_NE(flag.help, nullptr) << name;
    EXPECT_NE(flag.help[0], '\0') << name << " has empty help";
  }
}

TEST(CliFlagsTest, ShortHelpAliasResolves) {
  const FlagInfo* flag = find_flag("-h");
  ASSERT_NE(flag, nullptr);
  EXPECT_EQ(flag->id, FlagId::kHelp);
}

TEST(CliFlagsTest, UnknownFlagsAreRejected) {
  EXPECT_EQ(find_flag("--no-such-flag"), nullptr);
  EXPECT_EQ(find_flag("apps"), nullptr);      // missing the dashes
  EXPECT_EQ(find_flag("--apps="), nullptr);   // inline values unsupported
  EXPECT_EQ(find_flag(""), nullptr);
  // Sweep pairs run once: the retry flags are gone.
  EXPECT_EQ(find_flag("--retries"), nullptr);
  EXPECT_EQ(find_flag("--backoff-ms"), nullptr);
}

TEST(CliFlagsTest, SweepRejectsExactlyThePerRunFlags) {
  // Every sweep pair is a plain even-split co-run, so a flag that shapes
  // only one --apps co-run is a usage error with --sweep instead of being
  // silently ignored.
  std::set<std::string> run_only;
  for (const FlagInfo& flag : flag_table()) {
    if (flag.run_only) run_only.insert(flag.name);
  }
  EXPECT_EQ(run_only,
            (std::set<std::string>{"--policy", "--split", "--qos-target",
                                   "--quantum", "--fault-schedule"}));
}

TEST(CliFlagsTest, ExitCodeTableCoversTheContract) {
  const auto& table = exit_code_table();
  ASSERT_EQ(table.size(), 9u);  // 0..8, the documented contract
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table[i].code, static_cast<int>(i));
    ASSERT_NE(table[i].meaning, nullptr);
    EXPECT_NE(table[i].meaning[0], '\0');
  }
  const std::string help = render_usage("gpusim_cli");
  EXPECT_NE(help.find("exit codes:"), std::string::npos);
}

TEST(CliFlagsTest, ExitCodeForMapsTheRobustnessKinds) {
  EXPECT_EQ(exit_code_for(SimErrorKind::kInterrupted), 6);
  EXPECT_EQ(exit_code_for(SimErrorKind::kDeadlineExceeded), 7);
  EXPECT_EQ(exit_code_for(SimErrorKind::kBudgetExceeded), 8);
  // Everything else is the generic simulation-error code.
  EXPECT_EQ(exit_code_for(SimErrorKind::kInvariant), 3);
  EXPECT_EQ(exit_code_for(SimErrorKind::kWatchdogStall), 3);
  EXPECT_EQ(exit_code_for(SimErrorKind::kConfig), 3);
  EXPECT_EQ(exit_code_for(SimErrorKind::kHarness), 3);
}

}  // namespace
}  // namespace gpusim
