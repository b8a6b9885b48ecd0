// The JSONL layer every durable batch shares: escaping round-trips, field
// readers see through escapes, the ledger's torn-line rule and compaction,
// its refusal of a file with no line of its own, concurrent appends that
// never interleave, and typed publish failures.
#include "common/jsonl.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_error.hpp"

namespace gpusim {
namespace {

namespace fs = std::filesystem;

class JsonlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gpusim_jsonl_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  fs::path dir_;
};

TEST_F(JsonlTest, EscapeRoundTripsEveryAsciiByte) {
  std::string all;
  for (int c = 0x01; c <= 0x7f; ++c) all += static_cast<char>(c);
  const std::string escaped = json_escape(all);
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte";
  }
  EXPECT_EQ(json_unescape(escaped), all);
}

TEST_F(JsonlTest, UnescapeKeepsMalformedEscapesLiterally) {
  EXPECT_EQ(json_unescape("a\\u00zzb"), "a\\u00zzb");
  EXPECT_EQ(json_unescape("tail\\"), "tail\\");
  EXPECT_EQ(json_unescape("\\q"), "\\q");
}

TEST_F(JsonlTest, StringFieldSeesThroughEscapes) {
  const std::string value = "say \"hi\" \\ then\x01 done";
  const std::string line = "{\"n\":1,\"text\":\"" + json_escape(value) +
                           "\",\"after\":\"x\"}";
  ASSERT_TRUE(json_string_field(line, "text").has_value());
  EXPECT_EQ(*json_string_field(line, "text"), value);
  EXPECT_EQ(*json_string_field(line, "after"), "x");
  EXPECT_FALSE(json_string_field(line, "missing").has_value());
  EXPECT_FALSE(
      json_string_field("{\"text\":\"unterminated", "text").has_value());
}

TEST_F(JsonlTest, U64FieldReadsDigitsOnly) {
  const std::string line = "{\"job\":12,\"jobs\":7,\"neg\":-3,\"big\":"
                           "18446744073709551615}";
  EXPECT_EQ(json_u64_field(line, "job"), 12u);
  EXPECT_EQ(json_u64_field(line, "jobs"), 7u);
  EXPECT_EQ(json_u64_field(line, "big"), 18446744073709551615ull);
  EXPECT_FALSE(json_u64_field(line, "neg").has_value());
  EXPECT_FALSE(json_u64_field(line, "missing").has_value());
}

TEST_F(JsonlTest, FieldsMaySpaceAfterTheColon) {
  const std::string text = "{\n  \"name\": \"SD+SA\",\n  \"cycles\":   42,\n}";
  EXPECT_EQ(json_string_field(text, "name"), "SD+SA");
  EXPECT_EQ(json_u64_field(text, "cycles"), 42u);
  // A value of the other type is not mistaken for this one.
  EXPECT_FALSE(json_string_field(text, "cycles").has_value());
  EXPECT_FALSE(json_u64_field(text, "name").has_value());
}

TEST_F(JsonlTest, LedgerSkipsTornAndRejectedLines) {
  const std::string p = path("ledger.jsonl");
  {
    std::ofstream out(p);
    out << "{\"id\":1}\n"
        << "{\"id\":2,\"cut\n"  // torn: no closing brace
        << "\n"                  // padding: ignored, not counted
        << "{\"stale\":true}\n"  // rejected by accept
        << "{\"id\":3}\n";
  }
  std::vector<std::string> seen;
  Ledger ledger(p, "test.ledger", [&](const std::string& line) {
    if (!json_u64_field(line, "id")) return Ledger::Verdict::kStale;
    seen.push_back(line);
    return Ledger::Verdict::kUse;
  });
  EXPECT_EQ(ledger.torn_lines(), 2);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "{\"id\":1}");
  EXPECT_EQ(seen[1], "{\"id\":3}");
}

TEST_F(JsonlTest, LedgerDropsATornTailBeforeAppending) {
  const std::string p = path("tail.jsonl");
  {
    std::ofstream out(p);
    out << "{\"id\":1}\n{\"id\":2,\"resu";  // crash mid-write: no newline
  }
  const auto use = [](const std::string&) { return Ledger::Verdict::kUse; };
  {
    Ledger ledger(p, "test.ledger", use);
    EXPECT_EQ(ledger.torn_lines(), 1);
    ledger.append("{\"id\":3}");
  }
  // The fragment is gone and the append sits on its own line, never glued
  // onto it.
  EXPECT_EQ(slurp(p), "{\"id\":1}\n{\"id\":3}\n");

  // A second load finds nothing to skip.
  int used = 0;
  Ledger again(p, "test.ledger", [&](const std::string&) {
    ++used;
    return Ledger::Verdict::kUse;
  });
  EXPECT_EQ(again.torn_lines(), 0);
  EXPECT_EQ(used, 2);
}

TEST_F(JsonlTest, LedgerEndsAWholeLastLineBeforeAppending) {
  // A crash can cut exactly the newline: the last line is whole and used,
  // but an append must still start a line of its own.
  const std::string p = path("unended.jsonl");
  std::ofstream(p) << "{\"id\":1}";
  {
    Ledger ledger(p, "test.ledger",
                  [](const std::string&) { return Ledger::Verdict::kUse; });
    EXPECT_EQ(ledger.torn_lines(), 0);
    ledger.append("{\"id\":2}");
  }
  EXPECT_EQ(slurp(p), "{\"id\":1}\n{\"id\":2}\n");
}

TEST_F(JsonlTest, LedgerRefusesAFileWithNoLineOfItsOwn) {
  // A results file named as a ledger: every line is skipped and none is
  // the owner's, so rewriting it would erase it.
  const std::string p = path("results.json");
  const std::string text =
      "{\"results\":[\n{\"label\":\"A+B\"},\n{\"label\":\"C+D\"}\n]}\n";
  std::ofstream(p) << text;
  const auto foreign = [](const std::string&) {
    return Ledger::Verdict::kForeign;
  };
  try {
    Ledger ledger(p, "test.ledger", foreign);
    FAIL() << "a file with no line of the ledger's own must be refused";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness);
    EXPECT_EQ(e.component(), "test.ledger");
  }
  EXPECT_EQ(slurp(p), text);

  // One stale line of the owner's is enough to make it the ledger's file.
  std::ofstream(p, std::ios::app) << "{\"old\":true}\n";
  Ledger ledger(p, "test.ledger", [](const std::string& line) {
    return line == "{\"old\":true}" ? Ledger::Verdict::kStale
                                    : Ledger::Verdict::kForeign;
  });
  EXPECT_EQ(ledger.torn_lines(), 5);
  EXPECT_EQ(slurp(p), "");

  // So is a lone unended fragment: a crash during the first append.
  const std::string first = path("first.jsonl");
  std::ofstream(first) << "{\"id\":1,\"cu";
  Ledger cut(first, "test.ledger", foreign);
  EXPECT_EQ(cut.torn_lines(), 1);
  EXPECT_EQ(slurp(first), "");
}

TEST_F(JsonlTest, LedgerWithEmptyPathTouchesNoFile) {
  Ledger ledger("", "test.ledger",
                [](const std::string&) { return Ledger::Verdict::kUse; });
  ledger.append("{\"id\":1}");
  EXPECT_EQ(ledger.torn_lines(), 0);
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(JsonlTest, ConcurrentAppendsNeverInterleave) {
  const std::string p = path("concurrent.jsonl");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  {
    Ledger ledger(p, "test.ledger",
                  [](const std::string&) { return Ledger::Verdict::kUse; });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&ledger, t] {
        for (int i = 0; i < kPerThread; ++i) {
          ledger.append("{\"thread\":" + std::to_string(t) + ",\"i\":" +
                        std::to_string(i) + ",\"pad\":\"" +
                        std::string(64, 'x') + "\"}");
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  std::vector<std::vector<bool>> got(kThreads,
                                     std::vector<bool>(kPerThread, false));
  int intact = 0;
  Ledger reload(p, "test.ledger", [&](const std::string& line) {
    const auto t = json_u64_field(line, "thread");
    const auto i = json_u64_field(line, "i");
    if (!t || !i || *t >= kThreads || *i >= kPerThread) {
      return Ledger::Verdict::kForeign;
    }
    if (got[*t][*i]) return Ledger::Verdict::kStale;  // a duplicate: a bug
    got[*t][*i] = true;
    ++intact;
    return Ledger::Verdict::kUse;
  });
  EXPECT_EQ(reload.torn_lines(), 0);
  EXPECT_EQ(intact, kThreads * kPerThread);
}

TEST_F(JsonlTest, AtomicWriteCreatesMissingParentDirectories) {
  const std::string p = path("a/b/report.json");
  atomic_write_file(p, "{\"ok\":true}\n", "test.publish");
  EXPECT_EQ(slurp(p), "{\"ok\":true}\n");
  EXPECT_FALSE(fs::exists(p + ".tmp"));
}

TEST_F(JsonlTest, AtomicWriteOntoADirectoryIsTypedAndLeavesNoTemp) {
  const std::string p = path("occupied");
  fs::create_directories(fs::path(p) / "child");
  try {
    atomic_write_file(p, "{}\n", "test.publish");
    FAIL() << "publishing over a directory must fail";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness);
    EXPECT_EQ(e.component(), "test.publish");
  }
  EXPECT_FALSE(fs::exists(p + ".tmp"));
  EXPECT_TRUE(fs::is_directory(p));
}

}  // namespace
}  // namespace gpusim
