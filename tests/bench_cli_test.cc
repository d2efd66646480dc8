// The uniform bench CLI (bench::Options): one table-driven parser shared
// by every harness in bench/. These tests pin the contract the benches
// and CI rely on — shared flags fill the BenchContext the envelope writer
// consumes, axis lists go through the same name tables as the JSON
// output, unknown flags exit non-zero, and ParseKnown forwards foreign
// flags (google-benchmark's) instead of failing.

#include <gtest/gtest.h>

#include <vector>

#include "bench/bench_util.h"

namespace ac3 {
namespace {

using bench::Options;

TEST(BenchCliTest, ParsesSharedFlags) {
  const char* argv[] = {"bench", "--smoke", "--out", "/tmp/x", "--threads",
                        "3"};
  Options options = Options::Parse(6, const_cast<char**>(argv));
  EXPECT_TRUE(options.smoke);
  EXPECT_EQ(options.out_dir, "/tmp/x");
  EXPECT_EQ(options.threads, 3);
  EXPECT_FALSE(options.exit_early);
}

TEST(BenchCliTest, DefaultsWhenNoFlags) {
  const char* argv[] = {"bench"};
  Options options = Options::Parse(1, const_cast<char**>(argv));
  EXPECT_FALSE(options.smoke);
  EXPECT_EQ(options.out_dir, ".");
  EXPECT_EQ(options.threads, 0);
  EXPECT_FALSE(options.seed_set);
  EXPECT_FALSE(options.exit_early);
}

TEST(BenchCliTest, UnknownFlagRequestsNonZeroExit) {
  const char* argv[] = {"bench", "--bogus"};
  Options options = Options::Parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(options.exit_early);
  EXPECT_EQ(options.exit_code, 1);
}

TEST(BenchCliTest, MissingValueRequestsNonZeroExit) {
  const char* argv[] = {"bench", "--out"};
  Options options = Options::Parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(options.exit_early);
  EXPECT_EQ(options.exit_code, 1);
}

TEST(BenchCliTest, HelpExitsZero) {
  const char* argv[] = {"bench", "--help"};
  Options options = Options::Parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(options.exit_early);
  EXPECT_EQ(options.exit_code, 0);
}

TEST(BenchCliTest, SeedOverridesOnlyWhenGiven) {
  const char* with[] = {"bench", "--seed", "1234"};
  Options given = Options::Parse(3, const_cast<char**>(with));
  ASSERT_FALSE(given.exit_early);
  EXPECT_TRUE(given.seed_set);
  EXPECT_EQ(given.SeedOr(7), 1234u);

  const char* without[] = {"bench"};
  Options absent = Options::Parse(1, const_cast<char**>(without));
  EXPECT_FALSE(absent.seed_set);
  EXPECT_EQ(absent.SeedOr(7), 7u);
}

TEST(BenchCliTest, ParsesAxisListsThroughTheSharedTables) {
  const char* argv[] = {"bench", "--protocols", "herlihy,ac3wn",
                        "--topologies", "ring,complete", "--failures",
                        "crash_participant"};
  Options options = Options::Parse(7, const_cast<char**>(argv));
  ASSERT_FALSE(options.exit_early);
  ASSERT_EQ(options.protocols.size(), 2u);
  EXPECT_EQ(options.protocols[1], runner::Protocol::kAc3wn);
  ASSERT_EQ(options.topologies.size(), 2u);
  EXPECT_EQ(options.topologies[1], runner::Topology::kComplete);
  ASSERT_EQ(options.failures.size(), 1u);
  EXPECT_EQ(options.failures[0], runner::FailureMode::kCrashParticipant);

  runner::SweepGridConfig grid;
  options.ApplyAxisOverrides(&grid);
  EXPECT_EQ(grid.topologies, options.topologies);
  EXPECT_EQ(grid.protocols, options.protocols);
  EXPECT_EQ(grid.failures, options.failures);
}

TEST(BenchCliTest, ParsesCoordinatorCrashFailureSpellings) {
  // The commit-study axis rows flow to the CLI through the shared name
  // tables — no bench-side registration needed.
  const char* argv[] = {"bench", "--failures",
                        "crash_coordinator_at_prepare,"
                        "crash_coordinator_at_commit",
                        "--protocols", "quorum"};
  Options options = Options::Parse(5, const_cast<char**>(argv));
  ASSERT_FALSE(options.exit_early);
  ASSERT_EQ(options.failures.size(), 2u);
  EXPECT_EQ(options.failures[0],
            runner::FailureMode::kCrashCoordinatorAtPrepare);
  EXPECT_EQ(options.failures[1],
            runner::FailureMode::kCrashCoordinatorAtCommit);
  ASSERT_EQ(options.protocols.size(), 1u);
  EXPECT_EQ(options.protocols[0], runner::Protocol::kQuorum);
}

TEST(BenchCliTest, ParsesMessageFaultFailureSpellings) {
  // The message-overhead study's fault axis rides the same shared tables;
  // these spellings are what CI smoke flags and committed BENCH files use.
  const char* argv[] = {"bench", "--failures",
                        "drop_messages,duplicate_messages"};
  Options options = Options::Parse(3, const_cast<char**>(argv));
  ASSERT_FALSE(options.exit_early);
  ASSERT_EQ(options.failures.size(), 2u);
  EXPECT_EQ(options.failures[0], runner::FailureMode::kDropMessages);
  EXPECT_EQ(options.failures[1], runner::FailureMode::kDuplicateMessages);
}

TEST(BenchCliTest, EmptyAxisOverridesKeepTheGridDefaults) {
  const char* argv[] = {"bench", "--smoke"};
  Options options = Options::Parse(2, const_cast<char**>(argv));
  runner::SweepGridConfig grid;
  grid.protocols = {runner::Protocol::kHerlihy};
  const auto before = grid.protocols;
  options.ApplyAxisOverrides(&grid);
  EXPECT_EQ(grid.protocols, before);
}

TEST(BenchCliTest, RejectsUnknownAxisNames) {
  const char* argv[] = {"bench", "--topologies", "ring,donut"};
  Options options = Options::Parse(3, const_cast<char**>(argv));
  EXPECT_TRUE(options.exit_early);
  EXPECT_EQ(options.exit_code, 1);
}

TEST(BenchCliTest, ParseKnownForwardsForeignFlags) {
  const char* argv[] = {"bench", "--smoke", "--benchmark_filter=Pow",
                        "--out", "/tmp/y"};
  std::vector<char*> rest;
  Options options = Options::ParseKnown(5, const_cast<char**>(argv), &rest);
  ASSERT_FALSE(options.exit_early);
  EXPECT_TRUE(options.smoke);
  EXPECT_EQ(options.out_dir, "/tmp/y");
  // argv[0] plus the one foreign flag survive for the wrapped consumer.
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_STREQ(rest[0], "bench");
  EXPECT_STREQ(rest[1], "--benchmark_filter=Pow");
}

// The shared peak-RSS probe behind the memory ceilings of
// bench_openworld and bench_multichain: on Linux it reports VmHWM, which
// covers memory this process has touched and still holds.
TEST(BenchCliTest, ReadPeakRssBytesCoversTouchedMemory) {
#ifdef __linux__
  constexpr size_t kTouched = 32u << 20;
  std::vector<char> buffer(kTouched, 1);  // Writes, so every page is resident.
  const size_t peak = benchutil::ReadPeakRssBytes();
  EXPECT_GE(peak, kTouched);
  EXPECT_GE(benchutil::ReadPeakRssBytes(), peak);  // A high-water mark.
  EXPECT_EQ(buffer[kTouched / 2], 1);
#else
  EXPECT_EQ(benchutil::ReadPeakRssBytes(), 0u);
#endif
}

}  // namespace
}  // namespace ac3
