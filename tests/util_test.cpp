// Unit tests for the util foundation library.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <sstream>
#include <thread>
#include <unordered_set>
#include <vector>

#include "util/argparse.hpp"
#include "util/crc8.hpp"
#include "util/csv.hpp"
#include "util/ids.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/result.hpp"
#include "util/ring_buffer.hpp"
#include "util/stats.hpp"
#include "util/strong_id.hpp"
#include "util/text.hpp"
#include "util/trace.hpp"

namespace easis {
namespace {

// --- StrongId ----------------------------------------------------------------

TEST(StrongId, DefaultConstructedIsInvalid) {
  RunnableId id;
  EXPECT_FALSE(id.valid());
}

TEST(StrongId, ConstructedWithValueIsValid) {
  RunnableId id(7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
}

TEST(StrongId, EqualityAndOrdering) {
  RunnableId a(1), b(2), c(1);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<RunnableId, TaskId>);
}

TEST(StrongId, HashWorksInUnorderedSet) {
  std::unordered_set<RunnableId> set;
  set.insert(RunnableId(1));
  set.insert(RunnableId(2));
  set.insert(RunnableId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, StreamOutput) {
  std::ostringstream os;
  os << RunnableId(42) << " " << RunnableId{};
  EXPECT_EQ(os.str(), "#42 #invalid");
}

// --- Result -------------------------------------------------------------------

TEST(Result, HoldsValue) {
  util::Result<int, std::string> r(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
}

TEST(Result, HoldsError) {
  util::Result<int, std::string> r(std::string("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "boom");
}

TEST(Result, ValueOrFallsBack) {
  util::Result<int, std::string> ok(3);
  util::Result<int, std::string> err(std::string("x"));
  EXPECT_EQ(ok.value_or(9), 3);
  EXPECT_EQ(err.value_or(9), 9);
}

// --- RingBuffer -----------------------------------------------------------------

TEST(RingBuffer, PushAndReadBack) {
  util::RingBuffer<int> buf(3);
  buf.push(1);
  buf.push(2);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.at(0), 1);
  EXPECT_EQ(buf.at(1), 2);
  EXPECT_EQ(buf.back(), 2);
}

TEST(RingBuffer, OverwritesOldestWhenFull) {
  util::RingBuffer<int> buf(3);
  for (int i = 1; i <= 5; ++i) buf.push(i);
  EXPECT_TRUE(buf.full());
  EXPECT_EQ(buf.dropped(), 2u);
  EXPECT_EQ(buf.at(0), 3);
  EXPECT_EQ(buf.at(1), 4);
  EXPECT_EQ(buf.at(2), 5);
}

TEST(RingBuffer, SnapshotOldestFirst) {
  util::RingBuffer<int> buf(2);
  buf.push(1);
  buf.push(2);
  buf.push(3);
  const auto snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0], 2);
  EXPECT_EQ(snap[1], 3);
}

TEST(RingBuffer, ClearResets) {
  util::RingBuffer<int> buf(2);
  buf.push(1);
  buf.push(2);
  buf.push(3);
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.dropped(), 0u);
  buf.push(7);
  EXPECT_EQ(buf.at(0), 7);
}

// --- CsvWriter ---------------------------------------------------------------------

TEST(CsvWriter, WritesHeaderAndRows) {
  std::ostringstream out;
  util::CsvWriter csv(out, {"a", "b"});
  csv.row({"1", "2"});
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
  EXPECT_EQ(csv.rows_written(), 1u);
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  EXPECT_EQ(util::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(util::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriter, RejectsWidthMismatch) {
  std::ostringstream out;
  util::CsvWriter csv(out, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
}

// --- Stats --------------------------------------------------------------------------

TEST(Stats, MeanAndVariance) {
  util::Stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Stats, MinMaxMedian) {
  util::Stats s;
  for (double x : {5.0, 1.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  util::Stats s;
  for (int i = 0; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(95), 95.0, 1e-9);
}

TEST(Stats, EmptyThrowsOnOrderStatistics) {
  util::Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.min(), std::logic_error);
  EXPECT_THROW((void)s.percentile(50), std::logic_error);
}

TEST(Stats, SingleSample) {
  util::Stats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 42.0);
}

// --- TraceSignal / TraceRecorder ---------------------------------------------------

TEST(TraceSignal, StepwiseValueAt) {
  util::TraceSignal sig;
  sig.record(10, 1.0);
  sig.record(20, 2.0);
  EXPECT_FALSE(sig.value_at(9).has_value());
  EXPECT_DOUBLE_EQ(*sig.value_at(10), 1.0);
  EXPECT_DOUBLE_EQ(*sig.value_at(15), 1.0);
  EXPECT_DOUBLE_EQ(*sig.value_at(20), 2.0);
  EXPECT_DOUBLE_EQ(*sig.value_at(1000), 2.0);
}

TEST(TraceSignal, SameInstantKeepsLatest) {
  util::TraceSignal sig;
  sig.record(10, 1.0);
  sig.record(10, 3.0);
  EXPECT_EQ(sig.samples().size(), 1u);
  EXPECT_DOUBLE_EQ(*sig.value_at(10), 3.0);
}

TEST(TraceSignal, RejectsNonMonotonicTime) {
  util::TraceSignal sig;
  sig.record(10, 1.0);
  EXPECT_THROW(sig.record(5, 2.0), std::invalid_argument);
}

TEST(TraceRecorder, RecordsMultipleSignals) {
  util::TraceRecorder rec;
  rec.record("a", 0, 1.0);
  rec.record("b", 5, 2.0);
  EXPECT_TRUE(rec.has_signal("a"));
  EXPECT_TRUE(rec.has_signal("b"));
  EXPECT_EQ(rec.signal_names().size(), 2u);
  EXPECT_EQ(rec.earliest_time(), 0);
  EXPECT_EQ(rec.latest_time(), 5);
}

TEST(TraceRecorder, CsvExportHasUniformGrid) {
  util::TraceRecorder rec;
  rec.record("x", 0, 1.0);
  rec.record("x", 20, 2.0);
  std::ostringstream out;
  rec.write_csv(out, 10);
  EXPECT_EQ(out.str(), "time,x\n0,1\n10,1\n20,2\n");
}

TEST(TraceRecorder, UnknownSignalThrows) {
  util::TraceRecorder rec;
  EXPECT_THROW((void)rec.signal("nope"), std::out_of_range);
}

TEST(TraceRecorder, EmptyRecorderCsvHasHeaderAndZeroRow) {
  util::TraceRecorder rec;
  std::ostringstream out;
  rec.write_csv(out, 10);
  // No signals: the time column alone, over the degenerate [0, 0] span.
  EXPECT_EQ(out.str(), "time\n0\n");
}

TEST(TraceRecorder, SingleSampleCsvHasOneRow) {
  util::TraceRecorder rec;
  rec.record("x", 5, 2.5);
  std::ostringstream out;
  rec.write_csv(out, 10);
  EXPECT_EQ(out.str(), "time,x\n5,2.5\n");
}

TEST(TraceRecorder, AsciiRenderDegenerateWindowSaysNoData) {
  util::TraceRecorder rec;
  rec.record("sig", 0, 1.0);
  rec.record("sig", 100, 2.0);
  std::ostringstream out;
  rec.render_ascii(out, "sig", 50, 50);  // t1 == t0
  EXPECT_EQ(out.str(), "sig: <no data>\n");
  std::ostringstream inverted;
  rec.render_ascii(inverted, "sig", 100, 0);  // t1 < t0
  EXPECT_EQ(inverted.str(), "sig: <no data>\n");
}

TEST(TraceSignal, EmptySignalHasNoValue) {
  util::TraceSignal sig;
  EXPECT_TRUE(sig.empty());
  EXPECT_FALSE(sig.value_at(0).has_value());
  EXPECT_FALSE(sig.value_at(1'000'000).has_value());
}

TEST(TraceRecorder, AsciiRenderProducesPlot) {
  util::TraceRecorder rec;
  for (int t = 0; t <= 100; t += 10) {
    rec.record("ramp", t, static_cast<double>(t));
  }
  std::ostringstream out;
  rec.render_ascii(out, "ramp", 0, 100, 40, 6);
  const std::string text = out.str();
  EXPECT_NE(text.find("ramp"), std::string::npos);
  EXPECT_NE(text.find('*'), std::string::npos);
}

// --- Logger ---------------------------------------------------------------------------

TEST(Logger, RespectsLevel) {
  auto& logger = util::Logger::instance();
  std::vector<std::string> captured;
  auto old_sink = logger.set_sink(
      [&](util::LogLevel, std::string_view, std::string_view msg) {
        captured.emplace_back(msg);
      });
  const auto old_level = logger.level();
  logger.set_level(util::LogLevel::kWarn);

  EASIS_LOG(util::LogLevel::kInfo, "test") << "hidden";
  EASIS_LOG(util::LogLevel::kError, "test") << "shown " << 42;

  logger.set_level(old_level);
  logger.set_sink(old_sink);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "shown 42");
}

TEST(Logger, LevelNames) {
  EXPECT_EQ(util::to_string(util::LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(util::to_string(util::LogLevel::kError), "ERROR");
}

TEST(Logger, ParseLogLevel) {
  EXPECT_EQ(util::parse_log_level("trace"), util::LogLevel::kTrace);
  EXPECT_EQ(util::parse_log_level("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("info"), util::LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("warn"), util::LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), util::LogLevel::kError);
  EXPECT_EQ(util::parse_log_level("off"), util::LogLevel::kOff);
  EXPECT_FALSE(util::parse_log_level("loud").has_value());
  EXPECT_FALSE(util::parse_log_level("").has_value());
}

// Campaign workers log concurrently; the logger serializes sink calls and
// keeps level reads lock-free. Run under TSan via the ci "util" filter.
TEST(Logger, ConcurrentLoggingIsThreadSafe) {
  auto& logger = util::Logger::instance();
  std::atomic<int> received{0};
  auto old_sink = logger.set_sink(
      [&](util::LogLevel, std::string_view, std::string_view msg) {
        received += static_cast<int>(msg.size() > 0);
      });
  const auto old_level = logger.level();
  logger.set_level(util::LogLevel::kInfo);

  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&logger, t] {
      for (int i = 0; i < kLines; ++i) {
        EASIS_LOG(util::LogLevel::kInfo, "worker") << t << ':' << i;
        // Concurrent level *reads* race against the set_level below.
        (void)logger.level();
      }
    });
  }
  // Writer thread exercises the atomic level store while readers log.
  for (int i = 0; i < 100; ++i) {
    logger.set_level(util::LogLevel::kInfo);
  }
  for (auto& thread : threads) thread.join();

  logger.set_level(old_level);
  logger.set_sink(old_sink);
  EXPECT_EQ(received.load(), kThreads * kLines);
}

// --- Rng -----------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntWithinBounds) {
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto x = rng.uniform_int(3, 9);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 9);
  }
}

TEST(Rng, BernoulliExtremes) {
  util::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// --- derive_seed / Rng::split -----------------------------------------------

TEST(DeriveSeed, PureFunctionOfCampaignSeedAndIndex) {
  EXPECT_EQ(util::derive_seed(42, 7), util::derive_seed(42, 7));
  EXPECT_NE(util::derive_seed(42, 7), util::derive_seed(42, 8));
  EXPECT_NE(util::derive_seed(42, 7), util::derive_seed(43, 7));
}

TEST(DeriveSeed, AdjacentRunIndicesNeverCollide) {
  // Campaigns index runs densely from 0; the derived streams must be
  // distinct across a window far larger than any real campaign.
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    EXPECT_TRUE(seen.insert(util::derive_seed(0xC0FFEE, i)).second)
        << "seed collision at run index " << i;
  }
}

TEST(DeriveSeed, AdjacentIndicesYieldDecorrelatedStreams) {
  // First draws of adjacent per-run RNGs must not be correlated; a mean
  // this far off 0.5 (50k draws) would signal a broken mixer.
  double sum = 0.0;
  constexpr int kRuns = 50'000;
  for (int i = 0; i < kRuns; ++i) {
    util::Rng rng(util::derive_seed(1, static_cast<std::uint64_t>(i)));
    sum += rng.uniform(0.0, 1.0);
  }
  EXPECT_NEAR(sum / kRuns, 0.5, 0.01);
}

TEST(RngSplit, ChildStreamDiffersFromParent) {
  util::Rng parent(99);
  util::Rng child = parent.split();
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    any_diff |= parent.uniform_int(0, 1'000'000) !=
                child.uniform_int(0, 1'000'000);
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngSplit, RepeatedSplitsAreDistinct) {
  util::Rng parent(99);
  util::Rng a = parent.split();
  util::Rng b = parent.split();
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    any_diff |= a.uniform_int(0, 1'000'000) != b.uniform_int(0, 1'000'000);
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngSplit, ReproducibleFromSameParentState) {
  util::Rng p1(5), p2(5);
  util::Rng c1 = p1.split(), c2 = p2.split();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(c1.uniform_int(0, 1'000'000), c2.uniform_int(0, 1'000'000));
  }
}

// --- Stats::merge ------------------------------------------------------------

TEST(StatsMerge, InOrderMergeMatchesSerialBitwise) {
  util::Stats serial;
  util::Stats shard_a, shard_b;
  const double xs[] = {1.5, 2.25, -3.0, 7.125, 0.5, 42.0};
  for (int i = 0; i < 6; ++i) {
    serial.add(xs[i]);
    (i < 3 ? shard_a : shard_b).add(xs[i]);
  }
  util::Stats merged;
  merged.merge(shard_a);
  merged.merge(shard_b);
  EXPECT_EQ(merged.count(), serial.count());
  // In-order replay is the determinism contract: bitwise, not just near.
  EXPECT_EQ(merged.mean(), serial.mean());
  EXPECT_EQ(merged.variance(), serial.variance());
  EXPECT_EQ(merged.sum(), serial.sum());
  EXPECT_EQ(merged.percentile(75.0), serial.percentile(75.0));
}

TEST(StatsMerge, OutOfOrderMergeMatchesWithinTolerance) {
  util::Stats serial;
  util::Stats shard_a, shard_b, shard_c;
  for (int i = 0; i < 30; ++i) {
    const double x = 0.1 * i * (i % 3 == 0 ? -1.0 : 1.0);
    serial.add(x);
    (i % 3 == 0 ? shard_a : i % 3 == 1 ? shard_b : shard_c).add(x);
  }
  util::Stats merged;
  merged.merge(shard_c);
  merged.merge(shard_a);
  merged.merge(shard_b);
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_EQ(merged.min(), serial.min());
  EXPECT_EQ(merged.max(), serial.max());
  EXPECT_EQ(merged.median(), serial.median());
  EXPECT_NEAR(merged.mean(), serial.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), serial.variance(), 1e-12);
}

TEST(StatsMerge, EmptyAndSelfMergeAreSafe) {
  util::Stats stats;
  stats.add(1.0);
  stats.add(3.0);
  util::Stats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  stats.merge(stats);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
}

// --- ArgParser ---------------------------------------------------------------

TEST(ArgParser, ParsesCampaignFlagQuartet) {
  unsigned jobs = 1;
  std::uint64_t seed = 0;
  std::uint64_t runs = 42;
  std::string csv = "default.csv";
  util::ArgParser parser("prog");
  parser.add("jobs", &jobs, "workers");
  parser.add("seed", &seed, "campaign seed");
  parser.add("runs", &runs, "runs");
  parser.add("csv", &csv, "output");
  const char* argv[] = {"prog", "--jobs", "4", "--seed=12345", "--csv",
                        "out.csv"};
  std::ostringstream err;
  ASSERT_TRUE(parser.parse(6, argv, err)) << err.str();
  EXPECT_EQ(jobs, 4u);
  EXPECT_EQ(seed, 12345u);
  EXPECT_EQ(runs, 42u);  // untouched default
  EXPECT_EQ(csv, "out.csv");
}

TEST(ArgParser, BoolFlagTakesNoValue) {
  bool verbose = false;
  util::ArgParser parser("prog");
  parser.add("verbose", &verbose, "chatty");
  const char* argv[] = {"prog", "--verbose"};
  std::ostringstream err;
  ASSERT_TRUE(parser.parse(2, argv, err));
  EXPECT_TRUE(verbose);
}

TEST(ArgParser, RejectsUnknownFlag) {
  util::ArgParser parser("prog");
  const char* argv[] = {"prog", "--nope"};
  std::ostringstream err;
  EXPECT_FALSE(parser.parse(2, argv, err));
  EXPECT_FALSE(parser.exited());
  EXPECT_NE(err.str().find("unknown flag"), std::string::npos);
}

TEST(ArgParser, RejectsMissingAndMalformedValues) {
  unsigned jobs = 1;
  util::ArgParser parser("prog");
  parser.add("jobs", &jobs, "workers");
  {
    const char* argv[] = {"prog", "--jobs"};
    std::ostringstream err;
    EXPECT_FALSE(parser.parse(2, argv, err));
  }
  {
    const char* argv[] = {"prog", "--jobs", "four"};
    std::ostringstream err;
    EXPECT_FALSE(parser.parse(3, argv, err));
    EXPECT_NE(err.str().find("invalid value"), std::string::npos);
  }
}

TEST(ArgParser, InlineValueEdgeCases) {
  std::string csv = "default.csv";
  std::string expr;
  util::ArgParser parser("prog");
  parser.add("csv", &csv, "output");
  parser.add("expr", &expr, "filter");
  // `--flag=` is an explicit empty value, not a missing one.
  {
    const char* argv[] = {"prog", "--csv="};
    std::ostringstream err;
    ASSERT_TRUE(parser.parse(2, argv, err)) << err.str();
    EXPECT_EQ(csv, "");
  }
  // Only the first '=' splits: the value keeps any later ones.
  {
    const char* argv[] = {"prog", "--expr=depth=2"};
    std::ostringstream err;
    ASSERT_TRUE(parser.parse(2, argv, err)) << err.str();
    EXPECT_EQ(expr, "depth=2");
  }
}

TEST(ArgParser, BoolFlagRejectsInlineValue) {
  bool verbose = false;
  util::ArgParser parser("prog");
  parser.add("verbose", &verbose, "chatty");
  const char* argv[] = {"prog", "--verbose=true"};
  std::ostringstream err;
  EXPECT_FALSE(parser.parse(2, argv, err));
  EXPECT_FALSE(verbose);
  EXPECT_NE(err.str().find("takes no value"), std::string::npos);
}

TEST(ArgParser, InlineNumericValueRoundTrips) {
  std::uint64_t seed = 0;
  unsigned jobs = 1;
  util::ArgParser parser("prog");
  parser.add("seed", &seed, "campaign seed");
  parser.add("jobs", &jobs, "workers");
  const char* argv[] = {"prog", "--seed=18446744073709551615", "--jobs=8"};
  std::ostringstream err;
  ASSERT_TRUE(parser.parse(3, argv, err)) << err.str();
  EXPECT_EQ(seed, 18446744073709551615ull);
  EXPECT_EQ(jobs, 8u);
}

TEST(ArgParser, HelpPrintsUsageAndExits) {
  unsigned jobs = 1;
  util::ArgParser parser("prog", "a test program");
  parser.add("jobs", &jobs, "workers");
  const char* argv[] = {"prog", "--help"};
  std::ostringstream err;
  EXPECT_FALSE(parser.parse(2, argv, err));
  EXPECT_TRUE(parser.exited());
  EXPECT_NE(err.str().find("--jobs"), std::string::npos);
  EXPECT_NE(err.str().find("default: 1"), std::string::npos);
}

TEST(ArgParser, RejectsPositionalArguments) {
  util::ArgParser parser("prog");
  const char* argv[] = {"prog", "stray"};
  std::ostringstream err;
  EXPECT_FALSE(parser.parse(2, argv, err));
}

TEST(ArgParser, DuplicateFlagRegistrationThrows) {
  unsigned jobs = 1;
  std::uint64_t seed = 0;
  util::ArgParser parser("prog");
  parser.add("jobs", &jobs, "workers");
  // Re-registering the same name is a programming error regardless of the
  // bound type: the second add() must throw, not shadow the first.
  EXPECT_THROW(parser.add("jobs", &seed, "other binding"), std::logic_error);
}

TEST(ArgParser, UnknownFlagPrintsGeneratedUsage) {
  unsigned jobs = 1;
  util::ArgParser parser("prog");
  parser.add("jobs", &jobs, "workers");
  util::TelemetryFlags telemetry;
  telemetry.register_flags(parser);
  const char* argv[] = {"prog", "--jbos"};
  std::ostringstream err;
  EXPECT_FALSE(parser.parse(2, argv, err));
  EXPECT_FALSE(parser.exited());
  // The diagnostic is followed by the full --help listing, grouped flags
  // included, so a typo surfaces every valid spelling.
  EXPECT_NE(err.str().find("unknown flag"), std::string::npos);
  EXPECT_NE(err.str().find("usage:"), std::string::npos);
  EXPECT_NE(err.str().find("--jobs"), std::string::npos);
  EXPECT_NE(err.str().find("--log-level"), std::string::npos);
  EXPECT_NE(err.str().find("--events-out"), std::string::npos);
}

// --- crc8 --------------------------------------------------------------------

TEST(Crc8, CatalogueCheckValue) {
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(util::crc8_j1850(data, sizeof(data)), 0x4B);
}

TEST(Crc8, EmptyInputYieldsInitXorFinal) {
  // No data: init 0xFF goes straight through the final XOR 0xFF.
  EXPECT_EQ(util::crc8_j1850(nullptr, 0), 0x00);
}

TEST(Crc8, ChainingMatchesOneShot) {
  const std::uint8_t data[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x42, 0x00, 0x7F};
  const std::uint8_t one_shot = util::crc8_j1850(data, sizeof(data));
  for (std::size_t split = 0; split <= sizeof(data); ++split) {
    const std::uint8_t part1 = util::crc8_j1850(data, split);
    const std::uint8_t chained = util::crc8_j1850(
        data + split, sizeof(data) - split,
        static_cast<std::uint8_t>(part1 ^ 0xFF));
    EXPECT_EQ(chained, one_shot) << "split at " << split;
  }
}

TEST(Crc8, TableMatchesBitwiseDefinition) {
  const auto& table = util::crc8_j1850_table();
  for (unsigned byte = 0; byte < 256; ++byte) {
    std::uint8_t crc = static_cast<std::uint8_t>(byte);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x80) ? static_cast<std::uint8_t>((crc << 1) ^ 0x1D)
                         : static_cast<std::uint8_t>(crc << 1);
    }
    EXPECT_EQ(table[byte], crc) << "table entry " << byte;
  }
}

TEST(Crc8, DetectsSingleBitFlips) {
  std::uint8_t data[] = {0x10, 0x32, 0x54, 0x76, 0x98};
  const std::uint8_t reference = util::crc8_j1850(data, sizeof(data));
  for (std::size_t byte = 0; byte < sizeof(data); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(util::crc8_j1850(data, sizeof(data)), reference)
          << "flip byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

// --- text formatting --------------------------------------------------------
//
// util::append and friends replace std::ostringstream on the run path, so
// every exported byte depends on them printing exactly what the stream
// printed. The references below are the stream code they replaced.

/// What `os << v` prints on a stream with precision `precision`.
std::string stream_double(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

/// The canonical policy text's former double formatter: the shortest
/// stream output, precision 1..17, that strtod parses back to `v`.
std::string stream_shortest(double v) {
  for (int precision = 1; precision <= 17; ++precision) {
    const std::string text = stream_double(v, precision);
    if (std::strtod(text.c_str(), nullptr) == v) return text;
  }
  return stream_double(v, 17);
}

std::string appended_double(double v, int precision) {
  std::string out;
  util::append_double(out, v, precision);
  return out;
}

std::string appended_shortest(double v) {
  std::string out;
  util::append_shortest(out, v);
  return out;
}

/// Special values, then 10^5 seeded random bit patterns (every fourth one
/// with a zero exponent, i.e. a subnormal or zero).
std::vector<double> parity_doubles() {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0,           -0.0,
      limits::denorm_min(), -limits::denorm_min(),
      limits::min(), std::nextafter(limits::min(), 0.0),
      limits::max(), -limits::max(),
      limits::infinity(), -limits::infinity(),
      limits::quiet_NaN(), -limits::quiet_NaN(),
      0.1,           0.9,
      1.0 / 3.0,     2.5e-7,
      123456.5,      1234567.0,
      1e15,          1e16,
      1e17,          -61.23456789,
      5e-324,        9.999995,
      0.0001,        0.00001};
  std::mt19937_64 rng(0x7E47);
  for (int i = 0; i < 100'000; ++i) {
    std::uint64_t bits = rng();
    if (i % 4 == 0) bits &= 0x800F'FFFF'FFFF'FFFFull;
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
  }
  return values;
}

TEST(TextFormat, DoublesMatchTheStreamAtEveryPrecision) {
  for (const double v : parity_doubles()) {
    for (const int precision : {1, 3, 6, 17}) {
      ASSERT_EQ(appended_double(v, precision), stream_double(v, precision))
          << "precision " << precision;
    }
  }
}

TEST(TextFormat, ShortestMatchesTheStreamLoop) {
  for (const double v : parity_doubles()) {
    ASSERT_EQ(appended_shortest(v), stream_shortest(v));
  }
  EXPECT_EQ(appended_shortest(0.9), "0.9");
  EXPECT_EQ(appended_shortest(1.0 / 3.0), "0.3333333333333333");
}

TEST(TextFormat, AppendPrintsWhatTheStreamPrints) {
  const std::int64_t negative = std::numeric_limits<std::int64_t>::min();
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  const std::uint32_t small = 42;
  const std::string_view view = "view";
  const std::string text = "text";
  std::ostringstream os;
  os << "a" << negative << ' ' << big << ':' << small << view << text << 2.5
     << -0.0 << 1e-5 << ' ' << 1.0 / 3.0;
  std::string out = "prefix ";
  util::append(out, "a", negative, ' ', big, ':', small, view, text, 2.5,
               -0.0, 1e-5, ' ', 1.0 / 3.0);
  EXPECT_EQ(out, "prefix " + os.str());
  EXPECT_EQ(util::concat("n=", 7, " x=", 0.125f), "n=7 x=0.125");
}

}  // namespace
}  // namespace easis
