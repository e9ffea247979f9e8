// Unit tests for the simulated non-volatile fault memory: serialisation
// round trips, the closed-form image size, double-buffered commit with
// fallback, stale-tail zeroing, CRC-based corruption detection and
// capacity overflow handling.
#include <gtest/gtest.h>

#include <algorithm>

#include "fmf/nvm.hpp"
#include "util/random.hpp"

namespace easis::fmf {
namespace {

using sim::SimTime;

NvmImage sample_image() {
  NvmImage image;
  image.reset_count = 3;
  image.storm_latched = true;
  ResetCause cause;
  cause.source = ResetSource::kHardwareWatchdog;
  cause.task = TaskId(7);
  cause.application = ApplicationId(2);
  cause.error = wdg::ErrorType::kAliveness;
  cause.time = SimTime(1'234'567);
  cause.detail = "hardware watchdog expired";
  image.reset_history.push_back(cause);
  cause.source = ResetSource::kRecoveryFailure;
  cause.time = SimTime(2'000'000);
  cause.detail = "no heartbeat re-announcement inside warm-up window";
  image.reset_history.push_back(cause);
  PersistedDtc dtc;
  dtc.key.application = ApplicationId(2);
  dtc.key.type = wdg::ErrorType::kArrivalRate;
  dtc.occurrences = 5;
  dtc.first_seen = SimTime(100'000);
  dtc.last_seen = SimTime(900'000);
  dtc.active = true;
  FreezeFrame frame;
  frame.captured_at = SimTime(100'000);
  frame.signals.emplace_back("vehicle.speed_kmh", 87.5);
  dtc.freeze_frame = frame;
  image.dtcs.push_back(dtc);
  return image;
}

TEST(NvmStoreTest, BlankStoreLoadsNothing) {
  NvmStore store;
  const auto result = store.load();
  EXPECT_FALSE(result.image.has_value());
  EXPECT_FALSE(result.corruption_detected);
}

TEST(NvmStoreTest, CommitLoadRoundTripPreservesImage) {
  NvmStore store;
  ASSERT_TRUE(store.commit(sample_image()));
  const auto result = store.load();
  EXPECT_FALSE(result.corruption_detected);
  ASSERT_TRUE(result.image.has_value());
  const NvmImage& image = *result.image;
  EXPECT_EQ(image.reset_count, 3u);
  EXPECT_TRUE(image.storm_latched);
  ASSERT_EQ(image.reset_history.size(), 2u);
  EXPECT_EQ(image.reset_history[0].source, ResetSource::kHardwareWatchdog);
  EXPECT_EQ(image.reset_history[0].task, TaskId(7));
  EXPECT_EQ(image.reset_history[0].time, SimTime(1'234'567));
  EXPECT_EQ(image.reset_history[0].detail, "hardware watchdog expired");
  EXPECT_EQ(image.reset_history[1].source, ResetSource::kRecoveryFailure);
  ASSERT_EQ(image.dtcs.size(), 1u);
  const PersistedDtc& dtc = image.dtcs[0];
  EXPECT_EQ(dtc.key.application, ApplicationId(2));
  EXPECT_EQ(dtc.key.type, wdg::ErrorType::kArrivalRate);
  EXPECT_EQ(dtc.occurrences, 5u);
  ASSERT_TRUE(dtc.freeze_frame.has_value());
  ASSERT_EQ(dtc.freeze_frame->signals.size(), 1u);
  EXPECT_EQ(dtc.freeze_frame->signals[0].first, "vehicle.speed_kmh");
  EXPECT_DOUBLE_EQ(dtc.freeze_frame->signals[0].second, 87.5);
}

TEST(NvmStoreTest, NewestSequenceWins) {
  NvmStore store;
  NvmImage image = sample_image();
  image.reset_count = 1;
  ASSERT_TRUE(store.commit(image));
  image.reset_count = 2;
  ASSERT_TRUE(store.commit(image));
  const auto result = store.load();
  ASSERT_TRUE(result.image.has_value());
  EXPECT_EQ(result.image->reset_count, 2u);
}

TEST(NvmStoreTest, CorruptedActiveBankFallsBackToOlderImage) {
  NvmStore store;
  NvmImage image = sample_image();
  image.reset_count = 1;
  ASSERT_TRUE(store.commit(image));
  image.reset_count = 2;
  ASSERT_TRUE(store.commit(image));
  // Flip a payload bit of the active (newest) bank: its CRC must fail and
  // the load must fall back to the older, still-valid bank — flagged, not
  // silently consumed.
  store.corrupt_bit(20 * 8);
  const auto result = store.load();
  EXPECT_TRUE(result.corruption_detected);
  ASSERT_TRUE(result.image.has_value());
  EXPECT_EQ(result.image->reset_count, 1u);
  EXPECT_NE(result.detail.find("failed CRC"), std::string::npos);
}

TEST(NvmStoreTest, FullyCorruptedStoreYieldsNoImageButDetection) {
  NvmStore store;
  ASSERT_TRUE(store.commit(sample_image()));
  store.corrupt_bit(20 * 8);
  const auto result = store.load();
  EXPECT_TRUE(result.corruption_detected);
  EXPECT_FALSE(result.image.has_value());
}

TEST(NvmStoreTest, HeaderCorruptionIsDetectedToo) {
  NvmStore store;
  ASSERT_TRUE(store.commit(sample_image()));
  // Damage the sequence field (covered by the bank CRC).
  store.corrupt_byte(store.active_bank(), 5, 0xFF);
  const auto result = store.load();
  EXPECT_TRUE(result.corruption_detected);
  EXPECT_FALSE(result.image.has_value());
}

TEST(NvmStoreTest, OversizedImageRejectedWithoutDamage) {
  NvmStore store(64);
  NvmImage small;
  small.reset_count = 9;
  ASSERT_TRUE(store.commit(small));
  NvmImage big = small;
  ResetCause cause;
  cause.detail = std::string(200, 'x');
  big.reset_history.push_back(cause);
  EXPECT_FALSE(store.commit(big));
  EXPECT_EQ(store.overflows(), 1u);
  // The previously committed image must still load intact.
  const auto result = store.load();
  ASSERT_TRUE(result.image.has_value());
  EXPECT_EQ(result.image->reset_count, 9u);
  EXPECT_FALSE(result.corruption_detected);
}

TEST(NvmStoreTest, EraseClearsBothBanks) {
  NvmStore store;
  ASSERT_TRUE(store.commit(sample_image()));
  ASSERT_TRUE(store.commit(sample_image()));
  store.erase();
  const auto result = store.load();
  EXPECT_FALSE(result.image.has_value());
  EXPECT_FALSE(result.corruption_detected);
}

std::string random_string(util::Rng& rng, std::int64_t max_len) {
  return std::string(static_cast<std::size_t>(rng.uniform_int(0, max_len)),
                     static_cast<char>('a' + rng.uniform_int(0, 25)));
}

NvmImage random_image(util::Rng& rng, std::int64_t max_str) {
  NvmImage image;
  image.reset_count = static_cast<std::uint32_t>(rng.uniform_int(0, 99));
  image.storm_latched = rng.bernoulli(0.5);
  for (auto n = rng.uniform_int(0, 16); n > 0; --n) {
    ResetCause cause;
    cause.task = TaskId(static_cast<std::uint32_t>(rng.uniform_int(0, 9)));
    cause.time = SimTime(rng.uniform_int(0, 1'000'000));
    cause.detail = random_string(rng, max_str);
    image.reset_history.push_back(std::move(cause));
  }
  for (auto n = rng.uniform_int(0, 40); n > 0; --n) {
    PersistedDtc dtc;
    dtc.key.application =
        ApplicationId(static_cast<std::uint32_t>(rng.uniform_int(0, 9)));
    dtc.active = rng.bernoulli(0.5);
    if (rng.bernoulli(0.6)) {
      FreezeFrame frame;
      for (auto s = rng.uniform_int(0, 5); s > 0; --s) {
        frame.signals.emplace_back(random_string(rng, max_str),
                                   rng.uniform(-1e3, 1e3));
      }
      dtc.freeze_frame = std::move(frame);
    }
    image.dtcs.push_back(std::move(dtc));
  }
  for (auto n = rng.uniform_int(0, 4); n > 0; --n) {
    wdg::TransgressionRecord record;
    record.section = random_string(rng, max_str);
    image.transgressions.push_back(std::move(record));
  }
  image.power_mode = random_string(rng, 8);
  return image;
}

TEST(NvmImageSizeTest, ClosedFormSizeMatchesSerialisationOnEmptyImage) {
  const NvmImage empty;
  EXPECT_EQ(serialized_size(empty), serialize(empty).size());
  EXPECT_EQ(serialized_size(sample_image()), serialize(sample_image()).size());
}

TEST(NvmImageSizeTest, ClosedFormSizeMatchesSerialisationOnRandomImages) {
  util::Rng rng(0x517E);
  for (int trial = 0; trial < 300; ++trial) {
    // Every tenth image carries long strings (kilobytes per field).
    const NvmImage image = random_image(rng, trial % 10 == 0 ? 4'000 : 40);
    ASSERT_EQ(serialized_size(image), serialize(image).size())
        << "trial " << trial;
  }
}

TEST(NvmImageSizeTest, ExactlyFullImageFitsAndOneByteMoreOverflows) {
  util::Rng rng(0xF17);
  for (int trial = 0; trial < 40; ++trial) {
    const NvmImage image = random_image(rng, 40);
    const std::size_t bank = 13 + serialize(image).size();
    NvmStore exact(bank);
    EXPECT_TRUE(exact.fits(serialized_size(image)));
    ASSERT_TRUE(exact.commit(image)) << "trial " << trial;
    EXPECT_DOUBLE_EQ(exact.fill_level(), 1.0);
    ASSERT_TRUE(exact.load().image.has_value());
    EXPECT_EQ(serialize(*exact.load().image), serialize(image));
    NvmStore over(bank - 1);
    EXPECT_FALSE(over.commit(image));
    EXPECT_EQ(over.overflows(), 1u);
    EXPECT_EQ(over.commits(), 0u);
  }
}

TEST(NvmImageSizeTest, OverflowCountsWithoutConsumingAWriteFault) {
  NvmStore store(64);
  NvmImage big;
  big.power_mode = std::string(100, 'm');
  store.inject_write_faults(1);
  EXPECT_FALSE(store.commit(big));
  EXPECT_EQ(store.overflows(), 1u);
  EXPECT_EQ(store.write_errors(), 0u);
  // The fault stays pending for the next image that fits.
  EXPECT_FALSE(store.commit(NvmImage{}));
  EXPECT_EQ(store.write_errors(), 1u);
  store.count_overflows(3);
  EXPECT_EQ(store.overflows(), 4u);
}

void expect_bank_holds(const NvmStore& store, std::size_t bank,
                       const NvmImage& image) {
  const std::vector<std::uint8_t>& bytes = store.bank_bytes(bank);
  const std::vector<std::uint8_t> payload = serialize(image);
  ASSERT_EQ(bytes.size(), store.bank_capacity());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), bytes.begin() + 13));
  EXPECT_TRUE(std::all_of(bytes.begin() + 13 +
                              static_cast<std::ptrdiff_t>(payload.size()),
                          bytes.end(), [](std::uint8_t b) { return b == 0; }))
      << "stale bytes past the image in bank " << bank;
}

TEST(NvmStoreTest, ShorterImageZeroesTheStaleTail) {
  NvmStore store(512);
  NvmImage long_image = sample_image();
  long_image.power_mode = std::string(200, 'L');
  ASSERT_TRUE(store.commit(long_image));  // bank 1
  ASSERT_TRUE(store.commit(long_image));  // bank 0
  ASSERT_TRUE(store.commit(NvmImage{}));  // bank 1 again, much shorter
  expect_bank_holds(store, 1, NvmImage{});
  ASSERT_TRUE(store.commit(NvmImage{}));  // bank 0
  expect_bank_holds(store, 0, NvmImage{});
}

TEST(NvmStoreTest, CorruptionPastTheUsedLengthIsZeroedByTheNextCommit) {
  NvmStore store(512);
  const NvmImage image = sample_image();
  ASSERT_TRUE(store.commit(image));  // bank 1, active
  ASSERT_EQ(store.active_bank(), 1u);
  store.corrupt_bit(480 * 8 + 3);  // far past the image, still in bank 1
  store.corrupt_byte(0, 500, 0x5A);
  EXPECT_NE(store.bank_bytes(1)[480], 0);
  ASSERT_TRUE(store.commit(image));  // bank 0
  expect_bank_holds(store, 0, image);
  NvmImage shorter;
  shorter.reset_count = 4;
  ASSERT_TRUE(store.commit(shorter));  // bank 1
  expect_bank_holds(store, 1, shorter);
  const auto loaded = store.load();
  EXPECT_FALSE(loaded.corruption_detected);
  ASSERT_TRUE(loaded.image.has_value());
  EXPECT_EQ(loaded.image->reset_count, 4u);
}

}  // namespace
}  // namespace easis::fmf
