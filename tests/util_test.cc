// Unit tests for src/util: Status/Result, Rng, stats, hex, time,
// SmallBytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hex.h"
#include "util/random.h"
#include "util/result.h"
#include "util/small_bytes.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/time.h"

namespace prestige {
namespace util {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  Status s = Status::Corruption("bad block");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.message(), "bad block");
  EXPECT_EQ(s.ToString(), "Corruption: bad block");
}

TEST(StatusTest, AllPredicatesMatchTheirFactory) {
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("").IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidSignature("").IsInvalidSignature());
  EXPECT_TRUE(Status::StaleView("").IsStaleView());
  EXPECT_TRUE(Status::InvalidProtocol("").IsInvalidProtocol());
  EXPECT_TRUE(Status::TimedOut("").IsTimedOut());
  EXPECT_TRUE(Status::Aborted("").IsAborted());
  EXPECT_TRUE(Status::Unavailable("").IsUnavailable());
  EXPECT_TRUE(Status::Internal("").IsInternal());
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::Corruption("a"));
}

Status FailingHelper() { return Status::TimedOut("inner"); }

Status PropagatingHelper() {
  PRESTIGE_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(PropagatingHelper().IsTimedOut());
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All values hit.
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NormalMatchesMoments) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(rng.NextNormal(10.0, 5.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.2);
  EXPECT_NEAR(stats.stddev(), 5.0, 0.2);
}

TEST(RngTest, ExponentialMatchesMean) {
  Rng rng(17);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(rng.NextExponential(3.0));
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.15);
}

TEST(RngTest, GeometricMatchesMeanModerateP) {
  Rng rng(19);
  OnlineStats stats;
  const double p = 1.0 / 64.0;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(rng.NextGeometricTrials(p));
  }
  EXPECT_NEAR(stats.mean(), 64.0, 2.5);
}

TEST(RngTest, GeometricTinyPDoesNotOverflow) {
  Rng rng(23);
  const double p = std::pow(2.0, -64);
  for (int i = 0; i < 100; ++i) {
    const double trials = rng.NextGeometricTrials(p);
    EXPECT_GE(trials, 1.0);
    EXPECT_LE(trials, 4.7e18);
  }
}

TEST(RngTest, GeometricPOneAlwaysOneTrial) {
  Rng rng(29);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.NextGeometricTrials(1.0), 1.0);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  // Child's next values differ from parent's next values.
  EXPECT_NE(parent.NextUint64(), child.NextUint64());
}

// ----------------------------------------------------------------- Stats

TEST(OnlineStatsTest, MeanAndPopulationStddev) {
  // The paper's Appendix C example: P = {1,2,3,4,5} -> mu=3, sigma=1.41.
  OnlineStats s;
  for (int v : {1, 2, 3, 4, 5}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.4142, 1e-3);
}

TEST(OnlineStatsTest, PaperExampleSixElements) {
  // P = {1,2,3,4,5,5} -> mu=3.33, sigma=1.49 (Fig. 4c row 3).
  OnlineStats s;
  for (int v : {1, 2, 3, 4, 5, 5}) s.Add(v);
  EXPECT_NEAR(s.mean(), 3.333, 1e-3);
  EXPECT_NEAR(s.stddev(), 1.49, 0.01);
}

TEST(OnlineStatsTest, PaperExampleFourteenElements) {
  // P = {1,2,3,4,5 x10} -> mu=4.28, sigma=1.27 (Appendix C example 5).
  OnlineStats s;
  for (int v : {1, 2, 3, 4}) s.Add(v);
  for (int i = 0; i < 10; ++i) s.Add(5);
  EXPECT_NEAR(s.mean(), 4.2857, 1e-3);
  EXPECT_NEAR(s.stddev(), 1.2778, 1e-3);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(OnlineStatsTest, ResetClears) {
  OnlineStats s;
  s.Add(5.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, MeanMinMax) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.Add(v);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 4.0);
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(99), 99.01, 0.02);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
}

TEST(HistogramTest, EmptySafe) {
  Histogram h;
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(WindowedCounterTest, BucketsByTime) {
  WindowedCounter wc(Seconds(1));
  wc.Add(Millis(100));
  wc.Add(Millis(900));
  wc.Add(Millis(1500));
  ASSERT_EQ(wc.buckets().size(), 2u);
  EXPECT_EQ(wc.buckets()[0], 2);
  EXPECT_EQ(wc.buckets()[1], 1);
  EXPECT_EQ(wc.Total(), 3);
}

TEST(WindowedCounterTest, AvailabilityFraction) {
  WindowedCounter wc(Seconds(1));
  wc.Add(Millis(500));   // window 0 live
  wc.Add(Millis(2500));  // window 2 live; window 1 dead
  EXPECT_NEAR(wc.AvailableFraction(Seconds(4)), 0.5, 1e-9);
}

TEST(WindowedCounterTest, ThresholdedAvailability) {
  WindowedCounter wc(Seconds(1));
  wc.Add(Millis(100), 5);
  wc.Add(Millis(1100), 1);
  EXPECT_NEAR(wc.AvailableFraction(Seconds(2), /*threshold=*/3), 0.5, 1e-9);
}

// ------------------------------------------------------------------- Hex

TEST(HexTest, RoundTrip) {
  std::vector<uint8_t> data = {0x00, 0xff, 0x10, 0xab};
  const std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "00ff10ab");
  auto decoded = HexDecode(hex);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

TEST(HexTest, DecodeUppercase) {
  auto decoded = HexDecode("DEADBEEF");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0], 0xde);
  EXPECT_EQ((*decoded)[3], 0xef);
}

TEST(HexTest, RejectsOddLength) {
  EXPECT_TRUE(HexDecode("abc").status().IsInvalidArgument());
}

TEST(HexTest, RejectsNonHex) {
  EXPECT_TRUE(HexDecode("zz").status().IsInvalidArgument());
}

// ------------------------------------------------------------------ Time

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Millis(5), 5000);
  EXPECT_EQ(Seconds(2), 2000000);
  EXPECT_DOUBLE_EQ(ToMillis(1500), 1.5);
  EXPECT_DOUBLE_EQ(ToSeconds(2500000), 2.5);
}

// ------------------------------------------------------------ SmallBytes

constexpr size_t kInline = SmallBytes::kInlineCapacity;

/// Lengths on both sides of the inline limit, a KV Put's 17 and a page.
const size_t kSmallBytesLengths[] = {0,       1,           17,  kInline - 1,
                                     kInline, kInline + 1, 4096};

std::vector<uint8_t> Pattern(size_t len, uint8_t salt = 0) {
  std::vector<uint8_t> bytes(len);
  for (size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 31 + salt);
  }
  return bytes;
}

static_assert(std::is_nothrow_move_constructible_v<SmallBytes>);
static_assert(std::is_nothrow_move_assignable_v<SmallBytes>);

TEST(SmallBytesTest, HoldsEveryLengthInlineOrInOneBlock) {
  for (size_t len : kSmallBytesLengths) {
    SCOPED_TRACE(len);
    const std::vector<uint8_t> want = Pattern(len);
    const SmallBytes bytes = want;
    ASSERT_EQ(bytes.size(), len);
    EXPECT_EQ(bytes.empty(), len == 0);
    EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()), want);
    // Inline up to the limit, else exactly one block of the length.
    EXPECT_EQ(bytes.capacity(), std::max(len, kInline));
  }
  const SmallBytes listed = {1, 2, 3};
  EXPECT_EQ(listed, std::vector<uint8_t>({1, 2, 3}));
}

TEST(SmallBytesTest, CopiesAcrossTheInlineLimitAreDeep) {
  for (size_t from : kSmallBytesLengths) {
    for (size_t to : kSmallBytesLengths) {
      SCOPED_TRACE(std::to_string(from) + " over " + std::to_string(to));
      const SmallBytes source = Pattern(from, 1);
      SmallBytes copy(source);
      EXPECT_EQ(copy, source);
      SmallBytes target = Pattern(to, 2);
      target = source;
      EXPECT_EQ(target, source);
      EXPECT_GE(target.capacity(), from);
      if (from > 0) {
        // Writing the copy leaves the source alone: no shared block.
        target[0] ^= 0xff;
        copy[from - 1] ^= 0xff;
        EXPECT_EQ(source, Pattern(from, 1));
        EXPECT_NE(target.data(), source.data());
      }
    }
  }
}

TEST(SmallBytesTest, MovesTakeTheBlockAndLeaveAnEmptyInlineString) {
  for (size_t from : kSmallBytesLengths) {
    for (size_t to : kSmallBytesLengths) {
      SCOPED_TRACE(std::to_string(from) + " over " + std::to_string(to));
      SmallBytes source = Pattern(from, 3);
      const uint8_t* block = source.data();
      SmallBytes moved(std::move(source));
      EXPECT_EQ(moved, Pattern(from, 3));
      if (from > kInline) {
        EXPECT_EQ(moved.data(), block);  // The block moved, not a copy.
      }
      EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
      EXPECT_EQ(source.capacity(), kInline);

      SmallBytes target = Pattern(to, 4);
      target = std::move(moved);
      EXPECT_EQ(target, Pattern(from, 3));
      EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
      // A moved-from string is usable again.
      moved.push_back(9);
      EXPECT_EQ(moved, SmallBytes({9}));
    }
  }
}

TEST(SmallBytesTest, SelfAssignmentKeepsTheBytes) {
  for (size_t len : kSmallBytesLengths) {
    SCOPED_TRACE(len);
    SmallBytes bytes = Pattern(len);
    SmallBytes& alias = bytes;
    bytes = alias;
    EXPECT_EQ(bytes, Pattern(len));
    bytes = std::move(alias);
    EXPECT_EQ(bytes, Pattern(len));
    // Assigning a string's own tail to it (overlapping ranges).
    if (len > 1) {
      bytes.assign(bytes.begin() + 1, bytes.end());
      const std::vector<uint8_t> whole = Pattern(len);
      EXPECT_EQ(bytes, std::vector<uint8_t>(whole.begin() + 1, whole.end()));
    }
  }
}

TEST(SmallBytesTest, EqualityComparesBytesNotStorage) {
  SmallBytes inline_bytes = Pattern(17);
  SmallBytes spilled = Pattern(17);
  spilled.reserve(4096);
  ASSERT_GT(spilled.capacity(), kInline);
  EXPECT_EQ(inline_bytes, spilled);
  EXPECT_EQ(SmallBytes(), SmallBytes(std::vector<uint8_t>()));
  EXPECT_NE(SmallBytes(Pattern(17)), SmallBytes(Pattern(16)));
  spilled[16] ^= 1;
  EXPECT_NE(inline_bytes, spilled);
  EXPECT_EQ(SmallBytes(Pattern(kInline + 1)), Pattern(kInline + 1));
}

TEST(SmallBytesTest, GrowsLikeAVector) {
  SmallBytes bytes;
  std::vector<uint8_t> want;
  for (size_t i = 0; i < 100; ++i) {
    bytes.push_back(static_cast<uint8_t>(i));
    want.push_back(static_cast<uint8_t>(i));
    ASSERT_EQ(bytes, want);
    ASSERT_GE(bytes.capacity(), bytes.size());
  }
  bytes.resize(120);  // New bytes are zero.
  want.resize(120);
  EXPECT_EQ(bytes, want);
  bytes.resize(3);
  EXPECT_EQ(bytes, SmallBytes({0, 1, 2}));
  bytes.assign(30, 0x5a);
  EXPECT_EQ(bytes, std::vector<uint8_t>(30, 0x5a));
  bytes.clear();
  EXPECT_TRUE(bytes.empty());
  SmallBytes small;
  small.reserve(10);  // Below the inline limit: stays inline.
  EXPECT_EQ(small.capacity(), kInline);
  small.reserve(kInline + 1);  // Exactly the reserved length.
  EXPECT_EQ(small.capacity(), kInline + 1);
}

}  // namespace
}  // namespace util
}  // namespace prestige
