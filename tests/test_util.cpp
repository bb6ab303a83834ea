// util: deterministic RNG, statistics, table rendering, CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace sealdl::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIsIndependentOfParentContinuation) {
  Rng parent(7);
  Rng child = parent.fork();
  const std::uint64_t c0 = child.next();
  // Re-derive: fork consumed exactly one parent draw.
  Rng parent2(7);
  Rng child2(parent2.next());
  EXPECT_EQ(c0, child2.next());
}

class RngBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBounds, NextBelowStaysInRange) {
  Rng rng(GetParam());
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST_P(RngBounds, DoubleInUnitInterval) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngBounds, ::testing::Values(1, 99, 12345));

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, BernoulliRate) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(8);
  std::array<int, 10> buckets{};
  for (int i = 0; i < 20000; ++i) ++buckets[rng.next_below(10)];
  for (int count : buckets) EXPECT_NEAR(count, 2000, 250);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_EQ(s.count(), 4u);
}

TEST(Stats, GeomeanAndMean) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, HitRate) {
  HitRate hr;
  hr.record(true);
  hr.record(false);
  hr.record(true);
  hr.record(true);
  EXPECT_DOUBLE_EQ(hr.rate(), 0.75);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(0.0);
  h.add(3.9);
  h.add(4.0);
  h.add(11.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 4.0);
}

TEST(Histogram, PercentileOfEmptyIsLowerBound) {
  Histogram h(2.0, 10.0, 4);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 2.0);
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  Histogram h(0.0, 10.0, 5);
  for (int i = 0; i < 4; ++i) h.add(1.0);  // all mass in bucket [0, 2)
  EXPECT_EQ(h.count(), 4u);
  // p50 → rank 2 of 4 → halfway through the only occupied bucket.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
}

TEST(Histogram, PercentileHandlesUnderflowAndOverflowMass) {
  Histogram h(0.0, 10.0, 5);
  h.add(-5.0);  // underflow
  h.add(5.0);
  h.add(50.0);  // overflow
  EXPECT_EQ(h.count(), 3u);
  // First third of the mass is underflow → clamped to lo.
  EXPECT_DOUBLE_EQ(h.percentile(10.0), 0.0);
  // Last third is overflow → clamped to hi.
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 10.0);
  // Out-of-range p is clamped, not UB.
  EXPECT_DOUBLE_EQ(h.percentile(150.0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(-3.0), 0.0);
}

TEST(Histogram, AllMassInOverflowSaturatesAtHi) {
  // When every sample escapes the range, the histogram can only say "at
  // least hi": every percentile clamps to hi, and overflow() carries the
  // evidence that the percentiles are saturated.
  Histogram h(0.0, 10.0, 5);
  for (int i = 0; i < 100; ++i) h.add(1000.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.overflow(), 100u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
}

TEST(Histogram, SingleUnderflowSampleClampsToLo) {
  Histogram h(5.0, 10.0, 5);
  h.add(-100.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 5.0);
}

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22.5  |"), std::string::npos);
}

TEST(Table, FormattersProduceFixedPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::pct(0.4567, 1), "45.7%");
}

TEST(Cli, ParsesAllFlagForms) {
  // Note: a bare `--flag` followed by a non-flag token consumes that token as
  // its value, so the boolean form must be last or use `=`.
  const char* argv[] = {"prog", "pos1", "--alpha", "3",    "--beta=hello",
                        "--gamma", "2.5", "--flag"};
  CliFlags flags(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_EQ(flags.get("beta", ""), "hello");
  EXPECT_TRUE(flags.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(flags.get_double("gamma", 0.0), 2.5);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_TRUE(flags.unused().empty());
}

TEST(Cli, ReportsUnusedFlags) {
  const char* argv[] = {"prog", "--typo", "1"};
  CliFlags flags(3, const_cast<char**>(argv));
  const auto unused = flags.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, MissingFlagFallsBack) {
  const char* argv[] = {"prog"};
  CliFlags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("n", 17), 17);
  EXPECT_FALSE(flags.has("n"));
}

/// The message a numeric getter throws for `name`, or "" if it parsed.
template <typename Get>
std::string numeric_error(Get get) {
  try {
    get();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Cli, NumericFlagsMustParseWholeToken) {
  const char* argv[] = {"prog",    "--tiles", "12abc", "--ratio", "abc",
                        "--gamma", "1.5x",    "--big", "99999999999999999999",
                        "--neg",   "-5",      "--flag"};
  CliFlags flags(12, const_cast<char**>(argv));
  EXPECT_EQ(numeric_error([&] { (void)flags.get_int("tiles", 0); }),
            "invalid value for --tiles: '12abc'");
  EXPECT_EQ(numeric_error([&] { (void)flags.get_double("ratio", 0.0); }),
            "invalid value for --ratio: 'abc'");
  EXPECT_EQ(numeric_error([&] { (void)flags.get_double("gamma", 0.0); }),
            "invalid value for --gamma: '1.5x'");
  // Out of range is as invalid as garbage.
  EXPECT_EQ(numeric_error([&] { (void)flags.get_int("big", 0); }),
            "invalid value for --big: '99999999999999999999'");
  // A bare boolean flag has no number to read.
  EXPECT_EQ(numeric_error([&] { (void)flags.get_int("flag", 0); }),
            "invalid value for --flag: 'true'");
  // Negative values parse; range checks belong to the caller.
  EXPECT_EQ(flags.get_int("neg", 0), -5);
  EXPECT_DOUBLE_EQ(flags.get_double("neg", 0.0), -5.0);
}

// Minimal RFC 8259 string-body decoder: the inverse of JsonWriter::escape.
// Only the escapes escape() can emit are accepted; anything else is a bug.
std::string unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    EXPECT_LT(i, s.size()) << "dangling backslash";
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        EXPECT_LE(i + 4, s.size() - 1) << "truncated \\u escape";
        const unsigned code =
            static_cast<unsigned>(std::stoul(s.substr(i + 1, 4), nullptr, 16));
        EXPECT_LT(code, 0x80u) << "escape() only emits \\u for control bytes";
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default:
        ADD_FAILURE() << "unexpected escape \\" << s[i];
    }
  }
  return out;
}

TEST(JsonWriter, EscapeRoundTripsEveryByte) {
  // Every byte value 0x01..0xFF embedded in context must survive
  // escape -> unescape unchanged, and the escaped form must never contain a
  // raw control character (RFC 8259 forbids them inside strings).
  for (int b = 1; b < 256; ++b) {
    const std::string original =
        std::string("k[") + static_cast<char>(b) + "]";
    const std::string escaped = JsonWriter::escape(original);
    for (const char c : escaped) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
          << "raw control char in escaped output for byte " << b;
    }
    EXPECT_EQ(unescape(escaped), original) << "byte " << b;
  }
}

TEST(JsonWriter, EscapeUsesShortFormsAndUnicodeEscapes) {
  EXPECT_EQ(JsonWriter::escape("\"\\"), "\\\"\\\\");
  EXPECT_EQ(JsonWriter::escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  // Remaining control bytes take the \u00XX form, lowercase hex, no
  // sign-extension artifacts.
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x00')), "\\u0000");
  // UTF-8 multi-byte sequences pass through untouched.
  EXPECT_EQ(JsonWriter::escape("λ=0.5"), "λ=0.5");
}

TEST(JsonWriter, HostileKeysAndValuesStayParseable) {
  // A document built from adversarial layer/metric names must remain
  // structurally valid: balanced containers, no raw control bytes, and the
  // string bodies decode back to the originals.
  const std::string key = "conv\t1\n\"input\"\\path\x01";
  const std::string val = "relu\r{nested}\x1f";
  JsonWriter json;
  json.begin_object().field(key, val).end_object();
  const std::string doc = json.str();

  for (const char c : doc) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte";
  }
  // Extract the two string bodies and round-trip them.
  std::vector<std::string> bodies;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (doc[i] != '"') continue;
    std::string body;
    for (++i; i < doc.size() && doc[i] != '"'; ++i) {
      body += doc[i];
      if (doc[i] == '\\') body += doc[++i];  // skip escaped char
    }
    bodies.push_back(body);
  }
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(unescape(bodies[0]), key);
  EXPECT_EQ(unescape(bodies[1]), val);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
}

TEST(Logging, ParseLogLevelNamesAndFallback) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO", LogLevel::kWarn), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn", LogLevel::kError), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning", LogLevel::kError), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error", LogLevel::kWarn), LogLevel::kError);
  // Unset / unknown values keep the fallback (SEALDL_LOG_LEVEL unset case).
  EXPECT_EQ(parse_log_level(nullptr, LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("verbose", LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("", LogLevel::kError), LogLevel::kError);
}

}  // namespace
}  // namespace sealdl::util
