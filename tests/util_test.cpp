// Unit tests for the drbw::util substrate: RNG, statistics, string helpers,
// tables/charts, CSV, JSON, and the CLI parser.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "drbw/util/ascii_chart.hpp"
#include "drbw/util/cli.hpp"
#include "drbw/util/csv.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/huge_pages.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/rng.hpp"
#include "drbw/util/stats.hpp"
#include "drbw/util/strings.hpp"
#include "drbw/util/table.hpp"

namespace drbw {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(9);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, BoundedIsUnbiasedAcrossRange) {
  Rng rng(11);
  std::array<int, 5> counts{};
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) counts[rng.bounded(5)]++;
  for (int c : counts) EXPECT_NEAR(c, draws / 5, draws / 50);
}

TEST(Rng, BoundedRejectsZero) { EXPECT_THROW(Rng(1).bounded(0), Error); }

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(5);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMedianApproximatesTarget) {
  Rng rng(13);
  std::vector<double> draws;
  draws.reserve(50001);
  for (int i = 0; i < 50001; ++i) draws.push_back(rng.lognormal_median(200.0, 0.3));
  EXPECT_NEAR(quantile(draws, 0.5), 200.0, 5.0);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng base(17);
  Rng a = base.fork(0);
  Rng b = base.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(OnlineStats, MatchesClosedForm) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(23);
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 1.5);
    whole.add(v);
    (i % 2 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile({5.0}, 0.3), 5.0);
}

TEST(Quantile, LowerMedianIsNearestRankFromBelow) {
  EXPECT_DOUBLE_EQ(lower_median({}), 0.0);
  EXPECT_DOUBLE_EQ(lower_median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(lower_median({4.0, 1.0, 3.0, 2.0}), 2.0);  // not 2.5
  EXPECT_DOUBLE_EQ(lower_median({5.0, 1.0, 3.0}), 3.0);
}

TEST(Quantile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(quantile({}, 0.5), Error);
  EXPECT_THROW(quantile({1.0}, 1.5), Error);
}

TEST(Geomean, KnownValue) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_THROW(geomean({1.0, 0.0}), Error);
  EXPECT_THROW(geomean({}), Error);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(Strings, Formatting) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.0421, 1), "4.2%");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(7), "7");
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
}

TEST(Table, AlignsColumns) {
  TablePrinter t({{"name", Align::kLeft}, {"value", Align::kRight}});
  t.add_row({"x", "1"});
  t.add_row({"longer", "23"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name   | value"), std::string::npos);
  EXPECT_NE(out.find("x      |     1"), std::string::npos);
  EXPECT_NE(out.find("longer |    23"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  TablePrinter t({{"a", Align::kLeft}});
  EXPECT_THROW(t.add_row({"1", "2"}), Error);
}

TEST(BarChart, ScalesToMax) {
  BarChart chart("speedup", 10);
  chart.add("a", 1.0);
  chart.add("b", 2.0);
  const std::string out = chart.render();
  // "b" should have twice the fill of "a".
  const auto line_a = out.find("a |");
  const auto line_b = out.find("b |");
  ASSERT_NE(line_a, std::string::npos);
  ASSERT_NE(line_b, std::string::npos);
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"h1", "h,2"});
  w.write_row("row", {1.5}, 1);
  EXPECT_EQ(os.str(), "h1,\"h,2\"\nrow,1.5\n");
}

TEST(Json, RoundTripsDocument) {
  Json doc;
  doc.set("name", "tree");
  doc.set("depth", 3);
  doc.set("threshold", 0.25);
  doc.set("leaf", false);
  JsonArray kids;
  kids.push_back(Json(nullptr));
  kids.push_back(Json("rmc"));
  doc.set("children", Json(std::move(kids)));

  const Json parsed = Json::parse(doc.dump());
  EXPECT_EQ(parsed.at("name").as_string(), "tree");
  EXPECT_EQ(parsed.at("depth").as_int(), 3);
  EXPECT_DOUBLE_EQ(parsed.at("threshold").as_number(), 0.25);
  EXPECT_FALSE(parsed.at("leaf").as_bool());
  ASSERT_EQ(parsed.at("children").as_array().size(), 2u);
  EXPECT_TRUE(parsed.at("children").as_array()[0].is_null());
}

TEST(Json, ParsesEscapesAndNumbers) {
  const Json v = Json::parse(R"({"s":"a\nb\"c","n":-1.5e2,"u":"A"})");
  EXPECT_EQ(v.at("s").as_string(), "a\nb\"c");
  EXPECT_DOUBLE_EQ(v.at("n").as_number(), -150.0);
  EXPECT_EQ(v.at("u").as_string(), "A");

  // Integer tokens stay exact past 2^53 and dump in full; a token past the
  // integer range, or with a fraction or exponent, is a double.
  const Json ints = Json::parse(
      "[9007199254740993, -9223372036854775808, 18446744073709551615, "
      "18446744073709551616, 1.0, -1]");
  EXPECT_EQ(ints.dump(-1),
            "[9007199254740993,-9223372036854775808,18446744073709551615,"
            "1.8446744073709552e+19,1,-1]");
  const JsonArray& a = ints.as_array();
  EXPECT_EQ(a[0].as_u64(), std::optional<std::uint64_t>(9007199254740993u));
  EXPECT_EQ(a[1].as_int(), INT64_MIN);
  EXPECT_EQ(a[1].as_u64(), std::nullopt);
  EXPECT_EQ(a[2].as_u64(), std::optional<std::uint64_t>(UINT64_MAX));
  EXPECT_EQ(a[3].as_u64(), std::nullopt);
  EXPECT_EQ(a[4].as_u64(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(a[5].as_int(), -1);
  EXPECT_EQ(Json(std::size_t{9007199254740993u}).dump(), "9007199254740993");
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("1 2"), Error);
  EXPECT_THROW(Json::parse("{\"a\":}"), Error);
  EXPECT_THROW(Json::parse("nul"), Error);
}

TEST(Json, TypeMismatchThrows) {
  const Json v = Json::parse("{\"a\": 1}");
  EXPECT_THROW(v.at("a").as_string(), Error);
  EXPECT_THROW(v.at("missing"), Error);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, CompactDump) {
  Json doc;
  doc.set("a", 1);
  doc.set("b", JsonArray{Json(1), Json(2)});
  EXPECT_EQ(doc.dump(-1), "{\"a\":1,\"b\":[1,2]}");
}

TEST(Cli, ParsesFlagsAndOptions) {
  ArgParser p("prog", "test");
  p.add_flag("verbose", "chatty").add_option("seed", "rng seed", "42");
  const char* argv[] = {"prog", "--verbose", "--seed", "7"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_TRUE(p.flag("verbose"));
  EXPECT_EQ(p.option_int("seed"), 7);
}

TEST(Cli, EqualsSyntaxAndDefaults) {
  ArgParser p("prog", "test");
  p.add_option("ratio", "a ratio", "0.5");
  const char* argv[] = {"prog", "--ratio=0.25"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_DOUBLE_EQ(p.option_double("ratio"), 0.25);

  ArgParser q("prog", "test");
  q.add_option("ratio", "a ratio", "0.5");
  const char* argv2[] = {"prog"};
  ASSERT_TRUE(q.parse(1, argv2));
  EXPECT_DOUBLE_EQ(q.option_double("ratio"), 0.5);
}

TEST(Cli, RejectsUnknownAndMalformed) {
  ArgParser p("prog", "test");
  p.add_option("seed", "rng seed", "1").add_flag("fast", "hurry");
  const char* unknown[] = {"prog", "--nope"};
  EXPECT_THROW(p.parse(2, unknown), Error);
  const char* missing[] = {"prog", "--seed"};
  EXPECT_THROW(p.parse(2, missing), Error);
  const char* flagval[] = {"prog", "--fast=1"};
  EXPECT_THROW(p.parse(2, flagval), Error);
  const char* positional[] = {"prog", "stray"};
  EXPECT_THROW(p.parse(2, positional), Error);
  const char* notint[] = {"prog", "--seed", "abc"};
  ASSERT_TRUE(p.parse(3, notint));
  EXPECT_THROW(p.option_int("seed"), Error);
}

TEST(Cli, PositionalsInterleaveWithOptionsWithinDeclaredCounts) {
  const auto make = [] {
    ArgParser p("prog", "test");
    p.add_positional("base", "the baseline", 1, 1)
        .add_positional("more", "the rest", 1, ArgParser::kUnbounded)
        .add_option("threshold", "a threshold", "0.25");
    return p;
  };
  ArgParser p = make();
  const char* argv[] = {"prog", "a", "--threshold", "2", "b", "c"};
  ASSERT_TRUE(p.parse(6, argv));
  EXPECT_EQ(p.positionals(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_DOUBLE_EQ(p.option_double("threshold", 0.0, 10.0), 2.0);
  const std::string usage = p.usage();
  EXPECT_NE(usage.find("<base>"), std::string::npos);
  EXPECT_NE(usage.find("<more>..."), std::string::npos);

  ArgParser q = make();
  const char* too_few[] = {"prog", "a"};
  EXPECT_THROW(q.parse(2, too_few), UsageError);

  ArgParser one("prog", "test");
  one.add_positional("dir", "a directory", 0, 1);
  const char* none[] = {"prog"};
  ASSERT_TRUE(one.parse(1, none));
  EXPECT_TRUE(one.positionals().empty());
  ArgParser two("prog", "test");
  two.add_positional("dir", "a directory", 0, 1);
  const char* extra[] = {"prog", "x", "y"};
  EXPECT_THROW(two.parse(3, extra), UsageError);
}

TEST(Cli, BoundedReadsRejectOutOfRangeAndNonFinite) {
  ArgParser p("prog", "test");
  p.add_option("n", "a count", "5").add_option("f", "a fraction", "0.5");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.option_int("n", 1, 5), 5);
  EXPECT_DOUBLE_EQ(p.option_double("f", 0.0, 1.0), 0.5);
  try {
    p.option_int("n", 1, 4);
    FAIL() << "expected a UsageError";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "--n must be between 1 and 4, got '5'");
    EXPECT_EQ(e.code(), ErrorCode::kUsage);
  }
  EXPECT_THROW(p.option_double("f", 0.75, 1.0), UsageError);
  for (const char* raw : {"nan", "inf", "-inf", "1e999"}) {
    ArgParser q("prog", "test");
    q.add_option("f", "a fraction", raw);
    ASSERT_TRUE(q.parse(1, argv));
    EXPECT_THROW(q.option_double("f", 0.0, 1.0), UsageError) << raw;
    EXPECT_THROW(q.option_double("f"), UsageError) << raw;
  }
  ArgParser big("prog", "test");
  big.add_option("n", "a count", "99999999999999999999")
      .add_option("e", "empty", "");
  ASSERT_TRUE(big.parse(1, argv));
  EXPECT_THROW(big.option_int("n"), UsageError);  // overflows int64
  EXPECT_THROW(big.option_int("e"), UsageError);  // empty is not a number
}

TEST(HugePages, ReserveHugeOnlyReservesAndKeepsContents) {
  // The advice is a hint: the vector behaves exactly as after reserve(),
  // whatever the host's THP mode.
  std::vector<std::uint64_t> v;
  const std::size_t n = 3 * util::kHugePageBytes / sizeof(std::uint64_t);
  util::reserve_huge(v, n);
  EXPECT_TRUE(v.empty());
  EXPECT_GE(v.capacity(), n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(i * 3);
  EXPECT_EQ(v[n / 2], (n / 2) * 3);
  EXPECT_EQ(v.back(), (n - 1) * 3);
  // Ranges without a whole aligned huge page, and no buffer at all, are
  // accepted and left alone.
  std::vector<char> small;
  util::reserve_huge(small, 100);
  EXPECT_GE(small.capacity(), 100u);
  util::advise_huge_pages(nullptr, util::kHugePageBytes * 4);
  util::advise_huge_pages(v.data(), 0);
}

}  // namespace
}  // namespace drbw
