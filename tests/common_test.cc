// Unit tests for src/common: status/result, hashing, strings, CSV, JSON,
// byte codec, RNG, clocks, file utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/csv.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/std_ops.h"
#include "dataflow/data_collection.h"
#include "dataflow/table.h"
#include "datagen/census_gen.h"

namespace helix {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::IOError("disk on fire").WithContext("loading store");
  EXPECT_EQ(s.ToString(), "IOError: loading store: disk on fire");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::IOError("a"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 10; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> HelperParsePositive(int x) {
  if (x <= 0) {
    return Status::OutOfRange("not positive");
  }
  return x * 2;
}

Result<int> HelperUsesAssignOrReturn(int x) {
  HELIX_ASSIGN_OR_RETURN(int doubled, HelperParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(HelperUsesAssignOrReturn(3).value(), 7);
  EXPECT_TRUE(HelperUsesAssignOrReturn(-3).status().IsOutOfRange());
}

// --- Hashing -----------------------------------------------------------------

TEST(HashTest, FnvMatchesKnownVector) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(FnvHash64("", 0), kFnvOffsetBasis);
  // Deterministic and sensitive to content.
  EXPECT_EQ(FnvHash64("helix"), FnvHash64("helix"));
  EXPECT_NE(FnvHash64("helix"), FnvHash64("helix2"));
}

TEST(HashTest, HasherOrderMatters) {
  uint64_t ab = Hasher().Add("a").Add("b").Digest();
  uint64_t ba = Hasher().Add("b").Add("a").Digest();
  EXPECT_NE(ab, ba);
}

TEST(HashTest, HasherLengthPrefixPreventsConcatCollision) {
  uint64_t split1 = Hasher().Add("ab").Add("c").Digest();
  uint64_t split2 = Hasher().Add("a").Add("bc").Digest();
  EXPECT_NE(split1, split2);
}

TEST(HashTest, TypedFieldsAffectDigest) {
  EXPECT_NE(Hasher().AddI64(1).Digest(), Hasher().AddI64(2).Digest());
  EXPECT_NE(Hasher().AddDouble(1.0).Digest(),
            Hasher().AddDouble(1.5).Digest());
  EXPECT_NE(Hasher().AddBool(true).Digest(),
            Hasher().AddBool(false).Digest());
}

TEST(HashTest, HexRoundTrip) {
  for (uint64_t h : {0ULL, 1ULL, 0xDEADBEEFCAFEBABEULL, ~0ULL}) {
    uint64_t parsed = 0;
    ASSERT_TRUE(HexToHash(HashToHex(h), &parsed));
    EXPECT_EQ(parsed, h);
  }
}

TEST(HashTest, HexRejectsMalformed) {
  uint64_t out;
  EXPECT_FALSE(HexToHash("123", &out));
  EXPECT_FALSE(HexToHash("zzzzzzzzzzzzzzzz", &out));
  EXPECT_FALSE(HexToHash("0123456789abcde", &out));   // 15 chars
  EXPECT_FALSE(HexToHash("0123456789abcdef0", &out)); // 17 chars
}

// --- Strings -----------------------------------------------------------------

TEST(StringsTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split(",a,", ','),
            (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a", ','), (std::vector<std::string>{"a"}));
}

TEST(StringsTest, SplitAndTrimDropsEmpties) {
  EXPECT_EQ(SplitAndTrim(" a , , b ", ','),
            (std::vector<std::string>{"a", "b"}));
}

TEST(StringsTest, JoinInverseOfSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("workflow", "work"));
  EXPECT_FALSE(StartsWith("work", "workflow"));
  EXPECT_TRUE(EndsWith("census.csv", ".csv"));
  EXPECT_FALSE(EndsWith(".csv", "census.csv"));
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("HeLiX"), "helix");
  EXPECT_EQ(ToUpper("HeLiX"), "HELIX");
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringsTest, ParseInt64Strict) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-123", &v));
  EXPECT_EQ(v, -123);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(StringsTest, ParseDoubleStrict) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("-1.5e3", &v));
  EXPECT_DOUBLE_EQ(v, -1500.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(StringsTest, HumanReadable) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanMicros(50), "50 us");
  EXPECT_EQ(HumanMicros(2500), "2.50 ms");
  EXPECT_EQ(HumanMicros(1500000), "1.50 s");
}

// --- CSV ---------------------------------------------------------------------

TEST(CsvTest, SimpleLine) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, QuotedFieldWithSeparator) {
  auto fields = ParseCsvLine("a,\"b,c\",d");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"a", "b,c", "d"}));
}

TEST(CsvTest, EscapedQuotes) {
  auto fields = ParseCsvLine("\"say \"\"hi\"\"\",x");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(CsvTest, EmptyFields) {
  auto fields = ParseCsvLine(",,");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"", "", ""}));
}

TEST(CsvTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsvLine("\"abc").ok());
}

TEST(CsvTest, NewlineOutsideQuotesFailsInSingleLineMode) {
  auto fields = ParseCsvLine("a,b\nc");
  ASSERT_FALSE(fields.ok());
  EXPECT_EQ(fields.status().message(), "CSV: newline in single-line mode");
  // Inside quotes a newline is field content.
  fields = ParseCsvLine("\"a\nb\",c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"a\nb", "c"}));
}

TEST(CsvTest, SplitBorrowsUnquotedFieldsAndUnescapesIntoScratch) {
  const std::string line = "ab,\"c,d\",\"e\"\"f\",\"g\"h";
  std::vector<std::string_view> fields;
  std::string scratch;
  ASSERT_TRUE(SplitCsvLine(line, ',', &fields, &scratch).ok());
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "ab");
  EXPECT_EQ(fields[1], "c,d");
  EXPECT_EQ(fields[2], "e\"f");
  EXPECT_EQ(fields[3], "gh");
  // Plain and plain-quoted fields point into the line; the escaped field
  // and the one with text after its closing quote live in scratch.
  EXPECT_EQ(fields[0].data(), line.data());
  EXPECT_EQ(fields[1].data(), line.data() + 4);
  EXPECT_EQ(fields[2].data(), scratch.data());
  EXPECT_EQ(fields[3].data(), scratch.data() + 3);
}

// Builds one random single CSV line (no newline; newline handling has its
// own test above): a mix of well-formed unquoted and quoted fields with ""
// escapes, padding, \r and empty fields, and malformed ones (stray quotes,
// unterminated quotes, padding before an opening quote, text after a
// closing quote), with 1-6 fields.
std::string RandomCsvLine(Rng* rng) {
  static const char kSoup[] = {'a', 'b', ',', '"', ' ', '\r', '\t'};
  auto text = [rng](const char* alphabet, size_t n, int64_t max_len) {
    std::string out;
    int64_t len = rng->NextInt(0, max_len);
    for (int64_t i = 0; i < len; ++i) {
      out.push_back(alphabet[rng->NextBelow(n)]);
    }
    return out;
  };
  if (rng->NextBool(0.25)) {
    // Character soup: exercises every state transition, mostly invalid.
    return text(kSoup, sizeof(kSoup), 16);
  }
  std::string line;
  int64_t num_fields = rng->NextInt(1, 6);
  for (int64_t f = 0; f < num_fields; ++f) {
    if (f > 0) {
      line.push_back(',');
    }
    switch (rng->NextBelow(8)) {
      case 0:  // empty
        break;
      case 1:
      case 2:  // unquoted, possibly padded, possibly with a literal \r
        line += text("xy1 \t\r", 6, 6);
        break;
      case 3:
      case 4: {  // quoted, with escapes, separators and \r inside
        line.push_back('"');
        int64_t parts = rng->NextInt(0, 4);
        for (int64_t p = 0; p < parts; ++p) {
          line += rng->NextBool(0.3) ? "\"\"" : text("q, \r", 4, 6);
        }
        line.push_back('"');
        if (rng->NextBool(0.15)) {
          line += text("t ", 2, 6);  // text after the closing quote
        }
        if (rng->NextBool(0.2)) {
          line.push_back(' ');  // trailing padding
        }
        break;
      }
      case 5:  // padding before an opening quote
        line += " \"p\"";
        break;
      case 6:  // stray quote inside an unquoted field
        line += rng->NextBool() ? "s\"t" : "s\"";
        break;
      default:  // unterminated quote, or a quote after a closed one
        line += rng->NextBool() ? "\"open" : "\"a\"b\"";
        break;
    }
  }
  return line;
}

dataflow::DataCollection CsvBlob(const std::string& train,
                                 const std::string& test) {
  auto table = std::make_shared<dataflow::TableData>(
      dataflow::Schema::AllStrings({core::ops::kSplitColumn, "content"}));
  EXPECT_TRUE(table
                  ->AppendRow({dataflow::Value(std::string("train")),
                               dataflow::Value(train)})
                  .ok());
  EXPECT_TRUE(table
                  ->AppendRow({dataflow::Value(std::string("test")),
                               dataflow::Value(test)})
                  .ok());
  return dataflow::DataCollection::FromTable(table);
}

// Differential: the borrowed-field splitter against the whole-document
// parser as the oracle. Same fields (raw and trimmed), or the same error.
// CSVScanner, on top of the splitter, rejects exactly the lines whose
// field count is wrong.
TEST(CsvTest, SplitMatchesWholeDocumentParserOnRandomLines) {
  Rng rng(0xC5F11E);
  std::vector<std::string_view> fields;
  std::string scratch;
  const core::Operator scanner =
      core::ops::CsvScanner("rows", {"c0", "c1", "c2"});
  int ok_lines = 0;
  int error_lines = 0;
  int arity_errors = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string line = RandomCsvLine(&rng);
    SCOPED_TRACE("line #" + std::to_string(i) + ": [" + line + "]");
    auto oracle = ParseCsv(line);
    Status split = SplitCsvLine(line, ',', &fields, &scratch);
    if (!oracle.ok()) {
      ++error_lines;
      ASSERT_FALSE(split.ok());
      EXPECT_EQ(split.code(), oracle.status().code());
      EXPECT_EQ(split.message(), oracle.status().message());
      continue;
    }
    ++ok_lines;
    ASSERT_TRUE(split.ok()) << split.ToString();
    // The document parser yields no record for empty text; a single line
    // is always one record.
    ASSERT_LE(oracle.value().size(), 1u);
    std::vector<std::string> expected =
        oracle.value().empty() ? std::vector<std::string>{""}
                               : oracle.value().front();
    ASSERT_EQ(fields.size(), expected.size());
    for (size_t f = 0; f < fields.size(); ++f) {
      EXPECT_EQ(fields[f], expected[f]);
      EXPECT_EQ(TrimView(fields[f]), Trim(expected[f]));
      // Every view borrows from the line or from the scratch buffer.
      const char* p = fields[f].data();
      const size_t n = fields[f].size();
      bool in_line = p >= line.data() && p + n <= line.data() + line.size();
      bool in_scratch =
          p >= scratch.data() && p + n <= scratch.data() + scratch.size();
      EXPECT_TRUE(n == 0 || in_line || in_scratch);
    }
    auto copied = ParseCsvLine(line);
    ASSERT_TRUE(copied.ok());
    EXPECT_EQ(copied.value(), expected);
    if (i % 8 == 0 && !line.empty()) {
      dataflow::DataCollection blob = CsvBlob(line + "\n", "");
      auto scanned = scanner.Invoke({&blob});
      EXPECT_EQ(scanned.ok(), fields.size() == 3u);
      if (!scanned.ok()) {
        ++arity_errors;
        EXPECT_NE(scanned.status().message().find("fields, expected 3"),
                  std::string::npos)
            << scanned.status().ToString();
      }
    }
  }
  // The generator must cover every outcome substantially.
  EXPECT_GT(ok_lines, 5000);
  EXPECT_GT(error_lines, 2000);
  EXPECT_GT(arity_errors, 300);
}

// CSVScanner output is pinned bit-for-bit: these fingerprints were
// captured with the previous char-at-a-time line parser.
uint64_t ScanFingerprint(const std::vector<std::string>& columns,
                         const std::string& train, const std::string& test,
                         int64_t expected_rows) {
  dataflow::DataCollection in = CsvBlob(train, test);
  auto out = core::ops::CsvScanner("rows", columns).Invoke({&in});
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) {
    return 0;
  }
  EXPECT_EQ(out.value().AsTable().value()->num_rows(), expected_rows);
  return out.value().Fingerprint();
}

TEST(CsvTest, CsvScannerFingerprintPinnedOnCensusCsv) {
  datagen::CensusGenOptions train;
  train.num_rows = 600;
  train.seed = 41;
  datagen::CensusGenOptions test;
  test.num_rows = 200;
  test.seed = 42;
  EXPECT_EQ(ScanFingerprint(datagen::CensusColumns(),
                            datagen::GenerateCensusCsv(train),
                            datagen::GenerateCensusCsv(test), 800),
            0x291db101dd47014aULL);
}

TEST(CsvTest, CsvScannerFingerprintPinnedOnQuotedFields) {
  const std::string train =
      "\"Smith, John\" , 42 ,\"said \"\"hi\"\"\"\r\n"
      "plain,  7,\"\"\n"
      "\n"
      " padded ,\"x\"tail ,\"multi\"\"\"\"q\"\n"
      ",,\n";
  const std::string test = "\"a\"\"\",\"\",\"b,c\"\n\"\",z,\" y \"";
  EXPECT_EQ(ScanFingerprint({"name", "n", "note"}, train, test, 6),
            0x42bfdc7baf9b7089ULL);
}

TEST(CsvTest, MultiLineDocument) {
  auto records = ParseCsv("a,b\r\nc,\"d\ne\"\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_EQ(records.value()[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(records.value()[1], (std::vector<std::string>{"c", "d\ne"}));
}

TEST(CsvTest, FormatQuotesWhenNeeded) {
  EXPECT_EQ(FormatCsvLine({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"");
}

TEST(CsvTest, FormatParseRoundTrip) {
  std::vector<std::string> fields = {"plain", "com,ma", "qu\"ote", "",
                                     "new\nline"};
  auto parsed = ParseCsv(FormatCsvLine(fields) + "\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0], fields);
}

// --- JSON --------------------------------------------------------------------

TEST(JsonTest, QuoteEscapes) {
  EXPECT_EQ(JsonQuote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

TEST(JsonTest, ObjectWithValues) {
  JsonWriter w;
  w.BeginObject().KV("a", int64_t{1}).KV("b", "x").KV("c", true).EndObject();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":\"x\",\"c\":true}");
}

TEST(JsonTest, NestedStructures) {
  JsonWriter w;
  w.BeginObject()
      .Key("list")
      .BeginArray()
      .Int(1)
      .Int(2)
      .EndArray()
      .Key("obj")
      .BeginObject()
      .KV("k", "v")
      .EndObject()
      .EndObject();
  EXPECT_EQ(w.str(), "{\"list\":[1,2],\"obj\":{\"k\":\"v\"}}");
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray().Double(NAN).Double(INFINITY).EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

// --- Byte codec ---------------------------------------------------------------

TEST(BytesTest, RoundTripAllTypes) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU32(0xCAFE);
  w.PutU64(1ULL << 60);
  w.PutI64(-42);
  w.PutDouble(3.25);
  w.PutBool(true);
  w.PutString("hello");

  ByteReader r(w.data());
  EXPECT_EQ(r.GetU8().value(), 7);
  EXPECT_EQ(r.GetU32().value(), 0xCAFEu);
  EXPECT_EQ(r.GetU64().value(), 1ULL << 60);
  EXPECT_EQ(r.GetI64().value(), -42);
  EXPECT_DOUBLE_EQ(r.GetDouble().value(), 3.25);
  EXPECT_TRUE(r.GetBool().value());
  EXPECT_EQ(r.GetString().value(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncatedReadsAreCorruption) {
  ByteWriter w;
  w.PutU64(1);
  ByteReader r(std::string_view(w.data().data(), 4));
  EXPECT_TRUE(r.GetU64().status().IsCorruption());
}

TEST(BytesTest, StringLengthBeyondBufferIsCorruption) {
  ByteWriter w;
  w.PutU64(1000);  // declared length far beyond actual bytes
  w.PutRaw("ab", 2);
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetString().status().IsCorruption());
}

TEST(BytesTest, BadBoolIsCorruption) {
  ByteWriter w;
  w.PutU8(2);
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetBool().status().IsCorruption());
}

// --- RNG ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRangeAndCoversValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBelow(5);
    EXPECT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RngTest, WeightedChoiceRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 5000; ++i) {
    ++counts[rng.WeightedChoice(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

// --- Clocks ---------------------------------------------------------------------

TEST(ClockTest, SystemClockMonotonic) {
  SystemClock* clock = SystemClock::Default();
  int64_t a = clock->NowMicros();
  int64_t b = clock->NowMicros();
  EXPECT_LE(a, b);
  EXPECT_FALSE(clock->is_virtual());
}

TEST(ClockTest, SystemClockAdvanceIsNoOp) {
  SystemClock* clock = SystemClock::Default();
  int64_t before = clock->NowMicros();
  clock->AdvanceMicros(1000000000);
  EXPECT_LT(clock->NowMicros() - before, 1000000);
}

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock(100);
  EXPECT_TRUE(clock.is_virtual());
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.AdvanceMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.AdvanceMicros(-10);  // negative advances ignored
  EXPECT_EQ(clock.NowMicros(), 150);
}

TEST(ClockTest, ScopedTimerOnVirtualClock) {
  VirtualClock clock;
  ScopedTimer timer(&clock);
  clock.AdvanceMicros(42);
  EXPECT_EQ(timer.ElapsedMicros(), 42);
}

// --- File utilities ---------------------------------------------------------------

class FileUtilTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-file-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  std::string dir_;
};

TEST_F(FileUtilTest, WriteReadRoundTrip) {
  std::string path = JoinPath(dir_, "f.bin");
  std::string payload("binary\0data", 11);
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), payload);
  EXPECT_EQ(FileSize(path).value(), 11);
}

TEST_F(FileUtilTest, ReadMissingIsNotFound) {
  EXPECT_TRUE(ReadFileToString(JoinPath(dir_, "nope")).status().IsNotFound());
}

TEST_F(FileUtilTest, WriteIsAtomicNoTempLeftBehind) {
  std::string path = JoinPath(dir_, "g.txt");
  ASSERT_TRUE(WriteStringToFile(path, "x").ok());
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FileUtilTest, MakeDirsIdempotent) {
  std::string nested = JoinPath(dir_, "a/b/c");
  EXPECT_TRUE(MakeDirs(nested).ok());
  EXPECT_TRUE(MakeDirs(nested).ok());
}

TEST_F(FileUtilTest, ListFilesSeesRegularFiles) {
  ASSERT_TRUE(WriteStringToFile(JoinPath(dir_, "a.txt"), "1").ok());
  ASSERT_TRUE(WriteStringToFile(JoinPath(dir_, "b.txt"), "2").ok());
  ASSERT_TRUE(MakeDirs(JoinPath(dir_, "subdir")).ok());
  auto files = ListFiles(dir_);
  ASSERT_TRUE(files.ok());
  std::set<std::string> names(files.value().begin(), files.value().end());
  EXPECT_TRUE(names.count("a.txt"));
  EXPECT_TRUE(names.count("b.txt"));
  EXPECT_FALSE(names.count("subdir"));
}

TEST_F(FileUtilTest, RemoveFileIfExistsTolerantOfMissing) {
  EXPECT_TRUE(RemoveFileIfExists(JoinPath(dir_, "ghost")).ok());
}

TEST_F(FileUtilTest, JoinPathHandlesSlashes) {
  EXPECT_EQ(JoinPath("a", "b"), "a/b");
  EXPECT_EQ(JoinPath("a/", "b"), "a/b");
  EXPECT_EQ(JoinPath("a", "/b"), "a/b");
  EXPECT_EQ(JoinPath("a/", "/b"), "a/b");
  EXPECT_EQ(JoinPath("", "b"), "b");
  EXPECT_EQ(JoinPath("a", ""), "a");
}

// --- Logging ----------------------------------------------------------------

TEST(LoggingTest, ParseLogLevelAcceptsNamesCaseInsensitively) {
  LogLevel level = LogLevel::kOff;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("OFF", &level));
  EXPECT_EQ(level, LogLevel::kOff);
}

TEST(LoggingTest, ParseLogLevelRejectsGarbageWithoutClobbering) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_FALSE(ParseLogLevel("2", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
}

}  // namespace
}  // namespace helix
