// Trace ingestion: the streaming `DatasetFromChromeJson` against a
// reference walk over `ParseJson`'s tree, on seeded sweep traces,
// hand-written edge cases and mutated (truncated, bit-flipped) traces;
// plus the `JsonReader` grammar both paths share.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_parse.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/catalog.h"
#include "core/cluster.h"
#include "core/sweep.h"
#include "core/sweep_runner.h"
#include "net/profiles.h"
#include "telemetry/round_model.h"

namespace hivesim::telemetry {
namespace {

/// The dataset a walk over the parsed tree gives: the ingestion
/// contract stated the slow, obvious way. `*parsed` reports whether
/// the text was valid JSON at all.
Result<TraceDataset> ReferenceDataset(std::string_view text,
                                      bool* parsed = nullptr) {
  Result<JsonValue> doc = ParseJson(text);
  if (parsed != nullptr) *parsed = doc.ok();
  if (!doc.ok()) return doc.status();
  const JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("missing traceEvents array");
  }
  const auto in_int_range = [](double v) {
    return v > -2147483649.0 && v < 2147483648.0;
  };
  const auto intern = [](std::vector<std::string>& table,
                         const std::string& text) {
    for (size_t i = 0; i < table.size(); ++i) {
      if (table[i] == text) return static_cast<int>(i);
    }
    table.push_back(text);
    return static_cast<int>(table.size() - 1);
  };
  const auto string_of = [](const JsonValue* v) {
    return v != nullptr ? v->StringOr("") : std::string();
  };
  const auto number_of = [](const JsonValue* v, double fallback) {
    return v != nullptr ? v->NumberOr(fallback) : fallback;
  };

  TraceDataset dataset;
  std::map<int, int> lane_by_tid;
  for (const JsonValue& ev : events->array) {
    if (!ev.is_object()) return Status::InvalidArgument("not an object");
    const std::string ph = string_of(ev.Find("ph"));
    if (ph != "M" && ph != "X" && ph != "i") continue;
    const std::string name = string_of(ev.Find("name"));
    if (ph == "M" && name != "thread_name") continue;
    const double tid_value = number_of(ev.Find("tid"), -1);
    if (!in_int_range(tid_value)) return Status::InvalidArgument("tid");
    const int tid = static_cast<int>(tid_value);
    const JsonValue* args = ev.Find("args");
    const auto arg = [args](const char* key) {
      return args != nullptr ? args->Find(key) : nullptr;
    };
    if (ph == "M") {
      const JsonValue* lane = arg("name");
      if (lane == nullptr || !lane->is_string()) {
        return Status::InvalidArgument("thread_name metadata without name");
      }
      lane_by_tid.emplace(tid, static_cast<int>(dataset.lanes.size()));
      dataset.lanes.push_back(lane->string_value);
      continue;
    }
    const auto lane = lane_by_tid.find(tid);
    if (lane == lane_by_tid.end()) return Status::InvalidArgument("tid");
    const JsonValue* ts = ev.Find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return Status::InvalidArgument("ts");
    }
    const double epoch = number_of(arg("epoch"), -1);
    if (!in_int_range(epoch)) return Status::InvalidArgument("epoch");
    CanonEvent event;
    event.instant = ph == "i";
    event.lane = lane->second;
    event.name = intern(dataset.names, name);
    event.ts_us = ts->number_value;
    event.dur_us = event.instant ? 0 : number_of(ev.Find("dur"), 0);
    event.epoch = static_cast<int>(epoch);
    event.bytes = number_of(arg("bytes"), 0);
    const std::string src = string_of(arg("src_zone"));
    const std::string dst = string_of(arg("dst_zone"));
    event.src_zone = src.empty() ? -1 : intern(dataset.zones, src);
    event.dst_zone = dst.empty() ? -1 : intern(dataset.zones, dst);
    dataset.events.push_back(event);
  }
  return dataset;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameDataset(const TraceDataset& want, const TraceDataset& got,
                       const std::string& label) {
  EXPECT_EQ(want.lanes, got.lanes) << label;
  EXPECT_EQ(want.names, got.names) << label;
  EXPECT_EQ(want.zones, got.zones) << label;
  ASSERT_EQ(want.events.size(), got.events.size()) << label;
  for (size_t i = 0; i < want.events.size(); ++i) {
    const CanonEvent& a = want.events[i];
    const CanonEvent& b = got.events[i];
    const std::string at = label + " event " + std::to_string(i);
    EXPECT_EQ(a.instant, b.instant) << at;
    EXPECT_EQ(a.lane, b.lane) << at;
    EXPECT_EQ(a.name, b.name) << at;
    EXPECT_EQ(Bits(a.ts_us), Bits(b.ts_us)) << at;
    EXPECT_EQ(Bits(a.dur_us), Bits(b.dur_us)) << at;
    EXPECT_EQ(a.epoch, b.epoch) << at;
    EXPECT_EQ(Bits(a.bytes), Bits(b.bytes)) << at;
    EXPECT_EQ(a.src_zone, b.src_zone) << at;
    EXPECT_EQ(a.dst_zone, b.dst_zone) << at;
  }
}

/// Streaming and reference ingestion agree: both fail, or both give the
/// same dataset. Returns whether they succeeded.
bool ExpectSameIngestion(std::string_view text, const std::string& label) {
  bool parsed = false;
  const Result<TraceDataset> want = ReferenceDataset(text, &parsed);
  const Result<TraceDataset> got = DatasetFromChromeJson(text);
  EXPECT_EQ(want.ok(), got.ok())
      << label << ": reference "
      << (want.ok() ? "ok" : want.status().ToString()) << ", streaming "
      << (got.ok() ? "ok" : got.status().ToString());
  if (!parsed) {
    EXPECT_FALSE(got.ok()) << label << ": accepted text ParseJson rejects";
  }
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << label;
  }
  if (want.ok() && got.ok()) ExpectSameDataset(*want, *got, label);
  return got.ok();
}

/// The per-run traces of a small seeded sweep: two fleets, a partition
/// and crash churn, so the traces carry flows with zones, chaos instants
/// and retries.
std::vector<std::string> SeededSweepTraces(double hours) {
  core::SweepSpec spec;
  spec.title = "ingest";
  spec.clusters = {
      core::NamedExperiment{"US+EU", {{core::GcT4s(2, net::kGcUs),
                                       core::GcT4s(2, net::kGcEu)}}}};
  spec.target_batch_sizes = {8192};
  auto none = core::ChaosEntryNamed("none");
  auto partition = core::ChaosEntryNamed("partition");
  auto churn = core::ChaosEntryNamed("churn");
  EXPECT_TRUE(none.ok() && partition.ok() && churn.ok());
  spec.chaos = {*none, *partition, *churn};
  spec.duration_sec = hours * kHour;
  core::SweepOptions options;
  options.per_run_telemetry = true;
  auto summary = core::RunSweep(spec, options);
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  std::vector<std::string> traces;
  if (!summary.ok()) return traces;
  for (const core::SweepCellOutcome& outcome : summary->outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
    traces.push_back(outcome.trace_json);
  }
  return traces;
}

TEST(TraceIngestTest, SeededSweepTracesMatchTheTreeWalk) {
  const std::vector<std::string> traces = SeededSweepTraces(0.5);
  ASSERT_EQ(traces.size(), 3u);
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_TRUE(ExpectSameIngestion(traces[i], StrFormat("cell %zu", i)));
    auto dataset = DatasetFromChromeJson(traces[i]);
    ASSERT_TRUE(dataset.ok());
    EXPECT_GT(dataset->events.size(), 100u);
    EXPECT_FALSE(dataset->zones.empty());
  }
}

/// A minimal trace around `events` (comma-separated event objects),
/// declaring tid 1 as "trainer" and tid 2 as "net".
std::string Trace(const std::string& events) {
  return "{\"traceEvents\":["
         "{\"ph\":\"M\",\"tid\":1,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"trainer\"}},"
         "{\"ph\":\"M\",\"tid\":2,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"net\"}}" +
         (events.empty() ? "" : "," + events) + "]}";
}

TEST(TraceIngestTest, HandWrittenCasesMatchTheTreeWalk) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"escaped names and lanes",
       "{\"traceEvents\":[{\"ph\":\"M\",\"tid\":3,\"name\":"
       "\"thread_\\u006eame\",\"args\":{\"name\":\"pe\\\"er/\\/7\\n\"}},"
       "{\"ph\":\"X\",\"tid\":3,\"ts\":1,\"dur\":2,\"name\":"
       "\"acc\\u0075mulate\\t\\u00e9\\u20ac\"}]}"},
      {"escaped keys",
       Trace("{\"p\\u0068\":\"X\",\"t\\u0069d\":1,\"\\u0074s\":5,"
             "\"dur\":1,\"name\":\"calc\",\"\\u0061rgs\":"
             "{\"ep\\u006fch\":3}}")},
      {"duplicate keys keep the last",
       Trace("{\"ph\":\"i\",\"ph\":\"X\",\"tid\":9,\"tid\":2,\"ts\":1,"
             "\"ts\":2.5,\"dur\":7,\"dur\":\"x\",\"name\":\"flow 0->1\","
             "\"args\":{\"bytes\":1},\"args\":{\"bytes\":5,\"bytes\":6,"
             "\"src_zone\":\"a\",\"src_zone\":\"b\",\"dst_zone\":\"c\"}}")},
      {"any key order",
       Trace("{\"args\":{\"dst_zone\":\"eu\",\"bytes\":10,"
             "\"src_zone\":\"us\"},\"name\":\"flow 1->0\",\"dur\":3,"
             "\"ts\":4,\"pid\":1,\"tid\":2,\"ph\":\"X\"}")},
      {"traceEvents not first",
       "{\"displayTimeUnit\":\"ms\",\"meta\":[1,{\"a\":null},true],"
       "\"traceEvents\":[{\"ph\":\"M\",\"tid\":1,\"name\":\"thread_name\","
       "\"args\":{\"name\":\"trainer\"}},{\"ph\":\"X\",\"tid\":1,\"ts\":0,"
       "\"dur\":1,\"name\":\"calc\"}],\"tail\":{}}"},
      {"a later traceEvents replaces an earlier one",
       "{\"traceEvents\":[7,{\"ph\":\"X\",\"tid\":99}],\"traceEvents\":["
       "{\"ph\":\"M\",\"tid\":1,\"name\":\"thread_name\","
       "\"args\":{\"name\":\"chaos\"}},{\"ph\":\"i\",\"tid\":1,\"ts\":3,"
       "\"s\":\"t\",\"name\":\"partition-start\"}]}"},
      {"traceEvents is an object", "{\"traceEvents\":{\"a\":1}}"},
      {"traceEvents replaced by a number",
       "{\"traceEvents\":[],\"traceEvents\":5}"},
      {"unknown phases skipped",
       Trace("{\"ph\":\"B\",\"tid\":77,\"ts\":1},{\"ph\":\"C\"},"
             "{\"ph\":5,\"tid\":2},{\"tid\":2,\"ts\":1},"
             "{\"ph\":\"M\",\"name\":\"process_name\",\"tid\":1e999}")},
      {"events without args",
       Trace("{\"ph\":\"X\",\"tid\":1,\"ts\":0,\"dur\":10,\"name\":\"calc\"},"
             "{\"ph\":\"i\",\"tid\":2,\"ts\":1,\"dur\":9,\"name\":\"x\"},"
             "{\"ph\":\"X\",\"tid\":2,\"ts\":2}")},
      {"args of the wrong type",
       Trace("{\"ph\":\"X\",\"tid\":1,\"ts\":0,\"dur\":1,\"name\":\"calc\","
             "\"args\":[1,2]},{\"ph\":\"X\",\"tid\":2,\"ts\":0,\"dur\":1,"
             "\"name\":7,\"args\":{\"epoch\":\"3\",\"bytes\":null,"
             "\"src_zone\":4,\"dst_zone\":\"\",\"name\":{}}}")},
      {"a tid declared twice keeps its first lane",
       Trace("{\"ph\":\"M\",\"tid\":1,\"name\":\"thread_name\","
             "\"args\":{\"name\":\"net\"}},{\"ph\":\"X\",\"tid\":1,\"ts\":0,"
             "\"dur\":1,\"name\":\"calc\"}")},
      {"fractional tid and epoch truncate",
       Trace("{\"ph\":\"X\",\"tid\":1.9,\"ts\":0,\"dur\":1,\"name\":\"calc\","
             "\"args\":{\"epoch\":-2.5}}")},
      {"lenient numbers", Trace("{\"ph\":\"X\",\"tid\":01,\"ts\":.5,"
                                "\"dur\":+2,\"name\":\"calc\"}")},
      {"thread_name without a lane name",
       "{\"traceEvents\":[{\"ph\":\"M\",\"tid\":1,\"name\":\"thread_name\","
       "\"args\":{\"name\":1}}]}"},
      {"undeclared tid", Trace("{\"ph\":\"X\",\"tid\":5,\"ts\":0}")},
      {"non-numeric ts", Trace("{\"ph\":\"X\",\"tid\":1,\"ts\":\"0\"}")},
      {"entry not an object", Trace("[]")},
      {"first semantic error, then a syntax error",
       Trace("{\"ph\":\"X\",\"tid\":5,\"ts\":0},{\"ph\":tru}")},
      {"top level is an array", "[{\"traceEvents\":[]}]"},
      {"no traceEvents", "{\"events\":[]}"},
      {"empty object", "{}"},
  };
  for (const auto& [label, text] : cases) ExpectSameIngestion(text, label);
}

TEST(TraceIngestTest, OutOfRangeTidOrEpochIsInvalidArgument) {
  const std::vector<std::string> hostile = {
      Trace("{\"ph\":\"X\",\"tid\":1e999,\"ts\":0,\"dur\":1,\"name\":\"c\"}"),
      Trace("{\"ph\":\"X\",\"tid\":-3e9,\"ts\":0,\"dur\":1,\"name\":\"c\"}"),
      Trace("{\"ph\":\"X\",\"tid\":2147483648,\"ts\":0,\"name\":\"c\"}"),
      "{\"traceEvents\":[{\"ph\":\"M\",\"tid\":-1e999,\"name\":"
      "\"thread_name\",\"args\":{\"name\":\"trainer\"}}]}",
      Trace("{\"ph\":\"X\",\"tid\":1,\"ts\":0,\"dur\":1,\"name\":\"calc\","
            "\"args\":{\"epoch\":1e300}}"),
      Trace("{\"ph\":\"i\",\"tid\":2,\"ts\":0,\"name\":\"x\","
            "\"args\":{\"epoch\":-1e999}}"),
  };
  for (const std::string& text : hostile) {
    const Result<TraceDataset> got = DatasetFromChromeJson(text);
    ASSERT_FALSE(got.ok()) << text;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << text;
    ExpectSameIngestion(text, text);
  }
  // The int range's own edges are fine.
  auto edge = DatasetFromChromeJson(
      Trace("{\"ph\":\"X\",\"tid\":1,\"ts\":0,\"dur\":1,\"name\":\"calc\","
            "\"args\":{\"epoch\":2147483647.5}}"));
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge->events[0].epoch, 2147483647);
}

TEST(TraceIngestTest, MutatedTracesFailExactlyLikeTheTreeWalk) {
  const std::vector<std::string> traces = SeededSweepTraces(0.1);
  ASSERT_FALSE(traces.empty());
  const std::string& seed = traces[1];  // The partition cell.
  ASSERT_TRUE(ExpectSameIngestion(seed, "unmutated"));

  int accepted = 0;
  // Truncations: every prefix length on a stride, and the last bytes.
  const size_t stride = seed.size() / 200 + 1;
  for (size_t length = 0; length < seed.size(); length += stride) {
    accepted += ExpectSameIngestion(std::string_view(seed).substr(0, length),
                                    StrFormat("truncated to %zu", length));
  }
  for (size_t cut = 1; cut <= 8 && cut <= seed.size(); ++cut) {
    const size_t length = seed.size() - cut;
    accepted += ExpectSameIngestion(std::string_view(seed).substr(0, length),
                                    StrFormat("truncated to %zu", length));
  }
  // Seeded single-bit flips.
  Rng rng(20240917);
  for (int i = 0; i < 600; ++i) {
    std::string mutated = seed;
    const size_t at = rng.UniformInt(0, static_cast<int64_t>(seed.size()) - 1);
    const int bit = static_cast<int>(rng.UniformInt(0, 7));
    mutated[at] = static_cast<char>(mutated[at] ^ (1 << bit));
    accepted += ExpectSameIngestion(
        mutated, StrFormat("bit %d flipped at %zu", bit, at));
  }
  // Only the trailing-newline truncation and harmless flips (inside
  // strings, digits) survive; most mutations must be rejected.
  EXPECT_GT(accepted, 0);
}

TEST(JsonReaderTest, KeysAndStringsAreViewsUntilEscaped) {
  const std::string text = "{\"plain\":\"abc\",\"esc\\u0061ped\":\"x\\ty\"}";
  JsonReader reader(text);
  ASSERT_TRUE(reader.BeginObject().ok());
  std::string_view key;
  bool more = false;
  ASSERT_TRUE(reader.NextKey(&key, &more).ok());
  ASSERT_TRUE(more);
  EXPECT_EQ(key, "plain");
  EXPECT_GE(key.data(), text.data());
  EXPECT_LT(key.data(), text.data() + text.size());
  std::string_view value;
  ASSERT_TRUE(reader.ReadString(&value).ok());
  EXPECT_EQ(value, "abc");
  ASSERT_TRUE(reader.NextKey(&key, &more).ok());
  ASSERT_TRUE(more);
  EXPECT_EQ(key, "escaped");
  ASSERT_TRUE(reader.ReadString(&value).ok());
  EXPECT_EQ(value, "x\ty");
  ASSERT_TRUE(reader.NextKey(&key, &more).ok());
  EXPECT_FALSE(more);
  EXPECT_TRUE(reader.Finish().ok());
}

TEST(JsonReaderTest, SkipChecksTheGrammarOfWhatItSkips) {
  for (const char* bad :
       {"[1,]", "{\"a\":1,}", "[tru]", "{\"a\" 1}", "[\"\\q\"]", "[1e]",
        "[\"\\u12g4\"]", "{1:2}", "[1 2]", "[-]", "[\"open]"}) {
    JsonReader reader(bad);
    EXPECT_FALSE(reader.Skip().ok()) << bad;
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
  for (const char* good :
       {"[1,-0.5e+3,01,.5,\"\\u00e9\\\"\",null,true,false,{}]",
        "{\"a\":[[]],\"b\":{\"c\":{}}}", " 7 "}) {
    JsonReader reader(good);
    EXPECT_TRUE(reader.Skip().ok()) << good;
    EXPECT_TRUE(reader.Finish().ok()) << good;
    EXPECT_TRUE(ParseJson(good).ok()) << good;
  }
}

TEST(JsonReaderTest, NumbersReadAsStrtodReadsThem) {
  // Random strict tokens (long mantissas, large and tiny exponents) and
  // the lenient and out-of-range forms: the reader's double must be the
  // one strtod gives, bit for bit.
  std::vector<std::string> tokens = {"0",     "-0",    "01",     "+2",
                                     ".5",    "1.",    "1e999",  "-1e999",
                                     "1e-400", "4.9e-324", "2.2250738585072011e-308",
                                     "123456.000001", "9007199254740993"};
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    std::string token;
    if (rng.Bernoulli(0.5)) token += '-';
    token += static_cast<char>('1' + rng.UniformInt(0, 8));
    for (int64_t d = rng.UniformInt(0, 20); d > 0; --d) {
      token += static_cast<char>('0' + rng.UniformInt(0, 9));
    }
    if (rng.Bernoulli(0.7)) {
      token += '.';
      for (int64_t d = rng.UniformInt(1, 24); d > 0; --d) {
        token += static_cast<char>('0' + rng.UniformInt(0, 9));
      }
    }
    if (rng.Bernoulli(0.3)) {
      token += StrFormat("e%d", static_cast<int>(rng.UniformInt(-330, 310)));
    }
    tokens.push_back(token);
  }
  for (const std::string& token : tokens) {
    JsonReader reader(token);
    double value = 0;
    ASSERT_TRUE(reader.ReadNumber(&value).ok()) << token;
    EXPECT_EQ(Bits(value), Bits(std::strtod(token.c_str(), nullptr)))
        << token;
  }
}

TEST(JsonReaderTest, NestingLimitIsSixtyFourContainers) {
  const auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_TRUE(ParseJson(nested(65)).ok());
  EXPECT_FALSE(ParseJson(nested(66)).ok());
  const std::string limit = nested(65);
  const std::string too_deep = nested(66);
  JsonReader ok_reader(limit);
  EXPECT_TRUE(ok_reader.Skip().ok());
  JsonReader deep_reader(too_deep);
  EXPECT_FALSE(deep_reader.Skip().ok());
}

TEST(JsonReaderTest, ParseJsonKeepsTheLastDuplicateAndOffsets) {
  auto doc = ParseJson(" {\"a\":1,\"b\":[true],\"a\":\"two\"}");
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->Find("a"), nullptr);
  EXPECT_EQ(doc->Find("a")->StringOr(""), "two");
  EXPECT_EQ(doc->offset, 1u);
  EXPECT_EQ(doc->Find("b")->offset, 12u);
  EXPECT_EQ(doc->Find("b")->array[0].offset, 13u);
  auto bad = ParseJson("{\"a\":1} x");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("offset 8"), std::string::npos)
      << bad.status().message();
}

}  // namespace
}  // namespace hivesim::telemetry
