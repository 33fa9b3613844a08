/**
 * @file
 * Self-telemetry tests: the log-scale histogram's percentile accuracy,
 * the metrics registry (identity, kind separation, JSON), span
 * recording across work-stealing pool threads (validated through a
 * real JSON parser against the Chrome trace_event contract), the
 * leveled logging sink, and a registry/span race test for the tsan
 * preset: ctest --preset tsan-telemetry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/server/protocol.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry.h"

namespace tracelens
{
namespace
{

// ------------------------------------------------------- a JSON parser
// Minimal but strict recursive-descent JSON parser: the trace export
// claims to be Chrome trace_event JSON, so the tests hold it to actual
// JSON grammar instead of grepping for substrings.

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue *find(const std::string &key) const
    {
        auto it = object.find(key);
        return it == object.end() ? nullptr : &it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    bool parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        return pos_ == text_.size(); // no trailing garbage
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{':
            return parseObject(out);
        case '[':
            return parseArray(out);
        case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        default:
            return parseNumber(out);
        }
    }

    bool parseString(std::string &out)
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return false;
                const char esc = text_[pos_++];
                switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        return false;
                    // Escaped controls only need to round-trip, not
                    // decode: keep the raw sequence.
                    out += "\\u";
                    out += text_.substr(pos_, 4);
                    pos_ += 4;
                    break;
                }
                default:
                    return false;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false; // raw control characters are invalid
            } else {
                out += c;
            }
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return false;
        out.kind = JsonValue::Kind::Number;
        out.number = std::stod(std::string(text_.substr(
            start, pos_ - start)));
        return true;
    }

    bool parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue element;
            skipWs();
            if (!parseValue(element))
                return false;
            out.array.push_back(std::move(element));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || !parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            skipWs();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object.emplace(std::move(key), std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

/** Reset every process-global telemetry knob between tests. */
struct TelemetryTest : ::testing::Test
{
    void SetUp() override
    {
        Telemetry::setEnabled(false);
        Telemetry::reset();
        setLogLevel(LogLevel::Info);
    }
    void TearDown() override
    {
        Telemetry::setEnabled(false);
        Telemetry::reset();
        setLogLevel(LogLevel::Info);
    }
};

// ------------------------------------------------------------ histogram

TEST(TelemetryHistogram, SmallValuesAreExact)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 8; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_EQ(h.sum(), 28u);
    EXPECT_EQ(h.max(), 7u);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(1.0), 7u);
    // 0..7 land in exact unit buckets, so every quantile is exact.
    EXPECT_EQ(h.percentile(0.5), 3u);
}

TEST(TelemetryHistogram, PercentilesOnUniformDistribution)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.max(), 1000u);
    // Log-scale buckets guarantee <= ~6% relative error; allow 8%.
    EXPECT_NEAR(static_cast<double>(h.percentile(0.50)), 500.0, 40.0);
    EXPECT_NEAR(static_cast<double>(h.percentile(0.95)), 950.0, 76.0);
    EXPECT_NEAR(static_cast<double>(h.percentile(0.99)), 990.0, 80.0);
    // Quantiles are clamped to the true maximum.
    EXPECT_LE(h.percentile(1.0), 1000u);
}

TEST(TelemetryHistogram, PercentileNeverExceedsMax)
{
    Histogram h;
    h.record(1000000);
    EXPECT_EQ(h.percentile(0.5), 1000000u);
    EXPECT_EQ(h.percentile(0.99), 1000000u);
}

// ------------------------------------------------------------- registry

TEST(TelemetryRegistry, HandlesAreStableAndShared)
{
    MetricsRegistry registry;
    Counter &c1 = registry.counter("test.counter");
    Counter &c2 = registry.counter("test.counter");
    EXPECT_EQ(&c1, &c2);
    c1.add(1);
    c2.add(2);
    EXPECT_EQ(c1.value(), 3u);

    registry.gauge("test.gauge").set(2.5);
    EXPECT_DOUBLE_EQ(registry.gauge("test.gauge").value(), 2.5);

    EXPECT_EQ(registry.findCounter("test.counter"), &c1);
    EXPECT_EQ(registry.findCounter("missing"), nullptr);
    EXPECT_EQ(registry.findCounter("test.gauge"), nullptr);
}

TEST(TelemetryRegistry, RenderJsonIsValidAndComplete)
{
    MetricsRegistry registry;
    registry.counter("a.count").add(7);
    registry.gauge("a.gauge").set(0.5);
    Histogram &h = registry.histogram("a.hist");
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.record(v);

    // The shape --metrics-out writes and the `metrics` method answers.
    JsonValue root;
    ASSERT_TRUE(JsonParser(server::metricsSnapshotJson(registry.snapshot())
                               .render())
                    .parse(root));
    ASSERT_EQ(root.kind, JsonValue::Kind::Object);

    const JsonValue *counters = root.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("a.count"), nullptr);
    EXPECT_DOUBLE_EQ(counters->find("a.count")->number, 7.0);

    const JsonValue *gauges = root.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_DOUBLE_EQ(gauges->find("a.gauge")->number, 0.5);

    const JsonValue *histograms = root.find("histograms");
    ASSERT_NE(histograms, nullptr);
    const JsonValue *hist = histograms->find("a.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->find("count")->number, 100.0);
    EXPECT_DOUBLE_EQ(hist->find("sum")->number, 5050.0);
    EXPECT_DOUBLE_EQ(hist->find("max")->number, 100.0);
    // [index, occupancy] pairs that account for every recorded value.
    const JsonValue *buckets = hist->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->kind, JsonValue::Kind::Array);
    double recorded = 0.0;
    for (const JsonValue &pair : buckets->array) {
        ASSERT_EQ(pair.array.size(), 2u);
        recorded += pair.array[1].number;
    }
    EXPECT_DOUBLE_EQ(recorded, 100.0);
}

// ---------------------------------------------------------------- spans

TEST_F(TelemetryTest, DisabledSpansRecordNothing)
{
    ASSERT_FALSE(Telemetry::enabled());
    {
        Span outer("test.outer", "test");
        EXPECT_FALSE(outer.active());
        outer.arg("ignored", std::uint64_t{1});
        Span inner("test.inner", "test");
    }
    EXPECT_EQ(Telemetry::spanCount(), 0u);
}

TEST_F(TelemetryTest, EmptyTraceIsValidJson)
{
    JsonValue root;
    ASSERT_TRUE(JsonParser(Telemetry::renderChromeTrace()).parse(root));
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    // Only the process_name metadata event.
    ASSERT_EQ(events->array.size(), 1u);
    EXPECT_EQ(events->array[0].find("ph")->string, "M");
}

TEST_F(TelemetryTest, SpansNestAcrossPoolThreads)
{
    Telemetry::setEnabled(true);
    {
        Span root("test.root", "test");
        root.arg("kind", std::string("pool-fanout"));
        parallelFor(4, 0, 32, [](std::size_t i) {
            Span outer("test.item", "test");
            outer.arg("i", static_cast<std::uint64_t>(i));
            Span inner("test.leaf", "test");
        });
    }
    Telemetry::setEnabled(false);
    EXPECT_GE(Telemetry::spanCount(), 65u); // 1 root + 32 * 2 + workers

    JsonValue json;
    ASSERT_TRUE(JsonParser(Telemetry::renderChromeTrace()).parse(json));
    const JsonValue *events = json.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);

    struct Interval
    {
        double start, end;
        std::string name;
    };
    std::map<int, std::vector<Interval>> byTid;
    std::size_t leaves = 0, items = 0, roots = 0;
    for (const JsonValue &event : events->array) {
        if (event.find("ph")->string != "X")
            continue;
        const std::string &name = event.find("name")->string;
        const double ts = event.find("ts")->number;
        const double dur = event.find("dur")->number;
        const int tid = static_cast<int>(event.find("tid")->number);
        // Required Chrome trace_event fields and sane values.
        ASSERT_NE(event.find("pid"), nullptr);
        ASSERT_NE(event.find("cat"), nullptr);
        ASSERT_GE(dur, 0.0);
        ASSERT_NE(event.find("args"), nullptr);
        ASSERT_NE(event.find("args")->find("depth"), nullptr);
        ASSERT_NE(event.find("args")->find("cpu_us"), nullptr);
        byTid[tid].push_back({ts, ts + dur, name});
        leaves += name == "test.leaf";
        items += name == "test.item";
        roots += name == "test.root";
    }
    EXPECT_EQ(roots, 1u);
    EXPECT_EQ(items, 32u);
    EXPECT_EQ(leaves, 32u);

    for (const auto &[tid, intervals] : byTid) {
        // Per-thread timestamps are monotonic (export sorts by ts).
        for (std::size_t i = 1; i < intervals.size(); ++i)
            EXPECT_GE(intervals[i].start, intervals[i - 1].start);
        // RAII spans on one thread are strictly LIFO, so any two
        // spans of a thread are disjoint or one contains the other.
        for (std::size_t i = 0; i < intervals.size(); ++i) {
            for (std::size_t j = i + 1; j < intervals.size(); ++j) {
                const Interval &a = intervals[i];
                const Interval &b = intervals[j];
                const bool disjoint =
                    a.end <= b.start || b.end <= a.start;
                const bool aInB =
                    b.start <= a.start && a.end <= b.end;
                const bool bInA =
                    a.start <= b.start && b.end <= a.end;
                EXPECT_TRUE(disjoint || aInB || bInA)
                    << "overlapping non-nested spans on tid " << tid
                    << ": " << a.name << " [" << a.start << ", "
                    << a.end << ") vs " << b.name << " [" << b.start
                    << ", " << b.end << ")";
            }
        }
    }
}

TEST_F(TelemetryTest, ResetDropsRecordedSpans)
{
    Telemetry::setEnabled(true);
    { Span span("test.reset", "test"); }
    Telemetry::setEnabled(false);
    EXPECT_GE(Telemetry::spanCount(), 1u);
    Telemetry::reset();
    EXPECT_EQ(Telemetry::spanCount(), 0u);
}

TEST_F(TelemetryTest, SpanArgsAppearInTrace)
{
    Telemetry::setEnabled(true);
    {
        Span span("test.args", "test");
        span.arg("label", std::string("va\"lue"));
        span.arg("n", std::uint64_t{42});
    }
    Telemetry::setEnabled(false);

    JsonValue json;
    ASSERT_TRUE(JsonParser(Telemetry::renderChromeTrace()).parse(json));
    bool found = false;
    for (const JsonValue &event : json.find("traceEvents")->array) {
        const JsonValue *name = event.find("name");
        if (name == nullptr || name->string != "test.args")
            continue;
        found = true;
        const JsonValue *args = event.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->find("label")->string, "va\"lue");
        EXPECT_EQ(args->find("n")->string, "42");
    }
    EXPECT_TRUE(found);
}

// -------------------------------------------------------------- logging

TEST_F(TelemetryTest, LogLevelParses)
{
    LogLevel level = LogLevel::Off;
    EXPECT_TRUE(parseLogLevel("debug", level));
    EXPECT_EQ(level, LogLevel::Debug);
    EXPECT_TRUE(parseLogLevel("info", level));
    EXPECT_EQ(level, LogLevel::Info);
    EXPECT_TRUE(parseLogLevel("warn", level));
    EXPECT_EQ(level, LogLevel::Warn);
    EXPECT_TRUE(parseLogLevel("error", level));
    EXPECT_EQ(level, LogLevel::Error);
    EXPECT_TRUE(parseLogLevel("off", level));
    EXPECT_EQ(level, LogLevel::Off);
    EXPECT_FALSE(parseLogLevel("verbose", level));
    EXPECT_FALSE(parseLogLevel("", level));
}

TEST_F(TelemetryTest, LogLevelFiltersMessages)
{
    std::ostringstream captured_out, captured_err;
    std::streambuf *old_out = std::cout.rdbuf(captured_out.rdbuf());
    std::streambuf *old_err = std::cerr.rdbuf(captured_err.rdbuf());

    TL_LOG(Debug, "hidden at info");
    TL_LOG(Info, "status line");
    TL_LOG(Warn, "warning line");
    TL_LOG(Error, "error line");

    setLogLevel(LogLevel::Error);
    TL_LOG(Info, "hidden at error");
    TL_LOG(Warn, "hidden at error");
    TL_LOG(Error, "second error");

    setLogLevel(LogLevel::Debug);
    TL_LOG(Debug, "debug line");

    setLogLevel(LogLevel::Off);
    TL_LOG(Error, "hidden at off");

    std::cout.rdbuf(old_out);
    std::cerr.rdbuf(old_err);

    // Info goes to stdout ("info: " prefix, the historical inform()
    // format); warn/error/debug go to stderr.
    EXPECT_EQ(captured_out.str(), "info: status line\n");
    const std::string err = captured_err.str();
    EXPECT_NE(err.find("warn: warning line\n"), std::string::npos);
    EXPECT_NE(err.find("error: error line\n"), std::string::npos);
    EXPECT_NE(err.find("error: second error\n"), std::string::npos);
    EXPECT_NE(err.find("debug: debug line\n"), std::string::npos);
    EXPECT_EQ(err.find("hidden"), std::string::npos);
}

// ------------------------------------------------------------ tsan race

TEST_F(TelemetryTest, ConcurrentRecordingAndFlushIsRaceFree)
{
    MetricsRegistry &global = MetricsRegistry::global();
    Telemetry::setEnabled(true);

    std::vector<std::thread> threads;
    threads.reserve(5);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&global, t] {
            for (int i = 0; i < 200; ++i) {
                Span span("test.race", "test");
                span.arg("t", static_cast<std::uint64_t>(t));
                global.counter("race.counter").add(1);
                global.histogram("race.hist").record(
                    static_cast<std::uint64_t>(i));
                global.gauge("race.gauge").set(static_cast<double>(i));
            }
        });
    }
    // One thread flushes concurrently with the recorders.
    threads.emplace_back([] {
        for (int i = 0; i < 20; ++i) {
            (void)Telemetry::renderChromeTrace();
            (void)Telemetry::spanCount();
            (void)MetricsRegistry::global().snapshot();
        }
    });
    for (std::thread &thread : threads)
        thread.join();
    Telemetry::setEnabled(false);

    EXPECT_EQ(global.counter("race.counter").value(), 800u);
    EXPECT_EQ(global.histogram("race.hist").count(), 800u);
    EXPECT_GE(Telemetry::spanCount(), 800u);
}

} // namespace
} // namespace tracelens
