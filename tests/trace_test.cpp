/**
 * @file
 * Unit tests for src/trace: events, symbols, streams, builder,
 * serialization round-trips, and validation.
 */

#include <algorithm>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/builder.h"
#include "src/trace/serialize.h"
#include "src/trace/stream.h"
#include "src/trace/symbols.h"
#include "src/trace/validate.h"
#include "tests/corpus_bytes.h"

namespace tracelens
{
namespace
{

TEST(Event, EndIsStartPlusCost)
{
    Event e;
    e.timestamp = 100;
    e.cost = 25;
    EXPECT_EQ(e.end(), 125);
}

TEST(Event, TypeNames)
{
    EXPECT_EQ(eventTypeName(EventType::Running), "Running");
    EXPECT_EQ(eventTypeName(EventType::Wait), "Wait");
    EXPECT_EQ(eventTypeName(EventType::Unwait), "Unwait");
    EXPECT_EQ(eventTypeName(EventType::HardwareService),
              "HardwareService");
}

TEST(EventRef, EqualityAndHash)
{
    EventRef a{1, 2}, b{1, 2}, c{1, 3};
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EventRefHash h;
    EXPECT_EQ(h(a), h(b));
    EXPECT_NE(h(a), h(c));
}

TEST(EventRef, HashMixesStreamIntoLowBits)
{
    // Refs that differ only in the stream must differ in the *low 32
    // bits* of the hash: a 32-bit size_t keeps only those, and the old
    // `stream << 32` packing collapsed every stream onto one bucket
    // there (and was UB when size_t itself is 32 bits wide).
    EventRefHash h;
    const std::uint64_t mask = 0xffffffffu;
    std::size_t distinct = 0;
    std::vector<std::uint64_t> seen;
    for (std::uint32_t stream = 0; stream < 64; ++stream) {
        const std::uint64_t low =
            static_cast<std::uint64_t>(h(EventRef{stream, 7})) & mask;
        if (std::find(seen.begin(), seen.end(), low) == seen.end()) {
            seen.push_back(low);
            ++distinct;
        }
    }
    // splitmix64 makes 64 collisions in 2^32 astronomically unlikely;
    // demand near-perfect spread to catch any truncating regression.
    EXPECT_GE(distinct, 63u);
}

TEST(SymbolTable, FrameInterningAndComponents)
{
    SymbolTable sym;
    const FrameId f1 = sym.internFrame("fv.sys!QueryFileTable");
    const FrameId f2 = sym.internFrame("fv.sys!Dispatch");
    const FrameId f3 = sym.internFrame("DiskService");

    EXPECT_EQ(sym.internFrame("fv.sys!QueryFileTable"), f1);
    EXPECT_EQ(sym.frameName(f1), "fv.sys!QueryFileTable");
    EXPECT_EQ(sym.componentName(f1), "fv.sys");
    EXPECT_EQ(sym.componentId(f1), sym.componentId(f2));
    EXPECT_EQ(sym.componentName(f3), "DiskService");
    EXPECT_EQ(sym.frameCount(), 3u);
}

TEST(SymbolTable, StackInterningDeduplicates)
{
    SymbolTable sym;
    const FrameId a = sym.internFrame("app.exe!main");
    const FrameId b = sym.internFrame("fs.sys!Read");

    const std::vector<FrameId> s1 = {a, b};
    const std::vector<FrameId> s2 = {a, b};
    const std::vector<FrameId> s3 = {b, a};

    EXPECT_EQ(sym.internStack(s1), sym.internStack(s2));
    EXPECT_NE(sym.internStack(s1), sym.internStack(s3));
    EXPECT_EQ(sym.stackCount(), 2u);

    const auto frames = sym.stackFrames(sym.internStack(s1));
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], a);
    EXPECT_EQ(frames[1], b);
}

TEST(SymbolTable, EmptyStackInterns)
{
    SymbolTable sym;
    const CallstackId s = sym.internStack({});
    EXPECT_EQ(sym.stackFrames(s).size(), 0u);
    EXPECT_EQ(sym.internStack({}), s);
}

TEST(SymbolTable, TopMatchingFrameIsTopmost)
{
    SymbolTable sym;
    const FrameId app = sym.internFrame("browser.exe!TabCreate");
    const FrameId fv = sym.internFrame("fv.sys!QueryFileTable");
    const FrameId fs = sym.internFrame("fs.sys!AcquireMDU");
    const FrameId kernel = sym.internFrame("kernel!WaitForObject");

    // Bottom-to-top: app -> fv -> fs -> kernel.
    const CallstackId stack =
        sym.internStack(std::vector<FrameId>{app, fv, fs, kernel});

    NameFilter drivers({"*.sys"});
    EXPECT_EQ(sym.topMatchingFrame(stack, drivers), fs);
    EXPECT_TRUE(sym.stackTouches(stack, drivers));

    NameFilter fvOnly({"fv.sys"});
    EXPECT_EQ(sym.topMatchingFrame(stack, fvOnly), fv);

    NameFilter none({"net.sys"});
    EXPECT_EQ(sym.topMatchingFrame(stack, none), kNoFrame);
    EXPECT_FALSE(sym.stackTouches(stack, none));
}

TEST(SymbolTable, FilterCacheExtendsAfterNewFrames)
{
    SymbolTable sym;
    NameFilter drivers({"*.sys"});
    const FrameId f1 = sym.internFrame("a.sys!F");
    const CallstackId s1 = sym.internStack(std::vector<FrameId>{f1});
    EXPECT_EQ(sym.topMatchingFrame(s1, drivers), f1);

    // Intern a new frame after the filter was first used.
    const FrameId f2 = sym.internFrame("b.sys!G");
    const CallstackId s2 = sym.internStack(std::vector<FrameId>{f2});
    EXPECT_EQ(sym.topMatchingFrame(s2, drivers), f2);
}

TEST(TraceStream, AppendsInOrderAndTracksEnd)
{
    TraceCorpus corpus;
    const auto idx = corpus.addStream("s");
    TraceStream &s = corpus.stream(idx);

    Event a;
    a.timestamp = 10;
    a.cost = 5;
    s.append(a);
    Event b;
    b.timestamp = 12;
    b.cost = 100;
    s.append(b);

    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.endTime(), 112);
    EXPECT_EQ(s.event(0).timestamp, 10);
}

TEST(TraceCorpus, ScenarioInterningAndLookup)
{
    TraceCorpus corpus;
    const auto a = corpus.internScenario("BrowserTabCreate");
    const auto b = corpus.internScenario("MenuDisplay");
    EXPECT_EQ(corpus.internScenario("BrowserTabCreate"), a);
    EXPECT_EQ(corpus.scenarioName(b), "MenuDisplay");
    EXPECT_EQ(corpus.findScenario("MenuDisplay"), b);
    EXPECT_EQ(corpus.findScenario("nope"), UINT32_MAX);
}

TEST(TraceCorpus, InstancesOfScenario)
{
    TraceCorpus corpus;
    StreamBuilder builder(corpus, "s");
    builder.instance("A", 1, 0, 10);
    builder.instance("B", 2, 0, 10);
    builder.instance("A", 3, 5, 20);
    builder.finish();

    const auto a = corpus.findScenario("A");
    const auto hits = corpus.instancesOfScenario(a);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(corpus.instances()[hits[0]].tid, 1u);
    EXPECT_EQ(corpus.instances()[hits[1]].tid, 3u);
}

TEST(StreamBuilder, SortsEventsByTimestamp)
{
    TraceCorpus corpus;
    StreamBuilder builder(corpus, "s");
    const CallstackId st = builder.stack({"app.exe!main"});
    builder.running(1, 30, 10, st);
    builder.wait(1, 10, st);
    builder.unwait(2, 20, 1, st);
    builder.finish();

    const TraceStream &s = corpus.stream(0);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s.event(0).type, EventType::Wait);
    EXPECT_EQ(s.event(1).type, EventType::Unwait);
    EXPECT_EQ(s.event(1).wtid, 1u);
    EXPECT_EQ(s.event(2).type, EventType::Running);
}

TraceCorpus
makeSmallCorpus()
{
    TraceCorpus corpus;
    StreamBuilder builder(corpus, "machine-0");
    const CallstackId app = builder.stack(
        {"browser.exe!TabCreate", "fv.sys!QueryFileTable",
         "kernel!AcquireLock"});
    const CallstackId worker =
        builder.stack({"browser.exe!Worker", "fv.sys!QueryFileTable"});
    const CallstackId disk = builder.stack({"DiskService"});

    builder.wait(1, 100, app);
    builder.running(2, 100, fromMs(1), worker);
    builder.hardware(9, 120, fromMs(3), disk);
    builder.unwait(2, 4100, 1, worker);
    builder.running(1, 4100, fromMs(1), app);
    builder.instance("BrowserTabCreate", 1, 100, fromMs(3));
    builder.finish();
    return corpus;
}

TEST(Serialize, RoundTripPreservesEverything)
{
    const TraceCorpus original = makeSmallCorpus();

    std::stringstream buffer;
    writeCorpus(original, buffer);
    const TraceCorpus copy = decodeCorpusBytes(buffer.str());

    ASSERT_EQ(copy.streamCount(), original.streamCount());
    ASSERT_EQ(copy.totalEvents(), original.totalEvents());
    ASSERT_EQ(copy.instances().size(), original.instances().size());
    EXPECT_EQ(copy.stream(0).name, "machine-0");
    EXPECT_EQ(copy.symbols().frameCount(),
              original.symbols().frameCount());
    EXPECT_EQ(copy.symbols().stackCount(),
              original.symbols().stackCount());

    for (std::size_t i = 0; i < original.stream(0).size(); ++i) {
        const Event &a = original.stream(0).event(i);
        const Event &b = copy.stream(0).event(i);
        EXPECT_EQ(a.timestamp, b.timestamp);
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_EQ(a.tid, b.tid);
        EXPECT_EQ(a.wtid, b.wtid);
        EXPECT_EQ(a.stack, b.stack);
        EXPECT_EQ(a.type, b.type);
    }

    const ScenarioInstance &inst = copy.instances()[0];
    EXPECT_EQ(copy.scenarioName(inst.scenario), "BrowserTabCreate");
    EXPECT_EQ(inst.tid, 1u);

    // Frame names survive.
    NameFilter drivers({"*.sys"});
    EXPECT_TRUE(copy.symbols().stackTouches(0, drivers));
}

TEST(Serialize, DoubleRoundTripIsIdentical)
{
    const TraceCorpus original = makeSmallCorpus();
    std::stringstream b1, b2;
    writeCorpus(original, b1);
    const std::string first = b1.str();
    writeCorpus(decodeCorpusBytes(first), b2);
    EXPECT_EQ(first, b2.str());
}

TEST(Serialize, CompressedRoundTripPreservesEverything)
{
    const TraceCorpus original = makeSmallCorpus();

    std::stringstream buffer;
    CorpusWriteOptions options;
    options.compressEvents = true;
    writeCorpus(original, buffer, options);
    const TraceCorpus copy = decodeCorpusBytes(buffer.str());

    ASSERT_EQ(copy.streamCount(), original.streamCount());
    ASSERT_EQ(copy.totalEvents(), original.totalEvents());
    ASSERT_EQ(copy.instances().size(), original.instances().size());
    for (std::size_t s = 0; s < original.streamCount(); ++s) {
        for (std::size_t i = 0; i < original.stream(s).size(); ++i) {
            const Event &a = original.stream(s).event(i);
            const Event &b = copy.stream(s).event(i);
            EXPECT_EQ(a.timestamp, b.timestamp);
            EXPECT_EQ(a.cost, b.cost);
            EXPECT_EQ(a.tid, b.tid);
            EXPECT_EQ(a.wtid, b.wtid);
            EXPECT_EQ(a.stack, b.stack);
            EXPECT_EQ(a.type, b.type);
        }
    }
}

TEST(Serialize, CompressedWriteIsSmallerAndRawStaysByteStable)
{
    const TraceCorpus corpus = makeSmallCorpus();
    std::stringstream raw, rawExplicit, packed;
    writeCorpus(corpus, raw);
    writeCorpus(corpus, rawExplicit, CorpusWriteOptions{});
    CorpusWriteOptions options;
    options.compressEvents = true;
    writeCorpus(corpus, packed, options);

    // Delta-varint events beat 32-byte raw records even on a corpus
    // this small.
    EXPECT_LT(packed.str().size(), raw.str().size());
    // Not compressing must keep the historical byte layout — the
    // corpus digest (and with it every response-cache key) depends on
    // it.
    EXPECT_EQ(raw.str(), rawExplicit.str());

    // Re-serializing the decoded compressed corpus uncompressed
    // reproduces the raw bytes exactly: nothing was lost in delta
    // space.
    std::stringstream again;
    writeCorpus(decodeCorpusBytes(packed.str()), again);
    EXPECT_EQ(raw.str(), again.str());
}

TEST(Serialize, DumpStreamMentionsEvents)
{
    const TraceCorpus corpus = makeSmallCorpus();
    const std::string dump = dumpStream(corpus, 0);
    EXPECT_NE(dump.find("Wait"), std::string::npos);
    EXPECT_NE(dump.find("HardwareService"), std::string::npos);
    EXPECT_NE(dump.find("DiskService"), std::string::npos);
}

TEST(Validate, CleanCorpus)
{
    const TraceCorpus corpus = makeSmallCorpus();
    const ValidationReport report = validateCorpus(corpus);
    EXPECT_TRUE(report.clean()) << report.render();
    EXPECT_EQ(report.events, 5u);
    EXPECT_EQ(report.instances, 1u);
}

TEST(Validate, DetectsUnpairedWait)
{
    TraceCorpus corpus;
    StreamBuilder builder(corpus, "s");
    const CallstackId st = builder.stack({"a.sys!F"});
    builder.wait(1, 10, st);
    builder.finish();
    EXPECT_EQ(validateCorpus(corpus).unpairedWaits, 1u);
}

TEST(Validate, DetectsStrayAndSelfUnwaits)
{
    TraceCorpus corpus;
    StreamBuilder builder(corpus, "s");
    const CallstackId st = builder.stack({"a.sys!F"});
    builder.unwait(1, 10, 2, st); // nobody waiting
    builder.unwait(3, 11, 3, st); // self-unwait
    builder.finish();
    const auto report = validateCorpus(corpus);
    EXPECT_EQ(report.strayUnwaits, 1u);
    EXPECT_EQ(report.selfUnwaits, 1u);
}

TEST(Validate, DetectsOverrunInstance)
{
    TraceCorpus corpus;
    StreamBuilder builder(corpus, "s");
    const CallstackId st = builder.stack({"a.sys!F"});
    builder.running(1, 0, 10, st);
    builder.instance("S", 1, 0, 1000);
    builder.finish();
    EXPECT_EQ(validateCorpus(corpus).overrunInstances, 1u);
}

} // namespace
} // namespace tracelens
