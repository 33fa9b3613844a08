/**
 * @file
 * Robustness tests: corrupted/truncated inputs fail with structured
 * errors instead of misbehaving; the wildcard matcher agrees with a reference
 * implementation under fuzzing; malformed trace shapes degrade
 * gracefully in the analyses.
 */

#include <regex>
#include <span>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/trace/builder.h"
#include "src/trace/serialize.h"
#include "src/util/rng.h"
#include "src/util/wildcard.h"
#include "src/workload/generator.h"

namespace tracelens
{
namespace
{

std::string
serializedSample()
{
    TraceCorpus corpus;
    StreamBuilder b(corpus, "s");
    const CallstackId st = b.stack({"a.sys!F"});
    b.running(1, 0, 10, st);
    b.instance("S", 1, 0, 100);
    b.finish();
    std::ostringstream out;
    writeCorpus(corpus, out);
    return out.str();
}

/** The rendered decode error for the TLC1 image @p bytes; the test
 *  fails when they decode. */
std::string
decodeError(const std::string &bytes)
{
    Expected<TraceCorpus> corpus =
        parseCorpus(std::as_bytes(std::span(bytes)), "<stream>");
    EXPECT_FALSE(corpus.ok());
    return corpus.ok() ? std::string() : corpus.error().render();
}

// Hostile TLC1 images yield a structured SourceError naming what is
// wrong — never a crash, garbage, or an exit.
TEST(SerializeDeath, BadMagicIsFatal)
{
    std::string bytes = serializedSample();
    bytes[0] = 'X';
    const std::string error = decodeError(bytes);
    EXPECT_TRUE(std::regex_search(error, std::regex("bad magic")))
        << error;
}

TEST(SerializeDeath, UnsupportedVersionIsFatal)
{
    std::string bytes = serializedSample();
    bytes[4] = 99; // version field
    const std::string error = decodeError(bytes);
    EXPECT_TRUE(std::regex_search(error, std::regex("version")))
        << error;
}

TEST(SerializeDeath, TruncationIsFatal)
{
    const std::string bytes = serializedSample();
    // Cut at several depths; every cut must fail cleanly, never crash
    // or return garbage.
    for (std::size_t cut : {9ul, 16ul, 32ul, bytes.size() - 3}) {
        const std::string error = decodeError(bytes.substr(0, cut));
        EXPECT_TRUE(
            std::regex_search(error, std::regex("truncated|corpus")))
            << "cut at " << cut << ": " << error;
    }
}

TEST(SerializeDeath, MissingFileIsFatal)
{
    Expected<TraceCorpus> corpus =
        readCorpusFileChecked("/nonexistent/path/x.tlc");
    ASSERT_FALSE(corpus.ok());
    const std::string error = corpus.error().render();
    EXPECT_TRUE(std::regex_search(error, std::regex("cannot open")))
        << error;
}

/** Reference recursive glob matcher (exponential but obviously right). */
bool
referenceMatch(std::string_view p, std::string_view t)
{
    if (p.empty())
        return t.empty();
    if (p[0] == '*') {
        return referenceMatch(p.substr(1), t) ||
               (!t.empty() && referenceMatch(p, t.substr(1)));
    }
    if (t.empty())
        return false;
    const char pc = static_cast<char>(
        std::tolower(static_cast<unsigned char>(p[0])));
    const char tc = static_cast<char>(
        std::tolower(static_cast<unsigned char>(t[0])));
    if (p[0] == '?' || pc == tc)
        return referenceMatch(p.substr(1), t.substr(1));
    return false;
}

TEST(WildcardFuzz, AgreesWithReferenceMatcher)
{
    Rng rng(2026);
    const std::string alphabet = "ab.*?s";
    for (int iter = 0; iter < 5000; ++iter) {
        std::string pattern, text;
        const auto plen = rng.uniformInt(0, 6);
        const auto tlen = rng.uniformInt(0, 8);
        for (int i = 0; i < plen; ++i)
            pattern += alphabet[static_cast<std::size_t>(
                rng.uniformInt(0, 5))];
        for (int i = 0; i < tlen; ++i) {
            // Text never contains wildcards.
            text += alphabet[static_cast<std::size_t>(
                rng.uniformInt(0, 3))];
        }
        EXPECT_EQ(wildcardMatch(pattern, text),
                  referenceMatch(pattern, text))
            << "pattern='" << pattern << "' text='" << text << "'";
    }
}

TEST(Robustness, AnalysisToleratesTruncatedTraces)
{
    // Waits with no unwaits (tracing stopped mid-incident).
    TraceCorpus corpus;
    StreamBuilder b(corpus, "s");
    const CallstackId st = b.stack({"app!U", "fs.sys!Read"});
    b.wait(1, 0, st);
    b.wait(2, 10, st);
    b.running(3, 0, fromMs(2), st);
    b.instance("S", 1, 0, fromMs(5));
    b.instance("S", 2, 0, fromMs(5));
    b.finish();

    EagerSource analyzer_source(corpus);

    Analyzer analyzer(analyzer_source);
    const ImpactResult impact = analyzer.impactAll();
    EXPECT_GE(impact.dWait, 0);
    EXPECT_GE(impact.dScn, 0);
}

TEST(Robustness, AnalysisToleratesEmptyCorpus)
{
    TraceCorpus corpus;
    EagerSource analyzer_source(corpus);
    Analyzer analyzer(analyzer_source);
    const ImpactResult impact = analyzer.impactAll();
    EXPECT_EQ(impact.instances, 0u);
    EXPECT_EQ(impact.dScn, 0);
    EXPECT_TRUE(analyzer.impactPerScenario().empty());
}

TEST(Robustness, InstanceWindowOutsideRecordedEvents)
{
    TraceCorpus corpus;
    StreamBuilder b(corpus, "s");
    const CallstackId st = b.stack({"a.sys!F"});
    b.running(1, 0, 10, st);
    // Window entirely after the last event.
    b.instance("S", 1, fromMs(10), fromMs(20));
    b.finish();

    WaitGraphBuilder builder(corpus);
    const WaitGraph graph = builder.build(corpus.instances()[0]);
    EXPECT_TRUE(graph.roots().empty());
    EXPECT_EQ(graph.topLevelDuration(), 0);
}

TEST(Robustness, SelfUnwaitsAreIgnoredByPairing)
{
    TraceCorpus corpus;
    StreamBuilder b(corpus, "s");
    const CallstackId st = b.stack({"a.sys!F"});
    b.wait(1, 0, st);
    b.unwait(1, 50, 1, st);  // self-unwait: must not pair
    b.unwait(2, 100, 1, st); // the real unwait
    b.instance("S", 1, 0, 200);
    b.finish();

    WaitGraphBuilder builder(corpus);
    const WaitGraph graph = builder.build(corpus.instances()[0]);
    ASSERT_FALSE(graph.roots().empty());
    EXPECT_EQ(graph.node(graph.roots()[0]).event.cost, 100);
}

TEST(Robustness, MaxNodesLimitTruncatesGracefully)
{
    // A wide fan of children under one wait; the node budget cuts it.
    TraceCorpus corpus;
    StreamBuilder b(corpus, "s");
    const CallstackId st = b.stack({"a.sys!F"});
    b.wait(1, 0, st);
    for (int i = 0; i < 100; ++i)
        b.running(2, 10 + i, 1, st);
    b.unwait(2, 1000, 1, st);
    b.instance("S", 1, 0, 1100);
    b.finish();

    WaitGraphOptions options;
    options.maxNodes = 10;
    WaitGraphBuilder builder(corpus, options);
    const WaitGraph graph = builder.build(corpus.instances()[0]);
    EXPECT_LE(graph.size(), 10u);
    ASSERT_FALSE(graph.roots().empty());
    EXPECT_TRUE(graph.node(graph.roots()[0]).truncated);
}

} // namespace
} // namespace tracelens
