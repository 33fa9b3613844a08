/**
 * @file
 * Tests for stream tags and cohort analysis.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "src/impact/cohorts.h"
#include "src/trace/builder.h"
#include "src/trace/merge.h"
#include "src/trace/serialize.h"
#include "src/waitgraph/waitgraph.h"
#include "src/workload/generator.h"
#include "tests/corpus_bytes.h"

namespace tracelens
{
namespace
{

TEST(StreamTags, LookupWithFallback)
{
    TraceCorpus corpus;
    const auto i = corpus.addStream("s");
    corpus.stream(i).tags["disk"] = "hdd";
    EXPECT_EQ(corpus.stream(i).tag("disk"), "hdd");
    EXPECT_EQ(corpus.stream(i).tag("missing"), "unknown");
    EXPECT_EQ(corpus.stream(i).tag("missing", "x"), "x");
}

TEST(StreamTags, SurviveSerialization)
{
    TraceCorpus corpus;
    StreamBuilder b(corpus, "s");
    const CallstackId st = b.stack({"a!x"});
    b.running(1, 0, 10, st);
    b.finish();
    corpus.stream(0).tags["encrypted"] = "1";
    corpus.stream(0).tags["disk"] = "ssd";

    std::stringstream buffer;
    writeCorpus(corpus, buffer);
    const TraceCorpus copy = decodeCorpusBytes(buffer.str());
    EXPECT_EQ(copy.stream(0).tag("encrypted"), "1");
    EXPECT_EQ(copy.stream(0).tag("disk"), "ssd");
}

TEST(StreamTags, SurviveMerge)
{
    TraceCorpus part;
    part.addStream("s");
    part.stream(0).tags["stressed"] = "1";
    TraceCorpus target;
    appendCorpus(target, part);
    EXPECT_EQ(target.stream(0).tag("stressed"), "1");
}

TEST(StreamTags, GeneratorTagsEveryStream)
{
    CorpusSpec spec;
    spec.machines = 5;
    spec.seed = 4;
    const TraceCorpus corpus = generateCorpus(spec);
    for (std::uint32_t i = 0; i < corpus.streamCount(); ++i) {
        const TraceStream &stream = corpus.stream(i);
        EXPECT_NE(stream.tag("encrypted"), "unknown");
        EXPECT_NE(stream.tag("disk"), "unknown");
        EXPECT_NE(stream.tag("stressed"), "unknown");
        EXPECT_NE(stream.tag("cores"), "unknown");
    }
}

TEST(Cohorts, SplitsInstancesByTag)
{
    TraceCorpus corpus;
    // Stream 0: tagged "a", one driver wait of 400.
    {
        StreamBuilder b(corpus, "s0");
        const CallstackId drv = b.stack({"app!x", "fs.sys!Read"});
        b.wait(1, 0, drv);
        b.unwait(9, 400, 1, drv);
        b.instance("S", 1, 0, 500);
        b.finish();
        corpus.stream(0).tags["env"] = "a";
    }
    // Stream 1: tagged "b", one driver wait of 100.
    {
        StreamBuilder b(corpus, "s1");
        const CallstackId drv = b.stack({"app!x", "fs.sys!Read"});
        b.wait(1, 0, drv);
        b.unwait(9, 100, 1, drv);
        b.instance("S", 1, 0, 500);
        b.finish();
        corpus.stream(1).tags["env"] = "b";
    }

    WaitGraphBuilder builder(corpus);
    const auto graphs = builder.buildAll();
    const auto cohorts = impactByCohort(corpus, graphs,
                                        NameFilter({"*.sys"}), "env");
    ASSERT_EQ(cohorts.size(), 2u);
    EXPECT_EQ(cohorts[0].value, "a");
    EXPECT_EQ(cohorts[0].impact.dWait, 400);
    EXPECT_EQ(cohorts[1].value, "b");
    EXPECT_EQ(cohorts[1].impact.dWait, 100);
    EXPECT_DOUBLE_EQ(cohorts[0].meanDurationMs, toMs(500));
}

TEST(Cohorts, UntaggedStreamsFormUnknownCohort)
{
    TraceCorpus corpus;
    StreamBuilder b(corpus, "s");
    const CallstackId st = b.stack({"a!x"});
    b.running(1, 0, 10, st);
    b.instance("S", 1, 0, 100);
    b.finish();

    WaitGraphBuilder builder(corpus);
    const auto graphs = builder.buildAll();
    const auto cohorts = impactByCohort(corpus, graphs,
                                        NameFilter({"*.sys"}), "env");
    ASSERT_EQ(cohorts.size(), 1u);
    EXPECT_EQ(cohorts[0].value, "unknown");
    EXPECT_EQ(cohorts[0].impact.instances, 1u);
}

TEST(Cohorts, EncryptionCohortShowsHigherDriverWait)
{
    // The quantified version of the paper's observation: encrypted
    // machines wait more on drivers than unencrypted ones.
    CorpusSpec spec;
    spec.machines = 60;
    spec.seed = 9;
    spec.encryptedFraction = 0.5;
    const TraceCorpus corpus = generateCorpus(spec);

    WaitGraphBuilder builder(corpus);
    const auto graphs = builder.buildAll();
    const auto cohorts = impactByCohort(
        corpus, graphs, NameFilter({"*.sys"}), "encrypted");

    double encrypted_wait = -1, plain_wait = -1;
    for (const CohortImpact &cohort : cohorts) {
        if (cohort.value == "1")
            encrypted_wait = cohort.impact.iaWait();
        if (cohort.value == "0")
            plain_wait = cohort.impact.iaWait();
    }
    ASSERT_GE(encrypted_wait, 0.0);
    ASSERT_GE(plain_wait, 0.0);
    EXPECT_GT(encrypted_wait, plain_wait);
}

} // namespace
} // namespace tracelens
