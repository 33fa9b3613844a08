/**
 * @file
 * Working with trace files: generate a corpus, persist it in the
 * TraceLens binary format (the role ETW's .etl files play for the
 * paper), reload it, validate it, and analyze the reloaded copy.
 *
 * Build & run:  ./build/examples/example_trace_file_roundtrip [path]
 */

#include <cstdio>
#include <iostream>

#include "src/core/analyzer.h"
#include "src/trace/serialize.h"
#include "src/trace/validate.h"
#include "src/workload/generator.h"

int
main(int argc, char **argv)
{
    using namespace tracelens;

    const std::string path =
        argc > 1 ? argv[1] : "/tmp/tracelens_corpus.tlc";

    // Generate and persist.
    {
        CorpusSpec spec;
        spec.machines = 25;
        spec.seed = 3;
        const TraceCorpus corpus = generateCorpus(spec);
        writeCorpusFile(corpus, path);
        std::cout << "wrote " << corpus.streamCount() << " streams / "
                  << corpus.totalEvents() << " events to " << path
                  << "\n";
    }

    // Reload, validate, analyze.
    Expected<TraceCorpus> loaded = readCorpusFileChecked(path);
    if (!loaded) {
        std::cerr << loaded.error().render() << "\n";
        return 1;
    }
    const TraceCorpus &corpus = loaded.value();
    const ValidationReport report = validateCorpus(corpus);
    std::cout << "reloaded: " << report.render() << "\n";

    EagerSource analyzer_source(corpus);

    Analyzer analyzer(analyzer_source);
    std::cout << "impact: " << analyzer.impactAll().render() << "\n";

    // Per-scenario impact from the reloaded corpus.
    const auto per = analyzer.impactPerScenario();
    for (const auto &[scenario, impact] : per) {
        std::cout << "  " << corpus.scenarioName(scenario) << ": "
                  << impact.render() << "\n";
    }

    std::remove(path.c_str());
    return 0;
}
