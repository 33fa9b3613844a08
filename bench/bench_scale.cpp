/**
 * @file
 * Methodological supplement: stability of the Section-5.1 impact
 * metrics as the corpus grows, and serial-vs-parallel throughput of
 * the analysis pipeline. The paper argues large-scale trace
 * collections are needed to expose amortized problems; this bench
 * shows how quickly the fleet-level metrics converge with corpus size
 * and how much corpus-parallel sharding buys on multicore hardware.
 *
 * Usage: bench_scale [max_machines] [seed] [threads]
 *   threads defaults to the hardware thread count; pass an explicit
 *   value to measure a specific worker count.
 *
 * Emits machine-parseable BENCH_* lines for the trajectory:
 *   BENCH_scale_waitgraph_speedup, BENCH_scale_impact_speedup,
 *   BENCH_scale_scenario_speedup, BENCH_scale_pipeline_speedup
 * and writes the self-telemetry (span-recording) overhead
 * measurement to BENCH_telemetry.json, and
 * the analysis-service load test (multithreaded clients against a
 * live daemon, cold vs warm query latency) to BENCH_server.json, and
 * the protocol-v2 transport comparison (wire bytes with the symbol
 * dictionary, interactive-probe latency under a saturated worker
 * pool) to BENCH_proto.json in the working directory. The telemetry
 * run gates the overhead contract of src/util/telemetry.h: spans on
 * must stay within a few percent of spans off
 * (BENCH_scale_telemetry_overhead_pct); the server run gates the
 * warm-query contract of src/server/: warm p50 must be >= 100x
 * better than cold (BENCH_scale_server_warm_speedup_p50); the proto
 * run gates the v2 transport contracts: session wire bytes <= 1/3 of
 * the JSON text of the same params and results
 * (BENCH_scale_proto_wire_ratio) and, under load, an interactive
 * probe's p95 >= 5x better than the same probe queued FIFO at the
 * blockers' priority (BENCH_scale_proto_multiplex_speedup_p95). The tracing run
 * (warm analyze load with span-context propagation off vs on,
 * BENCH_obs.json) gates the observability contract of
 * docs/TELEMETRY.md: distributed tracing must cost < 3% of warm
 * throughput, enforced on >= 2 hardware threads
 * (BENCH_scale_obs_tracing_overhead_pct). The cluster run
 * (coordinator + 2 local workers vs a single-node daemon over the
 * same sharded corpus, BENCH_cluster.json) gates the scale-out
 * contract of src/server/coordinator.h: >= 1.6x single-node
 * throughput with byte-identical merged reports, enforced on >= 2
 * hardware threads (BENCH_scale_cluster_speedup).
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "src/core/analyzer.h"
#include "src/fleet/service.h"
#include "src/impact/impact.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/trace/serialize.h"
#include "src/trace/source.h"
#include "src/util/json.h"
#include "src/util/parallel.h"
#include "src/util/table.h"
#include "src/util/telemetry.h"
#include "src/waitgraph/waitgraph.h"
#include "src/workload/generator.h"
#include "src/workload/scenarios.h"

namespace
{

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
speedup(double serial_ms, double parallel_ms)
{
    return parallel_ms <= 0.0 ? 0.0 : serial_ms / parallel_ms;
}

double
usSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Nearest-rank percentile of @p samples (q in [0,1]); 0 when empty. */
double
percentileUs(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    const std::size_t rank = std::min(
        samples.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(samples.size())));
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank),
                     samples.end());
    return samples[rank];
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tracelens;

    const std::uint32_t max_machines =
        argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 400;
    std::uint64_t seed = 20140301;
    if (argc > 2)
        seed = static_cast<std::uint64_t>(std::atoll(argv[2]));
    const unsigned threads =
        argc > 3 ? static_cast<unsigned>(std::atoi(argv[3]))
                 : resolveThreads(0);

    std::cout << "== Scaling study: impact metrics vs corpus size ==\n";
    TextTable table({"Machines", "Instances", "Events", "IA_wait",
                     "IA_run", "IA_opt", "Dw/Dwd", "gen-ms",
                     "analyze-ms"});

    for (std::uint32_t machines = 25; machines <= max_machines;
         machines *= 2) {
        CorpusSpec spec;
        spec.machines = machines;
        spec.seed = seed;

        const auto gen_start = std::chrono::steady_clock::now();
        const TraceCorpus corpus = generateCorpus(spec);
        const double gen_ms = msSince(gen_start);

        const auto analyze_start = std::chrono::steady_clock::now();
        EagerSource source(corpus);
        Analyzer analyzer(source);
        const ImpactResult impact = analyzer.impactAll();
        const double analyze_ms = msSince(analyze_start);

        table.addRow({std::to_string(machines),
                      std::to_string(impact.instances),
                      std::to_string(corpus.totalEvents()),
                      TextTable::pct(impact.iaWait()),
                      TextTable::pct(impact.iaRun()),
                      TextTable::pct(impact.iaOpt()),
                      TextTable::num(impact.waitAmplification(), 2),
                      TextTable::num(gen_ms, 0),
                      TextTable::num(analyze_ms, 0)});
    }
    std::cout << table.render();
    std::cout << "\n(expect the ratios to stabilize once a few hundred "
                 "instances are aggregated, while cost scales roughly "
                 "linearly)\n\n";

    // ---- serial vs parallel pipeline throughput --------------------
    // A >= 1,000-instance corpus, the whole pipeline timed twice:
    // threads=1 (the exact serial path) and threads=N. Every stage
    // merges deterministically, so both runs produce identical
    // analysis results — only the wall time differs.
    CorpusSpec spec;
    spec.machines = std::max<std::uint32_t>(150, max_machines / 2);
    spec.seed = seed;
    const TraceCorpus corpus = generateCorpus(spec);

    std::vector<ScenarioThresholds> scenarios;
    for (const ScenarioSpec &sspec : scenarioCatalog()) {
        if (sspec.selected &&
            corpus.findScenario(sspec.name) != UINT32_MAX)
            scenarios.push_back({sspec.name, sspec.tFast, sspec.tSlow});
    }

    std::cout << "== Serial vs parallel pipeline (" << threads
              << " threads, " << corpus.instances().size()
              << " instances, " << corpus.totalEvents()
              << " events) ==\n";

    // Wait-graph construction (index caches rebuilt per run).
    double graphs_serial_ms = 0, graphs_parallel_ms = 0;
    std::vector<WaitGraph> graphs;
    {
        WaitGraphBuilder builder(corpus);
        const auto start = std::chrono::steady_clock::now();
        graphs = builder.buildAll();
        graphs_serial_ms = msSince(start);
    }
    {
        WaitGraphBuilder builder(corpus);
        const auto start = std::chrono::steady_clock::now();
        const auto parallel_graphs = builder.buildAllParallel(threads);
        graphs_parallel_ms = msSince(start);
        if (parallel_graphs.size() != graphs.size()) {
            std::cerr << "parallel graph count mismatch\n";
            return 1;
        }
    }

    // Corpus-wide impact over the prebuilt graphs.
    ImpactAnalysis impact_analysis(corpus, NameFilter({"*.sys"}));
    const auto impact_serial_start = std::chrono::steady_clock::now();
    const ImpactResult impact_serial =
        impact_analysis.analyze(graphs, 1);
    const double impact_serial_ms = msSince(impact_serial_start);

    const auto impact_parallel_start = std::chrono::steady_clock::now();
    const ImpactResult impact_parallel =
        impact_analysis.analyze(graphs, threads);
    const double impact_parallel_ms = msSince(impact_parallel_start);
    if (impact_serial.dWaitDist != impact_parallel.dWaitDist ||
        impact_serial.dWait != impact_parallel.dWait) {
        std::cerr << "parallel impact mismatch\n";
        return 1;
    }

    // Full per-scenario causality analysis (graphs cached up front in
    // both analyzers so the timing isolates the scenario stages).
    AnalyzerConfig serial_config;
    serial_config.threads = 1;
    EagerSource serial_source(corpus);
    Analyzer serial_analyzer(serial_source, serial_config);
    serial_analyzer.graphs();
    const auto scn_serial_start = std::chrono::steady_clock::now();
    const auto serial_analyses =
        serial_analyzer.analyzeScenarios(scenarios);
    const double scn_serial_ms = msSince(scn_serial_start);

    AnalyzerConfig parallel_config;
    parallel_config.threads = threads;
    EagerSource parallel_source(corpus);
    Analyzer parallel_analyzer(parallel_source, parallel_config);
    parallel_analyzer.graphs();
    const auto scn_parallel_start = std::chrono::steady_clock::now();
    const auto parallel_analyses =
        parallel_analyzer.analyzeScenarios(scenarios);
    const double scn_parallel_ms = msSince(scn_parallel_start);

    for (std::size_t i = 0; i < serial_analyses.size(); ++i) {
        if (serial_analyses[i].mining->patterns.size() !=
            parallel_analyses[i].mining->patterns.size()) {
            std::cerr << "parallel mining mismatch in "
                      << serial_analyses[i].name << "\n";
            return 1;
        }
    }

    TextTable perf({"Layer", "serial-ms", "parallel-ms", "speedup"});
    perf.addRow({"wait-graph build", TextTable::num(graphs_serial_ms, 0),
                 TextTable::num(graphs_parallel_ms, 0),
                 TextTable::num(
                     speedup(graphs_serial_ms, graphs_parallel_ms), 2)});
    perf.addRow({"impact (corpus)", TextTable::num(impact_serial_ms, 0),
                 TextTable::num(impact_parallel_ms, 0),
                 TextTable::num(
                     speedup(impact_serial_ms, impact_parallel_ms), 2)});
    perf.addRow({"scenario analyses", TextTable::num(scn_serial_ms, 0),
                 TextTable::num(scn_parallel_ms, 0),
                 TextTable::num(speedup(scn_serial_ms, scn_parallel_ms),
                                2)});
    const double pipeline_serial = graphs_serial_ms + scn_serial_ms;
    const double pipeline_parallel =
        graphs_parallel_ms + scn_parallel_ms;
    perf.addRow({"pipeline (build+scenarios)",
                 TextTable::num(pipeline_serial, 0),
                 TextTable::num(pipeline_parallel, 0),
                 TextTable::num(
                     speedup(pipeline_serial, pipeline_parallel), 2)});
    std::cout << perf.render();

    // ---- self-telemetry overhead: span recording off vs on ---------
    // The full scenario pipeline (fresh Analyzer) timed best-of-3 with span recording disabled and enabled. Spans
    // sit at shard/stage granularity, so the delta bounds what
    // --trace-out costs a real analysis run; the overhead contract in
    // src/util/telemetry.h calls for < 3%.
    auto telemetryRun = [&](std::size_t &patterns) {
        EagerSource tel_source(corpus);
        AnalyzerConfig tel_config;
        tel_config.threads = threads;
        Analyzer tel_analyzer(tel_source, tel_config);
        const auto analyses = tel_analyzer.analyzeScenarios(scenarios);
        patterns = 0;
        for (const auto &analysis : analyses)
            patterns += analysis.mining->patterns.size();
    };

    constexpr int kTelemetryReps = 3;
    double telemetry_off_ms = 0, telemetry_on_ms = 0;
    std::size_t telemetry_off_patterns = 0, telemetry_on_patterns = 0;
    Telemetry::setEnabled(false);
    for (int rep = 0; rep < kTelemetryReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        telemetryRun(telemetry_off_patterns);
        const double ms = msSince(start);
        if (rep == 0 || ms < telemetry_off_ms)
            telemetry_off_ms = ms;
    }
    Telemetry::setEnabled(true);
    for (int rep = 0; rep < kTelemetryReps; ++rep) {
        Telemetry::reset();
        const auto start = std::chrono::steady_clock::now();
        telemetryRun(telemetry_on_patterns);
        const double ms = msSince(start);
        if (rep == 0 || ms < telemetry_on_ms)
            telemetry_on_ms = ms;
    }
    const std::size_t telemetry_spans = Telemetry::spanCount();
    const std::size_t telemetry_trace_bytes =
        Telemetry::renderChromeTrace().size();
    Telemetry::setEnabled(false);
    Telemetry::reset();
    if (telemetry_off_patterns != telemetry_on_patterns) {
        std::cerr << "telemetry on/off mining mismatch\n";
        return 1;
    }
    const double telemetry_overhead_pct =
        telemetry_off_ms <= 0.0
            ? 0.0
            : (telemetry_on_ms - telemetry_off_ms) / telemetry_off_ms *
                  100.0;

    std::cout << "\n== Self-telemetry overhead (best of "
              << kTelemetryReps << ", " << telemetry_spans
              << " spans/run) ==\n";
    TextTable telemetry({"Spans", "ms", "overhead"});
    telemetry.addRow({"off", TextTable::num(telemetry_off_ms, 1), "-"});
    telemetry.addRow({"on", TextTable::num(telemetry_on_ms, 1),
                      TextTable::num(telemetry_overhead_pct, 2) + "%"});
    std::cout << telemetry.render();

    {
        std::ofstream json("BENCH_telemetry.json");
        json << "{\n"
             << "  \"threads\": " << threads << ",\n"
             << "  \"scenarios\": " << scenarios.size() << ",\n"
             << "  \"reps\": " << kTelemetryReps << ",\n"
             << "  \"off_ms\": " << telemetry_off_ms << ",\n"
             << "  \"on_ms\": " << telemetry_on_ms << ",\n"
             << "  \"overhead_pct\": " << telemetry_overhead_pct
             << ",\n"
             << "  \"spans\": " << telemetry_spans << ",\n"
             << "  \"trace_bytes\": " << telemetry_trace_bytes
             << "\n}\n";
        std::cout << "wrote BENCH_telemetry.json\n";
    }

    // ---- analysis service: cold vs warm query latency under load ---
    // A live daemon on an ephemeral loopback port, the corpus from
    // above on disk, and real clients over TCP. Cold phase: each
    // scenario is queried against a freshly started daemon — what the
    // first query after a deployment pays (session open, wait-graph
    // and AWG construction, mining). Warm phase: client threads hammer
    // a long-lived daemon with the same queries; every one is answered
    // from the response cache. The contract (docs/SERVER.md): warm p50
    // must beat cold p50 by >= 100x.
    const std::filesystem::path server_dir =
        std::filesystem::temp_directory_path() /
        "tracelens_bench_server";
    std::filesystem::remove_all(server_dir);
    std::filesystem::create_directories(server_dir);
    const std::string server_corpus =
        (server_dir / "corpus.tlc").string();
    writeCorpusFile(corpus, server_corpus);

    server::ServerConfig server_config;
    server_config.host = "127.0.0.1";
    server_config.port = 0;
    server_config.workers = threads;
    server_config.maxInflight = 256;
    // The multiplexing bench below saturates the workers with the
    // test-only sleep method.
    server_config.enableTestMethods = true;

    auto analyzeParams = [&](const ScenarioThresholds &scenario) {
        JsonValue params = JsonValue::makeObject();
        params.set("corpus", JsonValue(server_corpus));
        params.set("scenario", JsonValue(scenario.name));
        return params;
    };
    auto connectClient = [](std::uint16_t port) {
        server::SessionOptions options;
        options.ioTimeout = std::chrono::milliseconds(60000);
        auto session =
            server::Session::connect("127.0.0.1", port, options);
        if (!session.ok()) {
            std::cerr << "client connect failed: "
                      << session.error().render() << "\n";
            std::exit(1);
        }
        return std::move(session.value());
    };
    auto startDaemon = [&](server::Server &daemon) {
        const auto started = daemon.start();
        if (!started.ok()) {
            std::cerr << "server start failed: "
                      << started.error().render() << "\n";
            std::exit(1);
        }
    };

    std::vector<double> cold_us;
    for (const ScenarioThresholds &scenario : scenarios) {
        server::Server daemon(server_config);
        startDaemon(daemon);
        server::Session client = connectClient(daemon.port());
        const auto start = std::chrono::steady_clock::now();
        const auto reply = client.call(server::Method::Analyze,
                                       analyzeParams(scenario));
        if (!reply.ok() || !reply.value().ok) {
            std::cerr << "cold analyze failed for " << scenario.name
                      << "\n";
            return 1;
        }
        cold_us.push_back(usSince(start));
        daemon.requestStop();
        daemon.wait();
    }

    server::Server daemon(server_config);
    startDaemon(daemon);
    const std::uint16_t server_port = daemon.port();
    {
        // Untimed warm-up: analyze once and populate the response
        // cache, so the timed phase measures steady state.
        server::Session client = connectClient(server_port);
        for (const ScenarioThresholds &scenario : scenarios) {
            const auto reply = client.call(server::Method::Analyze,
                                           analyzeParams(scenario));
            if (!reply.ok() || !reply.value().ok) {
                std::cerr << "warm-up analyze failed for "
                          << scenario.name << "\n";
                return 1;
            }
        }
    }

    const unsigned client_threads = std::max(2u, std::min(threads, 8u));
    const std::size_t requests_per_client = 200;
    std::vector<std::vector<double>> warm_per_client(client_threads);
    const auto load_start = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> clients;
        clients.reserve(client_threads);
        for (unsigned t = 0; t < client_threads; ++t) {
            clients.emplace_back([&, t] {
                server::Session client = connectClient(server_port);
                auto &samples = warm_per_client[t];
                samples.reserve(requests_per_client);
                for (std::size_t i = 0; i < requests_per_client; ++i) {
                    const ScenarioThresholds &scenario =
                        scenarios[(t + i) % scenarios.size()];
                    const auto start = std::chrono::steady_clock::now();
                    const auto reply =
                        client.call(server::Method::Analyze,
                                    analyzeParams(scenario));
                    if (!reply.ok() || !reply.value().ok) {
                        std::cerr << "warm analyze failed for "
                                  << scenario.name << "\n";
                        std::exit(1);
                    }
                    samples.push_back(usSince(start));
                }
            });
        }
        for (std::thread &thread : clients)
            thread.join();
    }
    const double load_ms = msSince(load_start);

    // ---- protocol v2: wire bytes and multiplexed scheduling --------
    // Same daemon, same warm response cache, so both measurements
    // compare transport choices, not analysis cost.
    //
    // (a) Wire bytes. One symbol-heavy session — eight reps of
    // analyze(top=50) over every scenario plus impact. The baseline is
    // the JSON text of the same params and results (what a JSON-line
    // protocol carries, minus its envelope). The symbol dictionary
    // sends each module!Function string once per connection, so the
    // session's wire bytes must land at <= 1/3 of that text.
    const int wire_reps = 8;
    auto analyzeTopParams = [&](const ScenarioThresholds &scenario) {
        JsonValue params = analyzeParams(scenario);
        params.set("top", JsonValue(50));
        return params;
    };
    JsonValue impact_params = JsonValue::makeObject();
    impact_params.set("corpus", JsonValue(server_corpus));

    std::uint64_t json_text_bytes = 0;
    std::uint64_t v2_wire_bytes = 0;
    {
        server::Session session = connectClient(server_port);
        auto tally = [&](server::Method method, const JsonValue &params) {
            const auto reply = session.call(method, params);
            if (!reply.ok() || !reply.value().ok) {
                std::cerr << "wire-bytes "
                          << server::methodName(method) << " failed\n";
                std::exit(1);
            }
            json_text_bytes += params.render().size() +
                               reply.value().result.render().size();
        };
        for (int rep = 0; rep < wire_reps; ++rep) {
            for (const ScenarioThresholds &scenario : scenarios)
                tally(server::Method::Analyze, analyzeTopParams(scenario));
            tally(server::Method::Impact, impact_params);
        }
        const server::WireStats wire = session.wireStats();
        v2_wire_bytes = wire.bytesSent + wire.bytesReceived;
    }
    const double wire_ratio =
        v2_wire_bytes == 0
            ? 0.0
            : static_cast<double>(json_text_bytes) /
                  static_cast<double>(v2_wire_bytes);

    // (b) Multiplexed scheduling. Saturate the workers with bulk
    // sleeps, then measure a near-zero-cost probe (a 1ms sleep, so the
    // sample is pure queueing delay rather than the probe's own
    // service time). Sent at the blockers' own priority, the probe
    // drains FIFO behind the whole backlog; sent on an interactive
    // stream, it overtakes the queue. Contract: probe p95 improves
    // >= 5x.
    const unsigned pool_workers = std::max(1u, threads);
    const std::size_t blockers_per_round = 8 * pool_workers;
    const std::size_t probe_rounds = 8;
    JsonValue sleep_params = JsonValue::makeObject();
    sleep_params.set("ms", JsonValue(50));
    JsonValue probe_params = JsonValue::makeObject();
    probe_params.set("ms", JsonValue(1));

    auto probeLatencies = [&](std::uint8_t probePriority) {
        server::Session session = connectClient(server_port);
        std::vector<double> samples;
        samples.reserve(probe_rounds);
        for (std::size_t round = 0; round < probe_rounds; ++round) {
            server::CallOptions bulk;
            bulk.priority = server::kPriorityBulk;
            std::vector<std::uint64_t> handles;
            handles.reserve(blockers_per_round);
            for (std::size_t i = 0; i < blockers_per_round; ++i) {
                auto handle = session.send(server::Method::Sleep,
                                           sleep_params, bulk);
                if (!handle.ok()) {
                    std::cerr << "blocker send failed\n";
                    std::exit(1);
                }
                handles.push_back(handle.value());
            }
            server::CallOptions probeOptions;
            probeOptions.priority = probePriority;
            const auto start = std::chrono::steady_clock::now();
            const auto probe = session.call(server::Method::Sleep,
                                            probe_params, probeOptions);
            if (!probe.ok() || !probe.value().ok) {
                std::cerr << "probe failed (priority "
                          << int(probePriority) << ")\n";
                std::exit(1);
            }
            samples.push_back(usSince(start));
            for (std::uint64_t handle : handles) {
                const auto drained = session.wait(handle);
                if (!drained.ok() || !drained.value().ok) {
                    std::cerr << "blocker drain failed\n";
                    std::exit(1);
                }
            }
        }
        return samples;
    };
    const std::vector<double> fifo_probe_us =
        probeLatencies(server::kPriorityBulk);
    const std::vector<double> interactive_probe_us =
        probeLatencies(server::kPriorityInteractive);
    const double fifo_probe_p95 = percentileUs(fifo_probe_us, 0.95);
    const double interactive_probe_p95 =
        percentileUs(interactive_probe_us, 0.95);
    const double multiplex_speedup =
        speedup(fifo_probe_p95, interactive_probe_p95);

    // ---- distributed tracing overhead: warm load, off vs on --------
    // Same warm daemon, same cache-hit analyze load as the warm phase
    // above, twice. "Off" sessions clear the tracing SETTINGS bit, so
    // every request is byte-identical to a pre-tracing client; "on"
    // sessions negotiate span-context propagation and root a fresh
    // trace id per request (what `tracelens query` does by default)
    // while the server records request spans. The contract
    // (docs/TELEMETRY.md): tracing costs < 3% of warm throughput.
    // Enforced on multicore hosts; recorded on a single core, where
    // client and server threads fight for the one core and the
    // measurement is all scheduler noise.
    const std::size_t obs_requests_per_client = 150;
    constexpr int kObsReps = 3;
    auto tracedLoadRps = [&](bool tracing) {
        std::vector<std::thread> clients;
        clients.reserve(client_threads);
        const auto start = std::chrono::steady_clock::now();
        for (unsigned t = 0; t < client_threads; ++t) {
            clients.emplace_back([&, t] {
                server::SessionOptions options;
                options.ioTimeout = std::chrono::milliseconds(60000);
                options.tracing = tracing;
                auto session = server::Session::connect(
                    "127.0.0.1", server_port, options);
                if (!session.ok()) {
                    std::cerr << "tracing-load connect failed\n";
                    std::exit(1);
                }
                for (std::size_t i = 0; i < obs_requests_per_client;
                     ++i) {
                    const ScenarioThresholds &scenario =
                        scenarios[(t + i) % scenarios.size()];
                    server::CallOptions call;
                    if (tracing) {
                        call.traceContext.traceId =
                            Telemetry::newTraceId();
                        call.traceContext.sampled = true;
                    }
                    const auto reply = session.value().call(
                        server::Method::Analyze,
                        analyzeParams(scenario), call);
                    if (!reply.ok() || !reply.value().ok) {
                        std::cerr << "tracing-load analyze failed\n";
                        std::exit(1);
                    }
                }
            });
        }
        for (std::thread &thread : clients)
            thread.join();
        const double ms = msSince(start);
        return ms <= 0.0 ? 0.0
                         : static_cast<double>(client_threads *
                                               obs_requests_per_client) /
                               (ms / 1000.0);
    };
    double obs_off_rps = 0, obs_on_rps = 0;
    for (int rep = 0; rep < kObsReps; ++rep) {
        // Interleaved best-of-N, so drift (page cache, turbo, other
        // tenants) hits both modes alike.
        Telemetry::setEnabled(false);
        Telemetry::reset();
        obs_off_rps = std::max(obs_off_rps, tracedLoadRps(false));
        Telemetry::setEnabled(true);
        Telemetry::reset();
        obs_on_rps = std::max(obs_on_rps, tracedLoadRps(true));
    }
    const std::size_t obs_spans = Telemetry::spanCount();
    Telemetry::setEnabled(false);
    Telemetry::reset();
    const double obs_overhead_pct =
        obs_off_rps <= 0.0
            ? 0.0
            : (obs_off_rps - obs_on_rps) / obs_off_rps * 100.0;
    const bool obs_gate_enforced =
        std::max(1u, std::thread::hardware_concurrency()) >= 2;

    daemon.requestStop();
    daemon.wait();
    std::filesystem::remove_all(server_dir);

    std::vector<double> warm_us;
    for (const auto &samples : warm_per_client)
        warm_us.insert(warm_us.end(), samples.begin(), samples.end());
    const double warm_rps =
        load_ms <= 0.0
            ? 0.0
            : static_cast<double>(warm_us.size()) / (load_ms / 1000.0);

    const double cold_p50 = percentileUs(cold_us, 0.50);
    const double cold_p99 = percentileUs(cold_us, 0.99);
    const double warm_p50 = percentileUs(warm_us, 0.50);
    const double warm_p99 = percentileUs(warm_us, 0.99);
    const double warm_speedup_p50 = speedup(cold_p50, warm_p50);

    std::cout << "\n== Analysis service (" << client_threads
              << " clients x " << requests_per_client << " requests, "
              << scenarios.size() << " scenarios, " << threads
              << " workers) ==\n";
    TextTable server_table({"Phase", "requests", "p50-us", "p99-us"});
    server_table.addRow({"cold", std::to_string(cold_us.size()),
                         TextTable::num(cold_p50, 0),
                         TextTable::num(cold_p99, 0)});
    server_table.addRow({"warm", std::to_string(warm_us.size()),
                         TextTable::num(warm_p50, 0),
                         TextTable::num(warm_p99, 0)});
    std::cout << server_table.render();
    std::cout << "warm throughput: " << TextTable::num(warm_rps, 0)
              << " requests/s, warm p50 speedup over cold: "
              << TextTable::num(warm_speedup_p50, 0) << "x\n";
    if (warm_speedup_p50 < 100.0) {
        std::cerr << "warm p50 speedup " << warm_speedup_p50
                  << "x below the 100x contract\n";
        return 1;
    }

    {
        std::ofstream json("BENCH_server.json");
        json << "{\n"
             << "  \"client_threads\": " << client_threads << ",\n"
             << "  \"server_workers\": " << threads << ",\n"
             << "  \"scenarios\": " << scenarios.size() << ",\n"
             << "  \"cold_requests\": " << cold_us.size() << ",\n"
             << "  \"cold_p50_us\": " << cold_p50 << ",\n"
             << "  \"cold_p99_us\": " << cold_p99 << ",\n"
             << "  \"warm_requests\": " << warm_us.size() << ",\n"
             << "  \"warm_p50_us\": " << warm_p50 << ",\n"
             << "  \"warm_p99_us\": " << warm_p99 << ",\n"
             << "  \"warm_rps\": " << warm_rps << ",\n"
             << "  \"warm_speedup_p50\": " << warm_speedup_p50
             << "\n}\n";
        std::cout << "wrote BENCH_server.json\n";
    }

    std::cout << "\n== Protocol v2 transport (same daemon, warm cache) ==\n";
    TextTable proto_table({"Metric", "baseline", "v2", "ratio"});
    proto_table.addRow({"session bytes (JSON text vs wire)",
                        std::to_string(json_text_bytes),
                        std::to_string(v2_wire_bytes),
                        TextTable::num(wire_ratio, 2) + "x"});
    proto_table.addRow({"probe p95 us under load (FIFO vs interactive)",
                        TextTable::num(fifo_probe_p95, 0),
                        TextTable::num(interactive_probe_p95, 0),
                        TextTable::num(multiplex_speedup, 1) + "x"});
    std::cout << proto_table.render();
    if (wire_ratio < 3.0) {
        std::cerr << "v2 wire bytes only " << TextTable::num(wire_ratio, 2)
                  << "x smaller than the JSON text; the contract is "
                     ">= 3x\n";
        return 1;
    }
    if (multiplex_speedup < 5.0) {
        std::cerr << "interactive probe p95 only "
                  << TextTable::num(multiplex_speedup, 1)
                  << "x better than FIFO; the contract is >= 5x\n";
        return 1;
    }

    {
        std::ofstream json("BENCH_proto.json");
        json << "{\n"
             << "  \"wire_reps\": " << wire_reps << ",\n"
             << "  \"json_text_bytes\": " << json_text_bytes << ",\n"
             << "  \"v2_wire_bytes\": " << v2_wire_bytes << ",\n"
             << "  \"wire_ratio\": " << wire_ratio << ",\n"
             << "  \"wire_ratio_floor\": 3.0,\n"
             << "  \"probe_rounds\": " << probe_rounds << ",\n"
             << "  \"blockers_per_round\": " << blockers_per_round
             << ",\n"
             << "  \"fifo_probe_p95_us\": " << fifo_probe_p95 << ",\n"
             << "  \"interactive_probe_p95_us\": "
             << interactive_probe_p95 << ",\n"
             << "  \"multiplex_speedup_p95\": " << multiplex_speedup
             << ",\n"
             << "  \"multiplex_speedup_floor\": 5.0\n"
             << "}\n";
        std::cout << "wrote BENCH_proto.json\n";
    }

    std::cout << "\n== Distributed tracing overhead (warm load, best "
                 "of "
              << kObsReps << ", " << obs_spans
              << " spans recorded/run) ==\n";
    TextTable obs_table({"Tracing", "rps", "overhead"});
    obs_table.addRow({"off", TextTable::num(obs_off_rps, 0), "-"});
    obs_table.addRow({"on", TextTable::num(obs_on_rps, 0),
                      TextTable::num(obs_overhead_pct, 2) + "%"});
    std::cout << obs_table.render();
    if (obs_gate_enforced && obs_overhead_pct >= 3.0) {
        std::cerr << "tracing overhead "
                  << TextTable::num(obs_overhead_pct, 2)
                  << "% breaches the < 3% contract\n";
        return 1;
    }
    if (!obs_gate_enforced) {
        std::cout << "(single hardware thread: tracing-overhead gate "
                     "recorded, not enforced)\n";
    }

    {
        std::ofstream json("BENCH_obs.json");
        json << "{\n"
             << "  \"client_threads\": " << client_threads << ",\n"
             << "  \"requests_per_client\": "
             << obs_requests_per_client << ",\n"
             << "  \"reps\": " << kObsReps << ",\n"
             << "  \"tracing_off_rps\": " << obs_off_rps << ",\n"
             << "  \"tracing_on_rps\": " << obs_on_rps << ",\n"
             << "  \"overhead_pct\": " << obs_overhead_pct << ",\n"
             << "  \"overhead_ceiling_pct\": 3.0,\n"
             << "  \"spans_per_run\": " << obs_spans << ",\n"
             << "  \"gate_enforced\": "
             << (obs_gate_enforced ? "true" : "false") << ",\n"
             << "  \"gate_pass\": "
             << (!obs_gate_enforced || obs_overhead_pct < 3.0
                     ? "true"
                     : "false")
             << "\n}\n";
        std::cout << "wrote BENCH_obs.json\n";
    }

    // ---- cluster mode: coordinator + 2 workers vs single-node ------
    // The corpus from above sharded on disk, three plain daemons (two
    // cluster workers and a single-node reference) plus a coordinator,
    // all with one analysis thread per request so the comparison
    // isolates *shard-level scatter* as the only parallelism. Every
    // timed query varies the thresholds, which defeats the per-worker
    // partial caches and the single-node response cache alike — each
    // request pays the real classification/impact/AWG cost. The gate
    // (docs/SERVER.md): with 2 local workers the coordinator must
    // reach >= 1.6x single-node throughput. Scale-out needs hardware
    // to scale onto, so the gate is enforced on >= 2 hardware
    // threads and recorded (not enforced) on a single-core host,
    // like every other parallel speedup in this bench.
    const std::filesystem::path cluster_dir =
        std::filesystem::temp_directory_path() /
        "tracelens_bench_cluster";
    std::filesystem::remove_all(cluster_dir);
    std::filesystem::create_directories(cluster_dir);
    const std::string cluster_corpus = (cluster_dir / "corpus").string();
    const std::size_t cluster_shards = 8;
    writeShardedCorpusDir(corpus, cluster_corpus, cluster_shards);

    server::ServerConfig node_config;
    node_config.host = "127.0.0.1";
    node_config.port = 0;
    node_config.workers = std::max(4u, threads);
    node_config.maxInflight = 256;
    node_config.registry.analysisThreads = 1;

    server::Server worker_a(node_config);
    server::Server worker_b(node_config);
    server::Server single_node(node_config);
    startDaemon(worker_a);
    startDaemon(worker_b);
    startDaemon(single_node);

    server::ServerConfig coord_config = node_config;
    coord_config.coordinator = true;
    coord_config.workerAddrs = {
        "127.0.0.1:" + std::to_string(worker_a.port()),
        "127.0.0.1:" + std::to_string(worker_b.port())};
    server::Server coordinator(coord_config);
    startDaemon(coordinator);

    // Thresholds scaled by @p k (kept ordered: both scale together).
    auto clusterParams = [&](const ScenarioThresholds &scenario,
                             double k) {
        JsonValue params = JsonValue::makeObject();
        params.set("corpus", JsonValue(cluster_corpus));
        params.set("scenario", JsonValue(scenario.name));
        params.set("tfast_ms", JsonValue(scenario.tFast * k));
        params.set("tslow_ms", JsonValue(scenario.tSlow * k));
        return params;
    };

    // Byte-identity first (this also builds the threshold-independent
    // wait graphs on every daemon, so the timed phase below
    // measures the per-query scenario stages on both sides).
    bool cluster_identical = true;
    {
        server::Session coord_client =
            connectClient(coordinator.port());
        server::Session single_client =
            connectClient(single_node.port());
        for (const ScenarioThresholds &scenario : scenarios) {
            const JsonValue params = clusterParams(scenario, 1.0);
            const auto via_coord = coord_client.call(
                server::Method::Analyze, params);
            const auto via_single = single_client.call(
                server::Method::Analyze, params);
            if (!via_coord.ok() || !via_coord.value().ok ||
                !via_single.ok() || !via_single.value().ok) {
                std::cerr << "cluster identity query failed for "
                          << scenario.name << "\n";
                return 1;
            }
            if (via_coord.value().result.render() !=
                via_single.value().result.render()) {
                std::cerr << "cluster report differs from single-node "
                             "for " << scenario.name << "\n";
                cluster_identical = false;
            }
        }
    }
    if (!cluster_identical)
        return 1;

    // Timed phase: the same threshold-varied query sequence against
    // each target; every (scenario, k) pair is unique, so no response
    // or partial cache can answer for the pipeline.
    const std::size_t cluster_rounds = 3;
    auto timedQueries = [&](std::uint16_t port) {
        server::Session client = connectClient(port);
        std::size_t index = 0;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t round = 0; round < cluster_rounds; ++round) {
            for (const ScenarioThresholds &scenario : scenarios) {
                const double k =
                    1.0 + 0.003 * static_cast<double>(++index);
                const auto reply = client.call(
                    server::Method::Analyze,
                    clusterParams(scenario, k));
                if (!reply.ok() || !reply.value().ok) {
                    std::cerr << "cluster timed query failed for "
                              << scenario.name << "\n";
                    std::exit(1);
                }
            }
        }
        return msSince(start);
    };
    const std::size_t cluster_queries =
        cluster_rounds * scenarios.size();
    const double single_node_ms = timedQueries(single_node.port());
    const double cluster_ms = timedQueries(coordinator.port());
    const double cluster_speedup = speedup(single_node_ms, cluster_ms);
    auto qps = [cluster_queries](double ms) {
        return ms <= 0.0 ? 0.0
                         : static_cast<double>(cluster_queries) /
                               (ms / 1000.0);
    };

    coordinator.requestStop();
    coordinator.wait();
    worker_a.requestStop();
    worker_a.wait();
    worker_b.requestStop();
    worker_b.wait();
    single_node.requestStop();
    single_node.wait();
    std::filesystem::remove_all(cluster_dir);

    const unsigned hardware_threads =
        std::max(1u, std::thread::hardware_concurrency());
    const bool cluster_gate_enforced = hardware_threads >= 2;

    std::cout << "\n== Cluster scale-out (" << cluster_shards
              << " shards, 2 workers, " << cluster_queries
              << " threshold-varied queries) ==\n";
    TextTable cluster_table({"Target", "ms", "queries/s", "speedup"});
    cluster_table.addRow({"single node",
                          TextTable::num(single_node_ms, 0),
                          TextTable::num(qps(single_node_ms), 2),
                          "1.00"});
    cluster_table.addRow({"coordinator + 2 workers",
                          TextTable::num(cluster_ms, 0),
                          TextTable::num(qps(cluster_ms), 2),
                          TextTable::num(cluster_speedup, 2)});
    std::cout << cluster_table.render();
    std::cout << "merged reports byte-identical to single-node: yes\n";
    if (cluster_gate_enforced && cluster_speedup < 1.6) {
        std::cerr << "cluster speedup "
                  << TextTable::num(cluster_speedup, 2)
                  << "x below the 1.6x scale-out contract\n";
        return 1;
    }
    if (!cluster_gate_enforced) {
        std::cout << "(single hardware thread: scale-out gate "
                     "recorded, not enforced)\n";
    }

    {
        std::ofstream json("BENCH_cluster.json");
        json << "{\n"
             << "  \"shards\": " << cluster_shards << ",\n"
             << "  \"workers\": 2,\n"
             << "  \"analysis_threads_per_request\": 1,\n"
             << "  \"hardware_threads\": " << hardware_threads << ",\n"
             << "  \"queries\": " << cluster_queries << ",\n"
             << "  \"byte_identical\": true,\n"
             << "  \"single_node_ms\": " << single_node_ms << ",\n"
             << "  \"single_node_qps\": " << qps(single_node_ms)
             << ",\n"
             << "  \"cluster_ms\": " << cluster_ms << ",\n"
             << "  \"cluster_qps\": " << qps(cluster_ms) << ",\n"
             << "  \"cluster_speedup\": " << cluster_speedup << ",\n"
             << "  \"speedup_floor\": 1.6,\n"
             << "  \"gate_enforced\": "
             << (cluster_gate_enforced ? "true" : "false") << ",\n"
             << "  \"gate_pass\": "
             << (!cluster_gate_enforced || cluster_speedup >= 1.6
                     ? "true"
                     : "false")
             << "\n}\n";
        std::cout << "wrote BENCH_cluster.json\n";
    }

    // ---- continuous fleet mode: ingest rate, alert latency ---------
    // Push-mode FleetService (no spool): three calm windows feed the
    // rolling ring, then a regressed cohort (encryption everywhere,
    // slower disks) lands in a fourth window and the sentinel must
    // catch it. Timed per ingest: each call covers windowing, the
    // per-shard partial, sentinel evaluation, and alert emission —
    // the same work a live daemon does per `ingest_push`.
    {
        constexpr std::uint64_t fleet_window_ms = 60000;
        FleetConfig fleet_config;
        fleet_config.windowMs = fleet_window_ms;
        fleet_config.sentinel.scenarios = scenarios;
        fleet_config.sentinel.baselineWindows = 2;
        FleetService fleet(fleet_config);

        struct FleetShard
        {
            std::string name;
            TraceCorpus corpus;
            std::uint64_t stampMs;
        };
        std::vector<FleetShard> fleet_shards;
        const std::size_t shards_per_window = 4;
        auto addCohort = [&](std::uint64_t window, double encrypted,
                             double hdd) {
            CorpusSpec fleet_spec;
            fleet_spec.machines = 32;
            fleet_spec.seed = seed + 100 + window;
            fleet_spec.encryptedFraction = encrypted;
            fleet_spec.hddFraction = hdd;
            std::vector<TraceCorpus> cohort =
                generateShardedCorpus(fleet_spec, shards_per_window);
            for (std::size_t i = 0; i < cohort.size(); ++i)
                fleet_shards.push_back(
                    {"shard-" + std::to_string(window) + "-" +
                         std::to_string(i) + ".tlc",
                     std::move(cohort[i]),
                     window * fleet_window_ms + i});
        };
        addCohort(0, 0.0, 0.1);
        addCohort(1, 0.0, 0.1);
        addCohort(2, 0.0, 0.1);
        addCohort(3, 1.0, 0.5); // the injected regression

        std::size_t fleet_alerts = 0;
        double alert_latency_ms = 0.0;
        const auto fleet_start = std::chrono::steady_clock::now();
        for (FleetShard &shard : fleet_shards) {
            const auto arrival = std::chrono::steady_clock::now();
            const IngestOutcome outcome = fleet.ingest(
                std::move(shard.name), std::move(shard.corpus),
                shard.stampMs);
            if (outcome.alerts != 0 && fleet_alerts == 0)
                alert_latency_ms = msSince(arrival);
            fleet_alerts += outcome.alerts;
        }
        const double fleet_ingest_ms = msSince(fleet_start);
        const double fleet_shards_per_s =
            fleet_ingest_ms <= 0.0
                ? 0.0
                : static_cast<double>(fleet_shards.size()) /
                      (fleet_ingest_ms / 1000.0);

        const bool fleet_gate_enforced = hardware_threads >= 2;
        std::cout << "\n== Continuous fleet mode ("
                  << fleet_shards.size() << " shards, 4 windows, "
                  << "regression injected in window 3) ==\n";
        TextTable fleet_table({"Metric", "Value"});
        fleet_table.addRow({"ingest shards/s",
                            TextTable::num(fleet_shards_per_s, 1)});
        fleet_table.addRow(
            {"alert latency ms (arrival -> emission)",
             TextTable::num(alert_latency_ms, 1)});
        fleet_table.addRow(
            {"alerts fired", std::to_string(fleet_alerts)});
        std::cout << fleet_table.render();
        if (fleet_gate_enforced && fleet_alerts == 0) {
            std::cerr << "sentinel missed the injected regression\n";
            return 1;
        }
        if (!fleet_gate_enforced) {
            std::cout << "(single hardware thread: fleet gate "
                         "recorded, not enforced)\n";
        }

        std::ofstream json("BENCH_fleet.json");
        json << "{\n"
             << "  \"shards\": " << fleet_shards.size() << ",\n"
             << "  \"windows\": 4,\n"
             << "  \"window_ms\": " << fleet_window_ms << ",\n"
             << "  \"shards_per_window\": " << shards_per_window
             << ",\n"
             << "  \"hardware_threads\": " << hardware_threads
             << ",\n"
             << "  \"ingest_ms\": " << fleet_ingest_ms << ",\n"
             << "  \"ingest_shards_per_s\": " << fleet_shards_per_s
             << ",\n"
             << "  \"alert_latency_ms\": " << alert_latency_ms
             << ",\n"
             << "  \"alerts_fired\": " << fleet_alerts << ",\n"
             << "  \"gate_enforced\": "
             << (fleet_gate_enforced ? "true" : "false") << ",\n"
             << "  \"gate_pass\": "
             << (!fleet_gate_enforced || fleet_alerts > 0 ? "true"
                                                          : "false")
             << "\n}\n";
        std::cout << "wrote BENCH_fleet.json\n";

        std::cout << "\nBENCH_scale_fleet_ingest_shards_per_s="
                  << fleet_shards_per_s << "\n"
                  << "BENCH_scale_fleet_alert_latency_ms="
                  << alert_latency_ms << "\n"
                  << "BENCH_scale_fleet_alerts=" << fleet_alerts
                  << "\n";
    }

    std::cout << "\nBENCH_scale_threads=" << threads << "\n"
              << "BENCH_scale_instances=" << corpus.instances().size()
              << "\n"
              << "BENCH_scale_waitgraph_speedup="
              << speedup(graphs_serial_ms, graphs_parallel_ms) << "\n"
              << "BENCH_scale_impact_speedup="
              << speedup(impact_serial_ms, impact_parallel_ms) << "\n"
              << "BENCH_scale_scenario_speedup="
              << speedup(scn_serial_ms, scn_parallel_ms) << "\n"
              << "BENCH_scale_pipeline_speedup="
              << speedup(pipeline_serial, pipeline_parallel) << "\n"
              << "BENCH_scale_telemetry_overhead_pct="
              << telemetry_overhead_pct << "\n"
              << "BENCH_scale_server_warm_rps=" << warm_rps << "\n"
              << "BENCH_scale_server_warm_speedup_p50="
              << warm_speedup_p50 << "\n"
              << "BENCH_scale_proto_wire_ratio=" << wire_ratio << "\n"
              << "BENCH_scale_proto_multiplex_speedup_p95="
              << multiplex_speedup << "\n"
              << "BENCH_scale_obs_tracing_overhead_pct="
              << obs_overhead_pct << "\n"
              << "BENCH_scale_cluster_speedup=" << cluster_speedup
              << "\n";
    std::cout << "(speedups track the worker count on multicore "
                 "hardware; on a single hardware thread they stay "
                 "near 1.0)\n";
    return 0;
}
