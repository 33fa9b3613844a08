/**
 * @file
 * Rolling-window shard ring and partial re-merge (src/fleet/windows.h).
 */

#include "src/fleet/windows.h"

#include <algorithm>
#include <utility>

#include "src/trace/source.h"
#include "src/util/telemetry.h"

namespace tracelens
{

WindowedAnalyzer::WindowedAnalyzer(FleetWindowConfig config)
    : config_(std::move(config))
{
    if (config_.windowNs == 0)
        config_.windowNs = 1;
    if (config_.maxWindows == 0)
        config_.maxWindows = 1;
}

std::uint64_t
WindowedAnalyzer::windowOf(std::uint64_t timestampNs) const
{
    return timestampNs / config_.windowNs;
}

std::uint64_t
WindowedAnalyzer::addShard(std::string name, TraceCorpus corpus,
                           std::uint64_t timestampNs)
{
    // A re-pushed name replaces its previous corpus wherever it
    // lives — names are the merge-order identity, so one name must
    // never contribute twice.
    for (auto &[id, shards] : windows_) {
        shards.erase(std::remove_if(shards.begin(), shards.end(),
                                    [&](const ShardEntry &entry) {
                                        return entry.name == name;
                                    }),
                     shards.end());
    }
    for (auto it = windows_.begin(); it != windows_.end();) {
        if (it->second.empty())
            it = windows_.erase(it);
        else
            ++it;
    }

    const std::uint64_t id = windowOf(timestampNs);
    ShardEntry entry;
    entry.name = std::move(name);
    entry.timestampNs = timestampNs;
    entry.corpus = std::move(corpus);
    windows_[id].push_back(std::move(entry));
    return id;
}

std::vector<std::string>
WindowedAnalyzer::evictExpired()
{
    std::vector<std::string> evicted;
    while (windows_.size() > config_.maxWindows) {
        auto oldest = windows_.begin();
        for (const ShardEntry &entry : oldest->second)
            evicted.push_back(entry.name);
        windows_.erase(oldest);
    }
    if (!evicted.empty()) {
        MetricsRegistry::global()
            .counter("fleet.evicted_shards")
            .add(evicted.size());
    }
    return evicted;
}

std::vector<WindowInfo>
WindowedAnalyzer::windows() const
{
    std::vector<WindowInfo> out;
    out.reserve(windows_.size());
    for (const auto &[id, shards] : windows_) {
        WindowInfo info;
        info.id = id;
        info.shards = shards.size();
        for (const ShardEntry &entry : shards) {
            if (info.shards != 0 &&
                (info.firstTimestampNs == 0 ||
                 entry.timestampNs < info.firstTimestampNs))
                info.firstTimestampNs = entry.timestampNs;
            info.lastTimestampNs =
                std::max(info.lastTimestampNs, entry.timestampNs);
        }
        out.push_back(info);
    }
    return out;
}

std::optional<std::uint64_t>
WindowedAnalyzer::currentWindow() const
{
    if (windows_.empty())
        return std::nullopt;
    return windows_.rbegin()->first;
}

std::vector<std::uint64_t>
WindowedAnalyzer::trailingWindows(std::size_t n) const
{
    std::vector<std::uint64_t> ids = allWindows();
    if (ids.size() > n)
        ids.erase(ids.begin(),
                  ids.begin() +
                      static_cast<std::ptrdiff_t>(ids.size() - n));
    return ids;
}

std::vector<std::uint64_t>
WindowedAnalyzer::allWindows() const
{
    std::vector<std::uint64_t> ids;
    ids.reserve(windows_.size());
    for (const auto &[id, shards] : windows_)
        ids.push_back(id);
    return ids;
}

std::size_t
WindowedAnalyzer::shardCount() const
{
    std::size_t count = 0;
    for (const auto &[id, shards] : windows_)
        count += shards.size();
    return count;
}

const ScenarioPartial &
WindowedAnalyzer::shardPartial(const ShardEntry &entry,
                               const std::string &scenario,
                               DurationNs tFast, DurationNs tSlow) const
{
    const auto key = std::make_tuple(scenario, tFast, tSlow);
    auto it = entry.partials.find(key);
    if (it != entry.partials.end())
        return it->second;

    // Transient single-shard analyzer; the partial is what we keep.
    EagerSource source(entry.corpus);
    Analyzer analyzer(source, config_.analyzer);
    ScenarioPartial partial =
        analyzer.scenarioPartial(scenario, tFast, tSlow);
    return entry.partials.emplace(key, std::move(partial))
        .first->second;
}

WindowScenarioSummary
WindowedAnalyzer::summarize(const std::vector<std::uint64_t> &windowIds,
                            const std::string &scenario,
                            DurationNs tFast, DurationNs tSlow,
                            std::size_t top,
                            bool applyKnowledgeFilter) const
{
    WindowScenarioSummary out;

    // Collect the selection's shards and restore canonical merge
    // order: sorted by name, exactly the filename order a batch
    // openSource() over the same files would use.
    std::vector<const ShardEntry *> selected;
    for (std::uint64_t id : windowIds) {
        auto it = windows_.find(id);
        if (it == windows_.end())
            continue;
        out.windows.push_back(id);
        for (const ShardEntry &entry : it->second)
            selected.push_back(&entry);
    }
    std::sort(out.windows.begin(), out.windows.end());
    out.windows.erase(
        std::unique(out.windows.begin(), out.windows.end()),
        out.windows.end());
    std::sort(selected.begin(), selected.end(),
              [](const ShardEntry *a, const ShardEntry *b) {
                  return a->name < b->name;
              });
    out.shards = selected.size();

    // The coordinator's gather fold (Coordinator::gatherScenario),
    // run locally over cached partials.
    PartialClasses classes;
    PartialImpact slowImpact;
    PartialAwg awgFast;
    PartialAwg awgSlow;
    std::uint32_t streams = 0;
    for (const ShardEntry *entry : selected) {
        ScenarioPartial partial =
            shardPartial(*entry, scenario, tFast, tSlow);
        if (entry->corpus.findScenario(scenario) != UINT32_MAX)
            out.scenarioFound = true;
        partial.remapFrames(out.symbols);
        classes.merge(partial.classes);
        partial.slowImpact.rebaseStreams(streams);
        slowImpact.merge(partial.slowImpact);
        awgFast.merge(partial.awgFast);
        awgSlow.merge(partial.awgSlow);
        streams += partial.streamCount;
    }

    const ImpactResult impact = slowImpact.finalize();
    const AggregatedWaitGraph fast = std::move(awgFast).finalize(true);
    const AggregatedWaitGraph slow = std::move(awgSlow).finalize(true);
    out.summary = summarizeScenario(scenario, tFast, tSlow, classes,
                                    impact, fast, slow, out.symbols,
                                    top, applyKnowledgeFilter);
    return out;
}

} // namespace tracelens
