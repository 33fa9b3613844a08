/**
 * @file
 * Rolling-window shard ring and partial re-merge (src/fleet/windows.h).
 */

#include "src/fleet/windows.h"

#include <algorithm>
#include <utility>

#include "src/util/telemetry.h"

namespace tracelens
{

WindowedAnalyzer::ShardEntry::ShardEntry(std::string name,
                                         std::uint64_t timestampNs,
                                         TraceCorpus corpus,
                                         const AnalyzerConfig &config)
    : name(std::move(name)), timestampNs(timestampNs),
      source(std::move(corpus)), analyzer(source, config)
{
}

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
                                    [&](const auto &entry) {
                                        return entry->name == name;
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
    windows_[id].push_back(std::make_unique<ShardEntry>(
        std::move(name), timestampNs, std::move(corpus), config_.analyzer));
    return id;
}

std::vector<std::string>
WindowedAnalyzer::evictExpired()
{
    std::vector<std::string> evicted;
    while (windows_.size() > config_.maxWindows) {
        auto oldest = windows_.begin();
        for (const auto &entry : oldest->second)
            evicted.push_back(entry->name);
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
        for (const auto &entry : shards) {
            if (info.shards != 0 &&
                (info.firstTimestampNs == 0 ||
                 entry->timestampNs < info.firstTimestampNs))
                info.firstTimestampNs = entry->timestampNs;
            info.lastTimestampNs =
                std::max(info.lastTimestampNs, entry->timestampNs);
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
        for (const auto &entry : it->second)
            selected.push_back(entry.get());
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

    // The coordinator's gather fold, run locally over each shard's
    // partial, which its Analyzer folds from kept summaries.
    ScenarioFold fold;
    for (const ShardEntry *entry : selected) {
        ScenarioPartial partial =
            entry->analyzer.scenarioPartial(scenario, tFast, tSlow);
        if (entry->analyzer.corpus().findScenario(scenario) != UINT32_MAX)
            out.scenarioFound = true;
        fold.add(partial);
    }

    const ImpactResult impact = fold.slowImpact.finalize();
    const AggregatedWaitGraph fast =
        std::move(fold.awgFast).finalize(true);
    const AggregatedWaitGraph slow =
        std::move(fold.awgSlow).finalize(true);
    out.symbols = std::move(fold.symbols);
    out.summary = summarizeScenario(scenario, tFast, tSlow, fold.classes,
                                    impact, fast, slow, out.symbols,
                                    top, applyKnowledgeFilter);
    return out;
}

} // namespace tracelens
