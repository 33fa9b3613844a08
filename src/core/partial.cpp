/**
 * @file
 * The partial-result merge layer: accumulator semantics (the exact
 * folds the serial pipeline performs, factored out so every reduction
 * path shares them) and the versioned TLP1 wire codec for the
 * cross-machine bundles.
 */

#include "src/core/partial.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/util/logging.h"

namespace tracelens
{

namespace
{

constexpr char kPartialMagic[4] = {'T', 'L', 'P', '1'};
constexpr std::uint32_t kPartialRevision = 1;

constexpr std::uint8_t kKindScenario = 1;
constexpr std::uint8_t kKindImpact = 2;

SourceError
corrupt(std::string_view what)
{
    return SourceError{"<partial>", 0,
                       "corrupt partial encoding: " + std::string(what)};
}

void
putString(std::string &out, std::string_view text)
{
    putU32(out, static_cast<std::uint32_t>(text.size()));
    out.append(text.data(), text.size());
}

bool
getString(ByteReader &reader, std::string &out)
{
    const std::uint32_t size = reader.u32();
    if (reader.failed() || !reader.countFits(size, 1))
        return false;
    return reader.bytes(out, size);
}

} // namespace

std::uint32_t
partialEncodingRevision()
{
    return kPartialRevision;
}

// ---------------------------------------------------------------- impact

void
PartialImpact::absorbInstance(const ImpactContribution &contribution)
{
    ++instances_;
    dScn_ += contribution.dScn;
    dRun_ += contribution.dRun;
    for (const auto &[ref, cost] : contribution.waitHits) {
        dWait_ += cost;
        if (seen_.insert(ref).second) {
            dWaitDist_ += cost;
            distinct_.emplace_back(ref, cost);
        }
    }
}

void
PartialImpact::merge(const PartialImpact &other)
{
    instances_ += other.instances_;
    dScn_ += other.dScn_;
    dRun_ += other.dRun_;
    dWait_ += other.dWait_;
    // Replay the other side's first-seen sequence through this
    // accumulator's seen-set: a wait the prefix already counted stays
    // counted once, exactly as the sequential fold would have it.
    for (const auto &[ref, cost] : other.distinct_) {
        if (seen_.insert(ref).second) {
            dWaitDist_ += cost;
            distinct_.emplace_back(ref, cost);
        }
    }
}

ImpactResult
PartialImpact::finalize() const
{
    ImpactResult result;
    result.instances = static_cast<std::size_t>(instances_);
    result.dScn = dScn_;
    result.dWait = dWait_;
    result.dRun = dRun_;
    result.dWaitDist = dWaitDist_;
    return result;
}

void
PartialImpact::rebaseStreams(std::uint32_t base)
{
    if (base == 0)
        return;
    seen_.clear();
    for (auto &[ref, cost] : distinct_) {
        ref.stream += base;
        seen_.insert(ref);
    }
}

void
PartialImpact::encode(std::string &out) const
{
    putU64(out, instances_);
    putI64(out, dScn_);
    putI64(out, dWait_);
    putI64(out, dRun_);
    putI64(out, dWaitDist_);
    putU64(out, static_cast<std::uint64_t>(distinct_.size()));
    for (const auto &[ref, cost] : distinct_) {
        putU32(out, ref.stream);
        putU32(out, ref.index);
        putI64(out, cost);
    }
}

bool
PartialImpact::decode(ByteReader &reader, PartialImpact &out)
{
    out = PartialImpact{};
    out.instances_ = reader.u64();
    out.dScn_ = reader.i64();
    out.dWait_ = reader.i64();
    out.dRun_ = reader.i64();
    out.dWaitDist_ = reader.i64();
    const std::uint64_t count = reader.u64();
    if (reader.failed() || !reader.countFits(count, 4 + 4 + 8))
        return false;
    out.distinct_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        EventRef ref;
        ref.stream = reader.u32();
        ref.index = reader.u32();
        const DurationNs cost = reader.i64();
        if (reader.failed())
            return false;
        if (!out.seen_.insert(ref).second)
            return false; // duplicates violate the first-seen contract
        out.distinct_.emplace_back(ref, cost);
    }
    return !reader.failed();
}

// ------------------------------------------------------------------- awg

PartialAwg::PartialAwg() = default;
PartialAwg::PartialAwg(PartialAwg &&) noexcept = default;
PartialAwg &PartialAwg::operator=(PartialAwg &&) noexcept = default;
PartialAwg::PartialAwg(const PartialAwg &) = default;
PartialAwg &PartialAwg::operator=(const PartialAwg &) = default;
PartialAwg::~PartialAwg() = default;

std::uint32_t
PartialAwg::absorbAggregated(std::uint32_t parent, const AwgKey &key,
                             DurationNs cost, std::uint64_t count,
                             DurationNs maxCost)
{
    // Lookup entries store node index + 1 so that the map's
    // default-constructed 0 means "absent".
    std::uint32_t id;
    std::uint32_t &encoded = lookup_[parent][key];
    if (encoded == 0) {
        id = static_cast<std::uint32_t>(awg_.nodes_.size());
        awg_.nodes_.emplace_back();
        awg_.nodes_.back().key = key;
        parents_.push_back(parent);
        encoded = id + 1;
        if (parent == kInvalidIndex)
            awg_.roots_.push_back(id);
        else
            awg_.nodes_[parent].children.push_back(id);
    } else {
        id = encoded - 1;
    }

    AggregatedWaitGraph::Node &merged = awg_.nodes_[id];
    merged.cost += cost;
    merged.count += count;
    merged.maxCost = std::max(merged.maxCost, maxCost);
    return id;
}

void
PartialAwg::absorb(const AwgFragment &fragment)
{
    // A fragment node's parent precedes it, so its trie node is mapped
    // by the time the child arrives.
    std::vector<std::uint32_t> map(fragment.nodes.size());
    for (std::size_t i = 0; i < fragment.nodes.size(); ++i) {
        const AwgFragment::Node &node = fragment.nodes[i];
        const std::uint32_t parent = node.parent == kInvalidIndex
                                         ? kInvalidIndex
                                         : map[node.parent];
        map[i] = absorbAggregated(parent, node.key, node.cost, 1,
                                  node.cost);
    }
    ++awg_.sourceGraphs_;
}

void
PartialAwg::merge(const PartialAwg &other)
{
    // Replay the other trie's nodes in creation order. A node's parent
    // always has a smaller index, so the parent's mapping is resolved
    // by the time its children arrive — one forward pass reproduces
    // the first-encounter layout of absorbing both inputs' source
    // graphs sequentially.
    std::vector<std::uint32_t> map(other.awg_.nodes_.size());
    for (std::uint32_t i = 0; i < other.awg_.nodes_.size(); ++i) {
        const AggregatedWaitGraph::Node &node = other.awg_.nodes_[i];
        const std::uint32_t their_parent = other.parents_[i];
        const std::uint32_t parent = their_parent == kInvalidIndex
                                         ? kInvalidIndex
                                         : map[their_parent];
        map[i] = absorbAggregated(parent, node.key, node.cost,
                                  node.count, node.maxCost);
    }
    awg_.sourceGraphs_ += other.awg_.sourceGraphs_;
}

AggregatedWaitGraph
PartialAwg::finalize(bool reduce)
{
    lookup_.clear();
    parents_.clear();
    AggregatedWaitGraph awg = std::move(awg_);
    awg_ = AggregatedWaitGraph{};
    if (!reduce)
        return awg;

    // The non-optimizable reduction (Algorithm 1 step 4): prune root
    // waiting nodes whose cost is pure non-propagated hardware time.
    // Applied exactly once, over the fully merged trie — a root that
    // looks prunable within one shard may gain component children from
    // another, which is why partials stay unreduced.
    std::vector<std::uint32_t> kept_roots;
    std::vector<char> removed(awg.nodes_.size(), 0);
    for (std::uint32_t root : awg.roots_) {
        const auto &n = awg.nodes_[root];
        std::size_t hardware_leaves = 0;
        for (std::uint32_t child : n.children) {
            const auto &c = awg.nodes_[child];
            if (c.key.status == AwgStatus::Hardware && c.children.empty())
                ++hardware_leaves;
        }
        if (prunableRoot(n.key, n.children.size(), hardware_leaves)) {
            awg.reducedCost_ += n.cost;
            awg.reducedNodes_ += 1 + n.children.size();
            removed[root] = 1;
            for (std::uint32_t child : n.children)
                removed[child] = 1;
        } else {
            kept_roots.push_back(root);
        }
    }
    if (awg.reducedNodes_ == 0)
        return awg;

    // Compact the node vector, dropping pruned structures.
    std::vector<std::uint32_t> remap(awg.nodes_.size(), kInvalidIndex);
    std::vector<AggregatedWaitGraph::Node> compacted;
    compacted.reserve(awg.nodes_.size());
    for (std::uint32_t i = 0; i < awg.nodes_.size(); ++i) {
        if (removed[i])
            continue;
        remap[i] = static_cast<std::uint32_t>(compacted.size());
        compacted.push_back(std::move(awg.nodes_[i]));
    }
    for (auto &n : compacted) {
        for (auto &child : n.children)
            child = remap[child];
    }
    for (auto &root : kept_roots)
        root = remap[root];
    awg.nodes_ = std::move(compacted);
    awg.roots_ = std::move(kept_roots);
    return awg;
}

void
PartialAwg::remapFrames(std::span<const FrameId> remap)
{
    auto translate = [&](FrameId frame) {
        if (frame == kNoFrame)
            return kNoFrame;
        return frame < remap.size() ? remap[frame] : kNoFrame;
    };
    for (AggregatedWaitGraph::Node &node : awg_.nodes_) {
        node.key.primary = translate(node.key.primary);
        node.key.secondary = translate(node.key.secondary);
    }
    // Keys changed identity; rebuild the (parent, key) lookup. The
    // remap is injective over interned frames, so no two siblings
    // collapse onto one key.
    lookup_.clear();
    for (std::uint32_t i = 0; i < awg_.nodes_.size(); ++i)
        lookup_[parents_[i]][awg_.nodes_[i].key] = i + 1;
}

void
PartialAwg::encode(std::string &out) const
{
    // Parent-per-node layout: children lists and roots are recoverable
    // by one forward pass (creation order == sibling order), and the
    // decoder gets the parents_ array it needs for merge() for free.
    putU64(out, static_cast<std::uint64_t>(awg_.nodes_.size()));
    for (std::uint32_t i = 0; i < awg_.nodes_.size(); ++i) {
        const AggregatedWaitGraph::Node &node = awg_.nodes_[i];
        putU8(out, static_cast<std::uint8_t>(node.key.status));
        putU32(out, node.key.primary);
        putU32(out, node.key.secondary);
        putI64(out, node.cost);
        putU64(out, node.count);
        putI64(out, node.maxCost);
        putU32(out, parents_[i]);
    }
    putU64(out, static_cast<std::uint64_t>(awg_.sourceGraphs_));
}

bool
PartialAwg::decode(ByteReader &reader, PartialAwg &out)
{
    out = PartialAwg{};
    const std::uint64_t count = reader.u64();
    if (reader.failed() ||
        !reader.countFits(count, 1 + 4 + 4 + 8 + 8 + 8 + 4))
        return false;
    out.awg_.nodes_.reserve(count);
    out.parents_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        AggregatedWaitGraph::Node node;
        const std::uint8_t status = reader.u8();
        if (status > static_cast<std::uint8_t>(AwgStatus::Hardware))
            return false;
        node.key.status = static_cast<AwgStatus>(status);
        node.key.primary = reader.u32();
        node.key.secondary = reader.u32();
        node.cost = reader.i64();
        node.count = reader.u64();
        node.maxCost = reader.i64();
        const std::uint32_t parent = reader.u32();
        if (reader.failed())
            return false;
        if (parent != kInvalidIndex && parent >= i)
            return false; // parents precede children, always
        out.parents_.push_back(parent);
        if (parent == kInvalidIndex)
            out.awg_.roots_.push_back(static_cast<std::uint32_t>(i));
        else
            out.awg_.nodes_[parent].children.push_back(
                static_cast<std::uint32_t>(i));
        out.awg_.nodes_.push_back(std::move(node));
        std::uint32_t &encoded =
            out.lookup_[parent][out.awg_.nodes_.back().key];
        if (encoded != 0)
            return false; // duplicate (parent, key): not a trie
        encoded = static_cast<std::uint32_t>(i) + 1;
    }
    out.awg_.sourceGraphs_ =
        static_cast<std::size_t>(reader.u64());
    return !reader.failed();
}

// ------------------------------------------------- cross-machine bundles

void
ScenarioPartial::remapFrames(SymbolTable &symbols)
{
    std::vector<FrameId> remap;
    remap.reserve(frames.size());
    for (const std::string &name : frames)
        remap.push_back(symbols.internFrame(name));
    awgFast.remapFrames(remap);
    awgSlow.remapFrames(remap);
}

void
ScenarioFold::add(ScenarioPartial &partial)
{
    partial.remapFrames(symbols);
    classes.merge(partial.classes);
    partial.slowImpact.rebaseStreams(streams);
    slowImpact.merge(partial.slowImpact);
    awgFast.merge(partial.awgFast);
    awgSlow.merge(partial.awgSlow);
    streams += partial.streamCount;
}

void
ImpactPartial::rebaseStreams(std::uint32_t base)
{
    all.rebaseStreams(base);
    for (auto &[name, partial] : perScenario)
        partial.rebaseStreams(base);
}

namespace
{

void
putEnvelope(std::string &out, std::uint8_t kind)
{
    out.append(kPartialMagic, 4);
    putU32(out, kPartialRevision);
    putU8(out, kind);
}

/** Check magic + revision + kind; distinguishes the revision case. */
Expected<bool>
openEnvelope(const std::string &bytes, ByteReader &reader,
             std::uint8_t kind)
{
    if (bytes.size() < 9 ||
        std::memcmp(bytes.data(), kPartialMagic, 4) != 0)
        return corrupt("bad magic");
    reader.u32(); // magic, already checked
    const std::uint32_t revision = reader.u32();
    if (revision != kPartialRevision) {
        return SourceError{
            "<partial>", 0,
            "partial encoding revision mismatch: peer speaks " +
                std::to_string(revision) + ", this build speaks " +
                std::to_string(kPartialRevision)};
    }
    if (reader.u8() != kind)
        return corrupt("unexpected payload kind");
    return true;
}

void
encodeClasses(std::string &out, const PartialClasses &classes)
{
    putU64(out, classes.fast);
    putU64(out, classes.middle);
    putU64(out, classes.slow);
    putI64(out, classes.slowDuration);
}

bool
decodeClasses(ByteReader &reader, PartialClasses &out)
{
    out.fast = reader.u64();
    out.middle = reader.u64();
    out.slow = reader.u64();
    out.slowDuration = reader.i64();
    return !reader.failed();
}

} // namespace

std::string
encodeScenarioPartial(const ScenarioPartial &partial)
{
    std::string out;
    putEnvelope(out, kKindScenario);
    putU64(out, static_cast<std::uint64_t>(partial.frames.size()));
    for (const std::string &name : partial.frames)
        putString(out, name);
    putU32(out, partial.streamCount);
    encodeClasses(out, partial.classes);
    partial.slowImpact.encode(out);
    partial.awgFast.encode(out);
    partial.awgSlow.encode(out);
    return out;
}

Expected<ScenarioPartial>
decodeScenarioPartial(const std::string &bytes)
{
    ByteReader reader(bytes);
    Expected<bool> envelope =
        openEnvelope(bytes, reader, kKindScenario);
    if (!envelope)
        return envelope.error();

    ScenarioPartial partial;
    const std::uint64_t frame_count = reader.u64();
    if (reader.failed() || !reader.countFits(frame_count, 4))
        return corrupt("frame table");
    partial.frames.reserve(frame_count);
    for (std::uint64_t i = 0; i < frame_count; ++i) {
        std::string name;
        if (!getString(reader, name))
            return corrupt("frame name");
        partial.frames.push_back(std::move(name));
    }
    partial.streamCount = reader.u32();
    if (!decodeClasses(reader, partial.classes))
        return corrupt("classes");
    if (!PartialImpact::decode(reader, partial.slowImpact))
        return corrupt("impact");
    if (!PartialAwg::decode(reader, partial.awgFast))
        return corrupt("fast AWG");
    if (!PartialAwg::decode(reader, partial.awgSlow))
        return corrupt("slow AWG");
    if (reader.failed() || !reader.atEnd())
        return corrupt("trailing bytes");
    return partial;
}

std::string
encodeImpactPartial(const ImpactPartial &partial)
{
    std::string out;
    putEnvelope(out, kKindImpact);
    putU32(out, partial.streamCount);
    partial.all.encode(out);
    putU64(out,
           static_cast<std::uint64_t>(partial.perScenario.size()));
    for (const auto &[name, impact] : partial.perScenario) {
        putString(out, name);
        impact.encode(out);
    }
    return out;
}

Expected<ImpactPartial>
decodeImpactPartial(const std::string &bytes)
{
    ByteReader reader(bytes);
    Expected<bool> envelope = openEnvelope(bytes, reader, kKindImpact);
    if (!envelope)
        return envelope.error();

    ImpactPartial partial;
    partial.streamCount = reader.u32();
    if (!PartialImpact::decode(reader, partial.all))
        return corrupt("impact");
    const std::uint64_t scenario_count = reader.u64();
    if (reader.failed() || !reader.countFits(scenario_count, 4))
        return corrupt("scenario table");
    partial.perScenario.reserve(scenario_count);
    for (std::uint64_t i = 0; i < scenario_count; ++i) {
        std::string name;
        if (!getString(reader, name))
            return corrupt("scenario name");
        PartialImpact impact;
        if (!PartialImpact::decode(reader, impact))
            return corrupt("scenario impact");
        partial.perScenario.emplace_back(std::move(name),
                                         std::move(impact));
    }
    if (reader.failed() || !reader.atEnd())
        return corrupt("trailing bytes");
    return partial;
}

// ----------------------------------------------------------------- base64

namespace
{

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

} // namespace

std::string
base64Encode(std::string_view bytes)
{
    std::string out;
    out.reserve((bytes.size() + 2) / 3 * 4);
    std::size_t i = 0;
    for (; i + 3 <= bytes.size(); i += 3) {
        const std::uint32_t v =
            (static_cast<unsigned char>(bytes[i]) << 16) |
            (static_cast<unsigned char>(bytes[i + 1]) << 8) |
            static_cast<unsigned char>(bytes[i + 2]);
        out.push_back(kBase64Alphabet[(v >> 18) & 63]);
        out.push_back(kBase64Alphabet[(v >> 12) & 63]);
        out.push_back(kBase64Alphabet[(v >> 6) & 63]);
        out.push_back(kBase64Alphabet[v & 63]);
    }
    const std::size_t rest = bytes.size() - i;
    if (rest == 1) {
        const std::uint32_t v = static_cast<unsigned char>(bytes[i])
                                << 16;
        out.push_back(kBase64Alphabet[(v >> 18) & 63]);
        out.push_back(kBase64Alphabet[(v >> 12) & 63]);
        out.push_back('=');
        out.push_back('=');
    } else if (rest == 2) {
        const std::uint32_t v =
            (static_cast<unsigned char>(bytes[i]) << 16) |
            (static_cast<unsigned char>(bytes[i + 1]) << 8);
        out.push_back(kBase64Alphabet[(v >> 18) & 63]);
        out.push_back(kBase64Alphabet[(v >> 12) & 63]);
        out.push_back(kBase64Alphabet[(v >> 6) & 63]);
        out.push_back('=');
    }
    return out;
}

std::optional<std::string>
base64Decode(std::string_view text)
{
    if (text.size() % 4 != 0)
        return std::nullopt;
    static const auto value = [] {
        std::array<std::int8_t, 256> table;
        table.fill(-1);
        for (int i = 0; i < 64; ++i)
            table[static_cast<unsigned char>(kBase64Alphabet[i])] =
                static_cast<std::int8_t>(i);
        return table;
    }();

    std::string out;
    out.reserve(text.size() / 4 * 3);
    for (std::size_t i = 0; i < text.size(); i += 4) {
        int pad = 0;
        std::uint32_t v = 0;
        for (int j = 0; j < 4; ++j) {
            const char c = text[i + j];
            if (c == '=') {
                // Padding only in the last two positions of the final
                // quantum, and nothing may follow it.
                if (i + 4 != text.size() || j < 2 ||
                    (j == 2 && text[i + 3] != '='))
                    return std::nullopt;
                ++pad;
                v <<= 6;
                continue;
            }
            const std::int8_t digit =
                value[static_cast<unsigned char>(c)];
            if (digit < 0 || pad > 0)
                return std::nullopt;
            v = (v << 6) | static_cast<std::uint32_t>(digit);
        }
        out.push_back(static_cast<char>((v >> 16) & 0xFF));
        if (pad < 2)
            out.push_back(static_cast<char>((v >> 8) & 0xFF));
        if (pad < 1)
            out.push_back(static_cast<char>(v & 0xFF));
    }
    return out;
}

} // namespace tracelens
