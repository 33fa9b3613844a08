/**
 * @file
 * Symbol table implementation: frame/stack interning, component
 * extraction, and the per-filter match cache primed by the Analyzer.
 */

#include "src/trace/symbols.h"

#include <algorithm>

#include "src/util/logging.h"

namespace tracelens
{

SymbolTable::SymbolTable(const SymbolTable &other)
    : names_(other.names_), components_(other.components_),
      frames_(other.frames_), framePool_(other.framePool_),
      stacks_(other.stacks_), stackIndex_(other.stackIndex_),
      filterCache_(other.filterCache_)
{
    frameIndex_.reserve(frames_.size());
    for (std::size_t f = 0; f < frames_.size(); ++f)
        frameIndex_.emplace(
            std::string_view(names_.lookup(frames_[f].name)),
            static_cast<FrameId>(f));
}

SymbolTable &
SymbolTable::operator=(const SymbolTable &other)
{
    if (this != &other) {
        SymbolTable copy(other);
        *this = std::move(copy);
    }
    return *this;
}

FrameId
SymbolTable::internFrame(std::string_view signature)
{
    auto it = frameIndex_.find(signature);
    if (it != frameIndex_.end())
        return it->second;

    const std::uint32_t name_id = names_.intern(signature);
    const auto bang = signature.find('!');
    const std::string_view component =
        bang == std::string_view::npos ? signature
                                       : signature.substr(0, bang);
    const std::uint32_t comp_id = components_.intern(component);

    const auto frame = static_cast<FrameId>(frames_.size());
    frames_.push_back({name_id, comp_id});
    frameIndex_.emplace(std::string_view(names_.lookup(name_id)), frame);
    return frame;
}

const std::string &
SymbolTable::frameName(FrameId frame) const
{
    TL_ASSERT(frame < frames_.size(), "bad frame id ", frame);
    return names_.lookup(frames_[frame].name);
}

const std::string &
SymbolTable::componentName(FrameId frame) const
{
    TL_ASSERT(frame < frames_.size(), "bad frame id ", frame);
    return components_.lookup(frames_[frame].component);
}

std::uint32_t
SymbolTable::componentId(FrameId frame) const
{
    TL_ASSERT(frame < frames_.size(), "bad frame id ", frame);
    return frames_[frame].component;
}

std::uint64_t
SymbolTable::hashFrames(std::span<const FrameId> frames)
{
    // FNV-1a over the frame ids.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (FrameId f : frames) {
        h ^= f;
        h *= 0x100000001b3ULL;
    }
    return h;
}

CallstackId
SymbolTable::internStack(std::span<const FrameId> frames)
{
    const std::uint64_t h = hashFrames(frames);
    auto &bucket = stackIndex_[h];
    for (CallstackId candidate : bucket) {
        auto existing = stackFrames(candidate);
        if (std::ranges::equal(existing, frames))
            return candidate;
    }

    const auto offset = static_cast<std::uint32_t>(framePool_.size());
    framePool_.insert(framePool_.end(), frames.begin(), frames.end());
    const auto id = static_cast<CallstackId>(stacks_.size());
    stacks_.emplace_back(offset, static_cast<std::uint32_t>(frames.size()));
    bucket.push_back(id);
    return id;
}

std::span<const FrameId>
SymbolTable::stackFrames(CallstackId stack) const
{
    TL_ASSERT(stack < stacks_.size(), "bad stack id ", stack);
    const auto [offset, length] = stacks_[stack];
    return {framePool_.data() + offset, length};
}

std::span<const char>
SymbolTable::primeFilter(const NameFilter &filter) const
{
    std::string key;
    for (const auto &p : filter.patterns()) {
        key += p;
        key += '\x1f';
    }
    auto &matches = filterCache_[key];
    // Extend lazily: frames interned after a previous call get appended.
    for (std::size_t f = matches.size(); f < frames_.size(); ++f) {
        matches.push_back(
            filter.matches(componentName(static_cast<FrameId>(f))) ? 1
                                                                    : 0);
    }
    return matches;
}

FrameId
SymbolTable::topMatchingFrame(CallstackId stack,
                              const NameFilter &filter) const
{
    return topMatchingFrame(stack, primeFilter(filter));
}

FrameId
SymbolTable::topMatchingFrame(CallstackId stack,
                              std::span<const char> matches) const
{
    const auto frames = stackFrames(stack);
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
        if (matches[*it])
            return *it;
    }
    return kNoFrame;
}

bool
SymbolTable::stackTouches(CallstackId stack, const NameFilter &filter) const
{
    return topMatchingFrame(stack, filter) != kNoFrame;
}

std::string
SymbolTable::renderStack(CallstackId stack) const
{
    std::string out;
    const auto frames = stackFrames(stack);
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
        out += frameName(*it);
        out += "\n";
    }
    return out;
}

} // namespace tracelens
