/**
 * @file
 * Symbol table: function-signature frames and interned callstacks.
 *
 * Frames follow the Windows convention "module!Function", e.g.
 * "fv.sys!QueryFileTable". The *component* of a frame is the module part
 * before '!' ("fv.sys"); frames with no '!' (such as the hardware-service
 * dummy signatures "DiskService") are their own component. Callstacks are
 * stored bottom-to-top: index 0 is the outermost caller and back() is the
 * topmost (innermost) frame.
 */

#ifndef TRACELENS_TRACE_SYMBOLS_H
#define TRACELENS_TRACE_SYMBOLS_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/interner.h"
#include "src/util/types.h"
#include "src/util/wildcard.h"

namespace tracelens
{

/**
 * Per-corpus table interning frames and callstacks.
 *
 * The analyses work on ids only; names are resolved back for reporting.
 */
class SymbolTable
{
  public:
    SymbolTable() = default;

    // frameIndex_ keys are string_views into names_'s storage; a
    // memberwise copy would leave them viewing the source table.
    // The copy rebuilds the index from its own interner, and moves
    // are noexcept so containers of corpora relocate by move.
    SymbolTable(const SymbolTable &other);
    SymbolTable &operator=(const SymbolTable &other);
    SymbolTable(SymbolTable &&) noexcept = default;
    SymbolTable &operator=(SymbolTable &&) noexcept = default;

    /** Intern a frame like "fs.sys!AcquireMDU"; idempotent. */
    FrameId internFrame(std::string_view signature);

    /** Full "module!Function" name of a frame. */
    const std::string &frameName(FrameId frame) const;

    /** Component (module) name of a frame, e.g. "fs.sys". */
    const std::string &componentName(FrameId frame) const;

    /** Interned id of a frame's component, for cheap comparisons. */
    std::uint32_t componentId(FrameId frame) const;

    /**
     * Intern a callstack given bottom-to-top frames; identical stacks
     * share one id.
     */
    CallstackId internStack(std::span<const FrameId> frames);

    /** Frames of a stack, bottom-to-top. */
    std::span<const FrameId> stackFrames(CallstackId stack) const;

    /**
     * The *signature* of a callstack with respect to a component filter:
     * the topmost frame whose component matches (paper, Definition 2's
     * preamble). Returns kNoFrame when no frame matches.
     */
    FrameId topMatchingFrame(CallstackId stack,
                             const NameFilter &filter) const;

    /**
     * topMatchingFrame against a match column primeFilter() returned:
     * no filter lookup, for loops that resolve many stacks.
     */
    FrameId topMatchingFrame(CallstackId stack,
                             std::span<const char> matches) const;

    /** True iff any frame on @p stack belongs to a matching component. */
    bool stackTouches(CallstackId stack, const NameFilter &filter) const;

    /**
     * Precompute filter matches for all known frames (idempotent) and
     * return the filter's match column, nonzero where the frame's
     * component matches. The column stays valid and complete until a
     * frame is interned.
     */
    std::span<const char> primeFilter(const NameFilter &filter) const;

    std::size_t frameCount() const { return frames_.size(); }
    std::size_t stackCount() const { return stacks_.size(); }

    /** Render a stack for debugging, topmost frame first. */
    std::string renderStack(CallstackId stack) const;

  private:
    struct FrameInfo
    {
        std::uint32_t name;      // index into names_
        std::uint32_t component; // index into components_
    };

    struct StackKey
    {
        std::span<const FrameId> frames;
    };

    StringInterner names_;
    StringInterner components_;
    std::vector<FrameInfo> frames_;
    std::unordered_map<std::string_view, FrameId> frameIndex_;

    // Stacks are stored as slices of one pooled frame vector to keep
    // allocation count low.
    std::vector<FrameId> framePool_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> stacks_;
    std::unordered_map<std::uint64_t, std::vector<CallstackId>>
        stackIndex_;

    // Cache of per-filter frame matches, keyed by the filter's rendered
    // pattern list. Mutable: priming is a pure optimization.
    mutable std::unordered_map<std::string, std::vector<char>>
        filterCache_;

    static std::uint64_t hashFrames(std::span<const FrameId> frames);
};

} // namespace tracelens

#endif // TRACELENS_TRACE_SYMBOLS_H
