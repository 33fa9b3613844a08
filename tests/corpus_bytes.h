/**
 * @file
 * Test helper: decode an in-memory TLC1 image — what writeCorpus()
 * put into a string stream — through the checked parser, failing the
 * calling test on a decode error instead of exiting.
 */

#ifndef TRACELENS_TESTS_CORPUS_BYTES_H
#define TRACELENS_TESTS_CORPUS_BYTES_H

#include <span>
#include <string>

#include <gtest/gtest.h>

#include "src/trace/serialize.h"

namespace tracelens
{

inline TraceCorpus
decodeCorpusBytes(const std::string &bytes)
{
    Expected<TraceCorpus> corpus =
        parseCorpus(std::as_bytes(std::span(bytes)), "<buffer>");
    if (!corpus.ok()) {
        ADD_FAILURE() << corpus.error().render();
        return TraceCorpus();
    }
    return std::move(corpus.value());
}

} // namespace tracelens

#endif // TRACELENS_TESTS_CORPUS_BYTES_H
