/**
 * @file
 * Internal to src/server/: what the method handlers share. A handler
 * fails by throwing HandlerError (failRequest), checks its deadline
 * cooperatively (checkDeadline), reads its params through the param
 * readers (defined in batchhandlers.cpp), opens its corpus session
 * (openSession) and answers a repeat from the session's response
 * cache (cachedAnswer). Server::process() catches the HandlerError
 * and answers it.
 */

#ifndef TRACELENS_SERVER_HANDLERS_H
#define TRACELENS_SERVER_HANDLERS_H

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/server/protocol.h"
#include "src/server/registry.h"
#include "src/util/hash.h"
#include "src/util/json.h"
#include "src/util/telemetry.h"
#include "src/util/types.h"

namespace tracelens
{
namespace server
{

using Clock = std::chrono::steady_clock;

/** Handler failure routed into one error response. */
struct HandlerError
{
    ErrorCode code;
    std::string message;
};

[[noreturn]] inline void
failRequest(ErrorCode code, std::string message)
{
    throw HandlerError{code, std::move(message)};
}

// ------------------------------------------------- param extraction
// Each fails the request with BadRequest on a missing or ill-typed
// value (batchhandlers.cpp).

std::string stringParam(const JsonValue &params, std::string_view key);
double numberParamOr(const JsonValue &params, std::string_view key,
                     double fallback, std::uint64_t lo, std::uint64_t hi);
DurationNs thresholdParamOr(const JsonValue &params, std::string_view key,
                            double fallbackMs);
bool boolParamOr(const JsonValue &params, std::string_view key,
                 bool fallback);
std::vector<std::string> stringListParam(const JsonValue &params,
                                         std::string_view key);
void resolveThresholds(const JsonValue &params,
                       const std::string &scenario, DurationNs &tFast,
                       DurationNs &tSlow);

inline void
checkDeadline(const std::optional<Clock::time_point> &deadline)
{
    if (deadline && Clock::now() >= *deadline)
        failRequest(ErrorCode::DeadlineExceeded,
                    "deadline elapsed during processing");
}

/** The warm session over @p corpus (NotFound when it cannot be
 *  opened), with the deadline checked once it is open. */
inline SessionRegistry::Handle
openSession(SessionRegistry &registry, const std::string &corpus,
            const std::vector<std::string> &components,
            const std::optional<Clock::time_point> &deadline)
{
    Expected<SessionRegistry::Handle> session =
        registry.acquire(corpus, components);
    if (!session)
        failRequest(ErrorCode::NotFound, session.error().render());
    checkDeadline(deadline);
    return std::move(session.value());
}

/**
 * A cached method's answer for @p session: the answer stored under a
 * digest of @p method and @p params, else what @p render returns,
 * stored. The session fixes the corpus and component filter, so
 * nothing else keys it.
 */
template <typename Render>
std::string
cachedAnswer(CorpusSession &session, Method method, const Digest &params,
             Render &&render)
{
    Digest key;
    key.mix(methodName(method)).mix(params);
    if (auto cached = session.cachedResponse(key)) {
        TL_SPAN("server.response-cache-hit", "server");
        return *cached;
    }
    std::string rendered = render();
    session.cacheResponse(key,
                          std::make_shared<const std::string>(rendered));
    return rendered;
}

} // namespace server
} // namespace tracelens

#endif // TRACELENS_SERVER_HANDLERS_H
