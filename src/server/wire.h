/**
 * @file
 * Protocol-v2 binary framing and the shared symbol dictionary
 * (docs/SERVER.md, "Wire protocol"). Transport-free byte codecs
 * only — the daemon (src/server/server.cpp) and the client Session
 * (src/server/client.cpp) share this single implementation, and the
 * corruption tests drive it directly.
 *
 * ## Framing
 *
 * After the preface exchange, the connection is a sequence of frames:
 *
 *   u32 payload length (LE) | u8 type | u8 flags | u32 stream id (LE)
 *   ... payload bytes ...
 *
 * Streams multiplex concurrent requests on one connection: the client
 * opens a stream per request (odd ids, strictly increasing — the even
 * space is reserved for future server-initiated streams), the server
 * answers on the same stream, and END_STREAM closes it. SETTINGS,
 * GOAWAY, and PING live on stream 0.
 *
 * ## Flow control
 *
 * Response payload bytes are flow-controlled per stream (requests are
 * small and are not): a stream starts with the window the client
 * advertised in SETTINGS, every response frame consumes its payload
 * length, and WINDOW_UPDATE frames add credit. The server chunks a
 * response into frames of at most the peer's max payload and parks
 * the remainder when a window empties, so one huge cold `analyze`
 * response cannot monopolize the connection unboundedly ahead of
 * granted credit.
 *
 * ## Symbol dictionary
 *
 * Request params and response results transit as dictionary-encoded
 * JSON text. Inside the payload, byte values 0x01-0x03 are
 * instructions (rendered JSON escapes all control bytes, so they
 * cannot appear in the text itself):
 *
 *   0x01 varint(index)          emit table[index], quoted
 *   0x02 varint(len) bytes      emit quoted, append to table
 *   0x03 varint(len) bytes      emit quoted, do not index
 *
 * Every other byte passes through verbatim. Each direction of a
 * connection has its own table, seeded with the protocol's static key
 * strings and grown per session — so a `module!Function` symbol
 * string crosses the wire once and every later mention is a 2-3 byte
 * reference. Table state advances exactly with the byte stream
 * (insertions are processed in arrival order), which is why a
 * response's frames are written contiguously per response and whole
 * responses are delivered in encode order.
 */

#ifndef TRACELENS_SERVER_WIRE_H
#define TRACELENS_SERVER_WIRE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/server/protocol.h"
#include "src/util/expected.h"
#include "src/util/telemetry.h"

namespace tracelens
{
namespace server
{
namespace wire
{

/** Preface line a client sends first (newline-terminated). The
 *  server answers with SETTINGS; a connection that opens with
 *  anything else is sent a GOAWAY and closed. */
inline constexpr std::string_view kPreface = "TRACELENS-PROTO-2";

inline constexpr std::size_t kFrameHeaderBytes = 10;

/** Hard ceiling on any frame's payload length: lengths beyond this
 *  are treated as stream desync (GOAWAY), not as a skippable frame. */
inline constexpr std::uint32_t kMaxSaneFramePayload = 64u << 20;

enum class FrameType : std::uint8_t
{
    Settings = 1,     //!< Stream 0: connection parameters.
    Request = 2,      //!< Client->server, opens a stream.
    Response = 3,     //!< Server->client; END_STREAM on last chunk.
    WindowUpdate = 4, //!< Client->server: add response credit.
    Goaway = 5,       //!< Fatal protocol error; carries byte offset.
    Ping = 6,         //!< Liveness; echoed with kFlagAck.
};

inline constexpr std::uint8_t kFlagEndStream = 0x01;
inline constexpr std::uint8_t kFlagError = 0x02;
inline constexpr std::uint8_t kFlagAck = 0x04;

/** Decoded frame header. */
struct FrameHeader
{
    std::uint32_t length = 0;
    std::uint8_t type = 0;
    std::uint8_t flags = 0;
    std::uint32_t stream = 0;
};

/** Append one whole frame (header + payload) to @p out. */
void appendFrame(std::string &out, FrameType type, std::uint8_t flags,
                 std::uint32_t stream, std::string_view payload);

/** Decode a header from @p bytes (needs >= kFrameHeaderBytes). */
bool decodeFrameHeader(std::string_view bytes, FrameHeader &out);

// ----------------------------------------------------------- settings

inline constexpr std::uint32_t kDefaultMaxFramePayload = 256u << 10;
inline constexpr std::uint32_t kDefaultInitialWindow = 4u << 20;

/** Connection parameters exchanged in SETTINGS (varint id/value
 *  pairs; unknown ids are skipped for forward compatibility). */
struct Settings
{
    std::uint32_t protocolVersion = kProtocolVersionV2;
    /** Largest frame payload the sender accepts. */
    std::uint32_t maxFramePayload = kDefaultMaxFramePayload;
    /** Per-stream response window the sender grants initially. */
    std::uint32_t initialWindow = kDefaultInitialWindow;
    /**
     * Whether the sender understands the span-context request field
     * (setting id 4). Request payloads carry the field only when BOTH
     * sides advertised it, so a peer from before this setting existed
     * skips the unknown id and the request layout it sees is
     * unchanged — that is the whole negotiation.
     */
    bool tracing = false;
};

std::string encodeSettings(const Settings &settings);
Expected<Settings> decodeSettings(std::string_view payload);

// ----------------------------------------------------- request frames

/**
 * Ceiling on the span-context field's length byte. The current
 * encoding needs at most 21 bytes (two max-length varints + the
 * sampling flag); the slack is forward-compat room. A length beyond
 * this (or past the payload end) is hostile and rejects the request
 * — but only the request: span context sits before the
 * dictionary-encoded params, so a corrupt context never desyncs the
 * connection's symbol tables and never costs a GOAWAY.
 */
inline constexpr std::size_t kMaxSpanContextBytes = 64;

/** Decoded Request frame payload. */
struct RequestFrame
{
    std::uint8_t methodByte = 0;
    std::uint8_t priority = kPriorityNormal;
    std::uint64_t deadlineMs = 0;
    /** Dictionary-decoded params JSON text. */
    std::string paramsJson;
    /** Propagated span context (traceId 0 = none on this request). */
    SpanContext context;
    /**
     * Set when the span-context field was malformed in a way that
     * hides where the params start (oversized/truncated length): the
     * receiver must fail this one request with protocol_error and
     * keep the connection. Recoverable by construction — see
     * kMaxSpanContextBytes.
     */
    bool contextRejected = false;
};

class SymbolDict;

/**
 * Encode a Request payload (mutates the sender's @p dict). With
 * @p tracingNegotiated the payload carries the span-context field
 * (u8 length, then varint trace id, varint parent span id, u8
 * sampled); @p context may be null or invalid, encoding length 0.
 */
std::string encodeRequestPayload(Method method, std::uint8_t priority,
                                 std::uint64_t deadlineMs,
                                 std::string_view paramsJson,
                                 SymbolDict &dict,
                                 const SpanContext *context = nullptr,
                                 bool tracingNegotiated = false);

/**
 * Decode a Request payload (mutates the receiver's @p dict).
 * @p tracingNegotiated must mirror the sender's view (both SETTINGS
 * advertised tracing) — it decides whether a span-context field is
 * expected before the params. A context whose *content* is malformed
 * (bad varints, zero trace id) is dropped, not fatal: the field's
 * length still locates the params, so the request proceeds without a
 * context. Only a length that escapes the payload rejects the
 * request (RequestFrame::contextRejected).
 */
Expected<RequestFrame> decodeRequestPayload(std::string_view payload,
                                            SymbolDict &dict,
                                            bool tracingNegotiated
                                            = false);

// ------------------------------------------------------------- goaway

/** GOAWAY payload: varint byte offset + UTF-8 message. */
std::string encodeGoaway(std::uint64_t offset, std::string_view message);

struct GoawayInfo
{
    std::uint64_t offset = 0;
    std::string message;
};

Expected<GoawayInfo> decodeGoaway(std::string_view payload);

// ------------------------------------------------------ window update

/** WINDOW_UPDATE payload: varint credit in bytes. */
std::string encodeWindowUpdate(std::uint64_t credit);
Expected<std::uint64_t> decodeWindowUpdate(std::string_view payload);

// ---------------------------------------------------------- dictionary

/** Strings only this long are worth a table slot. */
inline constexpr std::size_t kDictMinString = 4;
/** Longest indexable string (bounds a hostile length prefix). */
inline constexpr std::size_t kDictMaxString = 1u << 14;
/** Per-direction table capacity; beyond it, literals stop indexing. */
inline constexpr std::size_t kDictMaxEntries = 1u << 16;

/**
 * One direction's symbol table: the sender encodes with it, the
 * receiver decodes with a mirror instance, and both mutate their copy
 * identically because insertions ride in the byte stream itself. Not
 * thread-safe — callers serialize access (the server encodes under
 * the connection write lock; the Session is single-threaded).
 */
class SymbolDict
{
  public:
    SymbolDict();

    /** Dictionary-encode rendered JSON text, appending to @p out. */
    void encode(std::string_view json, std::string &out);

    /**
     * Decode dictionary-encoded bytes back into JSON text. Fails (at
     * a payload-relative offset) on out-of-range table references and
     * truncated instructions. A failure can leave later insertions in
     * the payload unapplied — the connection's tables are no longer
     * in lockstep — so callers must treat it as fatal for the
     * session's dictionary (GOAWAY), even when they report the
     * offending request recoverably.
     */
    Expected<std::string> decode(std::string_view bytes);

    std::size_t entries() const { return table_.size(); }

    /** The protocol key strings both sides preload (index order). */
    static const std::vector<std::string> &staticTable();

  private:
    std::vector<std::string> table_;
    std::unordered_map<std::string, std::uint32_t> index_;
};

} // namespace wire
} // namespace server
} // namespace tracelens

#endif // TRACELENS_SERVER_WIRE_H
