// Wire protocol of the dfmkit analysis service: length-prefixed JSON
// frames over a byte stream (Unix-domain socket or loopback TCP).
//
// Frame format (see DESIGN.md "Service layer" for a worked hex example):
//
//   [u32 payload length, big-endian][payload: one UTF-8 JSON object]
//
// The length counts payload bytes only (not the 4-byte header) and must
// be in [2, max_frame_bytes] — the smallest syntactically valid payload
// is "{}". Every request carries an "op" string and an integer "id" the
// response echoes; responses carry "ok" (bool) and, when ok is false, an
// "error" object {"code", "message"} drawn from the errc:: vocabulary.
//
// This header also hosts the toolkit's small JSON value type: a strict
// recursive-descent parser (depth-capped, full-input) and a
// deterministic serializer (object keys sorted, integers kept exact), so
// request parsing and response building share one representation. It is
// deliberately minimal — the protocol needs objects, arrays, strings,
// 64-bit integers, doubles, bools and null, nothing more.
#pragma once

#include "layout/layer.h"

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dfm::service {

/// Protocol revision, reported in the hello handshake. Bumped on any
/// incompatible frame or schema change.
///  v2: "fix" op (score-gated auto-fix loop); clients verify the hello's
///      "protocol" field and refuse mismatched servers.
///  v3: trace-context propagation — requests may carry "trace_id"
///      (opaque hex string) and "parent_span" (telemetry span id); the
///      server parents its service/request span under the client's and
///      echoes a "trace" object {span_id, start_ns, end_ns, queue_ns}
///      in the response. New control ops: "metrics" (Prometheus text +
///      JSON exposition) and "debug" (flight-recorder drain).
///  v4: a worker op family for distributed analysis, since removed.
///  v5: the v4 worker op family and the daemon's per-session status op
///      for it are gone; such a request gets unknown_op.
inline constexpr int kProtocolVersion = 5;

/// Bytes of the big-endian length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Default cap on one frame's payload; requests and responses both.
inline constexpr std::size_t kDefaultMaxFrameBytes = 8u << 20;

/// Error codes a response's error.code can carry. Strings, not enums, on
/// the wire so the vocabulary can grow without renumbering.
namespace errc {
inline constexpr char kBadFrame[] = "bad_frame";
inline constexpr char kFrameTooLarge[] = "frame_too_large";
inline constexpr char kBadJson[] = "bad_json";
inline constexpr char kBadRequest[] = "bad_request";
inline constexpr char kUnknownOp[] = "unknown_op";
inline constexpr char kUnknownSession[] = "unknown_session";
inline constexpr char kQueueFull[] = "queue_full";
inline constexpr char kTooManySessions[] = "too_many_sessions";
inline constexpr char kDeadlineExceeded[] = "deadline_exceeded";
inline constexpr char kShuttingDown[] = "shutting_down";
inline constexpr char kProtocolMismatch[] = "protocol_mismatch";
inline constexpr char kInternal[] = "internal";
}  // namespace errc

/// Malformed JSON text (parse) or a kind-mismatched access (as_*).
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A JSON value. Numbers remember whether they were written as integers
/// so protocol fields (ids, coordinates) round-trip exactly.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}                        // NOLINT
  Json(std::int64_t i) : kind_(Kind::kInt), int_(i) {}                  // NOLINT
  Json(int i) : Json(static_cast<std::int64_t>(i)) {}                   // NOLINT
  Json(std::uint64_t u) : Json(static_cast<std::int64_t>(u)) {}         // NOLINT
  Json(double d) : kind_(Kind::kDouble), double_(d) {}                  // NOLINT
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}                         // NOLINT
  Json(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}          // NOLINT
  Json(Object o) : kind_(Kind::kObject), object_(std::move(o)) {}       // NOLINT

  /// Parses exactly one JSON value spanning the whole input (trailing
  /// non-whitespace is an error). Throws JsonError on malformed text or
  /// nesting deeper than 64 levels.
  static Json parse(std::string_view text);

  /// Deterministic serialization: object keys in sorted order, integers
  /// exact, doubles via %.17g. No insignificant whitespace.
  std::string dump() const;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const;
  /// kInt, or a kDouble with an exact integer value.
  std::int64_t as_int() const;
  double as_double() const;  // any number
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Member lookup on an object; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

  // Tolerant field accessors for request parsing: the default comes back
  // when the key is absent; a present key of the wrong kind throws.
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  bool get_bool(const std::string& key, bool def) const;
  std::string get_string(const std::string& key, std::string def) const;

  /// Object member assignment (value must be an object or null; null
  /// promotes to an empty object).
  void set(const std::string& key, Json v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Transport-level failure: peer vanished mid-frame, malformed or
/// oversized header, socket error. `code()` is an errc:: string usable
/// in a structured reply when the connection is still writable.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(const char* code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  const char* code() const { return code_; }

 private:
  const char* code_;
};

/// Reads one frame's payload from `fd` (blocking, restarts on EINTR).
/// Returns false on orderly EOF at a frame boundary (no header byte
/// read). Throws ProtocolError on a truncated header/payload
/// (errc::kBadFrame), a length below 2 (errc::kBadFrame), or a length
/// above `max_bytes` (errc::kFrameTooLarge — the declared length is NOT
/// consumed, so callers should reply and drop the connection).
bool read_frame(int fd, std::string& payload, std::size_t max_bytes);

/// Writes the 4-byte header + payload (blocking, restarts on EINTR,
/// suppresses SIGPIPE). Throws ProtocolError(errc::kBadFrame) when the
/// peer is gone or the payload exceeds the u32 length field.
void write_frame(int fd, std::string_view payload);

/// {"id": id, "ok": true, ...fields}.
Json make_ok(std::uint64_t id, Json::Object fields = {});

/// {"id": id, "ok": false, "error": code, "message": message}.
Json make_error(std::uint64_t id, const char* code,
                const std::string& message);

/// The layer-name vocabulary of edit requests ("m1", "via1", ...; same
/// set the CLI's --edit accepts). Throws JsonError on unknown names.
LayerKey layer_from_name(const std::string& name);

}  // namespace dfm::service
