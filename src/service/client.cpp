#include "service/client.h"

#include "core/telemetry.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <random>
#include <utility>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace dfm::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw ProtocolError(errc::kInternal, what + ": " + std::strerror(errno));
}

/// 128 random bits as 32 hex chars — the W3C-trace-context-sized id a
/// traced client stamps on every request.
std::string make_trace_id() {
  std::random_device rd;
  char buf[33];
  std::snprintf(buf, sizeof buf, "%08x%08x%08x%08x", rd(), rd(), rd(), rd());
  return buf;
}

}  // namespace

ServiceClient::ServiceClient(int fd) : fd_(fd) {
  // The server greets every connection with a hello frame; a version
  // mismatch is refused here, before any request crosses the wire, so a
  // v1 client never sends a frame a v2 server would misread (or vice
  // versa).
  std::string payload;
  try {
    if (!read_frame(fd_, payload, kDefaultMaxFrameBytes)) {
      throw ProtocolError(errc::kBadFrame, "connection closed before hello");
    }
    hello_ = Json::parse(payload);
    const std::int64_t server_protocol = hello_.get_int("protocol", 0);
    if (server_protocol != kProtocolVersion) {
      throw ProtocolError(
          errc::kProtocolMismatch,
          "server speaks protocol " + std::to_string(server_protocol) +
              ", client requires " + std::to_string(kProtocolVersion));
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

ServiceClient ServiceClient::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    throw ProtocolError(errc::kBadRequest, "bad unix socket path: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("connect " + path);
  }
  return ServiceClient(fd);
}

ServiceClient ServiceClient::connect_tcp(int port) {
  if (port < 1 || port > 65535) {
    throw ProtocolError(errc::kBadRequest,
                        "tcp port " + std::to_string(port) +
                            " is out of range (1-65535)");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("connect 127.0.0.1:" + std::to_string(port));
  }
  return ServiceClient(fd);
}

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(other.next_id_),
      hello_(std::move(other.hello_)),
      trace_id_(std::move(other.trace_id_)) {}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    next_id_ = other.next_id_;
    hello_ = std::move(other.hello_);
    trace_id_ = std::move(other.trace_id_);
  }
  return *this;
}

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Json ServiceClient::call(Json request) {
  if (fd_ < 0) {
    throw ProtocolError(errc::kInternal, "client is not connected");
  }
  if (request.find("id") == nullptr) {
    request.set("id", Json(++next_id_));
  }
  // Trace-context propagation (protocol v3), active only while a
  // recording epoch is open, so untraced traffic keeps its exact
  // historical bytes on the wire.
  std::uint64_t span_id = 0;
  std::uint64_t start_ns = 0;
  if (telemetry::enabled()) {
    if (trace_id_.empty()) trace_id_ = make_trace_id();
    span_id = telemetry::next_span_id();
    if (request.find("trace_id") == nullptr) {
      request.set("trace_id", Json(trace_id_));
      request.set("parent_span", Json(span_id));
    }
    start_ns = telemetry::now_ns();
  }
  write_frame(fd_, request.dump());
  std::string payload;
  if (!read_frame(fd_, payload, kDefaultMaxFrameBytes)) {
    throw ProtocolError(errc::kBadFrame, "connection closed awaiting reply");
  }
  Json reply = Json::parse(payload);
  if (span_id != 0) {
    telemetry::record_span_ids(
        "client/request", start_ns, telemetry::now_ns(), span_id,
        /*parent=*/0,
        static_cast<std::uint64_t>(request.get_int("id", 0)));
  }
  return reply;
}

Json ServiceClient::call_ok(Json request) {
  Json reply = call(std::move(request));
  if (!reply.get_bool("ok", false)) {
    throw ServiceError(reply.get_string("error", errc::kInternal),
                       reply.get_string("message", "request failed"));
  }
  return reply;
}

Json ServiceClient::open(const std::string& layout_path,
                         const std::string& top,
                         const std::vector<std::string>& passes,
                         std::int64_t litho_tile) {
  Json::Object req;
  req["op"] = Json("open");
  req["path"] = Json(layout_path);
  if (!top.empty()) req["top"] = Json(top);
  if (!passes.empty()) {
    Json::Array arr;
    arr.reserve(passes.size());
    for (const std::string& p : passes) arr.emplace_back(p);
    req["passes"] = Json(std::move(arr));
  }
  if (litho_tile > 0) req["litho_tile"] = Json(litho_tile);
  return call_ok(Json(std::move(req)));
}

Json ServiceClient::edit(const std::string& session, Json::Array edits) {
  Json::Object req;
  req["op"] = Json("edit");
  req["session"] = Json(session);
  req["edits"] = Json(std::move(edits));
  return call_ok(Json(std::move(req)));
}

Json ServiceClient::flow(const std::string& session) {
  Json::Object req;
  req["op"] = Json("flow");
  req["session"] = Json(session);
  return call_ok(Json(std::move(req)));
}

Json ServiceClient::fix(const std::string& session, std::int64_t max_iters,
                        double min_gain,
                        const std::vector<std::string>& moves) {
  Json::Object req;
  req["op"] = Json("fix");
  req["session"] = Json(session);
  if (max_iters >= 0) req["max_iters"] = Json(max_iters);
  if (min_gain >= 0) req["min_gain"] = Json(min_gain);
  if (!moves.empty()) {
    Json::Array arr;
    arr.reserve(moves.size());
    for (const std::string& m : moves) arr.emplace_back(m);
    req["moves"] = Json(std::move(arr));
  }
  return call_ok(Json(std::move(req)));
}

Json ServiceClient::close_session(const std::string& session) {
  Json::Object req;
  req["op"] = Json("close");
  req["session"] = Json(session);
  return call_ok(Json(std::move(req)));
}

Json ServiceClient::ping() {
  return call_ok(Json(Json::Object{{"op", Json("ping")}}));
}

Json ServiceClient::stats() {
  return call_ok(Json(Json::Object{{"op", Json("stats")}}));
}

Json ServiceClient::version() {
  return call_ok(Json(Json::Object{{"op", Json("version")}}));
}

Json ServiceClient::metrics() {
  return call_ok(Json(Json::Object{{"op", Json("metrics")}}));
}

Json ServiceClient::debug(std::int64_t n) {
  return call_ok(
      Json(Json::Object{{"op", Json("debug")}, {"n", Json(n)}}));
}

Json ServiceClient::shutdown_server() {
  return call_ok(Json(Json::Object{{"op", Json("shutdown")}}));
}

Json ServiceClient::make_edit(const std::string& layer, std::int64_t x0,
                              std::int64_t y0, std::int64_t x1,
                              std::int64_t y1, bool remove) {
  Json::Object e;
  e["layer"] = Json(layer);
  e["rect"] = Json(Json::Array{Json(x0), Json(y0), Json(x1), Json(y1)});
  if (remove) e["remove"] = Json(true);
  return Json(std::move(e));
}

}  // namespace dfm::service
