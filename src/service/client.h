// Synchronous client for the dfmkit service protocol: one socket, one
// outstanding request at a time (the protocol replies in order; a client
// that wants pipelining opens more connections, which is exactly what
// the load generator does). Used by the `dfmkit client` subcommand, the
// service tests, and bench_s2_service.
#pragma once

#include "service/protocol.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace dfm::service {

/// An error *reply* from the server (ok=false), as opposed to a
/// transport/framing failure, which is a ProtocolError.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(std::string code, const std::string& message)
      : std::runtime_error(code + ": " + message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

class ServiceClient {
 public:
  /// Disconnected client; connect_* are the real constructors.
  ServiceClient() = default;
  static ServiceClient connect_unix(const std::string& path);
  /// Loopback TCP; throws ProtocolError for a port outside 1-65535.
  static ServiceClient connect_tcp(int port);

  ServiceClient(ServiceClient&& other) noexcept;
  ServiceClient& operator=(ServiceClient&& other) noexcept;
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;
  ~ServiceClient();

  bool connected() const { return fd_ >= 0; }
  void close();

  /// The unsolicited hello frame the server sent on connect (carries its
  /// revision, build config, and protocol version).
  const Json& hello() const { return hello_; }

  /// Sends `request` (fills in "id" when absent) and blocks for the
  /// reply. Throws ProtocolError on transport failure; error *replies*
  /// come back as the returned Json with ok=false.
  Json call(Json request);
  /// call(), then throws ServiceError unless the reply has ok=true.
  Json call_ok(Json request);

  // Convenience wrappers over call_ok().
  Json open(const std::string& layout_path, const std::string& top = "",
            const std::vector<std::string>& passes = {},
            std::int64_t litho_tile = 0);
  Json edit(const std::string& session, Json::Array edits);
  Json flow(const std::string& session);
  /// Runs the score-gated fix loop on a session. Negative max_iters /
  /// min_gain mean "server default" (ServiceOptions::flow.fix); an empty
  /// moves list means all proposal kinds.
  Json fix(const std::string& session, std::int64_t max_iters = -1,
           double min_gain = -1, const std::vector<std::string>& moves = {});
  Json close_session(const std::string& session);
  Json ping();
  Json stats();
  Json version();
  /// Prometheus text + JSON metrics exposition (the "metrics" op).
  Json metrics();
  /// Drains the newest `n` flight-recorder entries (the "debug" op).
  Json debug(std::int64_t n = 32);
  /// Asks the server to begin graceful shutdown.
  Json shutdown_server();

  /// This client's trace id (32 hex chars), minted lazily on the first
  /// traced call; empty until then. Trace context is attached to every
  /// call() while telemetry recording is enabled: the request carries
  /// trace_id/parent_span (protocol v3), a `client/request` span is
  /// recorded around the round trip, and the server parents its
  /// service/request span underneath — `dfmkit trace-merge` stitches
  /// the two files back together.
  const std::string& trace_id() const { return trace_id_; }

  /// One entry for an "edit" request's edits array.
  static Json make_edit(const std::string& layer, std::int64_t x0,
                        std::int64_t y0, std::int64_t x1, std::int64_t y1,
                        bool remove = false);

 private:
  explicit ServiceClient(int fd);

  int fd_ = -1;
  std::uint64_t next_id_ = 0;
  Json hello_;
  std::string trace_id_;
};

}  // namespace dfm::service
