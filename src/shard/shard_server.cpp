#include "shard/shard_server.h"

#include "core/stream_source.h"
#include "core/telemetry.h"
#include "core/version.h"
#include "service/protocol.h"
#include "shard/wire.h"
#include "shard/worker.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dfm::shard {
namespace {

using service::Json;
using service::JsonError;
using service::kProtocolVersion;
using service::make_error;
using service::make_ok;
using service::ProtocolError;
using service::read_frame;
using service::write_frame;
namespace errc = service::errc;

LithoFastMode fast_from_string(const std::string& s) {
  if (s == "auto") return LithoFastMode::kAuto;
  if (s == "fft") return LithoFastMode::kFft;
  if (s == "direct") return LithoFastMode::kDirect;
  if (s == "off") return LithoFastMode::kOff;
  throw JsonError("litho_fast: expected auto|fft|direct|off, got \"" + s +
                  "\"");
}

Json hello_payload() {
  Json::Object out;
  out["op"] = Json("hello");
  out["ok"] = Json(true);
  out["server"] = Json("dfmkit-shard");
  out["protocol"] = Json(kProtocolVersion);
  out["revision"] = Json(std::string(git_revision()));
  out["build"] = Json(std::string(build_config()));
  return Json(std::move(out));
}

const Json& require(const Json& req, const char* key) {
  const Json* f = req.find(key);
  if (f == nullptr) throw JsonError(std::string(key) + ": required field");
  return *f;
}

Json do_open(const Json& req, unsigned default_threads,
             std::optional<ShardWorkerSession>& session, std::uint64_t id) {
  ShardWorkerConfig config;
  config.tech = tech_from_json(require(req, "tech"));
  config.model = model_from_json(require(req, "model"));
  config.litho_tile =
      static_cast<Coord>(req.get_int("litho_tile", config.litho_tile));
  config.litho_edge_tolerance = static_cast<Coord>(
      req.get_int("litho_edge_tolerance", config.litho_edge_tolerance));
  config.litho_fast = fast_from_string(req.get_string("litho_fast", "auto"));
  config.threads = static_cast<unsigned>(
      req.get_int("threads", static_cast<std::int64_t>(default_threads)));
  const Rect core = rect_from_json(require(req, "core"));
  const Rect window = rect_from_json(require(req, "window"));

  const std::string path = req.get_string("path", "");
  session.reset();
  if (!path.empty()) {
    // Hydrate from the layout file: the streaming readers decode only
    // the window's geometry, so N workers opening one file never hold
    // the full layout resident anywhere.
    session.emplace(config, core, window, *open_stream_source(path));
  } else {
    // Inline geometry (tests, tiny layouts): layers ride in the frame.
    LayerMap layers;
    if (const Json* jl = req.find("layers"); jl != nullptr) {
      for (const Json& e : jl->as_array()) {
        layers.emplace(layer_from_json(require(e, "layer")),
                       region_from_json(require(e, "region")));
      }
    }
    session.emplace(config, core, window, std::move(layers));
  }

  Json::Object fields;
  fields["core"] = rect_to_json(core);
  fields["window"] = rect_to_json(window);
  return make_ok(id, std::move(fields));
}

Json do_drc(const Json& req, ShardWorkerSession& session, std::uint64_t id) {
  Json::Array bad;
  for (const Json& jr : require(req, "rules").as_array()) {
    bad.push_back(region_to_json(session.drc_width_bad2x(rule_from_json(jr))));
  }
  Json::Object fields;
  fields["bad2x"] = Json(std::move(bad));
  return make_ok(id, std::move(fields));
}

Json do_match(const Json& req, ShardWorkerSession& session, std::uint64_t id) {
  const std::size_t set_index =
      static_cast<std::size_t>(require(req, "set").as_int());
  std::vector<AnchorWindow> sites;
  for (const Json& js : require(req, "sites").as_array()) {
    sites.push_back(site_from_json(js));
  }
  const std::vector<std::vector<PatternMatch>> got =
      session.match(set_index, sites);
  Json::Array out;
  out.reserve(got.size());
  for (const std::vector<PatternMatch>& per_site : got) {
    Json::Array ms;
    ms.reserve(per_site.size());
    for (const PatternMatch& m : per_site) ms.push_back(match_to_json(m));
    out.push_back(Json(std::move(ms)));
  }
  Json::Object fields;
  fields["matches"] = Json(std::move(out));
  return make_ok(id, std::move(fields));
}

Json do_litho(const Json& req, ShardWorkerSession& session, std::uint64_t id) {
  Json::Array hotspots;
  Json::Array pieces;
  Json::Array skipped;
  for (const Json& jc : require(req, "cores").as_array()) {
    bool skip = false;
    const TileRisk risk = session.litho_tile(rect_from_json(jc), skip);
    Json::Array hs;
    hs.reserve(risk.interior.size());
    for (const Hotspot& h : risk.interior) hs.push_back(hotspot_to_json(h));
    hotspots.push_back(Json(std::move(hs)));
    Json::Array ps;
    ps.reserve(risk.edges.size());
    for (const RiskPiece& p : risk.edges) ps.push_back(risk_piece_to_json(p));
    pieces.push_back(Json(std::move(ps)));
    skipped.push_back(Json(skip ? 1 : 0));
  }
  Json::Object fields;
  fields["hotspots"] = Json(std::move(hotspots));
  fields["pieces"] = Json(std::move(pieces));
  fields["skipped"] = Json(std::move(skipped));
  return make_ok(id, std::move(fields));
}

Json do_edit(const Json& req, ShardWorkerSession& session, std::uint64_t id) {
  session.apply(delta_from_json(require(req, "delta")));
  return make_ok(id);
}

/// One request -> one response. `shutdown` flags an orderly exit after
/// the reply is written.
Json dispatch(const Json& req, const ShardServeOptions& options,
              std::optional<ShardWorkerSession>& session, bool& shutdown) {
  const std::uint64_t id =
      static_cast<std::uint64_t>(req.get_int("id", 0));
  const std::string op = req.get_string("op", "");
  TELEM_COUNTER_ADD("shard.requests", 1);

  if (op == "ping") return make_ok(id);
  if (op == "shutdown") {
    shutdown = true;
    return make_ok(id);
  }
  if (op == "shard_open") return do_open(req, options.threads, session, id);

  if (op == "shard_drc" || op == "shard_match" || op == "shard_litho" ||
      op == "shard_edit") {
    if (!session.has_value()) {
      return make_error(id, errc::kUnknownSession,
                        "no shard opened on this worker");
    }
    if (op == "shard_drc") return do_drc(req, *session, id);
    if (op == "shard_match") return do_match(req, *session, id);
    if (op == "shard_litho") return do_litho(req, *session, id);
    return do_edit(req, *session, id);
  }
  return make_error(id, errc::kUnknownOp, "unknown op \"" + op + "\"");
}

/// Serves one coordinator connection to completion. Returns true when a
/// shutdown op asked the whole worker to exit.
bool serve_connection(int fd, const ShardServeOptions& options,
                      std::optional<ShardWorkerSession>& session) {
  try {
    write_frame(fd, hello_payload().dump());
  } catch (const ProtocolError&) {
    return false;  // peer vanished before the handshake
  }
  std::string payload;
  bool shutdown = false;
  while (!shutdown) {
    try {
      if (!read_frame(fd, payload, kShardMaxFrameBytes)) break;
    } catch (const ProtocolError& pe) {
      // The length prefix can no longer be trusted; reply and drop.
      try {
        write_frame(fd, make_error(0, pe.code(), pe.what()).dump());
      } catch (const ProtocolError&) {
      }
      break;
    }

    Json req;
    try {
      req = Json::parse(payload);
      if (!req.is_object()) throw JsonError("request is not a JSON object");
    } catch (const JsonError& e) {
      try {
        write_frame(fd, make_error(0, errc::kBadJson, e.what()).dump());
      } catch (const ProtocolError&) {
        break;
      }
      continue;
    }

    const std::uint64_t id =
        static_cast<std::uint64_t>(req.get_int("id", 0));
    const std::string trace_id = req.get_string("trace_id", "");
    const std::uint64_t parent_span =
        static_cast<std::uint64_t>(req.get_int("parent_span", 0));
    const std::uint64_t span_id = telemetry::next_span_id();
    const std::uint64_t start_ns = telemetry::now_ns();
    Json response;
    {
      // Parent the worker's span under the coordinator's dispatch span,
      // so a merged trace shows coordinator fan-out over worker lanes.
      telemetry::Span span("shard/request", id, span_id, parent_span);
      try {
        response = dispatch(req, options, session, shutdown);
      } catch (const JsonError& je) {
        response = make_error(id, errc::kBadRequest, je.what());
      } catch (const std::exception& e) {
        response = make_error(id, errc::kInternal, e.what());
      }
    }
    if (!trace_id.empty()) {
      Json::Object trace;
      trace["span_id"] = Json(span_id);
      trace["start_ns"] = Json(start_ns);
      trace["end_ns"] = Json(telemetry::now_ns());
      response.set("trace", Json(std::move(trace)));
    }
    try {
      write_frame(fd, response.dump());
    } catch (const ProtocolError&) {
      break;
    }
  }
  return shutdown;
}

}  // namespace

int run_shard_server(const ShardServeOptions& options) {
  if (options.unix_path.empty()) {
    throw std::runtime_error("shard-serve: no socket path configured");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.unix_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("shard-serve: socket path too long: " +
                             options.unix_path);
  }
  std::memcpy(addr.sun_path, options.unix_path.c_str(),
              options.unix_path.size() + 1);
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    throw std::runtime_error(std::string("shard-serve: socket: ") +
                             std::strerror(errno));
  }
  ::unlink(options.unix_path.c_str());  // stale socket from a past run
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 4) != 0) {
    const int err = errno;
    ::close(listen_fd);
    throw std::runtime_error("shard-serve: bind " + options.unix_path + ": " +
                             std::strerror(err));
  }
  if (!options.trace_out.empty()) telemetry::set_enabled(true);
  // Readiness marker for the spawn helper and scripts (same contract as
  // `dfmkit serve`): the socket is accepting once this line is out.
  std::printf("dfmkit shard-serve: listening on unix:%s\n",
              options.unix_path.c_str());
  std::fflush(stdout);

  telemetry::set_thread_name("shard worker");
  std::optional<ShardWorkerSession> session;
  bool shutdown = false;
  while (!shutdown) {
    const int cfd = ::accept(listen_fd, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    shutdown = serve_connection(cfd, options, session);
    ::close(cfd);
    if (options.once) break;
  }
  ::close(listen_fd);
  ::unlink(options.unix_path.c_str());
  if (!options.trace_out.empty()) {
    telemetry::set_enabled(false);
    const telemetry::MetricsSnapshot metrics = telemetry::metrics_snapshot();
    const telemetry::TraceSnapshot trace = telemetry::drain();
    std::ofstream out(options.trace_out);
    if (out) out << telemetry::chrome_trace_json(trace, metrics);
  }
  std::printf("dfmkit shard-serve: exiting\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace dfm::shard
