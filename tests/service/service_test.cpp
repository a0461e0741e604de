// ServiceServer behavior: served reports byte-identical to the direct
// library call (at 1 and 8 server workers, with and without a snapshot
// budget), TCP port range checks, admission-queue
// backpressure, session limits, deadlines, idle eviction, the version
// handshake, and an 8-client mixed storm with a mid-storm graceful
// shutdown. Runs under the tsan/asan presets like every other tier-1
// test.
#include "service/server.h"

#include "core/fix_engine.h"
#include "core/incremental.h"
#include "core/version.h"
#include "gdsii/gdsii.h"
#include "gen/generators.h"
#include "service/client.h"

#include "temp_file.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace dfm::service {
namespace {

const std::vector<std::string> kFastPasses = {"drc", "nets", "vias", "caa"};

std::string demo_gds() {
  static const TempFile design = [] {
    DesignParams p;
    p.seed = 3;
    p.rows = 2;
    p.cells_per_row = 5;
    p.routes = 10;
    // pid-suffixed: concurrent test processes each write their own copy.
    const std::string out = ::testing::TempDir() + "dfm_service_demo_" +
                            std::to_string(::getpid()) + ".gds";
    write_gdsii_file(generate_design(p), out);
    return TempFile{out};
  }();
  return design.path();
}

ServiceOptions base_options(const std::string& tag) {
  ServiceOptions opt;
  // pid-suffixed: parallel ctest runs each test as its own process.
  opt.unix_path = ::testing::TempDir() + "dfm_svc_" + tag + "_" +
                  std::to_string(::getpid()) + ".sock";
  opt.workers = 2;
  opt.pool_threads = 2;
  opt.flow.passes = kFastPasses;
  return opt;
}

Json edit_patch(bool remove) {
  return ServiceClient::make_edit("m1", 1000, 1000, 1400, 1400, remove);
}

// --------------------------------------------------------------------------

TEST(Service, HelloCarriesVersionHandshake) {
  ServiceServer server(base_options("hello"));
  server.start();
  ServiceClient client = ServiceClient::connect_unix(
      server.options().unix_path);
  const Json& hello = client.hello();
  EXPECT_EQ(hello.get_string("op", ""), "hello");
  EXPECT_EQ(hello.get_string("server", ""), "dfmkit");
  EXPECT_EQ(hello.get_int("protocol", 0), kProtocolVersion);
  EXPECT_EQ(hello.get_string("revision", ""), git_revision());
  EXPECT_EQ(hello.get_string("build", ""), build_config());
  // The "version" op reports the same stamp.
  const Json v = client.version();
  EXPECT_EQ(v.get_string("revision", ""), git_revision());
}

TEST(Service, TcpLoopbackWorks) {
  ServiceOptions opt = base_options("tcp");
  opt.unix_path.clear();
  opt.tcp_port = 0;  // ephemeral
  ServiceServer server(std::move(opt));
  server.start();
  ASSERT_GT(server.tcp_port(), 0);
  ServiceClient client = ServiceClient::connect_tcp(server.tcp_port());
  EXPECT_TRUE(client.ping().get_bool("ok", false));
}

// A port must be range-checked before it is narrowed to uint16_t:
// 65536 would bind an ephemeral port and 65537 port 1.
TEST(Service, TcpPortOutOfRangeIsRejected) {
  ServiceOptions opt = base_options("tcp_range");
  opt.unix_path.clear();
  opt.tcp_port = 65536;
  ServiceServer server(std::move(opt));
  EXPECT_THROW(server.start(), std::runtime_error);
  EXPECT_EQ(server.tcp_port(), -1);
  for (const int port : {0, 65536, 65537}) {
    try {
      ServiceClient::connect_tcp(port);
      ADD_FAILURE() << "connect_tcp(" << port << ") must throw";
    } catch (const ProtocolError& e) {
      EXPECT_STREQ(e.code(), errc::kBadRequest) << port;
    }
  }
}

/// The equivalence gate: a served open + edits must return the exact
/// bytes the direct library path produces, with 1 and with 8 server
/// workers, unlimited and under a 64 KiB snapshot budget (eviction
/// inside sessions that share the server's pool).
struct ServedCase {
  unsigned workers;
  std::size_t budget;  // snapshot bytes; 0 = unlimited
};

// Printed "<workers>" or "<workers>_budget<KiB>k"; ctest names each case
// after its printed value, so the unlimited cases keep their names.
std::ostream& operator<<(std::ostream& os, const ServedCase& c) {
  os << c.workers;
  if (c.budget != 0) os << "_budget" << (c.budget >> 10) << "k";
  return os;
}

class ServedEquivalence : public ::testing::TestWithParam<ServedCase> {};

TEST_P(ServedEquivalence, ReportsBitIdenticalToDirectSession) {
  // Direct library run.
  const Library lib = read_gdsii_file(demo_gds());
  DfmFlowOptions direct_opt;
  direct_opt.passes = kFastPasses;
  direct_opt.threads = 2;
  DfmFlowSession direct(lib, lib.top_cells().front(), direct_opt);
  const std::string direct_cold = flow_report_canonical_json(direct.report());

  LayoutDelta add;
  add.add(layers::kMetal1, Rect{1000, 1000, 1400, 1400});
  const std::string direct_after_add =
      flow_report_canonical_json(direct.apply(add));
  LayoutDelta remove;
  remove.remove(layers::kMetal1, Rect{1000, 1000, 1400, 1400});
  const std::string direct_after_remove =
      flow_report_canonical_json(direct.apply(remove));

  // Served run, same schedule.
  ServiceOptions opt =
      base_options("equiv" + ::testing::PrintToString(GetParam()));
  opt.workers = GetParam().workers;
  opt.flow.memory_budget = GetParam().budget;
  ServiceServer server(std::move(opt));
  server.start();
  ServiceClient client =
      ServiceClient::connect_unix(server.options().unix_path);
  const Json opened = client.open(demo_gds());
  const std::string session = opened.get_string("session", "");
  ASSERT_FALSE(session.empty());
  EXPECT_EQ(opened.get_string("report", ""), direct_cold);

  const Json after_add = client.edit(session, {edit_patch(false)});
  EXPECT_EQ(after_add.get_string("report", ""), direct_after_add);
  const Json after_remove = client.edit(session, {edit_patch(true)});
  EXPECT_EQ(after_remove.get_string("report", ""), direct_after_remove);

  // "flow" re-serves the current report without recomputing.
  EXPECT_EQ(client.flow(session).get_string("report", ""),
            direct_after_remove);
  client.close_session(session);
}

INSTANTIATE_TEST_SUITE_P(Workers, ServedEquivalence,
                         ::testing::Values(ServedCase{1, 0},
                                           ServedCase{1, 64 << 10},
                                           ServedCase{8, 0},
                                           ServedCase{8, 64 << 10}));

/// The fix-loop equivalence gate: the served "fix" op must return the
/// exact outcome and report bytes the direct FixEngine loop produces,
/// over several seeded layouts.
TEST(Service, FixOpMatchesDirectLoopByteForByte) {
  ServiceOptions sopt = base_options("fix");
  sopt.flow.fix.max_iters = 1;  // server-side default, used by the op
  ServiceServer server(std::move(sopt));
  server.start();
  ServiceClient client =
      ServiceClient::connect_unix(server.options().unix_path);

  for (const std::uint64_t seed : {3ull, 5ull, 9ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    DesignParams p;
    p.seed = seed;
    p.rows = 2;
    p.cells_per_row = 3;
    p.routes = 6;
    p.via_fields = 1;
    p.vias_per_field = 12;
    const Library lib = generate_design(p);
    const std::string path = ::testing::TempDir() + "dfm_fix_" +
                             std::to_string(seed) + "_" +
                             std::to_string(::getpid()) + ".gds";
    write_gdsii_file(lib, path);
    const TempFile cleanup{path};

    // Direct loop, same schedule the server runs.
    DfmFlowOptions direct_opt;
    direct_opt.passes = kFastPasses;
    direct_opt.threads = 2;
    DfmFlowSession direct(lib, lib.top_cells().front(), direct_opt);
    FixOptions fo;
    fo.max_iters = 1;
    const FixOutcome direct_out = FixEngine::fix(direct, fo);
    const std::string direct_outcome = fix_outcome_json(direct_out);
    const std::string direct_report =
        flow_report_canonical_json(direct.report());

    const Json opened = client.open(path);
    const std::string session = opened.get_string("session", "");
    ASSERT_FALSE(session.empty());
    const Json fixed = client.fix(session);
    EXPECT_EQ(fixed.get_string("outcome", ""), direct_outcome);
    EXPECT_EQ(fixed.get_string("report", ""), direct_report);
    client.close_session(session);
  }

  // Request validation: unknown moves and bad iteration counts are
  // structured errors, not crashes.
  const Json opened = client.open(demo_gds());
  const std::string session = opened.get_string("session", "");
  try {
    client.fix(session, 1, 0, {"warp_drive"});
    FAIL() << "unknown move must be rejected";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), errc::kBadRequest);
  }
  try {
    Json::Object req;
    req["op"] = Json("fix");
    req["session"] = Json(session);
    req["max_iters"] = Json(-7);
    client.call_ok(Json(std::move(req)));
    FAIL() << "negative max_iters must be rejected";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), errc::kBadRequest);
  }
  client.close_session(session);
}

/// The fix op's accept gate is `gain > min_gain`, so a negative floor
/// would accept candidates that lower the score: the op refuses one, as
/// the CLI's --min-gain does.
TEST(Service, FixOpRejectsNegativeMinGain) {
  ServiceServer server(base_options("fix_gain"));
  server.start();
  ServiceClient client =
      ServiceClient::connect_unix(server.options().unix_path);
  const std::string session =
      client.open(demo_gds()).get_string("session", "");
  ASSERT_FALSE(session.empty());
  for (const double gain : {-0.5, -1e-9}) {
    SCOPED_TRACE("min_gain " + std::to_string(gain));
    Json::Object req;
    req["op"] = Json("fix");
    req["session"] = Json(session);
    req["min_gain"] = Json(gain);
    try {
      client.call_ok(Json(std::move(req)));
      FAIL() << "a negative min_gain must be rejected";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), errc::kBadRequest);
    }
  }
  // The session survives the refusals.
  EXPECT_NO_THROW(client.fix(session, 0));
  client.close_session(session);
}

/// The open op checks its run options with the CLI's shared checks:
/// an unknown pass and a negative litho tile are bad requests, refused
/// before a session slot is taken.
TEST(Service, OpenRejectsBadPassesAndLithoTile) {
  ServiceServer server(base_options("open_checks"));
  server.start();
  ServiceClient client =
      ServiceClient::connect_unix(server.options().unix_path);
  try {
    client.open(demo_gds(), "", {"drc", "warp_drive"});
    FAIL() << "an unknown pass must be rejected";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), errc::kBadRequest);
  }
  try {
    Json::Object req;
    req["op"] = Json("open");
    req["path"] = Json(demo_gds());
    req["litho_tile"] = Json(-5);
    client.call_ok(Json(std::move(req)));
    FAIL() << "a negative litho_tile must be rejected";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), errc::kBadRequest);
  }
  EXPECT_EQ(client.stats().get_int("active_sessions", -1), 0);
}

/// v2 clients refuse to talk to servers that greet with a different
/// protocol revision — before any request crosses the wire.
TEST(Service, ClientRejectsProtocolMismatch) {
  const std::string path = ::testing::TempDir() + "dfm_svc_mismatch_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  // A fake old server: greets with protocol 1, then waits for a frame
  // that must never arrive.
  std::thread fake([&] {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) return;
    Json::Object hello;
    hello["op"] = Json("hello");
    hello["ok"] = Json(true);
    hello["server"] = Json("dfmkit");
    hello["protocol"] = Json(1);
    write_frame(conn, Json(std::move(hello)).dump());
    std::string payload;
    EXPECT_FALSE(read_frame(conn, payload, kDefaultMaxFrameBytes))
        << "client sent a request to a mismatched server";
    ::close(conn);
  });

  try {
    ServiceClient client = ServiceClient::connect_unix(path);
    FAIL() << "mismatched hello must be refused";
  } catch (const ProtocolError& e) {
    EXPECT_STREQ(e.code(), errc::kProtocolMismatch);
  }
  fake.join();
  ::close(listener);
  ::unlink(path.c_str());
}

TEST(Service, BackpressureRepliesWhenQueueFull) {
  ServiceOptions opt = base_options("backpressure");
  opt.workers = 1;
  opt.max_queue = 1;
  opt.enable_debug_ops = true;
  ServiceServer server(std::move(opt));
  server.start();

  // One sleeper occupies the single worker, one more fills the queue;
  // everything past that must get an immediate queue_full error.
  ServiceClient blocker =
      ServiceClient::connect_unix(server.options().unix_path);
  std::thread sleeper([&] {
    blocker.call(Json::parse("{\"op\":\"sleep\",\"ms\":400,\"id\":1}"));
  });
  // Wait until the sleeper is actually running (queue drained to 0).
  ServiceClient prober =
      ServiceClient::connect_unix(server.options().unix_path);
  for (int i = 0; i < 200; ++i) {
    const Json s = prober.stats();
    if (s.get_int("requests_admitted", 0) >= 1 &&
        s.get_int("queue_depth", 1) == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Six concurrent floods: the single worker is busy, the queue holds
  // one, so at least four must bounce with queue_full immediately.
  std::atomic<unsigned> queue_full{0};
  std::vector<std::thread> flood;
  for (int i = 0; i < 6; ++i) {
    flood.emplace_back([&] {
      ServiceClient c =
          ServiceClient::connect_unix(server.options().unix_path);
      const Json reply =
          c.call(Json::parse("{\"op\":\"sleep\",\"ms\":400}"));
      if (!reply.get_bool("ok", true) &&
          reply.get_string("error", "") == errc::kQueueFull) {
        queue_full.fetch_add(1);
      }
    });
  }
  for (std::thread& t : flood) t.join();
  EXPECT_GE(queue_full.load(), 4u) << "full queue must reject, not block";
  sleeper.join();
  EXPECT_GE(prober.stats().get_int("rejected_backpressure", 0), 4);
}

// Protocol v5 removed the v4 per-session status op of the distributed
// workers: the daemon answers it like any op it does not know, and keeps
// serving.
TEST(Service, RemovedV4OpIsUnknown) {
  ServiceServer server(base_options("v4op"));
  server.start();
  ServiceClient client =
      ServiceClient::connect_unix(server.options().unix_path);
  const std::string session =
      client.open(demo_gds()).get_string("session", "");
  ASSERT_FALSE(session.empty());
  const Json reply = client.call(Json(
      Json::Object{{"op", Json("shard")}, {"session", Json(session)}}));
  EXPECT_FALSE(reply.get_bool("ok", true));
  EXPECT_EQ(reply.get_string("error", ""), errc::kUnknownOp);
  EXPECT_TRUE(client.ping().get_bool("ok", false));
  client.close_session(session);
}

TEST(Service, SessionLimitYieldsStructuredError) {
  ServiceOptions opt = base_options("maxsessions");
  opt.max_sessions = 1;
  ServiceServer server(std::move(opt));
  server.start();
  ServiceClient client =
      ServiceClient::connect_unix(server.options().unix_path);
  const std::string first =
      client.open(demo_gds()).get_string("session", "");
  try {
    client.open(demo_gds());
    FAIL() << "second open should hit the session limit";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), errc::kTooManySessions);
  }
  // Closing frees the slot.
  client.close_session(first);
  EXPECT_FALSE(client.open(demo_gds()).get_string("session", "").empty());
}

TEST(Service, QueuedPastDeadlineIsRefused) {
  ServiceOptions opt = base_options("deadline");
  opt.workers = 1;
  opt.enable_debug_ops = true;
  ServiceServer server(std::move(opt));
  server.start();
  ServiceClient blocker =
      ServiceClient::connect_unix(server.options().unix_path);
  std::thread sleeper([&] {
    blocker.call(Json::parse("{\"op\":\"sleep\",\"ms\":300,\"id\":1}"));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ServiceClient client =
      ServiceClient::connect_unix(server.options().unix_path);
  // Will sit behind the 300ms sleeper but only has a 10ms budget.
  const Json reply = client.call(
      Json::parse("{\"op\":\"sleep\",\"ms\":1,\"deadline_ms\":10}"));
  EXPECT_FALSE(reply.get_bool("ok", true));
  EXPECT_EQ(reply.get_string("error", ""), errc::kDeadlineExceeded);
  sleeper.join();
}

TEST(Service, IdleSessionsAreEvicted) {
  ServiceOptions opt = base_options("evict");
  opt.idle_timeout_ms = 50;  // housekeeping tick is 200ms
  ServiceServer server(std::move(opt));
  server.start();
  ServiceClient client =
      ServiceClient::connect_unix(server.options().unix_path);
  const std::string session =
      client.open(demo_gds()).get_string("session", "");
  ASSERT_FALSE(session.empty());
  Json stats = client.stats();
  EXPECT_EQ(stats.get_int("active_sessions", -1), 1);
  for (int i = 0; i < 100 && stats.get_int("active_sessions", -1) != 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stats = client.stats();
  }
  EXPECT_EQ(stats.get_int("active_sessions", -1), 0);
  EXPECT_EQ(stats.get_int("sessions_evicted", -1), 1);
  try {
    client.flow(session);
    FAIL() << "evicted session should be unknown";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), errc::kUnknownSession);
  }
}

TEST(Service, ShutdownOpDrainsAndRefusesNewWork) {
  ServiceServer server(base_options("shutdownop"));
  server.start();
  const std::string path = server.options().unix_path;
  {
    ServiceClient client = ServiceClient::connect_unix(path);
    client.shutdown_server();
  }
  server.wait();  // returns because the op triggered the drain
  EXPECT_TRUE(server.draining());
  EXPECT_THROW(ServiceClient::connect_unix(path), ProtocolError);
}

TEST(Service, EightClientStormWithMidStormShutdown) {
  ServiceOptions opt = base_options("storm");
  opt.workers = 4;
  opt.pool_threads = 4;
  opt.max_sessions = 12;
  opt.max_queue = 8;
  ServiceServer server(std::move(opt));
  server.start();
  const std::string path = server.options().unix_path;

  // A session every client hammers concurrently, besides its own.
  ServiceClient setup = ServiceClient::connect_unix(path);
  const std::string shared =
      setup.open(demo_gds()).get_string("session", "");
  ASSERT_FALSE(shared.empty());

  std::atomic<std::uint64_t> ok_replies{0};
  std::atomic<std::uint64_t> rejections{0};
  std::atomic<bool> invariant_broken{false};
  std::vector<std::thread> clients;
  clients.reserve(8);
  for (unsigned c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      try {
        ServiceClient client = ServiceClient::connect_unix(path);
        std::string own;
        for (int i = 0; i < 40; ++i) {
          Json reply;
          switch ((i + static_cast<int>(c)) % 4) {
            case 0:
              if (own.empty()) {
                reply = client.call(Json::parse(
                    "{\"op\":\"open\",\"path\":\"" + demo_gds() + "\"}"));
                if (reply.get_bool("ok", false)) {
                  own = reply.get_string("session", "");
                }
                break;
              }
              [[fallthrough]];
            case 1:
              reply = client.call(Json(Json::Object{
                  {"op", Json("edit")},
                  {"session", Json(own.empty() ? shared : own)},
                  {"edits", Json(Json::Array{edit_patch(i % 2 == 1)})}}));
              break;
            case 2:
              reply = client.call(Json(Json::Object{
                  {"op", Json("flow")}, {"session", Json(shared)}}));
              break;
            default:
              reply = client.stats();
              break;
          }
          if (reply.get_bool("ok", false)) {
            ok_replies.fetch_add(1);
          } else {
            const std::string code = reply.get_string("error", "");
            // Under storm + shutdown these are the only legal failures.
            if (code != errc::kShuttingDown && code != errc::kQueueFull &&
                code != errc::kTooManySessions &&
                code != errc::kUnknownSession) {
              invariant_broken.store(true);
            }
            rejections.fetch_add(1);
          }
        }
      } catch (const ProtocolError&) {
        // Connection cut by shutdown: expected for late clients.
      } catch (const JsonError&) {
        invariant_broken.store(true);
      }
    });
  }

  // Let the storm develop, then pull the plug while requests are in
  // flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server.request_shutdown();
  for (std::thread& t : clients) t.join();
  server.wait();

  EXPECT_FALSE(invariant_broken.load());
  EXPECT_GT(ok_replies.load(), 0u);
  const ServiceStats stats = server.stats();
  // Graceful: everything admitted was answered, nothing abandoned.
  EXPECT_EQ(stats.requests_admitted, stats.requests_completed);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(Service, StatsOpMatchesServerStats) {
  ServiceServer server(base_options("stats"));
  server.start();
  ServiceClient client =
      ServiceClient::connect_unix(server.options().unix_path);
  client.ping();
  const Json s = client.stats();
  EXPECT_EQ(s.get_int("active_sessions", -1), 0);
  EXPECT_FALSE(s.get_bool("draining", true));
  EXPECT_EQ(static_cast<std::uint64_t>(s.get_int("requests_admitted", -1)),
            server.stats().requests_admitted);
}

}  // namespace
}  // namespace dfm::service
