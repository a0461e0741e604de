#include "cli_service.h"

#include "core/report.h"
#include "core/snapshot_source.h"
#include "core/telemetry.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/server.h"
#include "service/trace_merge.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <unistd.h>

namespace dfm::cli {

namespace {

using service::Json;
using service::LoadGenOptions;
using service::LoadGenReport;
using service::ServiceClient;
using service::ServiceOptions;
using service::ServiceServer;

/// Tiny argv walker: collects positionals, resolves --flag / --flag value.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  static Args parse(int argc, char** argv, int start,
                    const std::vector<std::string>& value_flags) {
    Args out;
    for (int i = start; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        out.positional.push_back(a);
        continue;
      }
      const bool takes_value =
          std::find(value_flags.begin(), value_flags.end(), a) !=
          value_flags.end();
      if (takes_value) {
        if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
        out.flags.emplace_back(a, argv[++i]);
      } else {
        out.flags.emplace_back(a, "");
      }
    }
    return out;
  }

  const std::string* get(const std::string& name) const {
    for (const auto& [k, v] : flags) {
      if (k == name) return &v;
    }
    return nullptr;
  }
  bool has(const std::string& name) const { return get(name) != nullptr; }
  std::string str(const std::string& name, const std::string& dflt) const {
    const std::string* v = get(name);
    return v ? *v : dflt;
  }
  long num(const std::string& name, long dflt) const {
    const std::string* v = get(name);
    if (!v) return dflt;
    char* end = nullptr;
    const long n = std::strtol(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0') {
      throw std::runtime_error(name + ": not a number: '" + *v + "'");
    }
    return n;
  }
  /// Count flags (threads, limits, ports) go through parse_count, so a
  /// sign or an oversized value is an error instead of a wrapped number.
  template <typename T>
  T count(const std::string& name, T dflt,
          std::uint64_t max = std::numeric_limits<T>::max()) const {
    const std::string* v = get(name);
    return v ? static_cast<T>(parse_count(name, *v, max)) : dflt;
  }
  /// --tcp <port>, or -1 when absent.
  int tcp_port() const {
    return has("--tcp") ? count("--tcp", 0, 65535) : -1;
  }
};

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  for (std::size_t pos = 0; pos < s.size();) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    if (comma > pos) out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

// SIGTERM/SIGINT land on a self-pipe (the only async-signal-safe way to
// reach the server's shutdown path); a watcher thread turns the byte
// into a request_shutdown().
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_signal(int) {
  const char byte = 1;
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

void print_loadgen(const LoadGenReport& rep, const LoadGenOptions& opt) {
  // Parseable: tools/run_benches.sh greps these SERVICE lines.
  std::printf(
      "SERVICE clients=%u mode=%s requests=%llu p50_ms=%.3f p95_ms=%.3f "
      "p99_ms=%.3f trimmed_mean_ms=%.3f backpressure=%llu errors=%llu "
      "wall_ms=%.1f\n",
      opt.clients, opt.mode.c_str(),
      static_cast<unsigned long long>(rep.requests), rep.p50_ms, rep.p95_ms,
      rep.p99_ms, rep.trimmed_mean_ms,
      static_cast<unsigned long long>(rep.backpressure),
      static_cast<unsigned long long>(rep.errors), rep.wall_ms);
}

}  // namespace

CliEdit parse_edit(const std::string& spec) {
  const auto bad = [&] {
    return std::runtime_error(
        "edit spec: expected <layer>:<x0>,<y0>,<x1>,<y1>[:remove], got '" +
        spec + "'");
  };
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) throw bad();
  CliEdit e;
  e.layer_name = spec.substr(0, colon);
  e.layer = service::layer_from_name(e.layer_name);
  std::string rest = spec.substr(colon + 1);
  const std::size_t colon2 = rest.find(':');
  if (colon2 != std::string::npos) {
    if (rest.substr(colon2 + 1) != "remove") throw bad();
    e.remove = true;
    rest = rest.substr(0, colon2);
  }
  Coord c[4];
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t comma = i < 3 ? rest.find(',', pos) : rest.size();
    if (comma == std::string::npos) throw bad();
    const std::string tok = rest.substr(pos, comma - pos);
    std::size_t used = 0;
    try {
      c[i] = std::stoll(tok, &used);
    } catch (const std::exception&) {
      throw bad();
    }
    if (used != tok.size()) throw bad();
    pos = comma + 1;
  }
  e.rect = Rect{c[0], c[1], c[2], c[3]};
  if (e.rect.is_empty()) {
    throw std::runtime_error("edit spec: empty rect '" + spec + "'");
  }
  return e;
}

LithoFastMode parse_litho_fast(const std::string& s) {
  if (s == "auto") return LithoFastMode::kAuto;
  if (s == "off") return LithoFastMode::kOff;
  throw std::runtime_error("--litho-fast: expected auto|off, got '" + s + "'");
}

std::size_t parse_memory_budget(const std::string& s) {
  std::size_t bytes = 0;
  if (!parse_byte_size(s, &bytes)) {
    throw std::runtime_error(
        "--memory-budget: expected a byte size like 64M, got '" + s + "'");
  }
  return bytes;
}

int cmd_serve(int argc, char** argv, unsigned threads) {
  const Args args = Args::parse(
      argc, argv, 2,
      {"--socket", "--tcp", "--workers", "--pool-threads", "--max-sessions",
       "--max-queue", "--idle-timeout-ms", "--deadline-ms", "--passes",
       "--litho-tile", "--litho-fast", "--memory-budget",
       "--fix-max-iters", "--fix-min-gain", "--fix-moves", "--trace-out",
       "--flight-records", "--slow-ms"});
  if (!args.positional.empty()) {
    throw std::runtime_error(
        "usage: dfmkit serve [--socket <path>] [--tcp <port>] [--workers N] "
        "[--pool-threads N] [--max-sessions N] [--max-queue N] "
        "[--idle-timeout-ms N] [--deadline-ms N] [--passes a,b,...] "
        "[--litho-tile N] [--litho-fast auto|off] "
        "[--memory-budget <size>] "
        "[--fix-max-iters N] [--fix-min-gain G] [--fix-moves a,b,...] "
        "[--trace-out <path>] [--flight-records N] [--slow-ms MS] "
        "[--debug-ops]");
  }

  ServiceOptions opt;
  opt.unix_path = args.str("--socket", "");
  opt.tcp_port = args.tcp_port();
  if (opt.unix_path.empty() && opt.tcp_port < 0) {
    opt.unix_path = "dfmkit.sock";  // default: unix socket in the cwd
  }
  opt.workers = args.count("--workers", 2u);
  opt.pool_threads = args.count("--pool-threads", threads);
  opt.max_sessions = args.count<std::size_t>("--max-sessions", 8);
  opt.max_queue = args.count<std::size_t>("--max-queue", 16);
  opt.idle_timeout_ms = args.count<std::uint64_t>("--idle-timeout-ms", 0);
  opt.default_deadline_ms = args.count<std::uint64_t>("--deadline-ms", 0);
  opt.enable_debug_ops = args.has("--debug-ops");
  opt.flight_records = args.count<std::size_t>("--flight-records", 256);
  const std::string slow_ms = args.str("--slow-ms", "");
  if (!slow_ms.empty()) {
    char* end = nullptr;
    opt.slow_request_ms = std::strtod(slow_ms.c_str(), &end);
    if (end == slow_ms.c_str() || *end != '\0') {
      throw std::runtime_error("--slow-ms: not a number: '" + slow_ms + "'");
    }
  }
  opt.flow.tech = Tech::standard();
  opt.flow.model.sigma = 25;
  opt.flow.model.px = 5;
  for (const std::string& name : split_commas(args.str("--passes", ""))) {
    if (canonical_flow_pass(name).empty()) {
      throw std::runtime_error("--passes: unknown pass '" + name + "'");
    }
    opt.flow.passes.push_back(name);
  }
  const long litho_tile = args.num("--litho-tile", 0);
  if (litho_tile > 0) opt.flow.litho_tile = litho_tile;
  // Per-session hydrated snapshot byte budget; every session the daemon
  // opens runs its flow out-of-core under it.
  const std::string budget = args.str("--memory-budget", "");
  if (!budget.empty()) opt.flow.memory_budget = parse_memory_budget(budget);
  // Defaults for the "fix" op, per-request overridable — threaded the
  // same way --litho-fast / --memory-budget configure every session.
  // The fix op's own bound on max_iters.
  opt.flow.fix.max_iters =
      args.count("--fix-max-iters", opt.flow.fix.max_iters, 1000);
  if (const std::string* gain = args.get("--fix-min-gain")) {
    opt.flow.fix.min_gain = parse_threshold("--fix-min-gain", *gain);
  }
  for (const std::string& name : split_commas(args.str("--fix-moves", ""))) {
    if (!parse_fix_kind(name)) {
      throw std::runtime_error("--fix-moves: unknown move '" + name + "'");
    }
    opt.flow.fix.moves.push_back(name);
  }
  const std::string litho_fast = args.str("--litho-fast", "");
  if (!litho_fast.empty()) opt.flow.litho_fast = parse_litho_fast(litho_fast);

  const std::string trace_path = args.str("--trace-out", "");
  if (!trace_path.empty()) {
    telemetry::set_thread_name("main");
    telemetry::set_enabled(true);
  }

  ServiceServer server(std::move(opt));
  server.start();
  if (!server.options().unix_path.empty()) {
    std::printf("dfmkit serve: listening on unix:%s\n",
                server.options().unix_path.c_str());
  }
  if (server.tcp_port() >= 0) {
    std::printf("dfmkit serve: listening on tcp:127.0.0.1:%d\n",
                server.tcp_port());
  }
  std::fflush(stdout);  // readiness marker for scripts tailing the log

  if (::pipe(g_signal_pipe) != 0) {
    throw std::runtime_error("serve: cannot create signal pipe");
  }
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::thread watcher([&server] {
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    server.request_shutdown();
  });

  // Blocks until a SIGTERM/SIGINT or a client "shutdown" op drains the
  // server.
  server.wait();
  std::printf("dfmkit serve: drained, exiting\n");

  // Unblock the watcher if shutdown came from a client op.
  on_signal(0);
  watcher.join();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);

  if (!trace_path.empty()) {
    telemetry::set_enabled(false);
    const telemetry::MetricsSnapshot metrics = telemetry::metrics_snapshot();
    const telemetry::TraceSnapshot trace = telemetry::drain();
    std::ofstream out(trace_path);
    if (!out) throw std::runtime_error("cannot write " + trace_path);
    out << telemetry::chrome_trace_json(trace, metrics);
    std::printf("wrote %s (%zu spans, %u threads)\n", trace_path.c_str(),
                trace.total_events(),
                static_cast<unsigned>(trace.threads.size()));
  }
  return 0;
}

int cmd_client(int argc, char** argv) {
  std::vector<std::string> value_flags = {
      "--socket", "--tcp", "--json", "--top", "--passes", "--litho-tile",
      "--clients", "--requests", "--mode", "--patch", "--max-iters",
      "--min-gain", "--moves", "--trace-out", "--n"};
  // For the table-rendering actions --json is a boolean toggle (print
  // the raw reply), not a path; the walker needs the arity up front.
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "stats" || a == "metrics" || a == "debug") {
      value_flags.erase(
          std::remove(value_flags.begin(), value_flags.end(), "--json"),
          value_flags.end());
      break;
    }
  }
  const Args args = Args::parse(argc, argv, 2, value_flags);
  const auto usage = [] {
    return std::runtime_error(
        "usage: dfmkit client [--socket <path> | --tcp <port>] "
        "[--trace-out <path>] <action>\n"
        "  actions:\n"
        "    ping | version | shutdown\n"
        "    stats [--json]\n"
        "    metrics [--json]\n"
        "    debug [--n N] [--json]\n"
        "    open <layout> [--top <cell>] [--passes a,b,...] "
        "[--litho-tile N]\n"
        "    edit <session> <layer>:<x0>,<y0>,<x1>,<y1>[:remove]...\n"
        "    flow <session> [--json <path>]\n"
        "    fix <session> [--max-iters N] [--min-gain G] [--moves a,b,...] "
        "[--json <path>]\n"
        "    close <session>\n"
        "    bench <layout> [--clients N] [--requests N] "
        "[--mode inc|cold|flow] [--patch N] [--top <cell>] "
        "[--passes a,b,...] [--litho-tile N]");
  };
  if (args.positional.empty()) throw usage();
  const std::string action = args.positional[0];
  const std::string socket = args.str("--socket", "");
  const int tcp = args.tcp_port();

  const auto connect = [&]() -> ServiceClient {
    if (!socket.empty()) return ServiceClient::connect_unix(socket);
    if (tcp >= 0) return ServiceClient::connect_tcp(tcp);
    return ServiceClient::connect_unix("dfmkit.sock");
  };

  // Every action returns through run_action so --trace-out can close
  // the recording epoch afterwards and write the client-side trace.
  const auto run_action = [&]() -> int {
  if (action == "bench") {
    if (args.positional.size() < 2) throw usage();
    LoadGenOptions opt;
    opt.unix_path = (socket.empty() && tcp < 0) ? "dfmkit.sock" : socket;
    opt.tcp_port = tcp;
    opt.layout_path = args.positional[1];
    opt.top = args.str("--top", "");
    opt.passes = split_commas(args.str("--passes", ""));
    opt.litho_tile = args.num("--litho-tile", 0);
    opt.clients = args.count("--clients", 4u);
    opt.requests_per_client = args.count("--requests", 16u);
    opt.mode = args.str("--mode", "inc");
    opt.patch = args.num("--patch", 400);
    const LoadGenReport rep = service::run_load(opt);
    print_loadgen(rep, opt);
    return rep.errors == 0 ? 0 : 1;
  }

  // Edit specs and fix numbers are checked before connecting: a typo
  // never reaches the server as some other request. Absent fix numbers
  // (-1) take the server's defaults.
  const std::int64_t max_iters =
      args.count<std::int64_t>("--max-iters", -1, 1000);
  const std::string* gain = args.get("--min-gain");
  const double min_gain = gain ? parse_threshold("--min-gain", *gain) : -1;
  Json::Array edits;
  if (action == "edit") {
    if (args.positional.size() < 3) throw usage();
    for (std::size_t i = 2; i < args.positional.size(); ++i) {
      const CliEdit e = parse_edit(args.positional[i]);
      edits.push_back(ServiceClient::make_edit(e.layer_name, e.rect.lo.x,
                                               e.rect.lo.y, e.rect.hi.x,
                                               e.rect.hi.y, e.remove));
    }
  }

  ServiceClient client = connect();
  if (action == "ping") {
    client.ping();
    std::printf("ok\n");
    return 0;
  }
  if (action == "version") {
    const Json reply = client.version();
    std::printf("server %s (%s) protocol %lld\n",
                reply.get_string("revision", "?").c_str(),
                reply.get_string("build", "?").c_str(),
                static_cast<long long>(reply.get_int("protocol", 0)));
    return 0;
  }
  if (action == "stats") {
    const Json reply = client.stats();
    if (args.has("--json")) {
      std::printf("%s\n", reply.dump().c_str());
      return 0;
    }
    // Same aligned Table the flow CLI renders its summaries with.
    Table table("server stats");
    table.set_header({"stat", "value"});
    for (const auto& [key, value] : reply.as_object()) {
      if (key == "id" || key == "ok" || key == "op") continue;
      std::string text;
      if (value.is_bool()) {
        text = value.as_bool() ? "yes" : "no";
      } else if (value.is_int()) {
        text = Table::num(value.as_int());
      } else if (value.is_number()) {
        text = Table::num(value.as_double(), 3);
      } else if (value.is_string()) {
        text = value.as_string();
      } else {
        text = value.dump();
      }
      table.add_row({key, text});
    }
    table.print();
    return 0;
  }
  if (action == "metrics") {
    const Json reply = client.metrics();
    if (args.has("--json")) {
      std::printf("%s\n", reply.dump().c_str());
      return 0;
    }
    // Prometheus text exposition, verbatim (already newline-terminated).
    std::fputs(reply.get_string("text", "").c_str(), stdout);
    return 0;
  }
  if (action == "debug") {
    const Json reply = client.debug(args.num("--n", 32));
    if (args.has("--json")) {
      std::printf("%s\n", reply.dump().c_str());
      return 0;
    }
    Table table("flight recorder (newest first)");
    table.set_header({"seq", "id", "op", "session", "trace", "queue_ms",
                      "total_ms", "outcome"});
    const auto num_of = [](const Json& obj, const char* key) {
      const Json* v = obj.find(key);
      return v != nullptr && v->is_number() ? v->as_double() : 0.0;
    };
    if (const Json* requests = reply.find("requests")) {
      for (const Json& rec : requests->as_array()) {
        std::string trace = rec.get_string("trace_id", "");
        if (trace.empty()) trace = "-";
        if (trace.size() > 8) trace.resize(8);  // enough to eyeball-match
        table.add_row({Table::num(rec.get_int("seq", 0)),
                       Table::num(rec.get_int("id", 0)),
                       rec.get_string("op", "?"),
                       rec.get_string("session", "-"), trace,
                       Table::num(num_of(rec, "queue_ms"), 3),
                       Table::num(num_of(rec, "total_ms"), 3),
                       rec.get_string("outcome", "?")});
      }
    }
    table.print();
    std::printf("recorded %lld request(s) total, ring capacity %lld\n",
                static_cast<long long>(reply.get_int("recorded", 0)),
                static_cast<long long>(reply.get_int("capacity", 0)));
    return 0;
  }
  if (action == "shutdown") {
    client.shutdown_server();
    std::printf("shutdown requested\n");
    return 0;
  }
  if (action == "open") {
    if (args.positional.size() < 2) throw usage();
    const Json reply =
        client.open(args.positional[1], args.str("--top", ""),
                    split_commas(args.str("--passes", "")),
                    args.num("--litho-tile", 0));
    std::printf("session %s\n", reply.get_string("session", "?").c_str());
    return 0;
  }
  if (action == "edit") {
    const Json reply = client.edit(args.positional[1], std::move(edits));
    std::printf("ok %s\n", reply.get_string("session", "?").c_str());
    return 0;
  }
  if (action == "flow") {
    if (args.positional.size() < 2) throw usage();
    const Json reply = client.flow(args.positional[1]);
    const std::string report = reply.get_string("report", "");
    const std::string json_path = args.str("--json", "");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) throw std::runtime_error("cannot write " + json_path);
      out << report;
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::printf("%s\n", report.c_str());
    }
    return 0;
  }
  if (action == "fix") {
    if (args.positional.size() < 2) throw usage();
    const Json reply = client.fix(args.positional[1], max_iters, min_gain,
                                  split_commas(args.str("--moves", "")));
    const std::string outcome = reply.get_string("outcome", "");
    const std::string json_path = args.str("--json", "");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) throw std::runtime_error("cannot write " + json_path);
      out << outcome;
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::printf("%s", outcome.c_str());
    }
    return 0;
  }
  if (action == "close") {
    if (args.positional.size() < 2) throw usage();
    client.close_session(args.positional[1]);
    std::printf("closed %s\n", args.positional[1].c_str());
    return 0;
  }
  throw usage();
  };  // run_action

  // --trace-out opens a recording epoch around the whole action, so
  // every ServiceClient call records a client/request span and stamps
  // trace context on the wire (see `dfmkit trace-merge`).
  const std::string trace_path = args.str("--trace-out", "");
  if (!trace_path.empty()) {
    telemetry::set_thread_name("client");
    telemetry::set_enabled(true);
  }
  const int rc = run_action();
  if (!trace_path.empty()) {
    telemetry::set_enabled(false);
    const telemetry::MetricsSnapshot metrics = telemetry::metrics_snapshot();
    const telemetry::TraceSnapshot trace = telemetry::drain();
    std::ofstream out(trace_path);
    if (!out) throw std::runtime_error("cannot write " + trace_path);
    out << telemetry::chrome_trace_json(trace, metrics);
    std::printf("wrote %s (%zu spans, %u threads)\n", trace_path.c_str(),
                trace.total_events(),
                static_cast<unsigned>(trace.threads.size()));
  }
  return rc;
}

namespace {

/// One derived percentile row of `dfmkit top`: a latency histogram
/// rebuilt from the metrics op's JSON exposition.
telemetry::HistogramSnapshot parse_histogram(const Json& h) {
  telemetry::HistogramSnapshot out;
  if (const Json* bounds = h.find("bounds")) {
    for (const Json& b : bounds->as_array()) out.bounds.push_back(b.as_double());
  }
  if (const Json* counts = h.find("counts")) {
    for (const Json& c : counts->as_array()) {
      out.counts.push_back(static_cast<std::uint64_t>(c.as_int()));
    }
  }
  out.total = static_cast<std::uint64_t>(h.get_int("total", 0));
  return out;
}

}  // namespace

int cmd_top(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, 2,
                                {"--socket", "--tcp", "--interval-ms",
                                 "--count"});
  if (!args.positional.empty()) {
    throw std::runtime_error(
        "usage: dfmkit top [--socket <path> | --tcp <port>] "
        "[--interval-ms N] [--count N] [--no-clear]\n"
        "  Polls a running daemon's stats and metrics ops and renders\n"
        "  queue depth, sessions, and per-op latency percentiles.\n"
        "  --count 0 (the default) polls until interrupted.");
  }
  const std::string socket = args.str("--socket", "");
  const int tcp = args.tcp_port();
  const long interval_ms = std::max(1L, args.num("--interval-ms", 1000));
  const std::uint64_t count = args.count<std::uint64_t>("--count", 0);
  const bool clear = !args.has("--no-clear") && ::isatty(STDOUT_FILENO);

  const auto connect = [&]() -> ServiceClient {
    if (!socket.empty()) return ServiceClient::connect_unix(socket);
    if (tcp >= 0) return ServiceClient::connect_tcp(tcp);
    return ServiceClient::connect_unix("dfmkit.sock");
  };
  ServiceClient client = connect();

  for (std::uint64_t tick = 0; count == 0 || tick < count; ++tick) {
    if (tick > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    const Json stats = client.stats();
    const Json metrics = client.metrics();

    if (clear) std::fputs("\033[H\033[2J", stdout);
    Table overview("dfmkit top — server overview");
    overview.set_header({"stat", "value"});
    for (const char* key :
         {"queue_depth", "max_queue_depth", "active_sessions",
          "requests_admitted", "requests_completed", "rejected_backpressure",
          "deadline_exceeded", "slow_requests"}) {
      overview.add_row({key, Table::num(stats.get_int(key, 0))});
    }
    overview.print();

    // Per-op latency percentiles, derived client-side from the bucket
    // snapshots the metrics op exposes (the server never computes
    // percentiles; see DESIGN.md "Observability").
    Table ops("per-op latency (ms)");
    ops.set_header(
        {"op", "count", "p50", "p95", "p99", "queue p50", "queue p95"});
    bool any = false;
    const Json exposition = Json::parse(metrics.get_string("json", "{}"));
    if (const Json* hists = exposition.find("histograms")) {
      static const std::string prefix = "service.op.";
      static const std::string req_suffix = ".request_ms";
      for (const auto& [name, h] : hists->as_object()) {
        if (name.rfind(prefix, 0) != 0) continue;
        if (name.size() < prefix.size() + req_suffix.size() ||
            name.compare(name.size() - req_suffix.size(), req_suffix.size(),
                         req_suffix) != 0) {
          continue;
        }
        const std::string op = name.substr(
            prefix.size(), name.size() - prefix.size() - req_suffix.size());
        const telemetry::HistogramSnapshot req = parse_histogram(h);
        std::string qp50 = "-";
        std::string qp95 = "-";
        if (const Json* qh =
                hists->find(prefix + op + ".queue_wait_ms")) {
          const telemetry::HistogramSnapshot queue = parse_histogram(*qh);
          if (queue.total > 0) {
            qp50 = Table::num(telemetry::histogram_quantile(queue, 0.50), 3);
            qp95 = Table::num(telemetry::histogram_quantile(queue, 0.95), 3);
          }
        }
        ops.add_row({op, Table::num(static_cast<std::int64_t>(req.total)),
                     Table::num(telemetry::histogram_quantile(req, 0.50), 3),
                     Table::num(telemetry::histogram_quantile(req, 0.95), 3),
                     Table::num(telemetry::histogram_quantile(req, 0.99), 3),
                     qp50, qp95});
        any = true;
      }
    }
    if (any) {
      ops.print();
    } else {
      std::printf("(no per-op latency samples yet)\n");
    }
    std::fflush(stdout);
  }
  return 0;
}

int cmd_trace_merge(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, 2, {"--out"});
  if (args.positional.size() < 2) {
    throw std::runtime_error(
        "usage: dfmkit trace-merge <client_trace.json> <server_trace.json> "
        "[more_server_traces.json ...] [--out <merged.json>]\n"
        "  Stitches --trace-out files into one Chrome trace: the client\n"
        "  process plus every server process on a shared timeline, with\n"
        "  flow arrows linking each client/request span to the\n"
        "  service/request span it parented (protocol v3 trace\n"
        "  context).");
  }
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string out_path = args.str("--out", "merged_trace.json");
  std::vector<std::string> servers;
  for (std::size_t i = 1; i < args.positional.size(); ++i) {
    servers.push_back(slurp(args.positional[i]));
  }
  service::TraceMergeStats stats;
  const std::string merged = service::merge_chrome_traces_many(
      slurp(args.positional[0]), servers, &stats);
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  out << merged;
  std::printf(
      "wrote %s: %zu client + %zu server events, %zu request(s) linked "
      "(%zu nested after alignment), clock offset %.1f us\n",
      out_path.c_str(), stats.client_events, stats.server_events,
      stats.linked_requests, stats.nested, stats.offset_us);
  if (stats.linked_requests == 0) {
    std::fprintf(stderr,
                 "dfmkit trace-merge: no spans linked — was the client run "
                 "with --trace-out against a tracing server?\n");
  }
  return 0;
}

}  // namespace dfm::cli
