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
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
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

/// Whether an ArgSpec entry ("--json <path>", "--stream") declares `flag`.
bool declares(const std::vector<std::string>& entries,
              const std::string& flag) {
  return std::any_of(entries.begin(), entries.end(), [&](const auto& e) {
    return e.substr(0, e.find(' ')) == flag;
  });
}

/// The unix socket to serve on or connect to: --socket, else
/// dfmkit.sock in the cwd unless --tcp is given ("" then).
std::string unix_socket(const Args& args) {
  const std::string path = args.str("--socket");
  return path.empty() && !args.has("--tcp") ? "dfmkit.sock" : path;
}

ServiceClient connect(const Args& args) {
  const std::string path = unix_socket(args);
  return path.empty() ? ServiceClient::connect_tcp(args.tcp_port())
                      : ServiceClient::connect_unix(path);
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

std::string ArgSpec::synopsis() const {
  std::string out = name;
  const auto add = [&](const std::string& part) {
    if (!out.empty() && !part.empty()) out += ' ';
    out += part;
  };
  for (const std::string& v : values) add("[" + v + "]");
  for (const std::string& s : switches) add("[" + s + "]");
  add(args);
  return out;
}

std::string ArgSpec::usage() const {
  return "usage: dfmkit " + synopsis() + (notes.empty() ? "" : "\n" + notes);
}

Args Args::parse(const ArgSpec& spec, const std::vector<std::string>& words,
                 std::size_t* command) {
  const std::string who = spec.name.empty() ? "" : spec.name + ": ";
  const auto refuse = [&](const std::string& what) {
    return std::runtime_error(who + what + "\n" + spec.usage());
  };
  Args out;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::string& w = words[i];
    if (!w.starts_with("--")) {
      if (command != nullptr) {
        *command = i;
        return out;
      }
      out.positional.push_back(w);
      continue;
    }
    const std::size_t eq = w.find('=');
    const std::string flag = w.substr(0, eq);
    if (flag == "--threads" || declares(spec.values, flag)) {
      if (eq == std::string::npos && i + 1 >= words.size()) {
        throw std::runtime_error(flag + " needs a value");
      }
      out.flags.emplace_back(
          flag, eq == std::string::npos ? words[++i] : w.substr(eq + 1));
      if (flag == "--threads") {
        out.threads = static_cast<unsigned>(
            parse_count(flag, out.flags.back().second,
                        std::numeric_limits<unsigned>::max()));
      }
    } else if (declares(spec.switches, flag)) {
      if (eq != std::string::npos) throw refuse(flag + " takes no value");
      out.flags.emplace_back(flag, "");
    } else {
      throw refuse("unknown option '" + w + "'");
    }
  }
  if (command != nullptr) {
    *command = words.size();
    return out;
  }
  constexpr std::size_t kAny = std::numeric_limits<std::size_t>::max();
  std::size_t min_args = 0;
  std::size_t max_args = 0;
  std::istringstream synopsis(spec.args);
  for (std::string a; synopsis >> a;) {
    if (a[0] == '<') ++min_args;
    max_args = a.ends_with("...") || max_args == kAny ? kAny : max_args + 1;
  }
  if (out.positional.size() < min_args) throw std::runtime_error(spec.usage());
  if (out.positional.size() > max_args) {
    throw refuse("too many arguments ('" + out.positional[max_args] + "')");
  }
  return out;
}

const std::string* Args::get(const std::string& name) const {
  for (auto it = flags.rbegin(); it != flags.rend(); ++it) {
    if (it->first == name) return &it->second;
  }
  return nullptr;
}

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

DfmFlowOptions flow_options(const Args& args, const std::string& fix_prefix) {
  DfmFlowOptions opt;
  opt.model.sigma = 25;
  opt.threads = args.threads;
  opt.passes = split_commas(args.str("--passes"));
  check_flow_passes("--passes", opt.passes);
  // 0 keeps the default tile edge.
  const Coord litho_tile = args.count<Coord>("--litho-tile", 0);
  if (litho_tile > 0) opt.litho_tile = litho_tile;
  if (const std::string* v = args.get("--litho-fast")) {
    if (*v != "auto" && *v != "off") {
      throw std::runtime_error("--litho-fast: expected auto|off, got '" + *v +
                               "'");
    }
    opt.litho_fast = *v == "off" ? LithoFastMode::kOff : LithoFastMode::kAuto;
  }
  const std::string* budget = args.get("--memory-budget");
  if (budget != nullptr && !parse_byte_size(*budget, &opt.memory_budget)) {
    throw std::runtime_error(
        "--memory-budget: expected a byte size like 64M, got '" + *budget +
        "'");
  }
  const std::string iters = fix_prefix + "max-iters";
  opt.fix.max_iters = args.count(iters, opt.fix.max_iters, kMaxFixIters);
  const std::string gain = fix_prefix + "min-gain";
  if (const std::string* v = args.get(gain)) {
    opt.fix.min_gain = parse_threshold(gain, *v);
  }
  const std::string moves = fix_prefix + "moves";
  opt.fix.moves = split_commas(args.str(moves));
  check_fix_moves(moves, opt.fix.moves);
  return opt;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
  std::printf("wrote %s\n", path.c_str());
}

void start_trace(const Args& args, const char* thread_name) {
  if (!args.has("--trace-out")) return;
  telemetry::set_thread_name(thread_name);
  telemetry::set_enabled(true);
}

void write_trace(const Args& args) {
  const std::string* path = args.get("--trace-out");
  if (path == nullptr) return;
  telemetry::set_enabled(false);
  const telemetry::MetricsSnapshot metrics = telemetry::metrics_snapshot();
  const telemetry::TraceSnapshot trace = telemetry::drain();
  std::ofstream out(*path);
  if (!out) throw std::runtime_error("cannot write " + *path);
  out << telemetry::chrome_trace_json(trace, metrics);
  std::printf("wrote %s (%zu spans, %u threads, max depth %u)\n",
              path->c_str(), trace.total_events(),
              static_cast<unsigned>(trace.threads.size()), trace.max_depth());
}

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

int cmd_serve(const std::vector<std::string>& words) {
  const Args args = Args::parse(
      {.name = "serve",
       .values = {"--socket <path>", "--tcp <port>", "--workers N",
                  "--pool-threads N", "--max-sessions N", "--max-queue N",
                  "--idle-timeout-ms N", "--deadline-ms N",
                  "--passes a,b,...", "--litho-tile N",
                  "--litho-fast auto|off", "--memory-budget <size>",
                  "--fix-max-iters N", "--fix-min-gain G",
                  "--fix-moves a,b,...", "--trace-out <path>",
                  "--flight-records N", "--slow-ms MS"},
       .switches = {"--debug-ops"}},
      words);

  ServiceOptions opt;
  opt.unix_path = unix_socket(args);
  opt.tcp_port = args.tcp_port();
  opt.workers = args.count("--workers", 2u);
  opt.pool_threads = args.count("--pool-threads", args.threads);
  opt.max_sessions = args.count<std::size_t>("--max-sessions", 8);
  opt.max_queue = args.count<std::size_t>("--max-queue", 16);
  opt.idle_timeout_ms = args.count<std::uint64_t>("--idle-timeout-ms", 0);
  opt.default_deadline_ms = args.count<std::uint64_t>("--deadline-ms", 0);
  opt.enable_debug_ops = args.has("--debug-ops");
  opt.flight_records = args.count<std::size_t>("--flight-records", 256);
  if (const std::string* ms = args.get("--slow-ms")) {
    opt.slow_request_ms = parse_threshold("--slow-ms", *ms);
  }
  // Every session the daemon opens runs under these; the --fix-* values
  // are the "fix" op's per-request-overridable defaults.
  opt.flow = flow_options(args, "--fix-");
  start_trace(args, "main");

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

  write_trace(args);
  return 0;
}

int cmd_client(const std::vector<std::string>& words) {
  // Each action's own vocabulary; the connection flags are added to
  // every one. --json is a switch (print the raw reply) for the
  // table-rendering actions and an output path for flow and fix.
  static const std::vector<ArgSpec> kActions = {
      {"ping"},
      {"version"},
      {"shutdown"},
      {"stats", {}, {"--json"}},
      {"metrics", {}, {"--json"}},
      {"debug", {"--n N"}, {"--json"}},
      {"open", {"--top <cell>", "--passes a,b,...", "--litho-tile N"}, {},
       "<layout>"},
      {"edit", {}, {}, "<session> <layer>:<x0>,<y0>,<x1>,<y1>[:remove]..."},
      {"flow", {"--json <path>"}, {}, "<session>"},
      {"fix",
       {"--max-iters N", "--min-gain G", "--moves a,b,...", "--json <path>"},
       {},
       "<session>"},
      {"close", {}, {}, "<session>"},
      {"bench",
       {"--clients N", "--requests N", "--mode inc|cold|flow", "--patch N",
        "--top <cell>", "--passes a,b,...", "--litho-tile N"},
       {},
       "<layout>"},
  };
  ArgSpec connection{"client",
                     {"--socket <path>", "--tcp <port>", "--trace-out <path>"},
                     {},
                     "<action>",
                     "  actions:"};
  for (const ArgSpec& a : kActions) {
    connection.notes += "\n    " + a.synopsis();
  }
  std::size_t at = 0;
  Args::parse(connection, words, &at);
  const auto found =
      at == words.size()
          ? kActions.end()
          : std::find_if(kActions.begin(), kActions.end(),
                         [&](const ArgSpec& a) { return a.name == words[at]; });
  if (found == kActions.end()) throw std::runtime_error(connection.usage());
  const std::string action = found->name;
  ArgSpec spec = *found;
  spec.name = "client " + action;
  spec.values.insert(spec.values.end(), connection.values.begin(),
                     connection.values.end());
  std::vector<std::string> rest = words;
  rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(at));
  const Args args = Args::parse(spec, rest);

  // Every action returns through run_action so --trace-out can close
  // the recording epoch afterwards and write the client-side trace.
  const auto run_action = [&]() -> int {
  if (action == "bench") {
    LoadGenOptions opt;
    opt.unix_path = unix_socket(args);
    opt.tcp_port = args.tcp_port();
    opt.layout_path = args.positional[0];
    opt.top = args.str("--top");
    opt.passes = split_commas(args.str("--passes"));
    opt.litho_tile = args.count<std::int64_t>("--litho-tile", 0);
    opt.clients = args.count("--clients", 4u);
    opt.requests_per_client = args.count("--requests", 16u);
    opt.mode = args.str("--mode", "inc");
    opt.patch = args.count<std::int64_t>("--patch", 400);
    const LoadGenReport rep = service::run_load(opt);
    print_loadgen(rep, opt);
    return rep.errors == 0 ? 0 : 1;
  }

  // Edit specs and numbers are checked before connecting: a typo never
  // reaches the server as some other request. Absent fix numbers (-1)
  // take the server's defaults.
  const std::int64_t litho_tile = args.count<std::int64_t>("--litho-tile", 0);
  const std::int64_t debug_n = args.count<std::int64_t>("--n", 32);
  const std::int64_t max_iters =
      args.count<std::int64_t>("--max-iters", -1, kMaxFixIters);
  const std::string* gain = args.get("--min-gain");
  const double min_gain = gain ? parse_threshold("--min-gain", *gain) : -1;
  Json::Array edits;
  if (action == "edit") {
    for (std::size_t i = 1; i < args.positional.size(); ++i) {
      const CliEdit e = parse_edit(args.positional[i]);
      edits.push_back(ServiceClient::make_edit(e.layer_name, e.rect.lo.x,
                                               e.rect.lo.y, e.rect.hi.x,
                                               e.rect.hi.y, e.remove));
    }
  }

  ServiceClient client = connect(args);
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
  if (args.has("--json") &&
      (action == "stats" || action == "metrics" || action == "debug")) {
    const Json reply = action == "stats"     ? client.stats()
                       : action == "metrics" ? client.metrics()
                                             : client.debug(debug_n);
    std::printf("%s\n", reply.dump().c_str());
    return 0;
  }
  if (action == "stats") {
    const Json reply = client.stats();
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
    // Prometheus text exposition, verbatim (already newline-terminated).
    std::fputs(reply.get_string("text", "").c_str(), stdout);
    return 0;
  }
  if (action == "debug") {
    const Json reply = client.debug(debug_n);
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
  if (action == "open") {
    const Json reply =
        client.open(args.positional[0], args.str("--top"),
                    split_commas(args.str("--passes")), litho_tile);
    std::printf("session %s\n", reply.get_string("session", "?").c_str());
    return 0;
  }
  if (action == "edit") {
    const Json reply = client.edit(args.positional[0], std::move(edits));
    std::printf("ok %s\n", reply.get_string("session", "?").c_str());
    return 0;
  }
  if (action == "flow") {
    const Json reply = client.flow(args.positional[0]);
    const std::string report = reply.get_string("report", "");
    if (args.has("--json")) {
      write_file(args.str("--json"), report);
    } else {
      std::printf("%s\n", report.c_str());
    }
    return 0;
  }
  if (action == "fix") {
    const Json reply = client.fix(args.positional[0], max_iters, min_gain,
                                  split_commas(args.str("--moves")));
    const std::string outcome = reply.get_string("outcome", "");
    if (args.has("--json")) {
      write_file(args.str("--json"), outcome);
    } else {
      std::printf("%s", outcome.c_str());
    }
    return 0;
  }
  if (action == "close") {
    client.close_session(args.positional[0]);
    std::printf("closed %s\n", args.positional[0].c_str());
    return 0;
  }
  // The one action left: shutdown.
  client.shutdown_server();
  std::printf("shutdown requested\n");
  return 0;
  };  // run_action

  // --trace-out opens a recording epoch around the whole action, so
  // every ServiceClient call records a client/request span and stamps
  // trace context on the wire (see `dfmkit trace-merge`).
  start_trace(args, "client");
  const int rc = run_action();
  write_trace(args);
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

int cmd_top(const std::vector<std::string>& words) {
  const Args args = Args::parse(
      {.name = "top",
       .values = {"--socket <path>", "--tcp <port>", "--interval-ms N",
                  "--count N"},
       .switches = {"--no-clear"},
       .notes = "  Polls a running daemon's stats and metrics ops and renders\n"
                "  queue depth, sessions, and per-op latency percentiles.\n"
                "  --count 0 (the default) polls until interrupted."},
      words);
  const std::uint32_t interval_ms =
      std::max(1u, args.count<std::uint32_t>("--interval-ms", 1000));
  const std::uint64_t count = args.count<std::uint64_t>("--count", 0);
  const bool clear = !args.has("--no-clear") && ::isatty(STDOUT_FILENO);
  ServiceClient client = connect(args);

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

int cmd_trace_merge(const std::vector<std::string>& words) {
  const Args args = Args::parse(
      {.name = "trace-merge",
       .values = {"--out <merged.json>"},
       .args = "<client_trace.json> <server_trace.json>...",
       .notes =
           "  Stitches --trace-out files into one Chrome trace: the client\n"
           "  process plus every server process on a shared timeline, with\n"
           "  flow arrows linking each client/request span to the\n"
           "  service/request span it parented (protocol v3 trace\n"
           "  context)."},
      words);
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
