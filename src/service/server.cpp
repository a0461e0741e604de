#include "service/server.h"

#include "core/fix_engine.h"
#include "core/stream_source.h"
#include "core/telemetry.h"
#include "core/version.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace dfm::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

/// One accepted connection. The reader thread owns the receive side; any
/// executor may write a response, serialized by `write_mu`. The fd stays
/// open (only shutdown(2), never close(2)) until the Conn is destroyed,
/// so a late writer can never hit a recycled descriptor.
struct ServiceServer::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::mutex write_mu;
  std::atomic<bool> open{true};
  std::atomic<bool> done{false};  // reader thread exited

  void shut() {
    if (open.exchange(false)) ::shutdown(fd, SHUT_RDWR);
  }
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

/// One open design. `mu` is the session's strand: an executor holds it
/// for the duration of an op, so ops on one session serialize while
/// different sessions run concurrently.
struct ServiceServer::Session {
  std::string id;
  std::mutex mu;
  std::unique_ptr<DfmFlowSession> flow;
  std::atomic<std::int64_t> last_used_ns{0};

  void touch() {
    last_used_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }
};

/// An admitted request waiting for an executor.
struct ServiceServer::Job {
  std::shared_ptr<Conn> conn;
  Json request;
  std::uint64_t id = 0;
  std::string op;
  std::string trace_id;            // propagated trace context (may be "")
  std::uint64_t parent_span = 0;   // client's span id, 0 when untraced
  Clock::time_point arrival;
  Clock::time_point deadline;
  bool has_deadline = false;
};

ServiceServer::ServiceServer(ServiceOptions options)
    : options_(std::move(options)),
      pool_(options_.pool_threads),
      recorder_(options_.flight_records) {
  options_.workers = std::max(1u, options_.workers);
}

ServiceServer::~ServiceServer() {
  request_shutdown();
  wait();
}

void ServiceServer::start() {
  if (started_) throw std::runtime_error("service: already started");
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    throw std::runtime_error("service: no listener configured");
  }
  if (options_.tcp_port > 65535) {
    throw std::runtime_error("service: tcp port " +
                             std::to_string(options_.tcp_port) +
                             " is out of range (0-65535)");
  }

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("service: unix path too long: " +
                               options_.unix_path);
    }
    std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (unix_fd_ < 0) {
      throw std::runtime_error(std::string("service: socket: ") +
                               std::strerror(errno));
    }
    ::unlink(options_.unix_path.c_str());  // stale socket from a past run
    if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(unix_fd_, 64) != 0) {
      const std::string why = std::strerror(errno);
      close_fd(unix_fd_);
      throw std::runtime_error("service: bind " + options_.unix_path + ": " +
                               why);
    }
  }

  if (options_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (tcp_fd_ < 0) {
      close_fd(unix_fd_);
      throw std::runtime_error(std::string("service: socket: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(tcp_fd_, 64) != 0) {
      const std::string why = std::strerror(errno);
      close_fd(unix_fd_);
      close_fd(tcp_fd_);
      throw std::runtime_error("service: bind tcp 127.0.0.1:" +
                               std::to_string(options_.tcp_port) + ": " + why);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      resolved_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }

  if (::pipe2(wake_pipe_, O_CLOEXEC) != 0) {
    close_fd(unix_fd_);
    close_fd(tcp_fd_);
    throw std::runtime_error(std::string("service: pipe: ") +
                             std::strerror(errno));
  }

  started_ = true;
  acceptor_ = std::thread([this] { acceptor_loop(); });
  executors_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    executors_.emplace_back([this, i] { executor_loop(i); });
  }
}

void ServiceServer::request_shutdown() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    // Best-effort wake; the acceptor also polls with a timeout.
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
  queue_cv_.notify_all();
}

void ServiceServer::wait() {
  std::lock_guard<std::mutex> wlock(wait_mu_);
  if (joined_ || !started_) return;
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  // Queue fully drained; now cut the connections so their readers exit.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [thread, conn] : conns_) conn->shut();
  }
  reap_finished_conns(/*join_all=*/true);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  joined_ = true;
}

ServiceStats ServiceServer::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    s.active_sessions = sessions_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.queue_depth = queue_.size();
  }
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.requests_admitted = requests_admitted_.load(std::memory_order_relaxed);
  s.requests_completed = requests_completed_.load(std::memory_order_relaxed);
  s.rejected_backpressure =
      rejected_backpressure_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.sessions_evicted = sessions_evicted_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.slow_requests = slow_requests_.load(std::memory_order_relaxed);
  s.draining = draining_.load(std::memory_order_acquire);
  return s;
}

// ---------------------------------------------------------------------------
// Acceptor

void ServiceServer::acceptor_loop() {
  telemetry::set_thread_name("service acceptor");
  for (;;) {
    pollfd fds[3];
    nfds_t n = 0;
    const auto add = [&](int fd) {
      if (fd >= 0) {
        fds[n].fd = fd;
        fds[n].events = POLLIN;
        fds[n].revents = 0;
        ++n;
      }
    };
    add(unix_fd_);
    add(tcp_fd_);
    add(wake_pipe_[0]);
    // The timeout doubles as the housekeeping tick (eviction, reaping).
    const int rc = ::poll(fds, n, 200);
    if (draining_.load(std::memory_order_acquire)) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (nfds_t i = 0; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      if (fds[i].fd == wake_pipe_[0]) continue;  // handled by the flag check
      const int cfd = ::accept(fds[i].fd, nullptr, nullptr);
      if (cfd < 0) continue;
      auto conn = std::make_shared<Conn>();
      conn->fd = cfd;
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = ++conn_seq_;
      conns_.emplace_back(std::thread([this, conn] { conn_loop(conn); }),
                          conn);
    }
    evict_idle_sessions();
    reap_finished_conns(/*join_all=*/false);
  }
  close_fd(unix_fd_);
  close_fd(tcp_fd_);
}

void ServiceServer::evict_idle_sessions() {
  if (options_.idle_timeout_ms == 0) return;
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
  const std::int64_t limit_ns =
      static_cast<std::int64_t>(options_.idle_timeout_ms) * 1000000;
  std::vector<std::shared_ptr<Session>> evicted;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      // use_count 1 = no executor holds it, so nothing is in flight.
      const bool idle =
          it->second.use_count() == 1 &&
          now_ns - it->second->last_used_ns.load(std::memory_order_relaxed) >
              limit_ns;
      if (idle) {
        evicted.push_back(std::move(it->second));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    TELEM_GAUGE_SET("service.active_sessions", sessions_.size());
  }
  if (!evicted.empty()) {
    sessions_evicted_.fetch_add(evicted.size(), std::memory_order_relaxed);
    TELEM_COUNTER_ADD("service.sessions_evicted", evicted.size());
  }
  // Session destruction (snapshots, caches) happens here, outside the
  // registry lock.
}

void ServiceServer::reap_finished_conns(bool join_all) {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (join_all || it->second->done.load(std::memory_order_acquire)) {
        to_join.push_back(std::move(it->first));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
}

// ---------------------------------------------------------------------------
// Connection reader

Json ServiceServer::hello_payload() const {
  Json::Object out;
  out["op"] = Json("hello");
  out["ok"] = Json(true);
  out["server"] = Json("dfmkit");
  out["protocol"] = Json(kProtocolVersion);
  out["revision"] = Json(std::string(git_revision()));
  out["build"] = Json(std::string(build_config()));
  return Json(std::move(out));
}

void ServiceServer::send(const std::shared_ptr<Conn>& conn,
                         const Json& response) {
  const std::string payload = response.dump();
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open.load(std::memory_order_acquire)) return;
  try {
    write_frame(conn->fd, payload);
  } catch (const ProtocolError&) {
    conn->shut();  // peer is gone; reader will notice and exit
  }
}

void ServiceServer::conn_loop(std::shared_ptr<Conn> conn) {
  telemetry::set_thread_name("service conn " + std::to_string(conn->id));
  send(conn, hello_payload());
  std::string payload;
  while (conn->open.load(std::memory_order_acquire)) {
    try {
      if (!read_frame(conn->fd, payload, options_.max_frame_bytes)) break;
    } catch (const ProtocolError& pe) {
      // Framing is unrecoverable (the length prefix can no longer be
      // trusted): structured error, then drop the connection. Sessions
      // are server-scoped, so nothing leaks — an abandoned session is
      // reclaimed by idle eviction.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      TELEM_COUNTER_ADD("service.protocol_errors", 1);
      send(conn, make_error(0, pe.code(), pe.what()));
      break;
    }
    handle_request(conn, payload);
  }
  conn->shut();
  conn->done.store(true, std::memory_order_release);
}

void ServiceServer::handle_request(const std::shared_ptr<Conn>& conn,
                                   const std::string& payload) {
  Json req;
  try {
    req = Json::parse(payload);
    if (!req.is_object()) throw JsonError("request is not a JSON object");
  } catch (const JsonError& e) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    TELEM_COUNTER_ADD("service.protocol_errors", 1);
    send(conn, make_error(0, errc::kBadJson, e.what()));
    return;
  }

  std::uint64_t id = 0;
  std::string op;
  std::string trace_id;
  std::uint64_t parent_span = 0;
  std::int64_t deadline_ms = 0;
  try {
    id = static_cast<std::uint64_t>(req.get_int("id", 0));
    op = req.get_string("op", "");
    // Protocol v3 trace context: opaque to the server except that the
    // request span it records parents under the client's span id.
    trace_id = req.get_string("trace_id", "");
    parent_span = static_cast<std::uint64_t>(req.get_int("parent_span", 0));
    deadline_ms = req.get_int(
        "deadline_ms", static_cast<std::int64_t>(options_.default_deadline_ms));
  } catch (const JsonError& e) {
    send(conn, make_error(id, errc::kBadRequest, e.what()));
    return;
  }
  if (op.empty()) {
    send(conn, make_error(id, errc::kBadRequest, "missing \"op\""));
    return;
  }

  // Control ops answer inline from the reader thread: they touch no
  // session and must stay responsive even when the queue is full or the
  // server is draining.
  if (op == "ping") {
    send(conn, make_ok(id));
    return;
  }
  if (op == "version") {
    Json::Object fields;
    fields["revision"] = Json(std::string(git_revision()));
    fields["build"] = Json(std::string(build_config()));
    fields["protocol"] = Json(kProtocolVersion);
    send(conn, make_ok(id, std::move(fields)));
    return;
  }
  if (op == "stats") {
    send(conn, inline_stats(id));
    return;
  }
  if (op == "metrics") {
    send(conn, inline_metrics(id));
    return;
  }
  if (op == "debug") {
    // Flight-recorder drain. Deliberately inline and ungated: its whole
    // point is post-morteming a server whose queue is wedged.
    send(conn, inline_debug(id, req));
    return;
  }
  if (op == "shutdown") {
    send(conn, make_ok(id));
    request_shutdown();
    return;
  }

  if (draining_.load(std::memory_order_acquire)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    TELEM_COUNTER_ADD("service.rejected_shutdown", 1);
    send(conn,
         make_error(id, errc::kShuttingDown, "server is shutting down"));
    return;
  }

  Job job;
  job.conn = conn;
  job.request = std::move(req);
  job.id = id;
  job.op = op;
  job.trace_id = std::move(trace_id);
  job.parent_span = parent_span;
  job.arrival = Clock::now();
  if (deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline = job.arrival + std::chrono::milliseconds(deadline_ms);
  }

  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (queue_.size() >= options_.max_queue) {
      const std::size_t depth = queue_.size();
      lock.unlock();
      rejected_backpressure_.fetch_add(1, std::memory_order_relaxed);
      TELEM_COUNTER_ADD("service.rejected_backpressure", 1);
      send(conn, make_error(id, errc::kQueueFull,
                            "admission queue full (" + std::to_string(depth) +
                                "/" + std::to_string(options_.max_queue) +
                                "); retry later"));
      return;
    }
    queue_.push_back(std::move(job));
    const auto depth = static_cast<std::uint64_t>(queue_.size());
    std::uint64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
    while (depth > seen && !max_queue_depth_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
    TELEM_GAUGE_SET("service.queue_depth", depth);
    // Distinct name from the gauge: a Prometheus exposition may not
    // reuse one family name with two types.
    TELEM_HIST_OBSERVE("service.queue_depth_at_admit",
                       ({0, 1, 2, 4, 8, 16, 32, 64}), depth);
  }
  requests_admitted_.fetch_add(1, std::memory_order_relaxed);
  TELEM_COUNTER_ADD("service.requests", 1);
  queue_cv_.notify_one();
}

// ---------------------------------------------------------------------------
// Executors

void ServiceServer::executor_loop(unsigned index) {
  telemetry::set_thread_name("service executor " + std::to_string(index));
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        // Draining and nothing left: in-flight work is done, exit.
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      TELEM_GAUGE_SET("service.queue_depth", queue_.size());
    }

    const double queue_ms = ms_since(job.arrival);
    const std::uint64_t span_id = telemetry::next_span_id();
    const std::uint64_t start_ns = telemetry::now_ns();
    Json response;
    {
      // The request span carries the propagated trace context: its own
      // id (echoed to the client) and the client's span id as parent,
      // so trace-merge can nest this server's flow/<pass> subtree under
      // the client's request span.
      telemetry::Span span("service/request", job.id, span_id,
                           job.parent_span);
      if (job.has_deadline && Clock::now() > job.deadline) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        TELEM_COUNTER_ADD("service.deadline_exceeded", 1);
        response = make_error(job.id, errc::kDeadlineExceeded,
                              "request spent its deadline in the queue");
      } else {
        try {
          response = execute(job);
        } catch (const ProtocolError& pe) {
          response = make_error(job.id, pe.code(), pe.what());
        } catch (const JsonError& je) {
          response = make_error(job.id, errc::kBadRequest, je.what());
        } catch (const std::invalid_argument& e) {
          // A run option the shared checks (check_flow_passes, ...) refuse.
          response = make_error(job.id, errc::kBadRequest, e.what());
        } catch (const std::exception& e) {
          response = make_error(job.id, errc::kInternal, e.what());
        }
      }
    }
    if (!job.trace_id.empty()) {
      // Echo the server-side span so the caller can correlate without
      // the trace file. Outside the report string: served-vs-direct
      // byte identity is over "report" only.
      Json::Object trace;
      trace["span_id"] = Json(span_id);
      trace["start_ns"] = Json(start_ns);
      trace["end_ns"] = Json(telemetry::now_ns());
      trace["queue_ns"] = Json(static_cast<std::uint64_t>(queue_ms * 1e6));
      response.set("trace", Json(std::move(trace)));
    }
    // Bookkeeping before the reply goes out: a client that reacts to
    // its response with an immediate stats/metrics/debug op must see
    // this request already counted and recorded.
    requests_completed_.fetch_add(1, std::memory_order_relaxed);
    finish_request(job, response, queue_ms, start_ns);
    send(job.conn, response);
  }
}

/// Completion bookkeeping shared by every executed request: the overall
/// and per-op latency/queue-wait histograms, the flight-recorder entry,
/// and the slow-request threshold log.
void ServiceServer::finish_request(const Job& job, const Json& response,
                                   double queue_ms, std::uint64_t start_ns) {
  const double total_ms = ms_since(job.arrival);
  TELEM_HIST_OBSERVE("service.request_ms",
                     ({1, 5, 10, 50, 100, 500, 1000, 5000}), total_ms);
  TELEM_HIST_OBSERVE("service.queue_wait_ms",
                     ({0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000}), queue_ms);
  // Per-op histograms are keyed by dynamic names, so they bypass the
  // macros' static caching — fine at per-request (not per-tile) rate.
  // Only vocabulary ops get their own series: unknown-op garbage must
  // not mint unbounded registry entries.
  static const std::vector<double> kLatencyBounds{1,   5,   10,   50,
                                                  100, 500, 1000, 5000};
  static const std::vector<double> kQueueBounds{0.1, 0.5, 1,   5,  10,
                                                50,  100, 500, 1000};
  const bool known = job.op == "open" || job.op == "edit" ||
                     job.op == "flow" || job.op == "fix" ||
                     job.op == "close" || job.op == "sleep";
  const std::string op = known ? job.op : "other";
  telemetry::histogram("service.op." + op + ".request_ms", kLatencyBounds)
      .observe(total_ms);
  telemetry::histogram("service.op." + op + ".queue_wait_ms", kQueueBounds)
      .observe(queue_ms);

  const bool ok = response.get_bool("ok", false);
  FlightRecord rec;
  rec.id = job.id;
  rec.parent_span = job.parent_span;
  rec.start_ns = start_ns;
  rec.queue_ms = queue_ms;
  rec.total_ms = total_ms;
  flight_copy(rec.op, job.op);
  flight_copy(rec.session, response.get_string(
                               "session", job.request.get_string("session",
                                                                 "")));
  flight_copy(rec.trace_id, job.trace_id);
  flight_copy(rec.outcome, ok ? "ok" : response.get_string("error",
                                                           errc::kInternal));
  recorder_.record(rec);

  if (options_.slow_request_ms > 0 && total_ms >= options_.slow_request_ms) {
    slow_requests_.fetch_add(1, std::memory_order_relaxed);
    TELEM_COUNTER_ADD("service.slow_requests", 1);
    std::fprintf(stderr,
                 "dfmkit serve: slow request id=%llu op=%s session=%s "
                 "trace=%s queue_ms=%.1f total_ms=%.1f outcome=%s\n",
                 static_cast<unsigned long long>(rec.id), rec.op, rec.session,
                 rec.trace_id[0] != '\0' ? rec.trace_id : "-", rec.queue_ms,
                 rec.total_ms, rec.outcome);
  }
}

Json ServiceServer::execute(Job& job) {
  if (job.op == "open") return op_open(job.id, job.request);
  if (job.op == "edit") return op_edit(job.id, job.request);
  if (job.op == "flow") return op_flow(job.id, job.request);
  if (job.op == "fix") return op_fix(job.id, job.request);
  if (job.op == "close") return op_close(job.id, job.request);
  if (job.op == "sleep" && options_.enable_debug_ops) {
    const std::int64_t ms =
        std::clamp<std::int64_t>(job.request.get_int("ms", 0), 0, 10000);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return make_ok(job.id);
  }
  throw ProtocolError(errc::kUnknownOp, "unknown op '" + job.op + "'");
}

// ---------------------------------------------------------------------------
// Analysis ops

std::shared_ptr<ServiceServer::Session> ServiceServer::find_session(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

Json ServiceServer::op_open(std::uint64_t id, const Json& req) {
  const std::string path = req.get_string("path", "");
  if (path.empty()) {
    throw ProtocolError(errc::kBadRequest, "open: missing \"path\"");
  }
  const std::string top_name = req.get_string("top", "");
  std::vector<std::string> passes;
  if (const Json* p = req.find("passes")) {
    for (const Json& e : p->as_array()) passes.push_back(e.as_string());
  }
  check_flow_passes("open", passes);
  const std::int64_t litho_tile = req.get_int("litho_tile", 0);
  if (litho_tile < 0) {
    throw ProtocolError(errc::kBadRequest, "open: bad \"litho_tile\"");
  }

  // Reserve the registry slot up front: the max-sessions limit is
  // enforced before any expensive work, and concurrent opens cannot
  // overshoot it.
  auto session = std::make_shared<Session>();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (sessions_.size() >= options_.max_sessions) {
      throw ProtocolError(errc::kTooManySessions,
                          "open: session limit reached (" +
                              std::to_string(options_.max_sessions) + ")");
    }
    session->id = "s" + std::to_string(++session_seq_);
    sessions_[session->id] = session;
    TELEM_GAUGE_SET("service.active_sessions", sessions_.size());
  }

  std::string report;
  Rect bbox = Rect::empty();
  try {
    std::lock_guard<std::mutex> slock(session->mu);
    DfmFlowOptions fo = options_.flow;
    fo.pool = &pool_;  // all sessions share the server's compute pool
    if (!passes.empty()) fo.passes = std::move(passes);
    if (litho_tile > 0) fo.litho_tile = litho_tile;

    Library lib = [&] {
      try {
        return read_layout_file(path);
      } catch (const std::exception& e) {
        throw ProtocolError(errc::kBadRequest,
                            "open: " + path + ": " + e.what());
      }
    }();
    std::uint32_t top = 0;
    try {
      top = lib.top_cell(top_name);
    } catch (const std::exception& e) {
      throw ProtocolError(errc::kBadRequest,
                          "open: " + std::string(e.what()));
    }
    session->flow = std::make_unique<DfmFlowSession>(lib, top, fo);
    report = flow_report_canonical_json(session->flow->report());
    bbox = session->flow->snapshot().bbox();
    session->touch();
  } catch (...) {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.erase(session->id);
    TELEM_GAUGE_SET("service.active_sessions", sessions_.size());
    throw;
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  TELEM_COUNTER_ADD("service.sessions_opened", 1);

  Json::Object fields;
  fields["session"] = Json(session->id);
  fields["report"] = Json(std::move(report));
  fields["bbox"] = Json(Json::Array{Json(bbox.lo.x), Json(bbox.lo.y),
                                    Json(bbox.hi.x), Json(bbox.hi.y)});
  return make_ok(id, std::move(fields));
}

Json ServiceServer::op_edit(std::uint64_t id, const Json& req) {
  const std::string sid = req.get_string("session", "");
  const auto session = find_session(sid);
  if (!session) {
    throw ProtocolError(errc::kUnknownSession,
                        "edit: unknown session '" + sid + "'");
  }
  const Json* edits = req.find("edits");
  if (edits == nullptr) {
    throw ProtocolError(errc::kBadRequest, "edit: missing \"edits\"");
  }
  // One edit request = one LayoutDelta = one incremental splice, exactly
  // like one DfmFlowSession::apply() call.
  LayoutDelta delta;
  for (const Json& item : edits->as_array()) {
    const LayerKey layer = layer_from_name(item.get_string("layer", ""));
    const Json* r = item.find("rect");
    if (r == nullptr || !r->is_array() || r->as_array().size() != 4) {
      throw ProtocolError(errc::kBadRequest,
                          "edit: \"rect\" must be [x0,y0,x1,y1]");
    }
    const Json::Array& c = r->as_array();
    const Rect rect{c[0].as_int(), c[1].as_int(), c[2].as_int(),
                    c[3].as_int()};
    if (rect.is_empty()) {
      throw ProtocolError(errc::kBadRequest, "edit: empty rect");
    }
    if (item.get_bool("remove", false)) {
      delta.remove(layer, rect);
    } else {
      delta.add(layer, rect);
    }
  }

  std::string report;
  {
    std::lock_guard<std::mutex> slock(session->mu);
    if (!session->flow) {
      throw ProtocolError(errc::kUnknownSession,
                          "edit: session '" + sid + "' is gone");
    }
    const DfmFlowReport& rep = session->flow->apply(delta);
    report = flow_report_canonical_json(rep);
    session->touch();
  }
  Json::Object fields;
  fields["session"] = Json(sid);
  fields["report"] = Json(std::move(report));
  return make_ok(id, std::move(fields));
}

Json ServiceServer::op_flow(std::uint64_t id, const Json& req) {
  const std::string sid = req.get_string("session", "");
  const auto session = find_session(sid);
  if (!session) {
    throw ProtocolError(errc::kUnknownSession,
                        "flow: unknown session '" + sid + "'");
  }
  std::string report;
  {
    std::lock_guard<std::mutex> slock(session->mu);
    if (!session->flow) {
      throw ProtocolError(errc::kUnknownSession,
                          "flow: session '" + sid + "' is gone");
    }
    report = flow_report_canonical_json(session->flow->report());
    session->touch();
  }
  Json::Object fields;
  fields["session"] = Json(sid);
  fields["report"] = Json(std::move(report));
  return make_ok(id, std::move(fields));
}

Json ServiceServer::op_fix(std::uint64_t id, const Json& req) {
  const std::string sid = req.get_string("session", "");
  const auto session = find_session(sid);
  if (!session) {
    throw ProtocolError(errc::kUnknownSession,
                        "fix: unknown session '" + sid + "'");
  }
  // Per-request overrides layered over the server's configured defaults
  // (`dfmkit serve --fix-*`), exactly how "open" treats passes/litho_tile.
  FixOptions fo = options_.flow.fix;
  const std::int64_t max_iters = req.get_int("max_iters", fo.max_iters);
  if (max_iters < 0 || max_iters > kMaxFixIters) {
    throw ProtocolError(errc::kBadRequest, "fix: bad \"max_iters\"");
  }
  fo.max_iters = static_cast<int>(max_iters);
  if (const Json* g = req.find("min_gain")) {
    // The accept gate is `gain > min_gain`: a negative floor would accept
    // candidates that lower the score.
    fo.min_gain = g->as_double();
    if (!std::isfinite(fo.min_gain) || fo.min_gain < 0) {
      throw ProtocolError(errc::kBadRequest, "fix: bad \"min_gain\"");
    }
  }
  if (const Json* m = req.find("moves")) {
    fo.moves.clear();
    for (const Json& e : m->as_array()) fo.moves.push_back(e.as_string());
    check_fix_moves("fix", fo.moves);
  }

  std::string outcome;
  std::string report;
  {
    std::lock_guard<std::mutex> slock(session->mu);
    if (!session->flow) {
      throw ProtocolError(errc::kUnknownSession,
                          "fix: session '" + sid + "' is gone");
    }
    const FixOutcome out = FixEngine::fix(*session->flow, fo);
    outcome = fix_outcome_json(out);
    report = flow_report_canonical_json(session->flow->report());
    session->touch();
  }
  Json::Object fields;
  fields["session"] = Json(sid);
  fields["outcome"] = Json(std::move(outcome));
  fields["report"] = Json(std::move(report));
  return make_ok(id, std::move(fields));
}

Json ServiceServer::op_close(std::uint64_t id, const Json& req) {
  const std::string sid = req.get_string("session", "");
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(sid);
    if (it == sessions_.end()) {
      throw ProtocolError(errc::kUnknownSession,
                          "close: unknown session '" + sid + "'");
    }
    session = std::move(it->second);
    sessions_.erase(it);
    TELEM_GAUGE_SET("service.active_sessions", sessions_.size());
  }
  // In-flight ops on this session hold their own shared_ptr; the state
  // is destroyed when the last one finishes.
  return make_ok(id, {{"session", Json(sid)}});
}

Json ServiceServer::inline_stats(std::uint64_t id) const {
  const ServiceStats s = stats();
  Json::Object fields;
  fields["active_sessions"] = Json(s.active_sessions);
  fields["queue_depth"] = Json(s.queue_depth);
  fields["max_queue_depth"] = Json(s.max_queue_depth);
  fields["requests_admitted"] = Json(s.requests_admitted);
  fields["requests_completed"] = Json(s.requests_completed);
  fields["rejected_backpressure"] = Json(s.rejected_backpressure);
  fields["rejected_shutdown"] = Json(s.rejected_shutdown);
  fields["deadline_exceeded"] = Json(s.deadline_exceeded);
  fields["sessions_opened"] = Json(s.sessions_opened);
  fields["sessions_evicted"] = Json(s.sessions_evicted);
  fields["protocol_errors"] = Json(s.protocol_errors);
  fields["slow_requests"] = Json(s.slow_requests);
  fields["draining"] = Json(s.draining);
  return make_ok(id, std::move(fields));
}

Json ServiceServer::inline_metrics(std::uint64_t id) const {
  const telemetry::MetricsSnapshot snap = telemetry::metrics_snapshot();
  Json::Object fields;
  // Both expositions of the same snapshot: "text" for scrapers (the
  // Prometheus line format), "json" for programmatic consumers like
  // `dfmkit top`, which rebuilds histograms to derive percentiles.
  fields["text"] = Json(telemetry::metrics_text(snap));
  fields["json"] = Json(telemetry::metrics_json(snap));
  return make_ok(id, std::move(fields));
}

Json ServiceServer::inline_debug(std::uint64_t id, const Json& req) const {
  const std::int64_t n =
      std::clamp<std::int64_t>(req.get_int("n", 32), 1,
                               static_cast<std::int64_t>(recorder_.capacity()));
  Json::Array requests;
  for (const FlightRecord& r :
       recorder_.snapshot(static_cast<std::size_t>(n))) {
    Json::Object e;
    e["seq"] = Json(r.seq);
    e["id"] = Json(r.id);
    e["op"] = Json(std::string(r.op));
    e["session"] = Json(std::string(r.session));
    e["trace_id"] = Json(std::string(r.trace_id));
    e["parent_span"] = Json(r.parent_span);
    e["queue_ms"] = Json(r.queue_ms);
    e["total_ms"] = Json(r.total_ms);
    e["outcome"] = Json(std::string(r.outcome));
    requests.emplace_back(std::move(e));
  }
  Json::Object fields;
  fields["requests"] = Json(std::move(requests));  // newest first
  fields["recorded"] = Json(recorder_.recorded());
  fields["capacity"] = Json(recorder_.capacity());
  fields["slow_request_ms"] = Json(options_.slow_request_ms);
  return make_ok(id, std::move(fields));
}

}  // namespace dfm::service
