// The resident analysis daemon behind `dfmkit serve`: a session registry
// of DfmFlowSessions fronted by a bounded admission queue, speaking the
// length-prefixed JSON protocol (service/protocol.h) over a Unix-domain
// socket and/or loopback TCP.
//
// Threading model (three kinds of threads, one shared compute pool):
//
//  * one acceptor: polls the listening sockets, accepts connections,
//    and runs the housekeeping tick (idle-session eviction, reaping of
//    finished connection threads);
//  * one reader per connection: reads frames, answers the cheap control
//    ops inline (ping, version, stats, metrics, debug, shutdown), and
//    admits analysis
//    ops (open/edit/flow/close) into the bounded queue — replying with
//    an explicit errc::kQueueFull backpressure error, never blocking,
//    when the queue is at capacity;
//  * `workers` executors: drain the queue and run the analysis ops.
//    All heavy pass work inside an op fans out onto the one shared
//    work-stealing ThreadPool, so compute parallelism is governed by
//    `pool_threads` regardless of how many requests are in flight.
//
// Sessions serialize: each holds a mutex an executor takes for the span
// of an op, so concurrent requests against one session queue behind each
// other (executors are plain threads, not pool workers — blocking there
// cannot starve the compute pool). Reports are produced by the exact
// same DfmFlowSession code path the library exposes, and returned in
// canonical byte-stable form (flow_report_canonical_json), so a served
// response is bit-identical to the equivalent direct call.
//
// Graceful shutdown: request_shutdown() stops accepting connections and
// admitting requests (new ones get errc::kShuttingDown), lets the
// executors drain everything already admitted, then closes connections;
// wait() returns when all threads are joined.
#pragma once

#include "core/dfm_flow.h"
#include "core/incremental.h"
#include "core/parallel.h"
#include "service/flight_recorder.h"
#include "service/protocol.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dfm::service {

struct ServiceOptions {
  /// Unix-domain socket path; empty disables the Unix listener.
  std::string unix_path;
  /// Loopback TCP port: -1 disables, 0 binds an ephemeral port
  /// (resolved via ServiceServer::tcp_port() after start()); start()
  /// rejects anything above 65535.
  int tcp_port = -1;

  /// Request executor threads (the "server worker threads").
  unsigned workers = 2;
  /// Shared compute ThreadPool size (0 = hardware concurrency).
  unsigned pool_threads = 0;

  /// Admission-control limits; exceeding any yields a structured error
  /// reply, never a hang.
  std::size_t max_sessions = 8;
  std::size_t max_queue = 16;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Sessions untouched this long are evicted by the housekeeping tick;
  /// 0 disables eviction.
  std::uint64_t idle_timeout_ms = 0;
  /// Applied to requests that do not carry their own "deadline_ms";
  /// 0 = no deadline. A request still queued past its deadline is
  /// answered errc::kDeadlineExceeded instead of being run.
  std::uint64_t default_deadline_ms = 0;

  /// Enables the "sleep" debug op (tests and benches only).
  bool enable_debug_ops = false;

  /// Flight-recorder ring size (completed-request summaries kept for the
  /// "debug" op). The recorder itself is always on — it is the
  /// post-mortem tool — only its depth is configurable.
  std::size_t flight_records = 256;
  /// Requests slower than this (admission to response, ms) are logged to
  /// stderr and counted in stats().slow_requests; 0 disables the log.
  double slow_request_ms = 0;

  /// Template for every session's flow: tech, optical model, litho tile,
  /// default pass set. `pool`/`threads` are overridden with the server's
  /// shared pool.
  DfmFlowOptions flow;
};

/// Point-in-time counters, also served by the "stats" op.
struct ServiceStats {
  std::size_t active_sessions = 0;
  std::size_t queue_depth = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t rejected_backpressure = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_evicted = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t slow_requests = 0;
  bool draining = false;
};

class ServiceServer {
 public:
  explicit ServiceServer(ServiceOptions options);
  /// request_shutdown() + wait().
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds the listeners and spawns the acceptor + executors. Throws
  /// std::runtime_error when neither listener is configured, the TCP
  /// port is out of range, or a bind fails.
  void start();

  /// Resolved TCP port (after start()); -1 when the TCP listener is off.
  int tcp_port() const { return resolved_tcp_port_; }
  const ServiceOptions& options() const { return options_; }

  /// Begins graceful shutdown: refuse new connections and requests,
  /// drain what was admitted. Thread-safe, idempotent, non-blocking
  /// (safe to call from a request handler or a signal-watcher thread).
  void request_shutdown();

  /// Blocks until every thread is joined (i.e. until a
  /// request_shutdown() — from any thread, including a client's
  /// "shutdown" op — has fully drained).
  void wait();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  ServiceStats stats() const;

 private:
  struct Conn;
  struct Session;
  struct Job;

  void acceptor_loop();
  void executor_loop(unsigned index);
  void conn_loop(std::shared_ptr<Conn> conn);
  void handle_request(const std::shared_ptr<Conn>& conn,
                      const std::string& payload);
  Json execute(Job& job);

  Json op_open(std::uint64_t id, const Json& req);
  Json op_edit(std::uint64_t id, const Json& req);
  Json op_flow(std::uint64_t id, const Json& req);
  Json op_fix(std::uint64_t id, const Json& req);
  Json op_close(std::uint64_t id, const Json& req);
  Json inline_stats(std::uint64_t id) const;
  Json inline_metrics(std::uint64_t id) const;
  Json inline_debug(std::uint64_t id, const Json& req) const;
  void finish_request(const Job& job, const Json& response, double queue_ms,
                      std::uint64_t start_ns);

  std::shared_ptr<Session> find_session(const std::string& id) const;
  void send(const std::shared_ptr<Conn>& conn, const Json& response);
  void evict_idle_sessions();
  void reap_finished_conns(bool join_all);
  Json hello_payload() const;

  ServiceOptions options_;
  ThreadPool pool_;
  FlightRecorder recorder_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int resolved_tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};
  bool started_ = false;

  std::atomic<bool> draining_{false};

  // Admission queue.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;

  // Session registry.
  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  std::uint64_t session_seq_ = 0;

  // Connections (guarded by conns_mu_).
  mutable std::mutex conns_mu_;
  std::vector<std::pair<std::thread, std::shared_ptr<Conn>>> conns_;
  std::uint64_t conn_seq_ = 0;

  std::thread acceptor_;
  std::vector<std::thread> executors_;
  std::mutex wait_mu_;  // serializes wait() callers
  bool joined_ = false;

  // Counters (relaxed; exact enough for stats).
  std::atomic<std::uint64_t> requests_admitted_{0};
  std::atomic<std::uint64_t> requests_completed_{0};
  std::atomic<std::uint64_t> rejected_backpressure_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> sessions_evicted_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> slow_requests_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
};

}  // namespace dfm::service
