// Multi-process ShardBackend: N `dfmkit shard-serve` worker processes,
// one per spatial shard, driven over the protocol-v4 framed channel.
// Routing and stitching are byte-for-byte the same logic as
// LocalShardBackend (the route_* helpers are shared); this layer adds
// process lifecycle (fork+exec, readiness wait, shutdown+reap) and
// exact Json serialization, nothing semantic — so local invariance
// tests carry over to the distributed deployment.
#pragma once

#include "core/shard_backend.h"
#include "service/client.h"
#include "shard/plan.h"
#include "shard/worker.h"

#include <sys/types.h>

#include <string>
#include <vector>

namespace dfm::shard {

struct RemoteShardConfig {
  /// Engine configuration every worker reproduces (tech, optical model,
  /// litho tiling/calibration inputs, worker pool size).
  ShardWorkerConfig worker;
  /// Layout file workers hydrate their windows from (GDSII or OASIS,
  /// top cell served by the streaming reader). Required.
  std::string layout_path;
  /// The dfmkit binary to exec as workers (/proc/self/exe for the CLI;
  /// tests pass the DFMKIT_BIN compile definition).
  std::string binary;
  /// Directory for worker sockets and log files. Required; must exist.
  std::string socket_dir;
  int shards = 2;
  /// When non-empty, each worker records telemetry and writes
  /// <trace_dir>/shard-<i>.trace.json on exit (merge with trace-merge).
  std::string trace_dir;
  /// Seconds to wait for each worker's socket to accept.
  double spawn_timeout_s = 30.0;
};

/// One spawned worker process.
struct ShardProcess {
  pid_t pid = -1;
  std::string socket_path;
};

class RemoteShardBackend : public ShardBackend {
 public:
  /// Partitions `extent` (the join of the coordinator snapshot's layer
  /// bboxes) into config.shards cores, spawns one worker per core,
  /// waits for readiness, and shard_open's each one. Throws on spawn,
  /// connect, handshake, or open failure — workers already started are
  /// reaped before the throw.
  RemoteShardBackend(const Rect& extent, RemoteShardConfig config);
  ~RemoteShardBackend() override;

  const ShardPlan& plan() const { return plan_; }
  /// True once an edit escaped the plan extent or a worker failed
  /// mid-batch; every dispatch then declines and the flow computes
  /// locally (byte-identical — the shards just stop accelerating).
  bool degraded() const { return degraded_; }

  std::size_t shard_count() const override { return clients_.size(); }
  bool is_degraded() const override { return degraded_; }

  bool shard_drc(const std::vector<Rule>& rules, std::vector<Region>* bad2x,
                 std::vector<char>* handled) override;
  bool shard_match(std::size_t set_index,
                   const std::vector<AnchorWindow>& sites,
                   std::vector<std::vector<PatternMatch>>* out,
                   std::vector<char>* handled) override;
  bool shard_litho(const std::vector<Rect>& cores,
                   std::vector<TileRisk>* per_core,
                   std::vector<char>* skipped,
                   std::vector<char>* handled) override;
  void shard_apply(const LayoutDelta& delta) override;

 private:
  /// call_ok on worker `w` with trace context attached by the client.
  service::Json call(std::size_t w, service::Json req);
  /// Runs `req_for(w)` against every worker in `targets` concurrently
  /// (one thread per worker; each ServiceClient is single-owner).
  /// Returns one response per target, or empty on any failure (which
  /// also degrades the backend).
  std::vector<service::Json> call_many(
      const std::vector<std::size_t>& targets,
      const std::vector<service::Json>& requests);
  void shutdown_workers() noexcept;

  RemoteShardConfig config_;
  ShardPlan plan_;
  std::vector<ShardProcess> procs_;
  std::vector<service::ServiceClient> clients_;
  bool degraded_ = false;
};

/// Forks and execs `binary shard-serve --socket <socket_path> ...`,
/// redirecting the worker's stdout/stderr to `log_path` (append).
/// Returns the child pid; throws on fork failure.
pid_t spawn_shard_worker(const std::string& binary,
                         const std::string& socket_path,
                         const std::string& log_path, unsigned threads,
                         const std::string& trace_out);

/// Blocks until a Unix socket at `path` accepts a connection, polling
/// with backoff up to `timeout_s`. Returns a connected ServiceClient
/// (hello already consumed); throws on timeout or if `pid` exits first.
service::ServiceClient connect_shard_worker(const std::string& path,
                                            pid_t pid, double timeout_s);

/// This process's executable (/proc/self/exe) — the default worker
/// binary for `dfmkit flow --shards` and `dfmkit serve --shards`.
std::string self_executable_path();

/// Creates a fresh scratch directory for worker sockets and logs under
/// `base` (empty: $TMPDIR or /tmp). Left behind on exit so worker logs
/// survive for post-mortems.
std::string make_shard_scratch_dir(const std::string& base = "");

/// The partition extent for a layout file: the join of every standard
/// flow layer's bbox from the stream index (no geometry decoded). The
/// same file is what workers hydrate their windows from, so coordinator
/// plan and worker content agree by construction.
Rect shard_extent_of(const std::string& layout_path);

}  // namespace dfm::shard
