#include "shard/remote_backend.h"

#include "core/delta.h"
#include "core/stream_source.h"
#include "core/telemetry.h"
#include "shard/local_backend.h"
#include "shard/wire.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

namespace dfm::shard {
namespace {

using service::Json;

const char* fast_to_string(LithoFastMode m) {
  switch (m) {
    case LithoFastMode::kAuto:
      return "auto";
    case LithoFastMode::kFft:
      return "fft";
    case LithoFastMode::kDirect:
      return "direct";
    case LithoFastMode::kOff:
      return "off";
  }
  return "auto";
}

Json open_request(const RemoteShardConfig& config, const Rect& core,
                  const Rect& window) {
  Json::Object req;
  req["op"] = Json("shard_open");
  req["path"] = Json(config.layout_path);
  req["core"] = rect_to_json(core);
  req["window"] = rect_to_json(window);
  req["tech"] = tech_to_json(config.worker.tech);
  req["model"] = model_to_json(config.worker.model);
  req["litho_tile"] = Json(static_cast<std::int64_t>(config.worker.litho_tile));
  req["litho_edge_tolerance"] =
      Json(static_cast<std::int64_t>(config.worker.litho_edge_tolerance));
  req["litho_fast"] = Json(fast_to_string(config.worker.litho_fast));
  req["threads"] = Json(static_cast<std::int64_t>(config.worker.threads));
  return Json(std::move(req));
}

}  // namespace

pid_t spawn_shard_worker(const std::string& binary,
                         const std::string& socket_path,
                         const std::string& log_path, unsigned threads,
                         const std::string& trace_out) {
  // Build argv before forking: the child must stick to async-signal-safe
  // calls (the coordinator may have pool threads holding allocator locks
  // at fork time).
  const std::string threads_s = std::to_string(threads);
  std::vector<const char*> argv = {binary.c_str(),   "shard-serve",
                                   "--socket",       socket_path.c_str(),
                                   "--threads",      threads_s.c_str(),
                                   "--once"};
  if (!trace_out.empty()) {
    argv.push_back("--trace-out");
    argv.push_back(trace_out.c_str());
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("shard: fork: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(binary.c_str(), const_cast<char* const*>(argv.data()));
    ::_exit(127);
  }
  return pid;
}

service::ServiceClient connect_shard_worker(const std::string& path,
                                            pid_t pid, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::chrono::milliseconds backoff(5);
  for (;;) {
    try {
      return service::ServiceClient::connect_unix(path);
    } catch (const service::ProtocolError&) {
      // Socket not bound yet (or worker died). Distinguish the two.
    }
    int status = 0;
    if (pid > 0 && ::waitpid(pid, &status, WNOHANG) == pid) {
      throw std::runtime_error("shard: worker for " + path +
                               " exited before accepting (status " +
                               std::to_string(status) + ")");
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("shard: timed out waiting for worker socket " +
                               path);
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
  }
}

std::string self_executable_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    throw std::runtime_error("shard: cannot resolve /proc/self/exe");
  }
  buf[n] = '\0';
  return std::string(buf);
}

std::string make_shard_scratch_dir(const std::string& base) {
  std::string root = base;
  if (root.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    root = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
  }
  std::string tmpl = root + "/dfmkit-shard-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("shard: mkdtemp " + tmpl + ": " +
                             std::strerror(errno));
  }
  return tmpl;
}

Rect shard_extent_of(const std::string& layout_path) {
  const std::shared_ptr<const SnapshotSource> src =
      open_stream_source(layout_path);
  Rect extent = Rect::empty();
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    extent = extent.join(src->layer_bbox(k));
  }
  return extent;
}

RemoteShardBackend::RemoteShardBackend(const Rect& extent,
                                       RemoteShardConfig config)
    : config_(std::move(config)) {
  plan_ = ShardPlan::make(extent, config_.shards,
                          shard_halo(config_.worker.tech, config_.worker.litho_tile,
                                     config_.worker.model.sigma));
  try {
    for (std::size_t s = 0; s < plan_.size(); ++s) {
      ShardProcess p;
      p.socket_path =
          config_.socket_dir + "/shard-" + std::to_string(s) + ".sock";
      const std::string log =
          config_.socket_dir + "/shard-" + std::to_string(s) + ".log";
      const std::string trace =
          config_.trace_dir.empty()
              ? std::string()
              : config_.trace_dir + "/shard-" + std::to_string(s) +
                    ".trace.json";
      p.pid = spawn_shard_worker(config_.binary, p.socket_path, log,
                                 config_.worker.threads, trace);
      procs_.push_back(p);
    }
    for (std::size_t s = 0; s < plan_.size(); ++s) {
      service::ServiceClient c = connect_shard_worker(
          procs_[s].socket_path, procs_[s].pid, config_.spawn_timeout_s);
      const Json& hello = c.hello();
      if (hello.get_string("server", "") != "dfmkit-shard" ||
          hello.get_int("protocol", 0) != service::kProtocolVersion) {
        throw std::runtime_error("shard: worker " + procs_[s].socket_path +
                                 " spoke the wrong protocol");
      }
      c.set_max_frame_bytes(kShardMaxFrameBytes);
      c.call_ok(open_request(config_, plan_.cores[s], plan_.windows[s]));
      clients_.push_back(std::move(c));
    }
  } catch (...) {
    shutdown_workers();
    throw;
  }
}

RemoteShardBackend::~RemoteShardBackend() { shutdown_workers(); }

void RemoteShardBackend::shutdown_workers() noexcept {
  for (service::ServiceClient& c : clients_) {
    if (!c.connected()) continue;
    try {
      Json::Object req;
      req["op"] = Json("shutdown");
      c.call(Json(std::move(req)));
    } catch (...) {
    }
    c.close();
  }
  clients_.clear();
  for (const ShardProcess& p : procs_) {
    if (p.pid > 0) ::waitpid(p.pid, nullptr, 0);
  }
  procs_.clear();
}

Json RemoteShardBackend::call(std::size_t w, Json req) {
  return clients_[w].call_ok(std::move(req));
}

std::vector<Json> RemoteShardBackend::call_many(
    const std::vector<std::size_t>& targets,
    const std::vector<Json>& requests) {
  std::vector<Json> responses(targets.size());
  std::vector<char> failed(targets.size(), 0);
  std::vector<std::thread> threads;
  threads.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    threads.emplace_back([this, i, &targets, &requests, &responses, &failed] {
      try {
        responses[i] = call(targets[i], requests[i]);
      } catch (...) {
        failed[i] = 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const char f : failed) {
    if (f != 0) {
      // A worker died or misbehaved mid-batch: stop accelerating for
      // good (workers may now disagree with the coordinator) and let
      // the flow compute everything locally.
      degraded_ = true;
      return {};
    }
  }
  return responses;
}

bool RemoteShardBackend::shard_drc(const std::vector<Rule>& rules,
                                   std::vector<Region>* bad2x,
                                   std::vector<char>* handled) {
  if (degraded_) return false;
  TELEM_SPAN("shard/drc_remote");
  Json::Array jrules;
  jrules.reserve(rules.size());
  for (const Rule& r : rules) jrules.push_back(rule_to_json(r));
  std::vector<std::size_t> targets;
  std::vector<Json> requests;
  for (std::size_t s = 0; s < plan_.size(); ++s) {
    Json::Object req;
    req["op"] = Json("shard_drc");
    req["rules"] = Json(jrules);
    targets.push_back(s);
    requests.push_back(Json(std::move(req)));
  }
  const std::vector<Json> responses = call_many(targets, requests);
  if (responses.empty()) return false;
  std::vector<Region> stitched(rules.size());
  try {
    for (const Json& resp : responses) {
      const Json::Array& per_rule = resp.find("bad2x")->as_array();
      if (per_rule.size() != rules.size()) {
        throw service::JsonError("bad2x: wrong arity");
      }
      for (std::size_t i = 0; i < rules.size(); ++i) {
        // Named: rects() references the Region's storage, and a
        // temporary would die before the loop body ran.
        const Region piece = region_from_json(per_rule[i]);
        for (const Rect& b : piece.rects()) {
          stitched[i].add(b);
        }
      }
    }
  } catch (const std::exception&) {
    degraded_ = true;
    return false;
  }
  for (std::size_t i = 0; i < rules.size(); ++i) {
    (*bad2x)[i] = std::move(stitched[i]);
    (*handled)[i] = 1;
  }
  return true;
}

bool RemoteShardBackend::shard_match(
    std::size_t set_index, const std::vector<AnchorWindow>& sites,
    std::vector<std::vector<PatternMatch>>* out,
    std::vector<char>* handled) {
  if (degraded_) return false;
  TELEM_SPAN_ARG("shard/match_remote", set_index);
  std::map<int, std::vector<std::size_t>> per_worker;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const int w = route_pattern_site(plan_, sites[i]);
    if (w >= 0) per_worker[w].push_back(i);
  }
  std::vector<std::size_t> targets;
  std::vector<Json> requests;
  std::vector<const std::vector<std::size_t>*> batches;
  for (const auto& [w, idx] : per_worker) {
    Json::Array jsites;
    jsites.reserve(idx.size());
    for (const std::size_t i : idx) jsites.push_back(site_to_json(sites[i]));
    Json::Object req;
    req["op"] = Json("shard_match");
    req["set"] = Json(static_cast<std::int64_t>(set_index));
    req["sites"] = Json(std::move(jsites));
    targets.push_back(static_cast<std::size_t>(w));
    requests.push_back(Json(std::move(req)));
    batches.push_back(&idx);
  }
  const std::vector<Json> responses = call_many(targets, requests);
  if (responses.empty() && !targets.empty()) return false;
  std::vector<std::vector<PatternMatch>> got(sites.size());
  std::vector<char> ok(sites.size(), 0);
  try {
    for (std::size_t b = 0; b < responses.size(); ++b) {
      const Json::Array& per_site = responses[b].find("matches")->as_array();
      const std::vector<std::size_t>& idx = *batches[b];
      if (per_site.size() != idx.size()) {
        throw service::JsonError("matches: wrong arity");
      }
      for (std::size_t j = 0; j < idx.size(); ++j) {
        std::vector<PatternMatch> ms;
        ms.reserve(per_site[j].as_array().size());
        for (const Json& jm : per_site[j].as_array()) {
          ms.push_back(match_from_json(jm));
        }
        got[idx[j]] = std::move(ms);
        ok[idx[j]] = 1;
      }
    }
  } catch (const std::exception&) {
    degraded_ = true;
    return false;
  }
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (ok[i] == 0) continue;
    (*out)[i] = std::move(got[i]);
    (*handled)[i] = 1;
  }
  return true;
}

bool RemoteShardBackend::shard_litho(const std::vector<Rect>& cores,
                                     std::vector<TileRisk>* per_core,
                                     std::vector<char>* skipped,
                                     std::vector<char>* handled) {
  if (degraded_) return false;
  TELEM_SPAN("shard/litho_remote");
  std::map<int, std::vector<std::size_t>> per_worker;
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const int w = route_litho_tile(plan_, cores[i], config_.worker.model.sigma);
    if (w >= 0) per_worker[w].push_back(i);
  }
  std::vector<std::size_t> targets;
  std::vector<Json> requests;
  std::vector<const std::vector<std::size_t>*> batches;
  for (const auto& [w, idx] : per_worker) {
    Json::Array jcores;
    jcores.reserve(idx.size());
    for (const std::size_t i : idx) jcores.push_back(rect_to_json(cores[i]));
    Json::Object req;
    req["op"] = Json("shard_litho");
    req["cores"] = Json(std::move(jcores));
    targets.push_back(static_cast<std::size_t>(w));
    requests.push_back(Json(std::move(req)));
    batches.push_back(&idx);
  }
  const std::vector<Json> responses = call_many(targets, requests);
  if (responses.empty() && !targets.empty()) return false;
  std::vector<TileRisk> got(cores.size());
  std::vector<char> skip(cores.size(), 0);
  std::vector<char> ok(cores.size(), 0);
  try {
    for (std::size_t b = 0; b < responses.size(); ++b) {
      const Json::Array& hs = responses[b].find("hotspots")->as_array();
      const Json::Array& ps = responses[b].find("pieces")->as_array();
      const Json::Array& sk = responses[b].find("skipped")->as_array();
      const std::vector<std::size_t>& idx = *batches[b];
      if (hs.size() != idx.size() || ps.size() != idx.size() ||
          sk.size() != idx.size()) {
        throw service::JsonError("hotspots: wrong arity");
      }
      for (std::size_t j = 0; j < idx.size(); ++j) {
        TileRisk per;
        per.interior.reserve(hs[j].as_array().size());
        for (const Json& jh : hs[j].as_array()) {
          per.interior.push_back(hotspot_from_json(jh));
        }
        per.edges.reserve(ps[j].as_array().size());
        for (const Json& jp : ps[j].as_array()) {
          per.edges.push_back(risk_piece_from_json(jp));
        }
        got[idx[j]] = std::move(per);
        skip[idx[j]] = sk[j].as_int() != 0 ? 1 : 0;
        ok[idx[j]] = 1;
      }
    }
  } catch (const std::exception&) {
    degraded_ = true;
    return false;
  }
  for (std::size_t i = 0; i < cores.size(); ++i) {
    if (ok[i] == 0) continue;
    (*per_core)[i] = std::move(got[i]);
    (*skipped)[i] = skip[i];
    (*handled)[i] = 1;
  }
  return true;
}

void RemoteShardBackend::shard_apply(const LayoutDelta& delta) {
  TELEM_SPAN("shard/apply_remote");
  Rect added = Rect::empty();
  Rect touched = Rect::empty();
  for (const auto& [k, ld] : delta.layers()) {
    if (!ld.added.empty()) {
      added = added.join(ld.added.bbox());
      touched = touched.join(ld.added.bbox());
    }
    if (!ld.removed.empty()) touched = touched.join(ld.removed.bbox());
  }
  // Same rule as LocalShardBackend::shard_apply: growth past the plan
  // extent leaves geometry no core owns, so stop accelerating.
  if (!added.is_empty() && !plan_.extent.contains(added)) degraded_ = true;
  if (degraded_) return;
  const Json jdelta = delta_to_json(delta);
  std::vector<std::size_t> targets;
  std::vector<Json> requests;
  for (std::size_t s = 0; s < plan_.size(); ++s) {
    if (!touched.is_empty() && !plan_.windows[s].overlaps(touched)) continue;
    Json::Object req;
    req["op"] = Json("shard_edit");
    req["delta"] = jdelta;
    targets.push_back(s);
    requests.push_back(Json(std::move(req)));
  }
  if (targets.empty()) return;
  if (call_many(targets, requests).empty()) degraded_ = true;
}

}  // namespace dfm::shard
