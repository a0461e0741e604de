#include "service/trace_merge.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

namespace dfm::service {

namespace {

struct SpanRef {
  double ts = 0;   // us
  double dur = 0;  // us
  std::int64_t tid = 0;
};

const Json::Array& events_of(const Json& doc, const char* which) {
  const Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw JsonError(std::string(which) +
                    " trace has no traceEvents array (not a Chrome trace?)");
  }
  return events->as_array();
}

double num_field(const Json& ev, const char* key, double def) {
  const Json* v = ev.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : def;
}

/// The span's propagated id/parent link, 0 when absent.
std::uint64_t args_link(const Json& ev, const char* key) {
  const Json* args = ev.find("args");
  if (args == nullptr) return 0;
  const Json* v = args->find(key);
  return v != nullptr && v->is_number()
             ? static_cast<std::uint64_t>(v->as_int())
             : 0;
}

bool is_span(const Json& ev, const char* name) {
  const Json* ph = ev.find("ph");
  const Json* n = ev.find("name");
  return ph != nullptr && ph->is_string() && ph->as_string() == "X" &&
         n != nullptr && n->is_string() && n->as_string() == name;
}

/// Copies an event onto `pid`, shifting timed events by `offset_us` and
/// renaming the process_name metadata track.
Json rehome(const Json& ev, int pid, double offset_us,
            const std::string& process_name) {
  Json out = ev;
  out.set("pid", Json(pid));
  if (const Json* ts = out.find("ts"); ts != nullptr && ts->is_number()) {
    out.set("ts", Json(ts->as_double() + offset_us));
  }
  const Json* name = out.find("name");
  if (name != nullptr && name->is_string() &&
      name->as_string() == "process_name") {
    out.set("args", Json(Json::Object{{"name", Json(process_name)}}));
  }
  return out;
}

}  // namespace

std::string merge_chrome_traces(const std::string& client_json,
                                const std::string& server_json,
                                TraceMergeStats* stats) {
  return merge_chrome_traces_many(client_json, {server_json}, stats);
}

std::string merge_chrome_traces_many(
    const std::string& client_json,
    const std::vector<std::string>& server_jsons, TraceMergeStats* stats) {
  const Json client = Json::parse(client_json);
  const Json::Array& client_events = events_of(client, "client");

  TraceMergeStats st;

  // Client request spans, keyed by the span id that was propagated.
  std::map<std::uint64_t, SpanRef> requests;
  for (const Json& ev : client_events) {
    if (const Json* ph = ev.find("ph");
        ph != nullptr && ph->is_string() && ph->as_string() == "X") {
      ++st.client_events;
    }
    if (!is_span(ev, "client/request")) continue;
    const std::uint64_t id = args_link(ev, "span_id");
    if (id == 0) continue;
    requests[id] = SpanRef{num_field(ev, "ts", 0), num_field(ev, "dur", 0),
                           ev.get_int("tid", 0)};
  }

  Json::Array merged;
  for (const Json& ev : client_events) {
    merged.push_back(rehome(ev, 1, 0, "dfmkit client"));
  }

  struct Pair {
    std::uint64_t span_id = 0;
    SpanRef client;
    SpanRef server;
  };
  for (std::size_t file = 0; file < server_jsons.size(); ++file) {
    const Json server = Json::parse(server_jsons[file]);
    const Json::Array& server_events = events_of(server, "server");

    // Linked server request spans -> candidate clock offsets (center
    // each server span in its client window; transport latency splits
    // evenly). A daemon records `service/request` with the propagated
    // parent_span.
    std::vector<Pair> pairs;
    std::vector<double> offsets;
    for (const Json& ev : server_events) {
      if (const Json* ph = ev.find("ph");
          ph != nullptr && ph->is_string() && ph->as_string() == "X") {
        ++st.server_events;
      }
      if (!is_span(ev, "service/request")) continue;
      const std::uint64_t parent = args_link(ev, "parent_span");
      const auto it = requests.find(parent);
      if (it == requests.end()) continue;
      Pair p;
      p.span_id = parent;
      p.client = it->second;
      p.server = SpanRef{num_field(ev, "ts", 0), num_field(ev, "dur", 0),
                         ev.get_int("tid", 0)};
      offsets.push_back((p.client.ts + p.client.dur / 2) -
                        (p.server.ts + p.server.dur / 2));
      pairs.push_back(p);
    }
    st.linked_requests += pairs.size();
    double offset_us = 0;
    if (!offsets.empty()) {
      std::sort(offsets.begin(), offsets.end());
      offset_us = offsets[offsets.size() / 2];
    }
    if (file == 0) st.offset_us = offset_us;

    const int pid = 2 + static_cast<int>(file);
    const std::string process_name =
        server_jsons.size() > 1 ? "dfmkit serve " + std::to_string(file)
                                : "dfmkit serve";
    for (const Json& ev : server_events) {
      merged.push_back(rehome(ev, pid, offset_us, process_name));
    }
    for (const Pair& p : pairs) {
      const double sts = p.server.ts + offset_us;
      if (sts >= p.client.ts - 1e-6 &&
          sts + p.server.dur <= p.client.ts + p.client.dur + 1e-6) {
        ++st.nested;
      }
      // Chrome flow arrow: start on the client request, finish ("bp":
      // "e" = bind to the enclosing slice) on the shifted server span.
      Json::Object s;
      s["ph"] = Json("s");
      s["cat"] = Json("service");
      s["name"] = Json("request");
      s["id"] = Json(p.span_id);
      s["pid"] = Json(1);
      s["tid"] = Json(p.client.tid);
      s["ts"] = Json(p.client.ts);
      merged.emplace_back(std::move(s));
      Json::Object f;
      f["ph"] = Json("f");
      f["bp"] = Json("e");
      f["cat"] = Json("service");
      f["name"] = Json("request");
      f["id"] = Json(p.span_id);
      f["pid"] = Json(pid);
      f["tid"] = Json(p.server.tid);
      f["ts"] = Json(sts);
      merged.emplace_back(std::move(f));
    }
  }

  Json::Object other;
  other["tool"] = Json("dfmkit trace-merge");
  other["linked_requests"] = Json(st.linked_requests);
  other["offset_us"] = Json(st.offset_us);

  Json::Object doc;
  doc["traceEvents"] = Json(std::move(merged));
  doc["displayTimeUnit"] = Json("ms");
  doc["otherData"] = Json(std::move(other));

  if (stats != nullptr) *stats = st;
  return Json(std::move(doc)).dump();
}

}  // namespace dfm::service
