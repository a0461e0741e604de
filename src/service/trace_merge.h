// Stitches a client-side and one or more server-side Chrome traces
// (all produced by telemetry::chrome_trace_json) into one multi-process
// timeline — the back half of trace-context propagation (protocol v3).
//
// Each process records timestamps against its own steady-clock epoch, so
// the files cannot be overlaid directly. The link is the propagated
// span ids: a traced client call records a `client/request` span whose
// `span_id` it sent as the request's "parent_span", and the server
// records the matching `service/request` span with that value as
// `parent_span`. For every linked pair
// the server span must sit inside the client's send->receive window; the
// merge computes the per-pair offset that centers it there (splitting
// the transport RTT evenly) and applies the per-file median offset to
// every event of that file — one clock, one shift per process, so each
// timeline stays internally consistent.
//
// Output: client events on pid 1, each secondary's shifted events on
// pid 2, 3, ... in argument order (process_name metadata renamed
// accordingly), plus one Chrome flow arrow ("s"/"f" pair keyed by the
// span id) per linked request, so Perfetto draws the client request
// connected to the server span whose flow/<pass> children nest beneath
// it.
#pragma once

#include "service/protocol.h"

#include <cstddef>
#include <string>

namespace dfm::service {

struct TraceMergeStats {
  std::size_t client_events = 0;  // "X" spans kept from the client trace
  std::size_t server_events = 0;  // "X" spans kept across server traces
  std::size_t linked_requests = 0;  // client/request <-> *_request spans
  std::size_t nested = 0;  // linked pairs whose server span fits inside
  double offset_us = 0;    // clock shift applied to the first server file
};

/// Merges two Chrome trace JSON documents. Throws JsonError when either
/// input fails to parse or lacks a traceEvents array. Traces with no
/// linked requests still merge (offset 0) — the result is simply the two
/// processes side by side.
std::string merge_chrome_traces(const std::string& client_json,
                                const std::string& server_json,
                                TraceMergeStats* stats = nullptr);

/// N-way form: one client/coordinator trace plus any number of
/// server/worker traces, each clock-aligned independently and rehomed
/// onto its own pid. Stats aggregate over all secondaries (offset_us is
/// the first file's shift, matching the two-file form).
std::string merge_chrome_traces_many(
    const std::string& client_json,
    const std::vector<std::string>& server_jsons,
    TraceMergeStats* stats = nullptr);

}  // namespace dfm::service
