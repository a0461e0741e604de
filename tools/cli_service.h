// The service-facing dfmkit subcommands, split out of dfmkit_cli.cpp:
//   dfmkit serve       — run the resident analysis daemon
//   dfmkit client      — drive a running daemon (one-shot ops or load gen)
//   dfmkit top         — polling live view of a daemon's queue/sessions/
//                        per-op latency percentiles
//   dfmkit trace-merge — stitch a client and a server Chrome trace into
//                        one cross-process timeline
#pragma once

#include "geometry/rect.h"
#include "layout/layer_map.h"
#include "litho/litho.h"

#include <cstddef>
#include <string>

namespace dfm::cli {

/// One rect edit as `flow --edit` and `client edit` spell it:
/// <layer>:<x0>,<y0>,<x1>,<y1>[:remove].
struct CliEdit {
  std::string layer_name;  // m1|m2|via1|poly|contact|diff
  LayerKey layer{};
  Rect rect = Rect::empty();
  bool remove = false;
};

/// Parses one edit spec; throws std::runtime_error on an unknown layer,
/// a tail other than ":remove", a coordinate that is not an integer, or
/// an empty rect.
CliEdit parse_edit(const std::string& spec);

/// Parses a --litho-fast value (auto|off); throws
/// std::runtime_error on anything else.
LithoFastMode parse_litho_fast(const std::string& s);

/// Parses a --memory-budget value (a byte size parse_byte_size accepts);
/// throws std::runtime_error on anything else.
std::size_t parse_memory_budget(const std::string& s);

/// `dfmkit serve ...`; argv/argc are main()'s (argv[1] == "serve").
/// `threads` is the global --threads value (compute pool size).
int cmd_serve(int argc, char** argv, unsigned threads);

/// `dfmkit client ...`.
int cmd_client(int argc, char** argv);

/// `dfmkit top ...`.
int cmd_top(int argc, char** argv);

/// `dfmkit trace-merge <client.json> <server.json> [--out <path>]`.
int cmd_trace_merge(int argc, char** argv);

}  // namespace dfm::cli
