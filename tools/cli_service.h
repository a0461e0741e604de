// The argv walker every dfmkit command parses with, the helpers the
// commands share, and the service-facing subcommands, split out of
// dfmkit_cli.cpp:
//   dfmkit serve       — run the resident analysis daemon
//   dfmkit client      — drive a running daemon (one-shot ops or load gen)
//   dfmkit top         — polling live view of a daemon's queue/sessions/
//                        per-op latency percentiles
//   dfmkit trace-merge — stitch a client and a server Chrome trace into
//                        one cross-process timeline
#pragma once

#include "core/dfm_flow.h"
#include "core/snapshot_source.h"
#include "geometry/rect.h"
#include "layout/layer_map.h"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace dfm::cli {

/// The vocabulary of one dfmkit command (or `client` action), which is
/// also its usage text.
struct ArgSpec {
  std::string name{};                   // "flow"; prefixes every refusal
  std::vector<std::string> values{};    // "--json <path>": flag, placeholder
  std::vector<std::string> switches{};  // "--stream"
  /// The positional arguments: each <word> is required, each [word]
  /// optional, and a trailing "..." repeats the last one.
  std::string args{};
  std::string notes{};  // usage lines after the synopsis

  /// "flow [--json <path>] [--stream] <in.gds> [top]".
  std::string synopsis() const;
  /// "usage: dfmkit <synopsis>", then the notes.
  std::string usage() const;
};

/// The one argv walker of every dfmkit command. Each word is a
/// positional argument, a declared switch, or a declared value flag
/// spelt `--flag v` or `--flag=v`. Anything else is refused with
/// "<name>: unknown option '--x'" or "<name>: too many arguments ('x')"
/// before the command reads a layout, builds a pool or opens a socket.
/// --threads N, the global parallelism cap, is a value flag of every
/// command.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;
  unsigned threads = 0;  // --threads; 0 = hardware concurrency

  /// Walks `words` against `spec`; too few arguments throw its usage.
  /// With `command` set the walk stops at the first positional word (a
  /// command or client action), stores its index there (words.size()
  /// when there is none) and does not count arguments.
  static Args parse(const ArgSpec& spec, const std::vector<std::string>& words,
                    std::size_t* command = nullptr);

  /// The last value given for `name`, or nullptr.
  const std::string* get(const std::string& name) const;
  bool has(const std::string& name) const { return get(name) != nullptr; }
  std::string str(const std::string& name,
                  const std::string& dflt = "") const {
    const std::string* v = get(name);
    return v ? *v : dflt;
  }
  /// Count flags (limits, ports, sizes) go through parse_count, so a
  /// sign or an oversized value is an error instead of a wrapped number.
  template <typename T>
  T count(const std::string& name, T dflt,
          std::uint64_t max = static_cast<std::uint64_t>(
              std::numeric_limits<T>::max())) const {
    const std::string* v = get(name);
    return v ? static_cast<T>(parse_count(name, *v, max)) : dflt;
  }
  /// --tcp <port>, or -1 when absent.
  int tcp_port() const { return has("--tcp") ? count("--tcp", 0, 65535) : -1; }
};

/// Splits a comma list ("drc,litho"), dropping empty items.
std::vector<std::string> split_commas(const std::string& s);

/// The DfmFlowOptions a command's flags describe: the CLI's optical
/// model (sigma 25), --threads, and whichever of --passes, --litho-tile,
/// --litho-fast, --memory-budget and the fix flags `<fix_prefix>max-iters`,
/// `<fix_prefix>min-gain` and `<fix_prefix>moves` the command declares.
/// Every value is checked here, before any work starts.
DfmFlowOptions flow_options(const Args& args,
                            const std::string& fix_prefix = "--");

/// Writes `text` to `path` and prints "wrote <path>".
void write_file(const std::string& path, const std::string& text);

/// With --trace-out given, starts recording telemetry spans on this
/// thread under `thread_name`.
void start_trace(const Args& args, const char* thread_name);
/// With --trace-out given, stops recording and writes the drained spans
/// as a Chrome trace-event file.
void write_trace(const Args& args);

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

/// `dfmkit serve ...`; `words` are the arguments around the command
/// word, as for every command below.
int cmd_serve(const std::vector<std::string>& words);

/// `dfmkit client ...`.
int cmd_client(const std::vector<std::string>& words);

/// `dfmkit top ...`.
int cmd_top(const std::vector<std::string>& words);

/// `dfmkit trace-merge <client.json> <server.json>... [--out <path>]`.
int cmd_trace_merge(const std::vector<std::string>& words);

}  // namespace dfm::cli
