// The service-facing dfmkit subcommands, split out of dfmkit_cli.cpp:
//   dfmkit serve       — run the resident analysis daemon
//   dfmkit client      — drive a running daemon (one-shot ops or load gen)
//   dfmkit top         — polling live view of a daemon's queue/sessions/
//                        per-op latency percentiles
//   dfmkit trace-merge — stitch a client and a server Chrome trace into
//                        one cross-process timeline
#pragma once

namespace dfm::cli {

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
