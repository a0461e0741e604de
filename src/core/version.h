// Embedded build identity. The definitions are generated at build time
// (cmake/GenerateVersion.cmake -> <build>/src/generated/version.cpp), so
// the binary always knows the exact tree and configuration it was
// compiled from — `dfmkit --version` prints it, the service handshake
// reports it, and tools/run_benches.sh stamps it into BENCH_flow.json
// instead of shelling out to git.
#pragma once

#include <string>

namespace dfm {

/// Short git revision of the source tree, suffixed "-dirty" when the
/// working tree had local edits at build time; "unknown" outside git.
const char* git_revision();

/// Human-readable build configuration, e.g.
/// "RelWithDebInfo sanitize=none".
const char* build_config();

/// "dfmkit <revision> (<build config>)".
std::string version_string();

}  // namespace dfm
