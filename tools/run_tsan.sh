#!/bin/sh
# Build the suite with ThreadSanitizer and run every test.
#
# Usage: tools/run_tsan.sh [address]
#   no argument  -> -DDFMKIT_SANITIZE=thread  (data races, lock order)
#   "address"    -> -DDFMKIT_SANITIZE=address (ASan: heap misuse in the
#                   fuzz corpus; UBSan: undefined behaviour, fatal)
#
# The sanitizer build lives in its own tree (build-tsan/ or build-asan/)
# so the regular build/ stays untouched. Run from the repository root.
set -eu

mode="${1:-thread}"
case "$mode" in
  thread)  dir=build-tsan ;;
  address) dir=build-asan ;;
  *) echo "usage: $0 [thread|address]" >&2; exit 2 ;;
esac

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "-DDFMKIT_SANITIZE=$mode"
cmake --build "$dir" -j "$(nproc)"

# halt_on_error makes a race fail the test run instead of just logging.
if [ "$mode" = thread ]; then
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
else
  ASAN_OPTIONS="detect_leaks=1" \
    ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
fi
