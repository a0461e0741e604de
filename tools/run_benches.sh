#!/bin/sh
# Run every bench binary and consolidate the results.
#
# Usage: tools/run_benches.sh [build-dir]   (default: build)
#
# Each bench's stdout goes to <build>/bench_logs/<name>.log; the script
# then runs `dfmkit flow --json` on a generated demo design and writes
# BENCH_flow.json at the repository root: the flow's per-pass trace +
# scorecard under "flow", per-bench wall time and exit status under
# "benches", the machine the numbers came from under "host", and the
# telemetry overhead series (parsed from bench_o1_telemetry's TELEM
# lines) under "telemetry_overhead", the litho fast-path numbers
# (parsed from bench_t6_hotspot's LITHO line: direct vs FFT vs
# FFT+prefilter ms, skip ratio, speedups) under "litho", and the
# served-flow latency series (parsed from bench_s2_service's SERVICE
# lines) under "service", and the out-of-core memory numbers under
# "memory" (bench_f4_outofcore's MEMORY lines — hydrated/budget/peak
# snapshot bytes, evictions — plus the flow run's peak RSS and
# snapshot byte gauges lifted from its telemetry output), and the fix
# loop's repair numbers (bench_f5_fix's FIX line: proposals, accepts,
# violations and composite before/after, thread/service determinism)
# under "fix". The revision stamp comes from `dfmkit --version` (embedded at build time),
# not from git at bench time. Requires an existing build
# (cmake --build <build-dir>).
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

build="${1:-build}"
if [ ! -d "$build/bench" ]; then
  echo "error: $build/bench not found — build the project first" >&2
  exit 2
fi

logdir="$build/bench_logs"
mkdir -p "$logdir"

# Wall time in milliseconds. %N is GNU date; busybox fallback is seconds.
now_ms() {
  if date +%s%N | grep -qv N; then
    echo $(( $(date +%s%N) / 1000000 ))
  else
    echo $(( $(date +%s) * 1000 ))
  fi
}

bench_rows=""
for bin in "$build"/bench/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  log="$logdir/$name.log"
  printf '== %s\n' "$name"
  t0=$(now_ms)
  status=0
  "$bin" >"$log" 2>&1 || status=$?
  t1=$(now_ms)
  if [ "$status" -ne 0 ]; then
    echo "   FAILED (exit $status) — see $log" >&2
  fi
  row="    {\"name\": \"$name\", \"ms\": $((t1 - t0)), \"exit\": $status}"
  bench_rows="${bench_rows:+$bench_rows,
}$row"
done

# The flow trace on a fresh demo design, via the CLI's --json emitter.
demo="$logdir/bench_demo.gds"
flow_json="$logdir/flow_trace.json"
"$build/tools/dfmkit" gen "$demo" 42 >"$logdir/dfmkit_gen.log"
"$build/tools/dfmkit" flow --json "$flow_json" "$demo" \
  >"$logdir/dfmkit_flow.log"

# Stamp the exact build the numbers came from, via the binary itself:
# `dfmkit --version` prints "dfmkit <rev> (<config>)" with the revision
# (plus "-dirty" for local edits) embedded at build time by
# cmake/GenerateVersion.cmake. That ties the numbers to the bits that
# produced them — a stale build can no longer report a fresh hash.
revision="unknown"
build_config=""
if ver="$("$build/tools/dfmkit" --version 2>/dev/null)"; then
  rev="$(printf '%s' "$ver" | sed -n 's/^dfmkit \([^ ]*\).*/\1/p')"
  [ -z "$rev" ] || revision="$rev"
  build_config="$(printf '%s' "$ver" | sed -n 's/^[^(]*(\(.*\))$/\1/p')"
fi

# Benchmarks without the machine are noise: record CPU model, core count
# and RAM next to the numbers. /proc is Linux; everything degrades to
# "unknown"/0 elsewhere.
cpu_model="$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo 2>/dev/null \
             | head -n 1)"
[ -n "$cpu_model" ] || cpu_model="unknown"
cores="$(nproc 2>/dev/null || echo 0)"
mem_kb="$(sed -n 's/^MemTotal: *\([0-9]*\).*/\1/p' /proc/meminfo 2>/dev/null)"
[ -n "$mem_kb" ] || mem_kb=0
os="$(uname -sr 2>/dev/null || echo unknown)"

# The telemetry overhead series: bench_o1_telemetry prints one parseable
# "TELEM key=value ..." line per thread count.
telem_rows=""
telem_log="$logdir/bench_o1_telemetry.log"
if [ -f "$telem_log" ]; then
  while IFS= read -r line; do
    case "$line" in TELEM\ *) ;; *) continue ;; esac
    threads=0 base=0 telem=0 over=0 spans=0 depth=0 ident=0
    for tok in $line; do
      case "$tok" in
        threads=*)      threads="${tok#threads=}" ;;
        base_ms=*)      base="${tok#base_ms=}" ;;
        telem_ms=*)     telem="${tok#telem_ms=}" ;;
        overhead_pct=*) over="${tok#overhead_pct=}" ;;
        spans=*)        spans="${tok#spans=}" ;;
        depth=*)        depth="${tok#depth=}" ;;
        identical=*)    ident="${tok#identical=}" ;;
      esac
    done
    row="    {\"threads\": $threads, \"base_ms\": $base,"
    row="$row \"telem_ms\": $telem, \"overhead_pct\": $over,"
    row="$row \"spans\": $spans, \"depth\": $depth, \"identical\": $ident}"
    telem_rows="${telem_rows:+$telem_rows,
}$row"
  done < "$telem_log"
fi

# Litho fast-path numbers: bench_t6_hotspot prints one parseable
# "LITHO key=value ..." line (direct vs FFT vs FFT+prefilter, skip
# ratio, speedups).
litho_rows=""
litho_log="$logdir/bench_t6_hotspot.log"
if [ -f "$litho_log" ]; then
  while IFS= read -r line; do
    case "$line" in LITHO\ *) ;; *) continue ;; esac
    tiles=0 hotspots=0 direct=0 fft=0 fast=0 skipped=0
    ratio=0 fft_sp=0 fast_sp=0
    for tok in $line; do
      case "$tok" in
        tiles=*)        tiles="${tok#tiles=}" ;;
        hotspots=*)     hotspots="${tok#hotspots=}" ;;
        direct_ms=*)    direct="${tok#direct_ms=}" ;;
        fft_ms=*)       fft="${tok#fft_ms=}" ;;
        fast_ms=*)      fast="${tok#fast_ms=}" ;;
        skipped=*)      skipped="${tok#skipped=}" ;;
        skip_ratio=*)   ratio="${tok#skip_ratio=}" ;;
        fft_speedup=*)  fft_sp="${tok#fft_speedup=}" ;;
        fast_speedup=*) fast_sp="${tok#fast_speedup=}" ;;
      esac
    done
    row="    {\"tiles\": $tiles, \"hotspots\": $hotspots,"
    row="$row \"direct_ms\": $direct, \"fft_ms\": $fft, \"fast_ms\": $fast,"
    row="$row \"skipped\": $skipped, \"skip_ratio\": $ratio,"
    row="$row \"fft_speedup\": $fft_sp, \"fast_speedup\": $fast_sp}"
    litho_rows="${litho_rows:+$litho_rows,
}$row"
  done < "$litho_log"
fi

# Served-flow latency series: bench_s2_service prints one parseable
# "SERVICE key=value ..." line per (clients, mode) cell.
service_rows=""
service_log="$logdir/bench_s2_service.log"
if [ -f "$service_log" ]; then
  while IFS= read -r line; do
    case "$line" in SERVICE\ *) ;; *) continue ;; esac
    clients=0 mode=unknown requests=0 p50=0 p95=0 p99=0 trim=0
    direct=0 qmax=0 bp=0 errs=0
    for tok in $line; do
      case "$tok" in
        clients=*)         clients="${tok#clients=}" ;;
        mode=*)            mode="${tok#mode=}" ;;
        requests=*)        requests="${tok#requests=}" ;;
        p50_ms=*)          p50="${tok#p50_ms=}" ;;
        p95_ms=*)          p95="${tok#p95_ms=}" ;;
        p99_ms=*)          p99="${tok#p99_ms=}" ;;
        trimmed_mean_ms=*) trim="${tok#trimmed_mean_ms=}" ;;
        direct_ms=*)       direct="${tok#direct_ms=}" ;;
        queue_max=*)       qmax="${tok#queue_max=}" ;;
        backpressure=*)    bp="${tok#backpressure=}" ;;
        errors=*)          errs="${tok#errors=}" ;;
      esac
    done
    row="    {\"clients\": $clients, \"mode\": \"$mode\","
    row="$row \"requests\": $requests, \"p50_ms\": $p50, \"p95_ms\": $p95,"
    row="$row \"p99_ms\": $p99,"
    row="$row \"trimmed_mean_ms\": $trim, \"direct_ms\": $direct,"
    row="$row \"queue_max\": $qmax, \"backpressure\": $bp,"
    row="$row \"errors\": $errs}"
    service_rows="${service_rows:+$service_rows,
}$row"
  done < "$service_log"
fi

# Out-of-core memory numbers. bench_f4_outofcore prints one parseable
# "MEMORY key=value" line per gauge (fully-hydrated bytes, budget, peak
# snapshot bytes and eviction counts per thread count); the flow run
# above contributes its peak RSS and snapshot byte gauges, which
# dfmkit's --json emitter carries in the telemetry metrics block as
# "process.peak_rss_kb" / "snapshot.*_bytes". Each becomes one
# {"key", "value"} row.
memory_rows=""
add_memory_row() {
  mrow="    {\"key\": \"$1\", \"value\": $2}"
  memory_rows="${memory_rows:+$memory_rows,
}$mrow"
}
mem_log="$logdir/bench_f4_outofcore.log"
if [ -f "$mem_log" ]; then
  while IFS= read -r line; do
    case "$line" in MEMORY\ *) ;; *) continue ;; esac
    kv="${line#MEMORY }"
    case "$kv" in *=*) add_memory_row "${kv%%=*}" "${kv#*=}" ;; esac
  done < "$mem_log"
fi
if [ -f "$flow_json" ]; then
  gauges="$(grep -o \
    '"\(process\.peak_rss_kb\|snapshot\.[a-z_]*_bytes\)": [0-9.e+-]*' \
    "$flow_json" 2>/dev/null || true)"
  if [ -n "$gauges" ]; then
    # Walk line-by-line in the current shell (no pipe, no subshell) so
    # the accumulated rows persist.
    old_ifs="$IFS"; IFS='
'
    for g in $gauges; do
      gname="${g%%\": *}"; gname="${gname#\"}"
      gval="${g##*: }"
      add_memory_row "flow_$gname" "$gval"
    done
    IFS="$old_ifs"
  fi
fi

# The fix loop's repair numbers: bench_f5_fix prints one parseable
# "FIX key=value ..." summary line (proposal/accept counts, violations
# and composite before/after, thread + service determinism bits).
fix_rows=""
fix_log="$logdir/bench_f5_fix.log"
if [ -f "$fix_log" ]; then
  while IFS= read -r line; do
    case "$line" in FIX\ *) ;; *) continue ;; esac
    design=unknown proposed=0 accepted=0 rejected=0 iters=0
    vb=0 va=0 cb=0 ca=0 cold=0 loop=0 svc=0 ident=0 svc_ident=0
    for tok in $line; do
      case "$tok" in
        design=*)            design="${tok#design=}" ;;
        proposed=*)          proposed="${tok#proposed=}" ;;
        accepted=*)          accepted="${tok#accepted=}" ;;
        rejected=*)          rejected="${tok#rejected=}" ;;
        iterations=*)        iters="${tok#iterations=}" ;;
        violations_before=*) vb="${tok#violations_before=}" ;;
        violations_after=*)  va="${tok#violations_after=}" ;;
        composite_before=*)  cb="${tok#composite_before=}" ;;
        composite_after=*)   ca="${tok#composite_after=}" ;;
        cold_ms=*)           cold="${tok#cold_ms=}" ;;
        loop_ms=*)           loop="${tok#loop_ms=}" ;;
        service_ms=*)        svc="${tok#service_ms=}" ;;
        identical=*)         ident="${tok#identical=}" ;;
        service_identical=*) svc_ident="${tok#service_identical=}" ;;
      esac
    done
    row="    {\"design\": \"$design\", \"proposed\": $proposed,"
    row="$row \"accepted\": $accepted, \"rejected\": $rejected,"
    row="$row \"iterations\": $iters, \"violations_before\": $vb,"
    row="$row \"violations_after\": $va, \"composite_before\": $cb,"
    row="$row \"composite_after\": $ca, \"cold_ms\": $cold,"
    row="$row \"loop_ms\": $loop, \"service_ms\": $svc,"
    row="$row \"identical\": $ident, \"service_identical\": $svc_ident}"
    fix_rows="${fix_rows:+$fix_rows,
}$row"
  done < "$fix_log"
fi

{
  echo '{'
  printf '  "revision": "%s",\n' "$revision"
  printf '  "build_config": "%s",\n' "$build_config"
  echo '  "host": {'
  printf '    "cpu": "%s",\n' "$cpu_model"
  printf '    "cores": %s,\n' "$cores"
  printf '    "mem_total_kb": %s,\n' "$mem_kb"
  printf '    "os": "%s"\n' "$os"
  echo '  },'
  echo '  "benches": ['
  printf '%s\n' "$bench_rows"
  echo '  ],'
  echo '  "telemetry_overhead": ['
  printf '%s\n' "$telem_rows"
  echo '  ],'
  echo '  "litho": ['
  printf '%s\n' "$litho_rows"
  echo '  ],'
  echo '  "service": ['
  printf '%s\n' "$service_rows"
  echo '  ],'
  echo '  "memory": ['
  printf '%s\n' "$memory_rows"
  echo '  ],'
  echo '  "fix": ['
  printf '%s\n' "$fix_rows"
  echo '  ],'
  printf '  "flow": '
  # Indent the flow object to nest cleanly.
  sed -e '1s/^/ /' -e '2,$s/^/  /' "$flow_json"
  echo '}'
} > BENCH_flow.json

echo "wrote BENCH_flow.json ($(grep -c '"name"' BENCH_flow.json) entries);" \
     "logs in $logdir/"
