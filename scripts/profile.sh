#!/usr/bin/env bash
# Where does the host clock go? Builds the repo benchmark, runs ONE untraced
# cell of it under a sampling profiler and prints the top self-time and
# inclusive symbols.
#
#   scripts/profile.sh <workload> [seconds] [-- extra benchmark args]
#
#   PROFILE_TOP=N    rows per table (default 25)
#
# The sampler path also prints a phase table: each sample goes to set-up
# (build = mkfs + mount, with mkfs's zero_persist as a sub-row; populate;
# unmount; cold remount), the measured run (Runner::run), the checks
# (hash_tree, verify_durable, fault_sweep; also anything a rep does after
# its run, such as verify_durable's cold remount), the probes, or other.
# Samples arrive in time order, which is what tells a rep's remount before
# its run from the checks' remount after it.
#
# Uses `perf record -g` when perf exists. Otherwise (this sandbox has no
# perf, gdb or valgrind) it compiles the small SIGPROF + backtrace()
# LD_PRELOAD sampler below with cc and symbolises the samples with nm. The
# timer asks for 1 kHz of process CPU time; the kernel tick caps what it
# delivers (250 Hz here: ~3.5 k samples for a 15 s cell, of which the
# measured runs are about two thirds — the rest is setup, cold remounts and
# the durable-content check, all part of what a benchmark run costs).
# Nothing under benchmark/ is changed; this script only executes its binary.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/profile.sh <workload> [seconds] [-- benchmark args]}"
shift
seconds=15
if [[ $# -gt 0 && "$1" != "--" ]]; then
    seconds="$1"
    shift
fi
[[ "${1:-}" == "--" ]] && shift
top="${PROFILE_TOP:-25}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/hinfs-benchmark"
out="target/profile"
mkdir -p "$out"
args=(--workload "$workload" --seconds "$seconds" --trace 0 "$@")

if command -v perf >/dev/null 2>&1; then
    perf record -g -F 1000 -o "$out/perf.data" -- "$bin" "${args[@]}" >/dev/null
    echo "== top $top self =="
    perf report -i "$out/perf.data" --no-children --sort symbol --stdio 2>/dev/null |
        grep -v '^#' | grep '%' | head -n "$top"
    echo "== top $top inclusive =="
    perf report -i "$out/perf.data" --children --sort symbol --stdio 2>/dev/null |
        grep -v '^#' | grep '%' | head -n "$top"
    exit 0
fi

cat >"$out/sampler.c" <<'EOF'
/* LD_PRELOAD sampler: SIGPROF every ms of process CPU time, one backtrace()
 * per tick into a fixed table, dumped at exit as "<pc> <pc> ..." lines
 * (innermost first) after a "base <load address>" line. A pc in a shared
 * library is written as "@<exported symbol at or below it, or ?>". */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/auxv.h>
#include <sys/time.h>
#define DEPTH 48
#define MAXS 200000
static void *pcs[MAXS][DEPTH];
static int depth[MAXS];
static volatile int n;
static void tick(int sig) {
    (void)sig;
    if (n < MAXS) {
        depth[n] = backtrace(pcs[n], DEPTH);
        n++;
    }
}
static int first_object(struct dl_phdr_info *i, size_t sz, void *base) {
    (void)sz;
    *(unsigned long *)base = i->dlpi_addr;
    return 1; /* the executable is listed first */
}
__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder outside the signal handler */
    struct sigaction sa = {0};
    sa.sa_handler = tick;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
}
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *f = fopen(getenv("PROFILE_SAMPLES"), "w");
    unsigned long base = 0;
    Dl_info exe, at;
    if (!f || !dladdr((void *)getauxval(AT_PHDR), &exe)) return;
    dl_iterate_phdr(first_object, &base);
    fprintf(f, "base %lx\n", base);
    for (int s = 0; s < n; s++) {
        /* frames 0-1 are tick() and the signal trampoline */
        for (int d = 2; d < depth[s]; d++)
            if (dladdr(pcs[s][d], &at) && at.dli_fbase != exe.dli_fbase)
                fprintf(f, "@%s ", at.dli_sname ? at.dli_sname : "?");
            else
                fprintf(f, "%lx ", (unsigned long)pcs[s][d]);
        fputc('\n', f);
    }
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$out/sampler.so" "$out/sampler.c" -ldl
PROFILE_SAMPLES="$out/samples.txt" LD_PRELOAD="$PWD/$out/sampler.so" "$bin" "${args[@]}" >/dev/null

# Symbolise: text symbols sorted by address, each pc mapped to the last
# symbol at or below it. A pc in a shared library arrives named by the
# sampler: "[lib] malloc", or "[lib] ?" where the code has no exported
# name — in libc that is the memcpy/memset family, whose CPU-specific
# variants are local symbols. Self = innermost frame; inclusive = once per
# sample for every distinct symbol on its stack.
nm -C --defined-only "$bin" | awk '$2 ~ /^[tTwW]$/ { a = $1; $1 = $2 = ""; sub(/^ +/, ""); print a, $0 }' |
    sort >"$out/symbols.txt"
awk -v top="$top" '
    function hex(s,    i, v) { v = 0; s = tolower(s)
        for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return v }
    function sym(pc,    lo, hi, mid) {
        if (pc in memo) return memo[pc]
        lo = 1; hi = nsym
        if (nsym == 0 || pc < addr[1] || pc > addr[nsym] + 65536) return memo[pc] = "[unmapped]"
        while (lo < hi) { mid = int((lo + hi + 1) / 2); if (addr[mid] <= pc) lo = mid; else hi = mid - 1 }
        return memo[pc] = name[lo] }
    NR == FNR { nsym++; addr[nsym] = hex($1); $1 = ""; sub(/^ /, ""); name[nsym] = $0; next }
    $1 == "base" { base = hex($2); next }
    function has(re,    s) { for (s in seen) if (s ~ re) return 1; return 0 }
    NF > 0 {
        total++
        delete seen
        for (i = 1; i <= NF; i++) {
            if ($i ~ /^@/) s = "[lib] " substr($i, 2)
            else s = sym(hex($i) - base - (i > 1))   # return addresses point after the call
            if (i == 1) self[s]++
            if (!(s in seen)) { seen[s] = 1; incl[s]++ }
        }
        if (has("rig::(fault_sweep|hash_tree|verify_durable)")) p = "checks"
        else if (has("Runner::run$")) { p = "run"; after_run = 1 }
        else if (has("^hinfs_benchmark::probes::")) p = "probes"
        else if (has("setups::build$")) {
            after_run = 0
            p = "set-up: build"
            if (has("NvmmDevice::zero_persist$")) phase["  of which zero_persist"]++
        }
        else if (has("Spec::populate$")) p = "set-up: populate"
        else if (has("setups::(remount_with|mount)$")) p = after_run ? "checks" : "set-up: remount"
        else if (has("as fskit::vfs::FileSystem>::unmount$")) p = after_run ? "checks" : "set-up: unmount"
        else p = "other"
        phase[p]++
        if (p ~ /^set-up/) phase["set-up"]++
    }
    END {
        printf "%d samples of process CPU time\n", total
        print "== phases =="
        n = split("set-up|set-up: build|  of which zero_persist|set-up: populate|set-up: unmount|set-up: remount|run|checks|probes|other", order, "|")
        for (i = 1; i <= n; i++)
            printf "%6.2f%% %6d  %s\n", 100 * phase[order[i]] / total, phase[order[i]], order[i]
        printf "== top %d self ==\n", top
        cmd = "sort -rn | head -n " top
        for (s in self) printf "%6.2f%% %6d  %s\n", 100 * self[s] / total, self[s], s | cmd
        close(cmd)
        printf "== top %d inclusive ==\n", top
        for (s in incl) printf "%6.2f%% %6d  %s\n", 100 * incl[s] / total, incl[s], s | cmd
        close(cmd)
    }' "$out/symbols.txt" "$out/samples.txt"
