#!/bin/sh
# Wall-clock PC sampler: where an unmodified program spends its time.
#
#   tool/pcprof.sh CMD [ARG...]
#   e.g. tool/pcprof.sh _build/default/xmpbench/xmpbench.exe child incast.k4 --seed 1
#
# Builds a small LD_PRELOAD library with `cc` in a fresh `mktemp -d`
# directory (set TMPDIR to choose where) and runs CMD under it. Every
# 200 us of wall time (ITIMER_REAL) SIGALRM records the interrupted
# instruction pointer; at exit the library writes the samples and the
# executable's load base and extent (from dl_iterate_phdr). The samples
# are resolved with `nm` against CMD's symbols (types T/t and W/w:
# `caml_modify` is a weak symbol), and the script prints each
# function's share of the samples (top 30) and the shares of four
# layers: engine (lib/engine), routing (the topology builders' route
# closures and their tables), write barrier (caml_modify) and the rest.
# Samples outside the executable (libc, the vDSO) count in the rest.
# CMD's stdout goes to stderr, so stdout holds only the profile. The
# temporary directory is removed on exit.
set -eu

[ $# -ge 1 ] || {
  echo "usage: tool/pcprof.sh CMD [ARG...]" >&2
  exit 2
}
exe=$(command -v "$1") || {
  echo "pcprof: no such command: $1" >&2
  exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

cat >"$tmp/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES];
static volatile unsigned long n;

static void on_alarm(int sig, siginfo_t *si, void *ctx) {
  (void)sig;
  (void)si;
  if (n < MAX_SAMPLES) pcs[n++] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

/* The first object dl_iterate_phdr reports is the executable. */
static int main_object(struct dl_phdr_info *info, size_t size, void *out) {
  unsigned long lo = ~0UL, hi = 0, *range = out;
  (void)size;
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD) continue;
    if (ph->p_vaddr < lo) lo = ph->p_vaddr;
    if (ph->p_vaddr + ph->p_memsz > hi) hi = ph->p_vaddr + ph->p_memsz;
  }
  range[0] = info->dlpi_addr;
  range[1] = lo;
  range[2] = hi;
  return 1;
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa = {0};
  struct itimerval every = {{0, 200}, {0, 200}};
  sa.sa_sigaction = on_alarm;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGALRM, &sa, NULL);
  setitimer(ITIMER_REAL, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  unsigned long range[3] = {0, 0, 0};
  const char *path = getenv("PCPROF_OUT");
  FILE *f;
  setitimer(ITIMER_REAL, &off, NULL);
  dl_iterate_phdr(main_object, range);
  if (path == NULL || (f = fopen(path, "w")) == NULL) return;
  fprintf(f, "%lx %lx %lx\n", range[0], range[1], range[2]);
  for (unsigned long i = 0; i < n; i++) fprintf(f, "%lx\n", pcs[i]);
  fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$tmp/sampler.so" "$tmp/sampler.c"
PCPROF_OUT="$tmp/samples" LD_PRELOAD="$tmp/sampler.so" "$@" >&2
[ -s "$tmp/samples" ] || {
  echo "pcprof: $1 left no samples (did it exit through exit()?)" >&2
  exit 1
}
nm --defined-only "$exe" >"$tmp/symbols"

python3 - "$tmp/samples" "$tmp/symbols" <<'EOF'
import bisect, collections, sys

with open(sys.argv[1]) as f:
    base, lo, hi = (int(x, 16) for x in f.readline().split())
    pcs = [int(line, 16) for line in f]
syms = []
with open(sys.argv[2]) as f:
    for line in f:
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TtWw":
            syms.append((int(parts[0], 16), parts[2]))
syms.sort()
addrs = [a for a, _ in syms]

def function(pc):
    off = pc - base
    if not (lo <= off < hi):
        return "[outside the executable]"
    i = bisect.bisect_right(addrs, off) - 1
    return syms[i][1] if i >= 0 else "[unknown]"

ROUTING = ("camlXmp_net__Fat_tree", "camlXmp_net__Leaf_spine",
           "camlXmp_net__Wan", "camlXmp_net__Route_table")

def layer(name):
    if name.startswith("camlXmp_engine__"):
        return "engine"
    if name.startswith(ROUTING):
        return "routing"
    if name == "caml_modify":
        return "write barrier"
    return "rest"

counts = collections.Counter(function(pc) for pc in pcs)
total = len(pcs)
print("pcprof: %d samples, one per 200 us of wall time" % total)
for name, c in counts.most_common(30):
    print("%6.2f %%  %s" % (100.0 * c / total, name))
layers = collections.Counter()
for name, c in counts.items():
    layers[layer(name)] += c
print("layers: " + ", ".join("%s %.1f %%" % (l, 100.0 * layers[l] / total)
                             for l in ("engine", "routing", "write barrier", "rest")))
EOF
