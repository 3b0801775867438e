#!/usr/bin/env bash
# Per-layer time split of one benchmark run, from a gprof flat profile.
#
#   scripts/profile_layers.sh [workload] [seed] [build-dir]
#
# Configures perfbench/hg_perfbench with -pg (and -fno-inline-functions, so
# small helpers keep their own frames) into build-dir, runs one workload and
# seed untraced (--trace 0, --seconds 1: the minimum of three repetitions),
# and groups the flat profile's self time by the hg:: namespace each frame
# belongs to. Defaults: heap-steady-seq, seed 1, ${TMPDIR:-/tmp}/hg-profile-layers.
# The build dir must not be perfbench's own .bench_build/: the -pg binary
# would replace the one the benchmark times.
#
# Layers: sim, net, gossip, fec, stream, aggregation, membership, core,
# scenario, metrics, tree; "common" is the rest of hg:: (Rng, units, logging);
# "other" is everything else (libstdc++, libc, hg_perfbench's own code).
# A frame is charged to the first layer namespace in its demangled name, so
# a std::function thunk around a gossip lambda counts as gossip. Shares are
# approximate: -pg adds mcount overhead to every call and
# -fno-inline-functions moves time between frames.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="${1:-heap-steady-seq}"
seed="${2:-1}"
out="${3:-${TMPDIR:-/tmp}/hg-profile-layers}"

mkdir -p "$out"
out="$(cd "$out" && pwd)"
if [[ "$out" == "$root/.bench_build" || "$out" == "$root/.bench_build/"* ]]; then
  echo "profile_layers: refusing to build into $out (perfbench's own build dir)" >&2
  exit 2
fi

flags="-pg -fno-inline-functions"
cmake -S "$root/perfbench" -B "$out" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="-pg" >&2
cmake --build "$out" --target hg_perfbench -j "$(nproc)" >&2

# gmon.out lands in the working directory when the program exits.
rm -f "$out/gmon.out"
(cd "$out" && ./hg_perfbench --workload "$workload" --seed "$seed" --seconds 1 --trace 0 \
  > "$out/run.txt")
gprof -b -p "$out/hg_perfbench" "$out/gmon.out" > "$out/flat.txt"

echo "workload $workload, seed $seed (flat profile: $out/flat.txt)"
python3 - "$out/flat.txt" <<'EOF'
import re
import sys

LAYERS = ("sim", "net", "gossip", "fec", "stream", "aggregation", "membership",
          "core", "scenario", "metrics", "tree")
# %time, cumulative s, self s, [calls, self ms/call, total ms/call], name
ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
NS = re.compile(r"\bhg::(\w+)::")

def layer(name):
    for ns in NS.findall(name):
        if ns in LAYERS:
            return ns
    return "common" if "hg::" in name else "other"

self_s = {}
top = {}
with open(sys.argv[1]) as f:
    for line in f:
        m = ROW.match(line)
        if not m:
            continue
        secs, name = float(m.group(1)), m.group(2)
        key = layer(name)
        self_s[key] = self_s.get(key, 0.0) + secs
        if key not in top or secs > top[key][0]:
            top[key] = (secs, name)

total = sum(self_s.values())
if total <= 0:
    sys.exit("profile_layers: the flat profile holds no samples")
print(f"{'layer':<12} {'self_s':>9} {'share':>7}  largest frame")
for key, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
    frame = top[key][1]
    if len(frame) > 70:
        frame = frame[:67] + "..."
    print(f"{key:<12} {secs:>9.2f} {100 * secs / total:>6.1f}%  {frame}")
print(f"{'total':<12} {total:>9.2f} {100.0:>6.1f}%")
EOF
