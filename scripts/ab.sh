#!/usr/bin/env bash
# Before/after comparison of two revisions on the repo benchmark.
#
#   scripts/ab.sh <parent-rev> <change-rev> [workload…]
#   scripts/ab.sh <parent-rev> <change-rev> bench <bench-target> [filter]
#
# Builds `benchmark/` once per revision from that revision's committed tree
# (`git archive`, like a fresh checkout), then runs 10 alternated pairs per
# workload: every pair has a fresh seed and swaps which side runs first, and
# every run lasts BENCHMARK.json's `run_seconds`. Workloads default to the
# ones BENCHMARK.json gates. Prints one row per end-to-end metric: both
# medians, the delta, the change's wins out of 10 (direction from the
# metric's `better`), the parent's interquartile range, and REGRESSION when
# the change's median is worse than the parent's by more than the metric's
# bound. `failed` is summed per side.
#
# `bench` mode compares micro-benchmarks instead: it builds the
# `colock-bench` bench target (e.g. `bench_overall`) of each revision and
# runs the two executables alternately, 10 pairs, keeping the benches whose
# name contains `filter`. Per bench it prints the median over the runs of
# `median_ns` and of `min_ns`, each with its delta, the change's wins and
# the parent's interquartile range: one run's median moves ~9 % between
# runs on a shared host while its minimum agrees within ~0.5 %. Last come
# one `BENCH_*.json`-shaped row per bench and side (group = the side; the
# run count is `pairs`), every field the median over the runs.
#
# Builds, the raw result lines (JSONL), the runs' stderr and the table go
# to the git-ignored .bench_build/; nothing is written under benchmark/.
# The host's noise is the enemy: run nothing else meanwhile.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh <parent-rev> <change-rev> [workload…]" >&2
    echo "       scripts/ab.sh <parent-rev> <change-rev> bench <bench-target> [filter]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
pairs=10
sides=(parent change)
revs=("$(git rev-parse --verify "$1^{commit}")" "$(git rev-parse --verify "$2^{commit}")")
shift 2
root=.bench_build
mkdir -p "$root"
stamp=$(date +%Y%m%d-%H%M%S)
jsonl="$root/ab-$stamp.jsonl"
log="$root/ab-$stamp.log"
host="$(uname -m), $(nproc) cpus, kernel $(uname -r)"

# awk helpers of both tables.
awk_lib='
    # The number or string after `"key":` in a one-line JSON object.
    function field(s, key,    i, rest) {
        i = index(s, "\"" key "\":")
        if (!i) return ""
        rest = substr(s, i + length(key) + 3)
        sub(/^ /, "", rest)
        if (substr(rest, 1, 1) == "\"") {
            rest = substr(rest, 2)
            return substr(rest, 1, index(rest, "\"") - 1)
        }
        match(rest, /^[^,}]*/)
        return substr(rest, 1, RLENGTH)
    }
    # Quantile q (linear interpolation) of v[1..n], sorted in place.
    function quantile(v, n, q,    i, j, t, h, lo) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        h = 1 + (n - 1) * q
        lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
'

# A revision's committed tree, unpacked once into .bench_build/<sha12>/src.
checkout() {
    local dir="$root/${1:0:12}"
    if [ ! -d "$dir/src" ]; then
        rm -rf "$dir/src.part"
        mkdir -p "$dir/src.part"
        git archive "$1" | tar -x -C "$dir/src.part"
        mv "$dir/src.part" "$dir/src"
    fi
    echo "$dir"
}

if [ "${1:-}" = bench ]; then
    [ $# -ge 2 ] && [ $# -le 3 ] || usage
    target=$2 filter=${3:-}
    exe=()
    for i in 0 1; do
        dir=$(checkout "${revs[i]}")
        echo "# building ${sides[i]} ${revs[i]:0:12} $target" >&2
        exe[i]=$(CARGO_TARGET_DIR="$dir/target" cargo bench --offline --no-run --message-format=json \
            --manifest-path "$dir/src/Cargo.toml" -p colock-bench --bench "$target" 2>>"$log" |
            grep -o "\"executable\":\"[^\"]*/deps/$target-[^\"]*\"" | tail -1 | cut -d'"' -f4)
        [ -x "${exe[i]}" ] || { tail -5 "$log" >&2; echo "error: no $target executable" >&2; exit 1; }
    done
    for ((p = 0; p < pairs; p++)); do
        if ((p % 2)); then order=(1 0); else order=(0 1); fi
        for i in "${order[@]}"; do
            if ! "${exe[i]}" --bench 2>>"$log" | grep '^{"group"' |
                awk -v f="$filter" -v p="$p" -v side="${sides[i]}" '
                    match($0, /"bench":"[^"]*"/) && (f == "" || index(substr($0, RSTART + 9, RLENGTH - 10), f)) {
                        printf "{\"pair\":%d,\"side\":\"%s\",\"result\":%s}\n", p, side, $0
                    }' >>"$jsonl"; then
                tail -5 "$log" >&2
                echo "error: ${sides[i]} run of $target failed; see $log" >&2
                exit 1
            fi
        done
        echo "# $target: pair $((p + 1))/$pairs" >&2
    done
    {
        echo "# $host; $pairs alternated pairs of $target; parent ${revs[0]:0:12} vs change ${revs[1]:0:12}"
        echo "# raw results: $jsonl"
        awk -v pairs="$pairs" "$awk_lib"'
            {
                b = field($0, "bench"); s = field($0, "side"); p = field($0, "pair")
                if (!(b in seen)) { seen[b] = 1; order[++nb] = b }
                for (k = 1; k <= 4; k++) { m = metric[k]; val[b, s, p, m] = field($0, m) + 0 }
                has[b, s, p] = 1
            }
            BEGIN { metric[1] = "iters"; metric[2] = "min_ns"; metric[3] = "median_ns"; metric[4] = "p99_ns" }
            END {
                printf "%-30s %-10s %12s %12s %8s %6s %11s\n", "bench", "metric", "parent", "change", "delta", "wins", "parent_iqr"
                for (o = 1; o <= nb; o++) {
                    b = order[o]
                    for (k = 2; k <= 3; k++) {
                        m = metric[k]; na = wins = 0
                        delete a; delete c
                        for (p = 0; p < pairs; p++) {
                            if (!has[b, "parent", p] || !has[b, "change", p]) continue
                            a[++na] = val[b, "parent", p, m]; c[na] = val[b, "change", p, m]
                            if (c[na] < a[na]) wins++
                        }
                        if (!na) continue
                        q1 = quantile(a, na, 0.25); q3 = quantile(a, na, 0.75)
                        pm = quantile(a, na, 0.5); cm = quantile(c, na, 0.5)
                        printf "%-30s %-10s %12.1f %12.1f %+7.2f%% %3d/%-2d %11.1f\n", b, m, pm, cm, 100 * (cm - pm) / pm, wins, na, q3 - q1
                    }
                }
                for (o = 1; o <= nb; o++)
                    for (si = 1; si <= 2; si++) {
                        b = order[o]; s = si == 1 ? "parent" : "change"
                        printf "{\"group\":\"%s\",\"bench\":\"%s\"", s, b
                        for (k = 1; k <= 4; k++) {
                            n = 0; delete v
                            for (p = 0; p < pairs; p++) if (has[b, s, p]) v[++n] = val[b, s, p, metric[k]]
                            printf k == 1 ? ",\"%s\":%d" : ",\"%s\":%.1f", metric[k], quantile(v, n, 0.5)
                        }
                        printf ",\"pairs\":%d}\n", n
                    }
            }' "$jsonl"
    } | tee "$root/ab-$stamp.txt"
    exit 0
fi

contract=BENCHMARK.json
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$contract")
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(awk '
        /"workloads"/ { on = 1; next }
        on && /^ *\]/ { on = 0 }
        on && match($0, /"name": *"[^"]*"/) {
            s = substr($0, RSTART, RLENGTH); sub(/^"name": *"/, "", s); sub(/"$/, "", s); print s
        }' "$contract")
fi

exe=()
for i in 0 1; do
    dir=$(checkout "${revs[i]}")
    exe[i]="$dir/target/release/colock-benchmark"
    if [ ! -x "${exe[i]}" ]; then
        echo "# building ${sides[i]} ${revs[i]:0:12}" >&2
        CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
            --manifest-path "$dir/src/benchmark/Cargo.toml"
    fi
done

COLOCK_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export COLOCK_BENCH_RUSTC
base=$(( $(date +%s) % 100000 * 100 )) # fresh seeds, not picked by hand
for w in "${workloads[@]}"; do
    for ((p = 0; p < pairs; p++)); do
        seed=$((base + p))
        if ((p % 2)); then order=(1 0); else order=(0 1); fi
        for i in "${order[@]}"; do
            if ! out=$("${exe[i]}" --workload "$w" --seed "$seed" --seconds "$seconds" \
                --trace 0 --out "$root/out" 2>>"$log"); then
                tail -5 "$log" >&2
                echo "error: ${sides[i]} run of $w failed (seed $seed); see $log" >&2
                exit 1
            fi
            printf '{"workload": "%s", "pair": %d, "seed": %d, "side": "%s", "rev": "%s", "result": %s}\n' \
                "$w" "$p" "$seed" "${sides[i]}" "${revs[i]}" "$(tail -1 <<<"$out")" >>"$jsonl"
        done
        echo "# $w: pair $((p + 1))/$pairs" >&2
    done
done

{
    echo "# $host; $pairs alternated pairs x ${seconds} s; parent ${revs[0]:0:12} vs change ${revs[1]:0:12}"
    echo "# raw results: $jsonl"
    awk -v pairs="$pairs" "$awk_lib"'
        FNR == NR {   # the contract: end-to-end metrics, one object a line
            if ($0 ~ /"end_to_end"/) { on = 1; next }
            if (on && $0 ~ /^ *\]/) on = 0
            if (on && $0 ~ /"name"/) {
                m++; name[m] = field($0, "name"); better[m] = field($0, "better"); bound[m] = field($0, "bound")
            }
            next
        }
        {             # one run
            w = field($0, "workload"); s = field($0, "side"); p = field($0, "pair")
            if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
            failed[w, s] += field($0, "failed")
            for (k = 1; k <= m; k++) {
                i = index($0, "\"" name[k] "\": {\"value\": ")
                if (i) val[w, s, p, k] = substr($0, i + length(name[k]) + 14) + 0
            }
        }
        END {
            printf "%-18s %-14s %12s %12s %8s %6s %11s\n", "workload", "metric", "parent", "change", "delta", "wins", "parent_iqr"
            for (o = 1; o <= nw; o++) {
                w = order[o]
                for (k = 1; k <= m; k++) {
                    na = nb = wins = 0
                    delete a; delete b
                    for (p = 0; p < pairs; p++) {
                        if (!((w, "parent", p, k) in val) || !((w, "change", p, k) in val)) continue
                        x = val[w, "parent", p, k]; y = val[w, "change", p, k]
                        a[++na] = x; b[++nb] = y
                        if (better[k] == "lower" ? y < x : y > x) wins++
                    }
                    if (!na) continue
                    q1 = quantile(a, na, 0.25); q3 = quantile(a, na, 0.75)
                    pm = quantile(a, na, 0.5); cm = quantile(b, nb, 0.5)
                    delta = pm != 0 ? 100 * (cm - pm) / pm : 0
                    worse = better[k] == "lower" ? cm > pm * (1 + bound[k]) : cm < pm * (1 - bound[k])
                    printf "%-18s %-14s %12.6g %12.6g %+7.2f%% %3d/%-2d %11.4g%s\n", w, name[k], pm, cm, delta, wins, na, q3 - q1, worse ? "  REGRESSION" : ""
                }
                printf "%-18s %-14s %12d %12d\n", w, "failed", failed[w, "parent"], failed[w, "change"]
            }
        }' "$contract" "$jsonl"
} | tee "$root/ab-$stamp.txt"
