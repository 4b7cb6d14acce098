#!/usr/bin/env bash
# Hermetic-build gate: the workspace must build, test and bench-compile with
# the network unplugged, and no registry dependency may creep back into any
# manifest. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> checking manifests for registry dependencies"
# Workspace-path and std-only is the rule: any mention of the crates we
# replaced (rand/proptest/criterion/parking_lot/serde) or any version-keyed
# dependency that is not `path = ...` is a failure.
if grep -rn "rand\|proptest\|criterion\|parking_lot\|serde" \
    Cargo.toml crates/*/Cargo.toml; then
    echo "error: registry dependency found in a manifest" >&2
    exit 1
fi
bad=$(python3 - <<'EOF'
import glob, re
bad = []
for m in ["Cargo.toml", *glob.glob("crates/*/Cargo.toml")]:
    section = None
    for i, line in enumerate(open(m), 1):
        line = line.split("#")[0].rstrip()
        h = re.match(r"\[(.+)\]$", line.strip())
        if h:
            section = h.group(1)
            continue
        if section and ("dependencies" in section):
            if re.match(r'\s*[\w-]+\s*=\s*"', line):  # name = "x.y" → registry
                bad.append(f"{m}:{i}: {line.strip()}")
            if "version" in line and "path" not in line:
                bad.append(f"{m}:{i}: {line.strip()}")
print("\n".join(bad))
EOF
)
if [ -n "$bad" ]; then
    echo "error: version-keyed (registry) dependencies found:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "    ok: all dependencies are workspace-path deps"

echo "==> lock-table files stay under 800 lines"
# table.rs and the files split out of it, one mechanism each (DESIGN.md §5).
wc -l crates/lockmgr/src/{table,summary,fastpath,queue,detector,inventory}.rs |
    awk '$2 != "total" && $1 > 800 { print "error: " $2 " has " $1 " lines" > "/dev/stderr"; bad = 1 } END { exit bad }'

echo "==> one protocol entry point (the lock_* quartet must not grow back)"
# ProtocolEngine::lock is the only locking entry point; the single
# too_many_arguments allow and the single other `pub fn lock_*` entry belong
# to the #[doc(hidden)] forwarder the frozen benchmark/ crate still calls
# (LockReport::lock_count is an accessor, not an entry point).
allows=$(grep -r too_many_arguments crates/core/src | wc -l)
if [ "$allows" -gt 1 ]; then
    echo "error: $allows too_many_arguments allows in crates/core/src (at most 1)" >&2
    exit 1
fi
if grep -n "pub fn lock_" crates/core/src/protocol/*.rs | grep -v "pub fn lock_proposed_mode_cached(\|pub fn lock_count("; then
    echo "error: crates/core/src/protocol declares a pub fn lock_* besides lock and the forwarder" >&2
    exit 1
fi

echo "==> no environment reads in library code"
# Engine settings are per-instance setters; only binaries, the harnesses in
# crates/bench and the test kit read COLOCK_* variables. crates/trace is
# exempt: the frozen benchmark sets COLOCK_TRACE_CAP before the default trace
# buffer's first event.
if grep -rn 'env::var' crates/*/src | grep -v '/src/bin/\|^crates/bench/\|^crates/testkit/\|^crates/trace/'; then
    echo "error: library code reads the environment" >&2
    exit 1
fi

echo "==> process-wide state is exactly the allow-list"
# Every static and thread_local! of library code, as `crate NAME`. Traces
# belong to the manager that produced them (its own TraceBuffer), so the
# trace crate keeps only the default buffer of unattached managers, the
# trace epoch and the thread's protocol-rule tag; the lock table keeps its
# per-thread stats slot and held-shard count.
statics=$(grep -rnE "(^|[^'[:alnum:]_])static[[:space:]]+(mut[[:space:]]+)?[A-Z_][A-Z0-9_]*[[:space:]]*:" \
        --include='*.rs' crates/*/src | grep -v '/src/bin/\|^crates/testkit/' |
    sed -E "s#^crates/([^/]+)/.*static[[:space:]]+(mut[[:space:]]+)?([A-Z_][A-Z0-9_]*)[[:space:]]*:.*#\1 \3#" |
    LC_ALL=C sort)
allowed=$(printf '%s\n' "lockmgr HELD_SHARDS" "lockmgr NEXT_SLOT" "lockmgr SLOT" \
    "trace CURRENT_RULE" "trace DEFAULT" "trace EPOCH" | LC_ALL=C sort)
if [ "$statics" != "$allowed" ]; then
    echo "error: statics in crates/*/src (<) differ from the allow-list (>):" >&2
    diff <(echo "$statics") <(echo "$allowed") >&2 || true
    exit 1
fi

echo "==> the README knob table lists exactly the COLOCK_* names the code reads"
code_knobs=$(grep -rhoE '"COLOCK_[A-Z0-9_]+"' crates examples | tr -d '"' | sort -u)
readme_knobs=$(grep -E '^\| `COLOCK_' README.md | cut -d'|' -f2 | grep -oE 'COLOCK_[A-Z0-9_]+' | sort -u)
if [ "$code_knobs" != "$readme_knobs" ]; then
    echo "error: COLOCK_* names in crates/ + examples/ (<) and the README table (>) differ:" >&2
    diff <(echo "$code_knobs") <(echo "$readme_knobs") >&2 || true
    exit 1
fi

echo "==> scripts parse"
bash -n scripts/ab.sh

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test --offline"
cargo test --offline --workspace -q

echo "==> rustdoc builds warning-free"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

echo "==> cargo bench compiles (no run)"
cargo bench --offline --workspace --no-run -q

echo "==> the frozen repo benchmark still compiles against the crates"
cargo check --offline --manifest-path benchmark/Cargo.toml

echo "==> colock_check --self-test (static analysis + linted contention demo)"
# Exercises both the clean path and the detected-cycle accounting: the
# self-test runs the trace_explain forced-deadlock demo under the linter and
# requires at least one detected and resolved deadlock with zero violations,
# plus the certifier mutation check (a seeded write-skew the linter passes
# must fail certification).
cargo run --offline --release -q -p colock-bench --bin colock_check -- --self-test

echo "==> colock_check --certify round trip (clean demo passes, forced cycle flagged)"
# End-to-end file modes of the serializability certifier: the contention
# demo trace must certify (its deadlock victim aborted; the committed
# survivors are acyclic), the seeded write-skew trace must be refused with
# a non-zero exit.
certify_tmp=$(mktemp -d)
trap 'rm -rf "$certify_tmp"' EXIT
cargo run --offline --release -q -p colock-bench --bin colock_check -- \
    --dump demo "$certify_tmp/demo.trace"
cargo run --offline --release -q -p colock-bench --bin colock_check -- \
    --dump skew "$certify_tmp/skew.trace"
cargo run --offline --release -q -p colock-bench --bin colock_check -- \
    --certify "$certify_tmp/demo.trace"
if cargo run --offline --release -q -p colock-bench --bin colock_check -- \
    --certify "$certify_tmp/skew.trace" >/dev/null 2>&1; then
    echo "error: the seeded write-skew trace must fail certification" >&2
    exit 1
fi
echo "    ok: clean demo certified, forced cycle refused"

echo "==> explore at full budget (DPOR interleaving explorer, linted + certified)"
# The workspace suite's explore test with the sweep's budget: 600 distinct
# schedules of the 3-txn hot-HoLU insert storm (at least 500 required) and
# of the 2-txn guaranteed-deadlock scenario (at least one must close the
# cycle); every explored interleaving must lint clean and certify
# conflict-serializable, and every explored deadlock must resolve live.
COLOCK_EXPLORE_MAX_SCHEDULES="${COLOCK_EXPLORE_MAX_SCHEDULES:-600}" \
    cargo test --offline --release -q -p colock-sim --test explore -- --nocapture

echo "==> stress_lockmgr (bounded rounds; fast-path-off rounds; linted + certified)"
# Every harness below traces, lints and certifies every round. Each picks its
# own ablation rounds by round number and names the ablation in its output.
# 50 rounds: 40 default, 10 fast-path-off.
COLOCK_STRESS_ROUNDS="${COLOCK_STRESS_ROUNDS:-50}" \
    cargo run --offline --release -q -p colock-bench --bin stress_lockmgr

echo "==> stress_insert_storm (hot-HoLU commuting inserts; semantic-off rounds)"
# The semantic-mode acceptance workload: N writers insert distinct elements
# into ONE set-valued HoLU. With semantic modes on, inserters commute via
# Insert on the container; on semantic-off rounds every insert X-locks it.
# Every round must keep every per-round invariant. 30 rounds: 20 default, 10
# semantic-off.
COLOCK_STRESS_ROUNDS="${COLOCK_STRESS_ROUNDS:-30}" \
    cargo run --offline --release -q -p colock-bench --bin stress_insert_storm

echo "==> crash matrix at full budget (fault-injection sweep; fast-path-off rounds)"
# The workspace suite's crash matrix with 15 rounds per crash point: 10
# fast path on, 5 off; every crash/recovery cycle linted and certified.
COLOCK_RECOVERY_ROUNDS="${COLOCK_RECOVERY_ROUNDS:-15}" \
    cargo test --offline --release -q -p colock-sim --test crash_matrix -- --nocapture

echo "==> disjoint_scaling (per-layer 1- vs 2-thread rates on disjoint cells; small budget)"
# Every operation must succeed and never wait; the rates are printed, not
# gated (EXPERIMENTS.md E16 has full-budget runs).
COLOCK_BENCH_MS="${COLOCK_BENCH_MS:-50}" \
    cargo run --offline --release -q -p colock-bench --bin disjoint_scaling

echo "==> stress_snapshot (read-mostly storm against the MVCC overlay; MVCC-off rounds)"
# 70% snapshot readers against writers: every MVCC round asserts
# reads_elided matches the reader histogram, every MVCC-off round that
# nothing is elided; the table drains, and the linter sees no snapshot txn
# in any lock-manager event. 50 rounds: 40 MVCC on, 10 off.
COLOCK_STRESS_ROUNDS="${COLOCK_STRESS_ROUNDS:-50}" \
    cargo run --offline --release -q -p colock-bench --bin stress_snapshot

echo "==> stress_store (sub-object writers vs snapshots vs GC on shared objects)"
# 4 writers on disjoint robots of the same two cells plus shared effectors
# (so same-object writers share a store latch stripe, and every commit
# installs into two stripes), one abort in eight, 2 snapshot-reader threads
# and interleaved gc_versions:
# no lost update, every snapshot a committed prefix (no torn two-object
# commit, nothing uncommitted, never going back), every chain one entry
# after the final GC.
COLOCK_STRESS_ROUNDS="${COLOCK_STRESS_ROUNDS:-40}" \
    cargo run --offline --release -q -p colock-bench --bin stress_store

echo "==> loopback serving smoke (loadgen small budget)"
# Real TCP over loopback at a bounded scale: 40 sessions, 300 txns through
# the full mix. The entire served trace window is linted and certified —
# served traffic must be as conformant as in-process traffic.
COLOCK_LOAD_SESSIONS=40 COLOCK_LOAD_WORKERS=4 COLOCK_LOAD_TXNS=300 \
    cargo run --offline --release -q -p colock-bench --bin loadgen

echo "==> stress_server (one kill/restart recovery round over TCP)"
# §3.1 durability end to end: clients check out long locks over TCP, the
# server is killed, a new one recovers the journal, every acked lock must
# be re-adopted and resumable by reconnecting clients.
COLOCK_SERVER_ROUNDS="${COLOCK_SERVER_ROUNDS:-1}" \
    cargo run --offline --release -q -p colock-bench --bin stress_server

echo "==> differential fast-path equivalence suite"
# The optimistic/pessimistic differential harness runs both paths itself,
# and each MVCC case with the overlay on and off; this run keeps it in the
# gate so a fast-path change cannot land without the
# observational-equivalence proof passing.
cargo test --offline -q -p colock-sim --test differential

echo "==> shard-scaling bench (small budget)"
COLOCK_BENCH_MS="${COLOCK_BENCH_MS:-50}" \
    cargo bench --offline -p colock-bench --bench bench_shard_scaling -q

echo "==> recovery bench (small budget)"
COLOCK_BENCH_MS="${COLOCK_BENCH_MS:-50}" \
    cargo bench --offline -p colock-bench --bench bench_recovery -q

echo "==> snapshot-read bench (small budget)"
COLOCK_BENCH_MS="${COLOCK_BENCH_MS:-50}" \
    cargo bench --offline -p colock-bench --bench bench_snapshot -q

echo "==> overall bench (small budget: plan overhead, Fig. 7 Q1 execution)"
COLOCK_BENCH_MS="${COLOCK_BENCH_MS:-50}" \
    cargo bench --offline -p colock-bench --bench bench_overall -q

echo "==> all checks passed"
