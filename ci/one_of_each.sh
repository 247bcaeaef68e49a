#!/usr/bin/env bash
# One of each: fails when a shared primitive is defined anywhere but its
# owner module. Each rule is a grep for the primitive's tell-tale over the
# workspace sources, minus the files allowed to carry it.
#
# Not scanned: crates/perf (the benchmark measures the workspace from
# outside and may not be touched by refactors), crates/workloads (data
# seeds, not generators) and vendor/ (stand-ins for external crates).
set -u
cd "$(dirname "$0")/.."

fail=0

# check <what> <owner(s), |-separated regex> <grep -E pattern> [<only under, regex>]
# With a fourth argument the rule applies only to the files it matches.
# Scans Rust sources and the manifests.
check() {
    local what=$1 owners=$2 pattern=$3 only=${4:-.*} hits
    hits=$(grep -rnEi --include='*.rs' --include='Cargo.toml' -e "$pattern" \
        Cargo.toml crates src tests examples \
        | grep -vE "^crates/(perf|workloads)/" \
        | grep -E "^($only):" \
        | grep -vE "^($owners):")
    if [ -n "$hits" ]; then
        echo "one_of_each: $what outside $owners:"
        echo "$hits" | sed 's/^/    /'
        fail=1
    fi
}

check "the SplitMix64 increment constant" \
    "crates/trace/src/rng.rs" \
    '9e37_?79b9_?7f4a_?7c15'

# governor/class.rs mixes whole words, not bytes, and its `sig` is printed
# in RunReport: a different function that happens to share the prime.
check "the FNV-1a prime" \
    "crates/trace/src/fnv.rs|crates/governor/src/class.rs" \
    '0x(0000_?)?0?100_?0000_?01b3'

check "a lock-poison recovery" \
    "crates/trace/src/sync.rs" \
    '\|e\| *e\.into_inner\(\)|PoisonError::into_inner'

check "a connection front end (struct Conn)" \
    "crates/serve/src/front.rs" \
    'struct +Conn\b'

check "a hand-rolled JSON scanner" \
    "crates/trace/src/json.rs" \
    "b'[{\\[]'|json_syntax_ok"

# The tree-walker is the differential oracle: library fields reach it,
# no binary, bench or example does. (`[E]`: so that a grep for the retired
# variable's name over the repo does not hit this rule.)
check "an engine selector" \
    "crates/sim/src/.*|tests/.*" \
    'DAE_SIM_[E]NGINE|EngineKind::(Tree|parse|from_env)'

# Host wall-clock is measured by crates/perf only; the model document
# (`dae-repro`) reports model quantities and no production crate carries a
# bench harness.
check "a stopwatch (the benchmark is crates/perf)" \
    "crates/perf/.*" \
    'Instant::now' \
    'src/model\.rs|src/bin/dae_repro\.rs|crates/[^/]*/src/bench\.rs'

# The paper's numbers have one entry point (`dae-repro`, one document, one
# smoke switch): no second harness, output format or smoke variable. (`[S]`,
# `[f]`: so that a grep for the retired names over the repo does not hit
# this rule.)
check "a second model-output harness" \
    "none" \
    'DAE_BENCH_[S]MOKE|harness *= *[f]alse|fn write_csv'

# Durable records (driver artifacts, profiles) are written by one
# temp-file-and-rename.
check "an atomic file write" \
    "crates/trace/src/fs.rs" \
    'fn write_atomic'

# The router forwards one attempt at a time, inline; the hedged second
# forwarding path is gone.
check "hedged forwarding (the router has one attempt loop)" \
    "none" \
    'hedg' \
    'crates/gate/src/.*|src/.*'

# NOrig is counted by rows (merged intervals over fixed-width records), not
# by hashing one heap-allocated point per iteration. The brute-force point
# set survives only as the oracle in crates/poly/tests.
check "a hashed point set (counting is by rows)" \
    "none" \
    'HashSet<Vec<i64>>' \
    'crates/(poly|core)/src/.*'

# A run leases its cache hierarchy from the thread (reset == new); a second
# construction site in the production crates would be a per-request rebuild
# coming back. dae-sim, dae-core and the workloads build their own for
# single-phase probes and tests.
check "cache-model state built per run (runs lease it)" \
    "crates/runtime/src/lease.rs" \
    '(SharedLlc|CoreCaches)::new' \
    'crates/(runtime|serve|driver|gate|pgo|governor)/src/.*|src/.*'

# Step accounting has one owner per engine. The dispatch loop carries the
# budget (`fuel`) and `n_addr` and derives `instrs` from them; a per-op
# `n_instrs += 1` is the second copy of that count coming back. The budget
# runs out in the tree-walker's block loop and in the VM's `step!` macro,
# nowhere else.
check "a per-op instruction counter in the dispatch loop (instrs is derived from fuel)" \
    "none" \
    'n_instrs *\+= *1' \
    'crates/sim/src/vm/exec\.rs'

check "a step-limit exit" \
    "crates/sim/src/interp.rs|crates/sim/src/vm/exec.rs" \
    'Err\(InterpError::StepLimit\)' \
    'crates/[^/]*/src/.*|src/.*'

# The LRU update has one owner: the two-way probe and the walk that shifts
# as it searches (`Cache::front`/`walk`). A find-then-rotate second pass,
# and the memmove it costs, survives only as the model the tests compare
# against.
check "a find-then-rotate LRU update (the walk shifts as it searches)" \
    "crates/mem/src/model.rs" \
    'rotate_right|\.position\(' \
    'crates/mem/src/.*'

n=$(grep -c 'InterpError::StepLimit' crates/sim/src/vm/exec.rs)
if [ "$n" -ne 1 ]; then
    echo "one_of_each: InterpError::StepLimit appears $n times in crates/sim/src/vm/exec.rs (only step! raises it)"
    fail=1
fi

if [ "$fail" -eq 0 ]; then
    echo "one_of_each: ok"
fi
exit "$fail"
