#!/usr/bin/env bash
# One of each: fails when a shared primitive is defined anywhere but its
# owner module. Each rule is a grep for the primitive's tell-tale over the
# workspace sources, minus the files allowed to carry it.
#
# Not scanned: crates/perf (the benchmark measures the workspace from
# outside and may not be touched by refactors), crates/workloads (data
# seeds, not generators; only its manifest is checked, by the last rule)
# and vendor/ (stand-ins for external crates).
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

# One profile-guided path: dae-pgo's measure → refine → recompile loop.
# The simulator has one `run` and counts no branches; the access generator
# takes no branch profile. (`[B]`, `[r]`, `[H]`, `[g]`: so that a grep for
# the retired names over the repo does not hit this rule.)
check "a second profile-guided path (branch profiles, hot-path skeletons)" \
    "none" \
    '[B]ranchProfile|[r]un_with_profile|[H]otPathConfig|[g]enerate_skeleton_access_profiled'

# Profiles feed compiles offline only (`daec --profile-in/--profile-dir`,
# `dae-repro pgo`); the serving path probes base keys, so a daemon-side
# recompile would publish refined artifacts nothing reads. Scanned over
# every file, CI scripts and workflows included; this rule is the one place
# the names may appear.
hits=$(grep -rnE 'recompile_pass|RecentModule|recompile-ms|compile_with\(' \
    Cargo.toml crates src tests examples ci .github \
    | grep -vE '^(crates/perf/|ci/one_of_each\.sh:)')
if [ -n "$hits" ]; then
    echo "one_of_each: a write-only background recompile (refined artifacts no serving compile probes):"
    echo "$hits" | sed 's/^/    /'
    fail=1
fi

# Nor does the serving layer keep profiles: `daed` and `daeg` neither
# collect, store nor serve them (no `profiles` op), so neither crate nor
# binary names the profile types or depends on dae-pgo.
check "a daemon-side profile store (profiles are collected and fed back offline)" \
    "none" \
    'dae_pgo|ProfileCollector|ProfileStore|Op::Profiles|dae-(serve|gate)-profiles' \
    'crates/(serve|gate)/src/.*|src/bin/dae[dg]\.rs'

# One record per charged phase: `Run::phase` builds one
# `dae_trace::PhaseRecord`, which the trace sink (a profile collector is
# one), the governor's `TaskObs` and the profile sample all read. A
# per-observer conversion in the scheduler or the governor is a second copy
# of that record coming back.
check "a second per-phase conversion (the observers read one PhaseRecord)" \
    "none" \
    'dae_pgo|PhaseObs|fn obs\(|fn sample\(' \
    'crates/(runtime|governor)/src/.*'

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

# IR text costs a copy and a byte scan. The printer appends to one buffer
# (`print_function_into`); cache keys and the memory tier's sizes print into
# a reused buffer, never into a String of their own; the parser's symbol
# maps borrow their names from the input.
check "a per-instruction String in the printer" \
    "none" \
    'format!|Vec<String>' \
    'crates/ir/src/print\.rs'

check "a printed String per cache key" \
    "none" \
    'print_function\(' \
    'crates/driver/src/hash\.rs'

check "printing to measure a size" \
    "none" \
    'print_function\([^)]*\)\.len\(\)'

check "an owned-name symbol map in the parser" \
    "none" \
    'HashMap<String' \
    'crates/ir/src/parse\.rs'

# The access-phase clean-up allocates per function, not per edge or per
# merge: a terminator yields its successors from the edges it holds, and the
# CFG keeps every block's predecessors and successors in two flat arrays.
check "a heap successor list" \
    "none" \
    'vec!\[then_dest, else_dest\]|-> Vec<&(mut )?BlockCall>' \
    'crates/ir/src/inst\.rs'

check "a per-block Vec CFG" \
    "none" \
    'Vec<Vec<BlockId>>' \
    'crates/analysis/src/.*'

# Block, instruction and loop ids are dense indices: the analyses and passes
# of a compile keep their tables in id-indexed vectors and bit sets, most of
# them in the reused `dae_analysis::Workspace`. A hashed table keyed by an
# id is a hash per lookup and an allocation per table coming back.
check "a hashed id table on the compile path" \
    "none" \
    'HashSet<(BlockId|Value|FuncId)>|HashMap<(BlockId|InstId|LoopId)' \
    'crates/(analysis|core)/src/.*'

# §5.1's polyhedral steps do each piece of work once. A vertex is solved in
# integers over its basis determinant; the rational Gaussian elimination
# survives only as the oracle in crates/poly/tests. A polyhedron's
# Fourier–Motzkin chain is built once (`Levels::build`) and read by the
# count and the loop nest alike; re-projecting from the top for every
# dimension is the quadratic chain coming back.
check "a rational elimination matrix (vertices are solved in integers)" \
    "none" \
    '&mut \[Rat\]|mut [a-z_]+: Vec<Rat>' \
    'crates/poly/src/.*'

check "bounds re-projected per dimension (one projection chain per polyhedron)" \
    "none" \
    'dim_bounds\(' \
    'crates/(poly|core)/src/.*'

# Access generation is one sequence, `dae_core::generate_access_with`
# (inline → optimize → refine → analyze → generate); the driver fills its
# refine step and times its stages. No pass trait, slot map, second copy of
# the Table 1 counts or settable refine gates beside it.
check "a pass framework (access generation is one sequence)" \
    "none" \
    'trait Pass\b|impl Pass for|dyn Pass|TaskState|InfoSummary|RefineThresholds'

# Each task is inlined once, by that sequence; the skeleton generator takes
# the inlined body it already holds.
check "a second inline of a task" \
    "crates/core/src/generate\.rs|crates/analysis/.*" \
    'inline_all\('

# The inlined body has one copy beside the one the clean-up takes, and is
# compacted once: by the clean-up that turns it into the analysed body. The
# skeleton path takes the raw body over and leaves compaction to its own
# clean-up.
check "a second compaction of the inlined body" \
    "none" \
    'compact_in\([^)]*inlined' \
    'crates/core/src/.*'

n=$(grep -ro 'inlined\.clone()' crates/core/src | wc -l)
if [ "$n" -ne 1 ]; then
    echo "one_of_each: inlined.clone() appears $n times under crates/core/src (the clean-up takes the one copy)"
    fail=1
fi

# The clean-up (`optimize_in`) compacts once, on return; between rounds it
# only empties the blocks a round left unreachable. Its every-round
# compaction survives as the oracle in transform/model.rs.
check "a compaction between clean-up rounds" \
    "none" \
    'compact_in\(ws, f(unc)?\)' \
    'crates/analysis/src/transform/mod\.rs'

# Constant folding is one pass in reverse postorder; a round that folds,
# resolves chains under a hop bound and rescans survives as the oracle.
check "a constant-folding round that rescans (folding is one pass)" \
    "crates/analysis/src/transform/model\.rs" \
    'hops > folded'

# §5.1's access classes are found by comparing an access's parts in place;
# no key copies them.
check "a copied access-class key" \
    "none" \
    'ClassKey|class_key\('

# Scalar evolution walks an operand chain on its own stack (kept in the
# workspace); a walk that recurses per operand level overflows a worker's
# stack on a deep enough chain.
check "a recursive operand walk in scalar evolution" \
    "none" \
    'self\.memoise(_pointer)?\(' \
    'crates/analysis/src/scev\.rs'

# The parser reads each body line once and sizes its tables by the body's
# byte length; a pre-pass counting a body's lines and blocks is a second
# scan of every byte.
check "a second scan of each function body in the parser" \
    "none" \
    'fn body_size' \
    'crates/ir/src/.*'

# The parser reads the text with one byte cursor. A line list, a line
# splitter, a switch between readers or an entry point that picks one is a
# second grammar to keep in agreement with it.
check "a second line reader in the parser" \
    "none" \
    'struct Lines|fn split_at_byte|parse_module_general|one_pass' \
    'crates/ir/src/parse\.rs'

# Every folding rule holds for any operand values (-0.0, NaN, ±inf
# included), so folding tries each instruction once, on operands already
# folded; the round-by-round fixpoint survives only as the oracle.
check "round bookkeeping in constant folding (each instruction folds once)" \
    "none" \
    'fold_by_round|resolve_in_round' \
    'crates/analysis/src/.*'

# A pointer's base is traced once per instruction on an explicit stack
# (`effects::Bases`); a trace that calls itself for both arms of a select
# is exponential in a chain of selects.
check "a recursive base trace (bases are traced once per instruction)" \
    "none" \
    'trace_base\(' \
    'crates/(analysis|core)/src/.*'

# A task's phases are run, priced and charged by one scheduler routine
# (`Run::phase`) over one run state; a routine that needs a pile of
# arguments is a second copy of that sequence coming back.
check "a scheduler routine that needs too many arguments (a phase is run and charged by one routine)" \
    "none" \
    'too_many_arguments' \
    'crates/runtime/src/.*'

# Random inputs come from dae_trace::SplitMix64; no manifest names an RNG
# crate.
check "a second RNG crate" \
    "none" \
    '^rand[. ]' \
    '(crates/[^/]*/)?Cargo\.toml'

# §6.1 prices a DVFS transition at the per-core static share
# (`PowerModel::core_static_w`), billed by the scheduler's phase routine.
check "a second price for a DVFS transition" \
    "none" \
    'fn transition_cost'

# A run's trace has one output format, the Chrome trace `daec --trace-out`
# writes; its metadata embeds the run's report, so a second aggregate
# format would only restate it. Nothing else emits a JSON summary either,
# so the rule matches `summary_json` and every variant of it.
check "a second trace output format (the Chrome trace embeds the report)" \
    "none" \
    'dae-trace-summary|summary_json|trace::summary|TraceFormat|--trace-format'

# The driver owns its compile counts (`CompileOutcome::counts_json`); the
# runtime's report carries nothing the runtime does not measure.
check "driver counts in the runtime" \
    "none" \
    'CompileStats' \
    'crates/runtime/.*'

# The runtime runs the Optimal-f search in one place, `policy_freq`.
n=$(grep -ro 'select_optimal_edp(' crates/runtime/src | wc -l)
if [ "$n" -ne 1 ]; then
    echo "one_of_each: select_optimal_edp( appears $n times under crates/runtime/src (only policy_freq calls it)"
    fail=1
fi

n=$(grep -c 'InterpError::StepLimit' crates/sim/src/vm/exec.rs)
if [ "$n" -ne 1 ]; then
    echo "one_of_each: InterpError::StepLimit appears $n times in crates/sim/src/vm/exec.rs (only step! raises it)"
    fail=1
fi

# A crate depends only on what it uses: every `dae-*` entry under a
# manifest's `[dependencies]` is named (`dae_*`) somewhere in that crate's
# Rust sources. An edge nothing uses only widens the build graph.
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    [ "$dir" = crates/perf ] && continue
    if [ "$dir" = . ]; then sources="src tests examples"; else sources=$dir; fi
    for dep in $(sed -n '/^\[dependencies\]/,/^\[/p' "$manifest" | grep -oE '^dae-[a-z]+'); do
        if ! grep -rqw --include='*.rs' -e "${dep//-/_}" $sources; then
            echo "one_of_each: $manifest depends on $dep, which its sources never name"
            fail=1
        fi
    done
done

if [ "$fail" -eq 0 ]; then
    echo "one_of_each: ok"
fi
exit "$fail"
