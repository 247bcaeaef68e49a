//! Every fused super-op the bytecode lowering can emit must earn its arm in
//! the dispatch loop: over the benchmark corpus (CAE, hand-written and
//! compiler-generated DAE task lists) at least one function's lowering has
//! to produce it. A variant nothing emits is dead weight in the one big
//! `match` — delete it instead of keeping it "for completeness".
//!
//! `tests/engine_equivalence.rs` checks that each super-op behaves like its
//! constituents; this file checks that each is worth having.

use dae_repro::mem::{CoreCaches, HierarchyConfig, SharedLlc};
use dae_repro::sim::{CachePort, LowerSpan, Machine, PhaseTrace};
use dae_repro::workloads::{self, Variant};

#[test]
fn every_fused_op_is_emitted_for_some_corpus_function() {
    let mut emitted = [0u32; LowerSpan::FUSED_OPS.len()];
    let mut first_emitter: [Option<String>; LowerSpan::FUSED_OPS.len()] = Default::default();
    for mut w in workloads::all_benchmarks_small() {
        w.compile_auto();
        let hc = HierarchyConfig::default();
        let mut llc = SharedLlc::new(hc.llc);
        let mut core = CoreCaches::new(&hc);
        // Functions are lowered on first execution, so run every task of
        // every variant once (one machine: each function lowers once).
        let mut machine = Machine::new(&w.module);
        for variant in [Variant::Cae, Variant::ManualDae, Variant::AutoDae] {
            for t in w.tasks(variant) {
                for f in t.access.into_iter().chain([t.func]) {
                    let mut port = CachePort { core: &mut core, llc: &mut llc };
                    machine
                        .run(f, &t.args, &mut port, &mut PhaseTrace::default())
                        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                }
            }
        }
        for span in machine.take_lower_spans() {
            assert_eq!(span.fused, span.fused_by_op.iter().sum::<u32>(), "{}", span.func);
            assert!(span.fused <= span.ops, "{}", span.func);
            for (k, &n) in span.fused_by_op.iter().enumerate() {
                emitted[k] += n;
                if n > 0 && first_emitter[k].is_none() {
                    first_emitter[k] = Some(format!("{}::{}", w.name, span.func));
                }
            }
        }
    }
    for (k, name) in LowerSpan::FUSED_OPS.iter().enumerate() {
        println!("{name:14} x{:<4} first in {:?}", emitted[k], first_emitter[k]);
    }
    let dead: Vec<&str> = LowerSpan::FUSED_OPS
        .iter()
        .zip(emitted)
        .filter(|(_, n)| *n == 0)
        .map(|(s, _)| *s)
        .collect();
    assert!(dead.is_empty(), "super-ops no corpus function lowers to: {dead:?}");
}
