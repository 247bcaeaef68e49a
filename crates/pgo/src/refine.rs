//! The pure decision function behind the `refine` stage of the driver's
//! access-generation sequence.
//!
//! [`plan_refinement`] maps one task's measured [`PhaseProfile`] to a
//! [`RefinePlan`] — a small set of orthogonal knob changes the driver
//! applies to its `CompilerOptions` before analysis and generation. The
//! function is **pure and deterministic**: the same profile always yields
//! the same plan, and an empty profile (no runs) yields
//! [`RefinePlan::none`], which the driver treats as "leave the static
//! sequence byte-identical".
//!
//! The four rules, in the order a reader should trust them:
//!
//! 1. **Prefetch pruning (accuracy)** — if fewer than [`ACCURACY_FLOOR`]
//!    of issued prefetches actually fetched a DRAM line, the access phase
//!    is re-touching lines it already brought in (the classic unit-stride 8-per-cache-line
//!    pattern scores 1/8). Plan: line-granularity dedup, which the
//!    affine generator implements by stepping the prefetch loop a cache
//!    line at a time.
//! 2. **Phase dropping (coverage)** — if the access phase fetched under
//!    [`COVERAGE_FLOOR`] of the task's DRAM line traffic ahead of
//!    execute, it is pure overhead. Plan: refuse
//!    decoupling for the task (it runs coupled, like any other refusal).
//! 3. **Profitability flip (measured boundedness)** — §5.1's static
//!    `NconvUn` gate can reject a scan whose measured execute phase is
//!    in fact memory-bound. When measured boundedness is at least
//!    [`MEMBOUND_FORCE`], plan: skip the hull instruction-count check
//!    and let the scan through.
//! 4. **Hint synthesis (trip counts)** — when the caller provided no
//!    parameter hints, the measured mean branch count stands in for the
//!    trip count, giving the affine granularity logic a real bound
//!    instead of a guess.

use crate::profile::PhaseProfile;

/// Prefetch accuracy below this enables line-granularity dedup (rule 1).
pub(crate) const ACCURACY_FLOOR: f64 = 0.60;

/// Prefetch coverage below this drops the access phase entirely (rule 2).
pub(crate) const COVERAGE_FLOOR: f64 = 0.02;

/// Measured execute memory-bound fraction at or above this forces the
/// §5.1 profitability verdict to "decouple" (rule 3).
pub(crate) const MEMBOUND_FORCE: f64 = 0.50;

/// The knob changes a profile justifies for one task. All fields default
/// to "change nothing"; the driver applies them to its options.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefinePlan {
    /// Step affine prefetch loops by cache line instead of by element
    /// (rule 1: measured accuracy says most prefetches were redundant).
    pub line_dedup: bool,
    /// Refuse decoupling outright — the measured access phase fetched
    /// nothing execute would have missed on (rule 2).
    pub drop_access_phase: bool,
    /// Skip the §5.1 hull instruction-count profitability check — the
    /// measured execute phase is memory-bound regardless of what the
    /// static estimate predicted (rule 3).
    pub force_profitable: bool,
    /// Synthesised first-parameter hint from the measured trip count,
    /// for tasks compiled without caller hints (rule 4).
    pub trip_hint: Option<i64>,
}

impl RefinePlan {
    /// The no-op plan (what an absent or unconvincing profile yields).
    pub(crate) fn none() -> RefinePlan {
        RefinePlan::default()
    }
}

/// Decides what a task's measured profile justifies changing.
///
/// `hints_present` must be true when the caller supplied any non-zero
/// parameter hint — rule 4 never overrides a real hint with a guess.
pub fn plan_refinement(profile: &PhaseProfile, hints_present: bool) -> RefinePlan {
    let mut plan = RefinePlan::none();
    if profile.runs == 0 {
        return plan;
    }

    let ran_decoupled = profile.access.instrs > 0;

    // Rule 2 first: a useless access phase makes the other access-shape
    // rules moot for this task.
    if ran_decoupled && profile.prefetch_coverage() < COVERAGE_FLOOR {
        plan.drop_access_phase = true;
        return plan;
    }

    // Rule 1: redundant prefetches ⇒ line-granularity dedup.
    if profile.access.prefetches > 0 && profile.prefetch_accuracy() < ACCURACY_FLOOR {
        plan.line_dedup = true;
    }

    // Rule 3: measured boundedness flips the static profitability gate.
    // Only meaningful for tasks that did NOT decouple (a decoupled task
    // already passed the gate), and only when execute actually misses.
    if !ran_decoupled
        && profile.execute.dram_misses > 0
        && profile.execute_mem_bound() >= MEMBOUND_FORCE
    {
        plan.force_profitable = true;
    }

    // Rule 4: synthesise a trip-count hint when the caller gave none.
    if !hints_present {
        let trips = profile.trip_estimate();
        if trips > 0 {
            plan.trip_hint = Some(trips.min(i64::MAX as u64) as i64);
        }
    }

    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PhaseSample;

    fn decoupled(prefetches: u64, pf_dram: u64, exec_misses: u64) -> PhaseProfile {
        let mut p = PhaseProfile::default();
        p.absorb(
            Some(&PhaseSample {
                instrs: 1_000,
                prefetches,
                prefetch_dram_lines: pf_dram,
                ..Default::default()
            }),
            &PhaseSample {
                instrs: 4_000,
                loads: 1_000,
                dram_misses: exec_misses,
                branches: 128,
                mem_bound_ppm: 400_000,
                ..Default::default()
            },
        );
        p
    }

    #[test]
    fn empty_or_thin_profiles_plan_nothing() {
        assert_eq!(plan_refinement(&PhaseProfile::default(), false), RefinePlan::none());
    }

    #[test]
    fn low_accuracy_plans_line_dedup() {
        // 100/800 = 0.125 accuracy, coverage 100/110 — healthy phase,
        // redundant prefetches.
        let plan = plan_refinement(&decoupled(800, 100, 10), true);
        assert!(plan.line_dedup);
        assert!(!plan.drop_access_phase);
        assert!(!plan.force_profitable);
        // Accurate prefetches are left alone.
        let plan = plan_refinement(&decoupled(100, 95, 10), true);
        assert_eq!(plan, RefinePlan::none());
    }

    #[test]
    fn useless_coverage_drops_the_access_phase_and_preempts_other_rules() {
        // 1 DRAM line fetched vs 1000 execute misses ⇒ coverage ≈ 0.001.
        let plan = plan_refinement(&decoupled(800, 1, 1_000), true);
        assert!(plan.drop_access_phase);
        assert!(!plan.line_dedup, "drop preempts dedup");
    }

    #[test]
    fn measured_boundedness_flips_profitability_only_for_coupled_tasks() {
        let mut coupled = PhaseProfile::default();
        coupled.absorb(
            None,
            &PhaseSample {
                instrs: 4_000,
                loads: 1_000,
                dram_misses: 200,
                mem_bound_ppm: 700_000,
                ..Default::default()
            },
        );
        let plan = plan_refinement(&coupled, true);
        assert!(plan.force_profitable);
        // The same boundedness on an already-decoupled task changes nothing.
        let mut dec = decoupled(100, 95, 10);
        dec.execute.mem_bound_ppm_sum = 700_000;
        assert!(!plan_refinement(&dec, true).force_profitable);
        // A compute-bound coupled task stays coupled.
        let mut cb = PhaseProfile::default();
        cb.absorb(
            None,
            &PhaseSample {
                instrs: 4_000,
                loads: 1_000,
                dram_misses: 2,
                mem_bound_ppm: 50_000,
                ..Default::default()
            },
        );
        assert_eq!(plan_refinement(&cb, true), RefinePlan::none());
    }

    #[test]
    fn trip_hints_only_fill_an_absent_hint() {
        let p = decoupled(100, 95, 10); // otherwise healthy
        assert_eq!(plan_refinement(&p, false).trip_hint, Some(128));
        assert_eq!(plan_refinement(&p, true).trip_hint, None);
    }

    #[test]
    fn planning_is_deterministic() {
        let p = decoupled(800, 100, 10);
        let a = plan_refinement(&p, false);
        for _ in 0..8 {
            assert_eq!(plan_refinement(&p, false), a);
        }
    }
}
