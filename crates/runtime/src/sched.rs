//! The virtual-time multicore scheduler.
//!
//! Implements the runtime of §3.1: per-core task deques with work stealing,
//! the access phase running immediately before the execute phase on the same
//! core, per-phase DVFS with transition accounting, and O.S.I. bookkeeping.
//!
//! Time is virtual: each core has a clock; the scheduler always advances the
//! least-loaded core, so the interleaving is deterministic and the
//! methodology of §3.1 (evaluate each phase at any frequency from one
//! profiled execution) is exact rather than sampled.

use crate::config::{FreqPolicy, RuntimeConfig};
use crate::lease::Hierarchy;
use crate::report::{Breakdown, ClassReport, GovernorReport, RunReport};
use dae_governor::{Decision, Governor, TaskClass, TaskObs};
use dae_ir::{FuncId, Module, Type};
use dae_power::{phase_energy_split_j, select_optimal_edp, DvfsTable, FreqId};
use dae_sim::{CachePort, InterpError, Machine, PhaseTrace, Val};
use dae_trace::{NullSink, PhaseKind, PhaseRecord, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::sync::Arc;

/// One dynamic task instance.
#[derive(Clone, Debug)]
pub struct TaskInstance {
    /// The execute-phase function (the original task).
    pub func: FuncId,
    /// The access-phase function, when one was generated.
    pub access: Option<FuncId>,
    /// Arguments passed to both phases.
    pub args: Vec<Val>,
    /// Barrier epoch: all tasks of epoch `e` complete before any task of
    /// epoch `e+1` starts (task-graph dependencies, coarsened to phases —
    /// e.g. the factorisation steps of LU or the stages of FFT).
    pub epoch: u32,
}

impl TaskInstance {
    /// A coupled-only task (epoch 0).
    pub fn coupled(func: FuncId, args: Vec<Val>) -> Self {
        TaskInstance { func, access: None, args, epoch: 0 }
    }

    /// A decoupled task (epoch 0).
    pub fn decoupled(func: FuncId, access: FuncId, args: Vec<Val>) -> Self {
        TaskInstance { func, access: Some(access), args, epoch: 0 }
    }
}

/// The whole-module instance list: one epoch-0 instance of every task in
/// `tasks`, in order, decoupled where `access` names its access phase. Its
/// arguments are the integer `hints` positionally, zero for every float
/// parameter and past the hints' end.
pub fn module_instances(
    module: &Module,
    tasks: &[FuncId],
    hints: &[i64],
    access: impl Fn(FuncId) -> Option<FuncId>,
) -> Vec<TaskInstance> {
    tasks
        .iter()
        .map(|&func| {
            let args = module.func(func).params.iter().enumerate().map(|(i, t)| match t {
                Type::F64 => Val::F(0.0),
                _ => Val::I(hints.get(i).copied().unwrap_or(0)),
            });
            TaskInstance { func, access: access(func), args: args.collect(), epoch: 0 }
        })
        .collect()
}

struct CoreState {
    clock_s: f64,
    freq: FreqId,
    busy_s: f64,
}

/// End-of-run snapshot of the governor, with class labels resolved
/// against the module's function names.
fn governor_report(gov: &dyn Governor, module: &Module, table: &DvfsTable) -> GovernorReport {
    GovernorReport {
        governor: gov.name().to_string(),
        classes: gov
            .snapshot()
            .iter()
            .map(|s| ClassReport {
                class: format!("{}#{}", module.func(s.class.func).name, s.class.sig_hex()),
                observations: s.observations,
                explored: s.explored,
                converged: s.converged,
                guarded: s.guarded,
                access_ghz: table.point(s.access).ghz,
                execute_ghz: table.point(s.execute).ghz,
                mean_task_edp: s.mean_task_edp,
            })
            .collect(),
    }
}

/// Optional observers and overrides of one run; the default has none.
///
/// Both observe the same [`PhaseRecord`] per charged phase, built only
/// when one of them is attached: the sink inside each
/// [`TraceEvent::Phase`], the governor as the [`TaskObs`] of a completed
/// task.
#[derive(Default)]
pub struct RunHooks<'a> {
    /// Receives task/phase spans, DVFS transitions and per-core idle gaps
    /// with the exact times and energies the scheduler charges, so
    /// exported span totals reconcile with [`RunReport::breakdown`]. A
    /// profile collector is such a sink.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// An externally-owned governor. It overrides `cfg.policy` for every
    /// task (tasks with an access phase always run decoupled), and — unlike
    /// [`FreqPolicy::Governed`], which builds fresh governor state per run —
    /// the caller keeps it and can carry its learned per-class decisions
    /// across runs (warm start).
    pub governor: Option<&'a mut dyn Governor>,
}

/// Runs `tasks` to completion and reports time/energy/EDP: no events are
/// recorded and no instrumentation cost is paid.
///
/// # Errors
///
/// Propagates interpreter traps ([`InterpError`]).
pub fn run_workload(
    module: &Module,
    tasks: &[TaskInstance],
    cfg: &RuntimeConfig,
) -> Result<RunReport, InterpError> {
    run_workload_with(module, tasks, cfg, RunHooks::default())
}

/// Runs `tasks` to completion under `hooks`.
///
/// The sink only observes: with one attached the reported numbers are
/// bit-identical to [`run_workload`] on the same inputs. The simulated
/// cache hierarchy is leased from the calling thread and parked, reset, on
/// return — a run never sees an earlier run's lines or counters.
///
/// # Errors
///
/// Propagates interpreter traps ([`InterpError`]).
pub fn run_workload_with(
    module: &Module,
    tasks: &[TaskInstance],
    cfg: &RuntimeConfig,
    hooks: RunHooks<'_>,
) -> Result<RunReport, InterpError> {
    let mut caches = Hierarchy::lease(cfg);
    let report = run_on(&mut caches, module, tasks, cfg, hooks);
    caches.park();
    report
}

/// [`run_workload_with`] on a cache hierarchy in its initial state.
fn run_on(
    caches: &mut Hierarchy,
    module: &Module,
    tasks: &[TaskInstance],
    cfg: &RuntimeConfig,
    hooks: RunHooks<'_>,
) -> Result<RunReport, InterpError> {
    let RunHooks { sink, governor } = hooks;
    let mut null = NullSink;
    let mut built;
    let gov = match (governor, cfg.policy) {
        (Some(g), _) => Some(g),
        (None, FreqPolicy::Governed(kind)) => {
            built = kind.build(&cfg.table);
            Some(built.as_mut())
        }
        (None, _) => None,
    };
    let mut machine = Machine::new(module);
    machine.config.max_steps = cfg.max_steps;
    machine.config.engine = cfg.engine;
    let mut run = Run {
        cfg,
        machine,
        caches,
        cores: (0..cfg.cores)
            .map(|_| CoreState { clock_s: 0.0, freq: cfg.table.max(), busy_s: 0.0 })
            .collect(),
        sink: sink.unwrap_or(&mut null),
        gov,
        energy_j: 0.0,
        breakdown: Breakdown::default(),
        access_trace: PhaseTrace::default(),
        execute_trace: PhaseTrace::default(),
        names: Vec::new(),
    };

    // Process barrier epochs in order; work stealing operates within an
    // epoch (the unit of task-graph independence).
    let mut epochs: Vec<u32> = tasks.iter().map(|t| t.epoch).collect();
    epochs.sort_unstable();
    epochs.dedup();
    for epoch in epochs {
        // Round-robin initial distribution of this epoch's tasks.
        let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); cfg.cores];
        for (slot, (i, _)) in tasks.iter().enumerate().filter(|(_, t)| t.epoch == epoch).enumerate()
        {
            deques[slot % cfg.cores].push_back(i);
        }
        while deques.iter().any(|d| !d.is_empty()) {
            // The least-loaded core runs next.
            let cores = &run.cores;
            let c = (0..cfg.cores)
                .min_by(|&a, &b| cores[a].clock_s.partial_cmp(&cores[b].clock_s).expect("finite"))
                .expect("at least one core");
            // Own work first, then steal from the fullest victim.
            let task_idx = match deques[c].pop_front() {
                Some(t) => t,
                None => {
                    let victim = (0..cfg.cores)
                        .filter(|&v| v != c)
                        .max_by_key(|&v| deques[v].len())
                        .expect("other cores exist when work remains");
                    match deques[victim].pop_back() {
                        Some(t) => t,
                        None => continue,
                    }
                }
            };
            run.task(c, task_idx as u32, &tasks[task_idx])?;
        }
        // Barrier: every core waits for the epoch's slowest (counts as idle
        // via the final makespan accounting).
        let barrier = run.cores.iter().map(|c| c.clock_s).fold(0.0, f64::max);
        for (i, c) in run.cores.iter_mut().enumerate() {
            let gap = barrier - c.clock_s;
            if gap > 0.0 && run.sink.is_enabled() {
                run.sink.record(TraceEvent::Idle {
                    core: i as u32,
                    start_s: c.clock_s,
                    dur_s: gap,
                });
            }
            c.clock_s = barrier;
        }
    }

    let Run { cores, gov, mut energy_j, mut breakdown, access_trace, execute_trace, .. } = run;
    let time_s = cores.iter().map(|c| c.clock_s).fold(0.0, f64::max);
    // Chip-level static energy over the makespan; idle cores are in sleep
    // states and contribute nothing else.
    energy_j += cfg.power.static_base_w * time_s;
    let busy_total: f64 = cores.iter().map(|c| c.busy_s).sum();
    breakdown.idle_s = (time_s * cfg.cores as f64 - busy_total).max(0.0);

    // Conservation: every busy second is one of access, execute or
    // overhead; no core is busy longer than the makespan; the chip base is
    // a floor under the energy.
    let charged = breakdown.access_s + breakdown.execute_s + breakdown.overhead_s;
    debug_assert!(
        (busy_total - charged).abs() <= 1e-9 * busy_total.max(charged),
        "busy {busy_total} s vs charged {charged} s"
    );
    debug_assert!(
        cores.iter().all(|c| c.busy_s <= time_s * (1.0 + 1e-9)),
        "a core is busy past the makespan {time_s} s"
    );
    debug_assert!(
        energy_j.is_finite() && energy_j >= cfg.power.static_base_w * time_s,
        "energy {energy_j} J below the chip base over {time_s} s"
    );

    let governor = gov.map(|g| governor_report(g, module, &cfg.table));
    Ok(RunReport {
        time_s,
        energy_j,
        tasks: tasks.len(),
        breakdown,
        access_trace,
        execute_trace,
        governor,
    })
}

/// The frequency a static policy runs a phase of `kind` at: every policy
/// but [`FreqPolicy::Governed`], whose frequencies come from the governor.
/// The one place the runtime runs the *Optimal-f* search.
fn policy_freq(cfg: &RuntimeConfig, kind: PhaseKind, trace: &PhaseTrace) -> FreqId {
    let access = kind == PhaseKind::Access;
    match cfg.policy {
        FreqPolicy::CoupledMax => cfg.table.max(),
        FreqPolicy::CoupledFixed(f) => f,
        FreqPolicy::DaeMinMax if access => cfg.table.min(),
        FreqPolicy::DaeMinMax => cfg.table.max(),
        FreqPolicy::DaePhases { access: f, .. } if access => f,
        FreqPolicy::DaePhases { execute: f, .. } => f,
        FreqPolicy::CoupledOptimal | FreqPolicy::DaeOptimal => {
            select_optimal_edp(&cfg.table, &cfg.power, 1, |id| {
                let f = cfg.table.point(id).hz();
                (trace.time_s(f, &cfg.timing), trace.ipc(f, &cfg.timing))
            })
        }
        FreqPolicy::Governed(_) => unreachable!("governed policy without governor state"),
    }
}

/// The state of one run: the machine, the cores, the sink, the hooks and
/// the running totals.
struct Run<'r, 'h> {
    cfg: &'r RuntimeConfig,
    machine: Machine<'r>,
    caches: &'r mut Hierarchy,
    cores: Vec<CoreState>,
    sink: &'r mut (dyn TraceSink + 'h),
    gov: Option<&'r mut (dyn Governor + 'h)>,
    energy_j: f64,
    breakdown: Breakdown,
    access_trace: PhaseTrace,
    execute_trace: PhaseTrace,
    /// The traced name of each function, by id, made on its first phase
    /// and shared by all its phases' events.
    names: Vec<Option<Arc<str>>>,
}

impl Run<'_, '_> {
    /// Runs `task` on core `c`: the dispatch overhead, the governor's
    /// decision, the access phase when the task runs decoupled, then the
    /// execute phase; the governor reads the two phases' records.
    fn task(&mut self, c: usize, idx: u32, task: &TaskInstance) -> Result<(), InterpError> {
        let cfg = self.cfg;
        // Runtime overhead for dequeuing/scheduling this task.
        let core = &mut self.cores[c];
        let oh = cfg.task_overhead_s;
        let oh_start = core.clock_s;
        let oh_energy = cfg.power.core_static_w(cfg.table.point(core.freq)) * oh;
        core.clock_s += oh;
        core.busy_s += oh;
        self.breakdown.overhead_s += oh;
        self.energy_j += oh_energy;
        if self.sink.is_enabled() {
            self.sink.record(TraceEvent::Overhead {
                core: c as u32,
                task: idx,
                start_s: oh_start,
                dur_s: oh,
                energy_j: oh_energy,
            });
        }

        // Governor decision, made up front from the task class alone — an
        // online governor cannot look at the phase it is about to run.
        let decision = self.gov.as_deref_mut().map(|g| {
            let class = TaskClass::of(task.func, &task.args);
            let d = g.decide(class);
            if self.sink.is_enabled() {
                self.sink.record(TraceEvent::GovernorDecision {
                    core: c as u32,
                    task: idx,
                    class: format!(
                        "{}#{}",
                        self.machine.module().func(task.func).name,
                        class.sig_hex()
                    ),
                    start_s: self.cores[c].clock_s,
                    access_ghz: cfg.table.point(d.access).ghz,
                    execute_ghz: cfg.table.point(d.execute).ghz,
                    explore: d.explore,
                    guarded: d.guarded,
                });
            }
            (class, d)
        });

        // A task with an access phase runs it under a decoupled policy or a
        // governor.
        let d = decision.map(|(_, d)| d);
        let access = match task.access {
            Some(_) if d.is_some() || cfg.policy.is_decoupled() => {
                self.phase(c, idx, task, PhaseKind::Access, d)?
            }
            _ => None,
        };
        let execute = self.phase(c, idx, task, PhaseKind::Execute, d)?;
        if let (Some(g), Some((class, _)), Some(execute)) =
            (self.gov.as_deref_mut(), decision, execute)
        {
            g.observe(class, &TaskObs { access, execute });
        }
        Ok(())
    }

    /// Runs one phase of `task` on core `c` and charges it. The frequency
    /// is the governor's `decision`, else [`policy_freq`]'s. A change of
    /// operating point first bills one DVFS transition — `transition_s` at
    /// the target point's per-core static power, since no instructions run
    /// (§6.1) — then the phase is charged its time and energy at that
    /// point. Every event of the charge goes to the sink. The phase's
    /// [`PhaseRecord`] is built only when a sink or a governor observes it.
    fn phase(
        &mut self,
        c: usize,
        idx: u32,
        task: &TaskInstance,
        kind: PhaseKind,
        decision: Option<Decision>,
    ) -> Result<Option<PhaseRecord>, InterpError> {
        let cfg = self.cfg;
        let func = match kind {
            PhaseKind::Access => task.access.expect("a decoupled task has an access phase"),
            PhaseKind::Execute => task.func,
        };
        let mut trace = PhaseTrace::default();
        let mut port = CachePort { core: &mut self.caches.cores[c], llc: &mut self.caches.llc };
        self.machine.run(func, &task.args, &mut port, &mut trace)?;
        let core = &mut self.cores[c];
        // Bytecode lowering is host-side work: instantaneous on the virtual
        // timeline, its wall-clock cost carried as metadata.
        for s in self.machine.take_lower_spans() {
            if self.sink.is_enabled() {
                self.sink.record(TraceEvent::BytecodeLower {
                    core: c as u32,
                    func: s.func,
                    ops: s.ops,
                    fused: s.fused,
                    start_s: core.clock_s,
                    wall_s: s.wall_s,
                });
            }
        }

        let freq = match (decision, kind) {
            (Some(d), PhaseKind::Access) => d.access,
            (Some(d), PhaseKind::Execute) => d.execute,
            (None, _) => policy_freq(cfg, kind, &trace),
        };
        let point = cfg.table.point(freq);
        let static_w = cfg.power.core_static_w(point);
        let (mut transition_s, mut transition_j) = (0.0, 0.0);
        if core.freq != freq {
            transition_s = cfg.dvfs.transition_s;
            transition_j = static_w * transition_s;
            if self.sink.is_enabled() {
                self.sink.record(TraceEvent::DvfsTransition {
                    core: c as u32,
                    start_s: core.clock_s,
                    dur_s: transition_s,
                    from_ghz: cfg.table.point(core.freq).ghz,
                    to_ghz: point.ghz,
                    energy_j: transition_j,
                });
            }
            core.clock_s += transition_s;
            core.busy_s += transition_s;
            self.breakdown.overhead_s += transition_s;
            self.energy_j += transition_j;
            core.freq = freq;
        }

        let f_hz = point.hz();
        let time_s = trace.time_s(f_hz, &cfg.timing);
        let ipc = trace.ipc(f_hz, &cfg.timing);
        let start_s = core.clock_s;
        core.clock_s += time_s;
        core.busy_s += time_s;
        self.energy_j += (cfg.power.dynamic_power_w(point, ipc) + static_w) * time_s;
        let (spent_s, total) = match kind {
            PhaseKind::Access => (&mut self.breakdown.access_s, &mut self.access_trace),
            PhaseKind::Execute => (&mut self.breakdown.execute_s, &mut self.execute_trace),
        };
        *spent_s += time_s;
        total.merge(&trace);
        if !self.sink.is_enabled() && self.gov.is_none() {
            return Ok(None);
        }
        let (dyn_energy_j, static_energy_j) = phase_energy_split_j(&cfg.power, point, ipc, time_s);
        let fmax_hz = cfg.table.point(cfg.table.max()).hz();
        let record = PhaseRecord {
            func: func.0,
            kind,
            freq_ghz: point.ghz,
            time_s,
            ipc,
            transition_s,
            transition_j,
            dyn_energy_j,
            static_energy_j,
            model_energy_j: cfg.power.total_power_w(point, ipc, 1) * time_s,
            counters: trace.counters(),
            mem_bound_frac: trace.memory_bound_fraction(fmax_hz, &cfg.timing),
            miss_clusters: (trace.demand_stall_ns(&cfg.timing) / cfg.timing.mem_latency_ns)
                .round()
                .max(0.0),
        };
        if self.sink.is_enabled() {
            let at = func.0 as usize;
            if self.names.len() <= at {
                self.names.resize(at + 1, None);
            }
            let module = self.machine.module();
            let name = self.names[at].get_or_insert_with(|| module.func(func).name.as_str().into());
            self.sink.record(TraceEvent::Phase {
                core: c as u32,
                task: idx,
                name: Arc::clone(name),
                start_s,
                record,
            });
        }
        Ok(Some(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{FunctionBuilder, Type, Value};
    use dae_power::{DvfsConfig, DvfsTable};

    /// A module with a streaming task over a large array plus a matching
    /// hand-built access phase (one prefetch per line).
    fn stream_module(elems: i64, chunk: i64) -> (Module, FuncId, FuncId) {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, elems as u64);
        // execute(start): for i in start..start+chunk { a[i] *= 1.5 }
        let mut b = FunctionBuilder::new("exec", vec![Type::I64], Type::Void);
        b.set_task();
        let hi = b.iadd(Value::Arg(0), chunk);
        b.counted_loop(Value::Arg(0), hi, Value::i64(1), |b, i| {
            let p = b.elem_addr(Value::Global(a), i, Type::F64);
            let v = b.load(Type::F64, p);
            let w = b.fmul(v, 1.5f64);
            b.store(p, w);
        });
        b.ret(None);
        let exec = m.add_function(b.finish());
        // access(start): prefetch every 8th element
        let mut b = FunctionBuilder::new("access", vec![Type::I64], Type::Void);
        let hi = b.iadd(Value::Arg(0), chunk);
        b.counted_loop(Value::Arg(0), hi, Value::i64(8), |b, i| {
            let p = b.elem_addr(Value::Global(a), i, Type::F64);
            b.prefetch(p);
        });
        b.ret(None);
        let access = m.add_function(b.finish());
        (m, exec, access)
    }

    fn tasks_for(exec: FuncId, access: FuncId, elems: i64, chunk: i64) -> Vec<TaskInstance> {
        (0..elems / chunk)
            .map(|k| TaskInstance::decoupled(exec, access, vec![Val::I(k * chunk)]))
            .collect()
    }

    #[test]
    fn all_tasks_execute_and_clock_advances() {
        let (m, exec, access) = stream_module(4096, 512);
        let tasks = tasks_for(exec, access, 4096, 512);
        let cfg = RuntimeConfig::paper_default();
        let r = run_workload(&m, &tasks, &cfg).unwrap();
        assert_eq!(r.tasks, 8);
        assert!(r.time_s > 0.0);
        assert!(r.energy_j > 0.0);
        assert!(r.execute_trace.instrs > 0);
        // Coupled policy never runs access phases.
        assert_eq!(r.access_trace.instrs, 0);
        assert_eq!(r.breakdown.access_s, 0.0);
    }

    #[test]
    fn dae_minmax_runs_access_phases() {
        let (m, exec, access) = stream_module(4096, 512);
        let tasks = tasks_for(exec, access, 4096, 512);
        let cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeMinMax);
        let r = run_workload(&m, &tasks, &cfg).unwrap();
        assert!(r.access_trace.prefetches > 0);
        assert!(r.breakdown.access_s > 0.0);
        // Execute phase hits warm cache: no DRAM demand misses.
        assert_eq!(r.execute_trace.demand_hits[3], 0, "execute must be warmed");
    }

    #[test]
    fn dae_beats_coupled_edp_on_memory_bound_stream() {
        // The paper's core claim, end to end on a synthetic stream.
        let (m, exec, access) = stream_module(65536, 2048);
        let tasks = tasks_for(exec, access, 65536, 2048);
        let base = RuntimeConfig::paper_default();
        let cae = run_workload(&m, &tasks, &base).unwrap();
        let dae =
            run_workload(&m, &tasks, &base.clone().with_policy(FreqPolicy::DaeOptimal)).unwrap();
        assert!(
            dae.edp() < cae.edp(),
            "DAE EDP {} must beat CAE-at-fmax EDP {}",
            dae.edp(),
            cae.edp()
        );
        // and without catastrophic slowdown (paper: no performance loss at
        // 0ns, ~4% at 500ns; allow slack for the synthetic kernel)
        assert!(dae.time_s < cae.time_s * 1.25, "dae {} vs cae {}", dae.time_s, cae.time_s);
    }

    #[test]
    fn work_is_balanced_across_cores() {
        let (m, exec, access) = stream_module(16384, 512);
        let tasks = tasks_for(exec, access, 16384, 512);
        let cfg = RuntimeConfig::paper_default();
        let r = run_workload(&m, &tasks, &cfg).unwrap();
        // 32 equal tasks on 4 cores: idle must be small relative to total.
        assert!(
            r.breakdown.idle_s < 0.25 * r.time_s * cfg.cores as f64,
            "idle {} vs makespan {}",
            r.breakdown.idle_s,
            r.time_s
        );
    }

    #[test]
    fn zero_latency_dvfs_has_less_overhead() {
        let (m, exec, access) = stream_module(8192, 512);
        let tasks = tasks_for(exec, access, 8192, 512);
        let with_lat = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeMinMax);
        let no_lat = with_lat.clone().with_dvfs(DvfsConfig::instant());
        let a = run_workload(&m, &tasks, &with_lat).unwrap();
        let b = run_workload(&m, &tasks, &no_lat).unwrap();
        assert!(b.breakdown.overhead_s < a.breakdown.overhead_s);
        assert!(b.time_s <= a.time_s);
    }

    #[test]
    fn fixed_frequency_scales_compute_time() {
        // A compute-bound task: coupled time should scale ~1/f.
        let mut m = Module::new();
        let g = m.add_global("out", Type::F64, 8);
        let mut b = FunctionBuilder::new("spin", vec![Type::I64], Type::Void);
        b.set_task();
        let out = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::f64(1.0)],
            |b, _, c| vec![b.fmul(c[0], 1.0000001f64)],
        );
        let p = b.ptr_add(Value::Global(g), 0i64);
        b.store(p, out[0]);
        b.ret(None);
        let f = m.add_function(b.finish());
        let tasks = vec![TaskInstance::coupled(f, vec![Val::I(20000)])];
        let base = RuntimeConfig::paper_default();
        let fast = run_workload(&m, &tasks, &base).unwrap();
        let slow = run_workload(
            &m,
            &tasks,
            &base.clone().with_policy(FreqPolicy::CoupledFixed(base.table.min())),
        )
        .unwrap();
        let ratio = slow.breakdown.execute_s / fast.breakdown.execute_s;
        assert!((ratio - 3.4 / 1.6).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn dvfs_transition_accounting_is_exact() {
        // §6.1: a transition takes `transition_s` and burns static energy
        // only. On one core under DaePhases{min, max} every task performs
        // exactly two transitions (→fmin for access, →fmax for execute),
        // so N = 2 · tasks must add exactly N × transition_s to overhead
        // and the matching static energy.
        let (m, exec, access) = stream_module(4096, 512);
        let tasks = tasks_for(exec, access, 4096, 512);
        let mut cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaePhases {
            access: DvfsTable::sandybridge().min(),
            execute: DvfsTable::sandybridge().max(),
        });
        cfg.cores = 1;
        let t_tr = cfg.dvfs.transition_s;
        let n = 2 * tasks.len();

        let mut rec = dae_trace::Recorder::new(cfg.cores);
        let with_lat = run_workload_with(
            &m,
            &tasks,
            &cfg,
            RunHooks { sink: Some(&mut rec), ..Default::default() },
        )
        .unwrap();
        let no_lat =
            run_workload(&m, &tasks, &cfg.clone().with_dvfs(DvfsConfig::instant())).unwrap();

        // Time: N transitions, each transition_s, all of it overhead.
        let dispatch = tasks.len() as f64 * cfg.task_overhead_s;
        let extra_overhead = with_lat.breakdown.overhead_s - no_lat.breakdown.overhead_s;
        assert!((extra_overhead - n as f64 * t_tr).abs() < 1e-15, "{extra_overhead}");
        assert!((no_lat.breakdown.overhead_s - dispatch).abs() < 1e-15);
        assert!((with_lat.time_s - no_lat.time_s - n as f64 * t_tr).abs() < 1e-15);

        // Energy: per-core static at the target point for each transition,
        // plus chip base static over the lengthened makespan.
        let w_min = cfg.power.core_static_w(cfg.table.point(cfg.table.min()));
        let w_max = cfg.power.core_static_w(cfg.table.point(cfg.table.max()));
        let expected_e =
            tasks.len() as f64 * t_tr * (w_min + w_max) + cfg.power.static_base_w * n as f64 * t_tr;
        let extra_e = with_lat.energy_j - no_lat.energy_j;
        assert!(
            (extra_e - expected_e).abs() < expected_e * 1e-9,
            "extra {extra_e} vs expected {expected_e}"
        );

        // The trace agrees event by event.
        let transitions: Vec<_> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                dae_trace::TraceEvent::DvfsTransition { dur_s, energy_j, .. } => {
                    Some((*dur_s, *energy_j))
                }
                _ => None,
            })
            .collect();
        assert_eq!(transitions.len(), n);
        assert!(transitions.iter().all(|(d, _)| *d == t_tr));
        let traced_e: f64 = transitions.iter().map(|(_, e)| e).sum();
        let static_only = tasks.len() as f64 * t_tr * (w_min + w_max);
        assert!((traced_e - static_only).abs() < static_only * 1e-9);

        // Zero-transition control: coupled-at-fmax never switches.
        let mut rec = dae_trace::Recorder::new(cfg.cores);
        let coupled = run_workload_with(
            &m,
            &tasks,
            &cfg.clone().with_policy(FreqPolicy::CoupledMax),
            RunHooks { sink: Some(&mut rec), ..Default::default() },
        )
        .unwrap();
        assert!((coupled.breakdown.overhead_s - dispatch).abs() < 1e-15);
        assert!(rec
            .events()
            .iter()
            .all(|e| !matches!(e, dae_trace::TraceEvent::DvfsTransition { .. })));
    }

    #[test]
    fn tracing_does_not_change_results() {
        // The acceptance bar: with a recording sink attached the reported
        // numbers are bit-identical to the untraced run.
        let (m, exec, access) = stream_module(8192, 512);
        let tasks = tasks_for(exec, access, 8192, 512);
        let cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeOptimal);
        let plain = run_workload(&m, &tasks, &cfg).unwrap();
        let mut rec = dae_trace::Recorder::new(cfg.cores);
        let traced = run_workload_with(
            &m,
            &tasks,
            &cfg,
            RunHooks { sink: Some(&mut rec), ..Default::default() },
        )
        .unwrap();
        assert_eq!(plain.time_s.to_bits(), traced.time_s.to_bits());
        assert_eq!(plain.energy_j.to_bits(), traced.energy_j.to_bits());
        assert_eq!(plain.breakdown, traced.breakdown);
        assert!(!rec.is_empty());
    }

    /// A governor that keeps every observation it is fed and delegates
    /// its decisions to a real one.
    struct Keeping {
        inner: Box<dyn Governor>,
        kept: Vec<TaskObs>,
    }

    impl Governor for Keeping {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn decide(&mut self, class: TaskClass) -> Decision {
            self.inner.decide(class)
        }

        fn observe(&mut self, class: TaskClass, obs: &TaskObs) {
            self.kept.push(*obs);
            self.inner.observe(class, obs);
        }

        fn snapshot(&self) -> Vec<dae_governor::ClassSnapshot> {
            self.inner.snapshot()
        }
    }

    #[test]
    fn the_governor_and_the_sink_observe_the_same_records() {
        let (m, exec, access) = stream_module(16384, 512);
        let tasks = tasks_for(exec, access, 16384, 512);
        let cfg = RuntimeConfig::paper_default();
        let kind = dae_governor::GovernorKind::Bandit { seed: 7 };
        let mut gov = Keeping { inner: kind.build(&cfg.table), kept: Vec::new() };
        let mut rec = dae_trace::Recorder::new(cfg.cores);
        let hooks = RunHooks { sink: Some(&mut rec), governor: Some(&mut gov) };
        run_workload_with(&m, &tasks, &cfg, hooks).unwrap();

        let traced: Vec<String> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Phase { record, .. } => Some(format!("{record:?}")),
                _ => None,
            })
            .collect();
        assert_eq!(traced.len(), 2 * tasks.len(), "one record per access or execute phase");
        // `Debug` prints every float exactly, so equal strings are equal bits.
        let observed: Vec<String> = gov
            .kept
            .iter()
            .flat_map(|o| o.access.iter().chain([&o.execute]))
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(observed, traced);
        assert_eq!(gov.kept.len(), tasks.len());
        let kinds = |o: &TaskObs| (o.access.map(|a| a.kind), o.execute.kind);
        assert!(gov.kept.iter().all(|o| kinds(o) == (Some(PhaseKind::Access), PhaseKind::Execute)));
    }

    #[test]
    fn trace_spans_reconcile_with_breakdown() {
        // Per-category span totals must match the O.S.I. breakdown, and
        // spans within one core lane must not overlap.
        let (m, exec, access) = stream_module(16384, 512);
        let tasks = tasks_for(exec, access, 16384, 512);
        let cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeMinMax);
        let mut rec = dae_trace::Recorder::new(cfg.cores);
        let r = run_workload_with(
            &m,
            &tasks,
            &cfg,
            RunHooks { sink: Some(&mut rec), ..Default::default() },
        )
        .unwrap();

        let mut by_cat = std::collections::HashMap::new();
        for e in rec.events() {
            *by_cat.entry(e.category()).or_insert(0.0) += e.dur_s();
        }
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(by_cat["access"], r.breakdown.access_s));
        assert!(close(by_cat["execute"], r.breakdown.execute_s));
        assert!(close(
            by_cat["overhead"] + by_cat.get("dvfs").copied().unwrap_or(0.0),
            r.breakdown.overhead_s
        ));
        assert!(close(by_cat.get("idle").copied().unwrap_or(0.0), r.breakdown.idle_s));

        for core in 0..cfg.cores as u32 {
            let mut spans: Vec<(f64, f64)> = rec
                .events()
                .iter()
                .filter(|e| e.core() == core)
                .map(|e| (e.start_s(), e.end_s()))
                .collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                assert!(w[1].0 >= w[0].1 - 1e-12, "overlap on core {core}: {w:?}");
            }
        }
    }

    #[test]
    fn trace_span_energy_reconciles_with_the_report() {
        // Every joule the report bills is on some span, except the chip
        // base, which is charged over the makespan: Σ span energy +
        // static_base_w × time_s = energy_j, under every static policy and
        // a governor.
        let (m, exec, access) = stream_module(16384, 512);
        let tasks = tasks_for(exec, access, 16384, 512);
        let base = RuntimeConfig::paper_default();
        let (fmin, fmax) = (base.table.min(), base.table.max());
        let policies = [
            FreqPolicy::CoupledMax,
            FreqPolicy::CoupledFixed(fmin),
            FreqPolicy::CoupledOptimal,
            FreqPolicy::DaeMinMax,
            FreqPolicy::DaeOptimal,
            FreqPolicy::DaePhases { access: fmax, execute: fmin },
            FreqPolicy::Governed(dae_governor::GovernorKind::Bandit { seed: 7 }),
        ];
        for policy in policies {
            let cfg = base.clone().with_policy(policy);
            let mut rec = dae_trace::Recorder::new(cfg.cores);
            let hooks = RunHooks { sink: Some(&mut rec), ..Default::default() };
            let r = run_workload_with(&m, &tasks, &cfg, hooks).unwrap();
            let spans: f64 = rec.events().iter().map(|e| e.energy_j()).sum();
            let total = spans + cfg.power.static_base_w * r.time_s;
            assert!(
                (total - r.energy_j).abs() <= 1e-9 * r.energy_j,
                "{policy:?}: spans {spans} J + base vs report {} J",
                r.energy_j
            );
        }
    }

    #[test]
    fn governed_run_reports_learned_classes() {
        let (m, exec, access) = stream_module(16384, 512);
        let tasks = tasks_for(exec, access, 16384, 512);
        let cfg = RuntimeConfig::paper_default()
            .with_policy(FreqPolicy::Governed(dae_governor::GovernorKind::Bandit { seed: 1 }));
        let r = run_workload(&m, &tasks, &cfg).unwrap();
        assert!(r.access_trace.prefetches > 0, "governed tasks run decoupled");
        let g = r.governor.expect("governed run must carry a governor report");
        assert_eq!(g.governor, "bandit");
        assert!(!g.classes.is_empty());
        let total: u64 = g.classes.iter().map(|c| c.observations).sum();
        assert_eq!(total, 32, "every completed task is observed exactly once");
        assert!(g.classes.iter().all(|c| c.class.contains('#')));
        // Non-governed runs carry no governor section.
        let plain = run_workload(&m, &tasks, &RuntimeConfig::paper_default()).unwrap();
        assert!(plain.governor.is_none());
    }

    #[test]
    fn governed_decisions_are_traced() {
        let (m, exec, access) = stream_module(8192, 512);
        let tasks = tasks_for(exec, access, 8192, 512);
        let cfg = RuntimeConfig::paper_default()
            .with_policy(FreqPolicy::Governed(dae_governor::GovernorKind::Heuristic));
        let mut rec = dae_trace::Recorder::new(cfg.cores);
        let r = run_workload_with(
            &m,
            &tasks,
            &cfg,
            RunHooks { sink: Some(&mut rec), ..Default::default() },
        )
        .unwrap();
        let decisions: Vec<_> = rec
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::GovernorDecision { .. }))
            .collect();
        assert_eq!(decisions.len(), tasks.len(), "one decision per task");
        // Decisions are instantaneous: span totals still reconcile.
        let span_s: f64 = rec.events().iter().map(|e| e.dur_s()).sum();
        let busy = r.breakdown.access_s + r.breakdown.execute_s + r.breakdown.overhead_s;
        assert!((span_s - busy - r.breakdown.idle_s).abs() < 1e-9);
        // And the traced run matches the untraced one bit for bit.
        let plain = run_workload(&m, &tasks, &cfg).unwrap();
        assert_eq!(plain.time_s.to_bits(), r.time_s.to_bits());
        assert_eq!(plain.energy_j.to_bits(), r.energy_j.to_bits());
    }

    #[test]
    fn external_governor_state_carries_across_runs() {
        let (m, exec, access) = stream_module(8192, 512);
        let tasks = tasks_for(exec, access, 8192, 512);
        let cfg = RuntimeConfig::paper_default();
        let mut gov = dae_governor::GovernorKind::Bandit { seed: 3 }.build(&cfg.table);
        let mut obs = Vec::new();
        for _ in 0..3 {
            let hooks = RunHooks { governor: Some(gov.as_mut()), ..Default::default() };
            let r = run_workload_with(&m, &tasks, &cfg, hooks).unwrap();
            let g = r.governor.unwrap();
            obs.push(g.classes.iter().map(|c| c.observations).sum::<u64>());
        }
        assert_eq!(obs, [16, 32, 48], "observations accumulate across runs");
    }

    #[test]
    fn coupled_optimal_never_loses_edp() {
        // Optimal-EDP CAE is an exhaustive per-task search: it can never end
        // up with worse EDP than the fmax baseline (modulo transition cost).
        let (m, exec, access) = stream_module(65536, 2048);
        let tasks: Vec<TaskInstance> =
            (0..32).map(|k| TaskInstance::coupled(exec, vec![Val::I(k * 2048)])).collect();
        let _ = access;
        let base = RuntimeConfig::paper_default();
        let max = run_workload(&m, &tasks, &base).unwrap();
        let opt = run_workload(&m, &tasks, &base.clone().with_policy(FreqPolicy::CoupledOptimal))
            .unwrap();
        assert!(opt.energy_j <= max.energy_j * 1.001);
        assert!(opt.edp() <= max.edp() * 1.001);
    }

    /// Accepts `left` events, then panics.
    struct FailingSink {
        left: u32,
    }

    impl TraceSink for FailingSink {
        fn is_enabled(&self) -> bool {
            true
        }

        fn record(&mut self, _event: TraceEvent) {
            assert!(self.left > 0, "sink failed");
            self.left -= 1;
        }
    }

    #[test]
    fn a_thread_s_earlier_runs_leave_nothing_behind_on_any_exit_path() {
        use crate::lease::parked;
        let (m, exec, access) = stream_module(8192, 512);
        let tasks = tasks_for(exec, access, 8192, 512);
        let a = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeOptimal);
        let first = run_workload(&m, &tasks, &a).unwrap().to_json_string();
        assert!(parked());
        let again = |after: &str| {
            let report = run_workload(&m, &tasks, &a).unwrap().to_json_string();
            assert_eq!(report, first, "after {after}");
        };
        again("a run of the same configuration");

        // Another geometry and core count: built fresh, parked in place of
        // the first.
        let level = |size_bytes, assoc| dae_mem::CacheConfig { size_bytes, assoc, line_bytes: 64 };
        let mut b = a.clone();
        b.cores = 2;
        b.hierarchy.l1 = level(384, 2);
        b.hierarchy.l2 = level(1536, 4);
        b.hierarchy.llc = level(6144, 8);
        let other = run_workload(&m, &tasks, &b).unwrap().to_json_string();
        assert_ne!(other, first, "a different machine reports differently");
        again("another geometry");
        assert_eq!(run_workload(&m, &tasks, &b).unwrap().to_json_string(), other);
        again("another geometry, leased");

        // The budget runs out in the first execute phase, after its access
        // phase has filled lines.
        let e = run_workload(&m, &tasks, &a.clone().with_max_steps(1000)).unwrap_err();
        assert_eq!(e, InterpError::StepLimit);
        assert!(parked(), "the error path parks");
        again("a step-limit");

        let mut sink = FailingSink { left: 8 };
        let hooks = RunHooks { sink: Some(&mut sink), ..Default::default() };
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_workload_with(&m, &tasks, &a, hooks)
        }));
        assert!(unwound.is_err());
        assert!(!parked(), "a run that unwinds parks nothing");
        again("a panic");
    }
}
