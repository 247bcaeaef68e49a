//! The paper's model outputs as one document.
//!
//! Every number the evaluation reproduces — §6 Table 1, Fig. 3, Fig. 4,
//! the design-choice ablations, the online governors against the oracle
//! and static vs profile-refined EDP — comes from one function per
//! section, each returning tables: a title, columns, labelled rows and
//! named facts. [`document`] computes sections and writes them as one
//! `dae-model/1` JSON document, one table row per line (so a change to a
//! figure is a reviewable diff); [`render`] prints the text tables from
//! that same document. `dae-repro` is the command line; its `--smoke`
//! document is committed as `BENCH_model.json` and pinned by
//! `tests/model_golden.rs`.
//!
//! Everything here is a model quantity: virtual time, energy, EDP,
//! counts. Host wall-clock is measured by `dae-perf` (`crates/perf`).
//!
//! # Examples
//!
//! ```
//! use dae_repro::model::{document, render};
//! use dae_repro::trace::json::parse;
//!
//! let text = document(true, &["ablations"], &[]);
//! assert!(render(&parse(&text).unwrap()).contains("Ablation 1"));
//! ```

use dae_core::{generate_access, CompilerOptions, Strategy};
use dae_driver::{Driver, DriverConfig};
use dae_ir::{verify_module, FunctionBuilder, Module, Type, Value};
use dae_pgo::{ProfileCollector, ProfileSet};
use dae_power::{DvfsConfig, DvfsTable, FreqId};
use dae_runtime::{
    run_workload, run_workload_with, FreqPolicy, GovernorKind, RunHooks, RunReport, RuntimeConfig,
};
use dae_trace::json::JsonValue;
use dae_workloads::{all_benchmarks, all_benchmarks_small, lbm, libq, lu, Variant, Workload};

/// Section names in document order, as the command line spells them.
pub const SECTIONS: [&str; 6] = ["table1", "fig3", "fig4", "ablations", "governor", "pgo"];

/// The benchmarks Fig. 4 sweeps when none are named.
pub const FIG4_DEFAULT: [&str; 3] = ["Cholesky", "FFT", "LibQ"];

/// The corpus name matching `arg` case-insensitively (`lu` → `LU`).
pub fn benchmark_name(arg: &str) -> Option<&'static str> {
    all_benchmarks_small().into_iter().map(|w| w.name).find(|n| n.eq_ignore_ascii_case(arg))
}

/// Computes `sections` (names from [`SECTIONS`]) on the small corpus
/// (`smoke`) or at full size, and writes them as one `dae-model/1`
/// document: compact JSON except that every array of objects puts one
/// element per line, ending in a newline. `benches` names the corpus
/// benchmarks Fig. 4 sweeps (empty: [`FIG4_DEFAULT`]). Missing cells are
/// `null`.
///
/// # Panics
///
/// On a section name not in [`SECTIONS`], or a simulator trap in a corpus
/// program.
pub fn document(smoke: bool, sections: &[&str], benches: &[&'static str]) -> String {
    let sections = sections.iter().map(|&name| {
        let tables = match name {
            "table1" => table1(smoke),
            "fig3" => fig3(smoke),
            "fig4" => fig4(smoke, if benches.is_empty() { &FIG4_DEFAULT } else { benches }),
            "ablations" => ablations(smoke),
            "governor" => governor(smoke),
            "pgo" => pgo(smoke),
            other => panic!("unknown section `{other}`"),
        };
        let tables = tables.iter().map(Table::to_json).collect();
        JsonValue::obj([("section", name.into()), ("tables", JsonValue::Arr(tables))])
    });
    let doc = JsonValue::obj([
        ("schema", "dae-model/1".into()),
        ("mode", if smoke { "smoke" } else { "full" }.into()),
        ("sections", JsonValue::Arr(sections.collect())),
    ]);
    let mut out = String::new();
    layout(&doc, &mut out);
    out.push('\n');
    out
}

fn layout(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Arr(items) if items.iter().any(|i| matches!(i, JsonValue::Obj(_))) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                layout(item, out);
            }
            out.push_str("\n]");
        }
        JsonValue::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&JsonValue::Str(k.clone()).to_json_string());
                out.push(':');
                layout(v, out);
            }
            out.push('}');
        }
        leaf => out.push_str(&leaf.to_json_string()),
    }
}

/// One table of a section; a NaN cell is a missing one.
struct Table {
    id: String,
    title: String,
    columns: Vec<&'static str>,
    rows: Vec<(String, Vec<f64>)>,
    facts: Vec<(&'static str, JsonValue)>,
}

impl Table {
    fn new(id: impl Into<String>, title: impl Into<String>, columns: &[&'static str]) -> Table {
        let (id, title, columns) = (id.into(), title.into(), columns.to_vec());
        Table { id, title, columns, rows: Vec::new(), facts: Vec::new() }
    }

    fn row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.rows.push((label.into(), values));
    }

    fn fact(&mut self, name: &'static str, value: impl Into<JsonValue>) {
        self.facts.push((name, value.into()));
    }

    /// Appends the per-column geometric mean as a `G.Mean` row and
    /// returns it.
    fn geomean_row(&mut self) -> Vec<f64> {
        let gm: Vec<f64> =
            (0..self.columns.len()).map(|c| geomean(self.rows.iter().map(|(_, v)| v[c]))).collect();
        self.row("G.Mean", gm.clone());
        gm
    }

    fn to_json(&self) -> JsonValue {
        let rows = self.rows.iter().map(|(label, values)| {
            let values = values
                .iter()
                .map(|&v| if v.is_finite() { JsonValue::Num(v) } else { JsonValue::Null })
                .collect();
            JsonValue::obj([("label", label.as_str().into()), ("values", JsonValue::Arr(values))])
        });
        let facts = self.facts.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        JsonValue::obj([
            ("id", self.id.as_str().into()),
            ("title", self.title.as_str().into()),
            ("columns", self.columns.iter().map(|&c| c.into()).collect::<Vec<_>>().into()),
            ("rows", JsonValue::Arr(rows.collect())),
            ("facts", JsonValue::Obj(facts)),
        ])
    }
}

/// Geometric mean of positive values (0 for none).
fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "geomean needs positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

/// Prints a document's tables as aligned text, each followed by its facts.
pub fn render(doc: &JsonValue) -> String {
    fn arr<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        v.get(key).and_then(JsonValue::as_arr).unwrap_or(&[])
    }
    let text = |v: &JsonValue| match v {
        JsonValue::Num(x) => format_column(&[Some(*x)]).remove(0),
        JsonValue::Str(s) => s.clone(),
        other => other.to_json_string(),
    };
    let mut out = String::new();
    for section in arr(doc, "sections") {
        for table in arr(section, "tables") {
            let title = table.get("title").map(text).unwrap_or_default();
            out.push_str(&format!("\n== {title} ==\n"));
            let columns: Vec<String> = arr(table, "columns").iter().map(text).collect();
            let rows = arr(table, "rows");
            let labels: Vec<String> =
                rows.iter().map(|r| r.get("label").map(text).unwrap_or_default()).collect();
            // cells[c][r]: formatted a column at a time.
            let cells: Vec<Vec<String>> = (0..columns.len())
                .map(|c| {
                    let column: Vec<Option<f64>> = rows
                        .iter()
                        .map(|r| arr(r, "values").get(c).and_then(JsonValue::as_f64))
                        .collect();
                    format_column(&column)
                })
                .collect();
            let label_w = labels.iter().map(|l| l.chars().count()).max().unwrap_or(0);
            let widths: Vec<usize> = columns
                .iter()
                .zip(&cells)
                .map(|(name, col)| {
                    col.iter().map(String::len).chain([name.chars().count()]).max().unwrap_or(0) + 2
                })
                .collect();
            out.push_str(&" ".repeat(label_w));
            for (name, w) in columns.iter().zip(&widths) {
                out.push_str(&format!("{name:>w$}"));
            }
            out.push('\n');
            for (r, label) in labels.iter().enumerate() {
                out.push_str(&format!("{label:<label_w$}"));
                for (col, w) in cells.iter().zip(&widths) {
                    out.push_str(&format!("{:>w$}", col[r]));
                }
                out.push('\n');
            }
            for (name, value) in table.get("facts").and_then(JsonValue::as_obj).unwrap_or(&[]) {
                out.push_str(&format!("  {name}: {}\n", text(value)));
            }
        }
    }
    out
}

/// Formats one column of numbers alike: integers as integers; otherwise
/// three decimals, or scientific notation when some value is below 0.01
/// or from 10⁵ up (the absolute seconds, joules and EDPs); `-` for a
/// missing cell.
fn format_column(values: &[Option<f64>]) -> Vec<String> {
    let present = || values.iter().flatten();
    let int = present().all(|x| x.fract() == 0.0);
    let sci = present().any(|x| x.fract() != 0.0 && !(1e-2..1e5).contains(&x.abs()));
    let cell = |v: &Option<f64>| match *v {
        None => "-".to_string(),
        Some(x) if int || x == 0.0 => format!("{x}"),
        Some(x) if sci => format!("{x:.3e}"),
        Some(x) => format!("{x:.3}"),
    };
    values.iter().map(cell).collect()
}

/// The evaluation corpus in the paper's order: small inputs for `smoke`.
fn corpus(smoke: bool) -> Vec<Workload> {
    if smoke {
        all_benchmarks_small()
    } else {
        all_benchmarks()
    }
}

/// Runs `w` under one variant, policy and DVFS latency.
///
/// # Panics
///
/// On a simulator trap — corpus programs are expected to run.
fn run(w: &Workload, variant: Variant, policy: FreqPolicy, dvfs: DvfsConfig) -> RunReport {
    let cfg = RuntimeConfig::paper_default().with_policy(policy).with_dvfs(dvfs);
    run_workload(&w.module, &w.tasks(variant), &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// Table 1: affine / total target loops, task instances, TA % (access
/// share of busy time) and TA (mean access-phase duration, µs) under Auto
/// DAE with the access phase at fmin.
fn table1(smoke: bool) -> Vec<Table> {
    let mut t = Table::new(
        "table1",
        "Table 1 — Application characteristics (Auto DAE, access @ fmin)",
        &["affine loops", "total loops", "# tasks", "TA %", "TA (usec)"],
    );
    for mut w in corpus(smoke) {
        w.compile_auto();
        let map = w.auto_map().expect("compiled");
        let affine: usize = map.info_of.values().map(|i| i.loops_affine).sum();
        let total: usize = map.info_of.values().map(|i| i.loops_total).sum();
        let r = run(&w, Variant::AutoDae, FreqPolicy::DaeMinMax, DvfsConfig::latency_500ns());
        t.row(
            w.name,
            vec![affine as f64, total as f64, w.num_tasks() as f64, r.ta_percent(), r.ta_us()],
        );
    }
    vec![t]
}

/// Figure 3: CAE (optimal f), Manual and Auto DAE (min/max f, optimal f)
/// normalised to CAE at fmax — time (a), energy (b), EDP (c) — at the
/// 500 ns DVFS latency of §6.1 and the zero-latency projection.
fn fig3(smoke: bool) -> Vec<Table> {
    const CONFIGS: [(&str, Variant, FreqPolicy); 5] = [
        ("CAE opt-f", Variant::Cae, FreqPolicy::CoupledOptimal),
        ("Manual minmax", Variant::ManualDae, FreqPolicy::DaeMinMax),
        ("Manual opt-f", Variant::ManualDae, FreqPolicy::DaeOptimal),
        ("Auto minmax", Variant::AutoDae, FreqPolicy::DaeMinMax),
        ("Auto opt-f", Variant::AutoDae, FreqPolicy::DaeOptimal),
    ];
    let columns = CONFIGS.map(|(label, _, _)| label);
    let mut corpus = corpus(smoke);
    for w in &mut corpus {
        w.compile_auto();
    }
    let mut tables = Vec::new();
    for (lat, dvfs) in [("500ns", DvfsConfig::latency_500ns()), ("0ns", DvfsConfig::instant())] {
        let new = |what: &str, title: &str| {
            Table::new(format!("fig3_{what}_{lat}"), format!("Figure 3{title} [{lat}]"), &columns)
        };
        let mut time = new("time", "(a) — Time, normalized to CAE @ fmax");
        let mut energy = new("energy", "(b) — Energy, normalized");
        let mut edp = new("edp", "(c) — EDP, normalized");
        for w in &corpus {
            let base = run(w, Variant::Cae, FreqPolicy::CoupledMax, dvfs);
            let runs: Vec<RunReport> =
                CONFIGS.iter().map(|&(_, v, p)| run(w, v, p, dvfs)).collect();
            time.row(w.name, runs.iter().map(|r| r.time_s / base.time_s).collect());
            energy.row(w.name, runs.iter().map(|r| r.energy_j / base.energy_j).collect());
            edp.row(w.name, runs.iter().map(|r| r.edp() / base.edp()).collect());
        }
        let tm = time.geomean_row();
        energy.geomean_row();
        let gm = edp.geomean_row();
        time.fact("manual_opt_f_time_penalty_pct", (tm[2] - 1.0) * 100.0);
        time.fact("auto_opt_f_time_penalty_pct", (tm[4] - 1.0) * 100.0);
        edp.fact("manual_opt_f_edp_gain_pct", (1.0 - gm[2]) * 100.0);
        edp.fact("auto_opt_f_edp_gain_pct", (1.0 - gm[4]) * 100.0);
        tables.extend([time, energy, edp]);
    }
    tables
}

/// Figure 4: per benchmark, time stacked as Prefetch (access) / O.S.I.
/// (overhead + sequential + idle) / Task (execute) plus makespan and
/// energy, for CAE / Manual DAE / Auto DAE with the execute frequency
/// swept fmin → fmax and the access phase pinned at fmin.
fn fig4(smoke: bool, benches: &[&str]) -> Vec<Table> {
    let table = DvfsTable::sandybridge();
    let columns = ["Prefetch (s)", "O.S.I. (s)", "Task (s)", "makespan (s)", "Energy (J)"];
    let picked = corpus(smoke).into_iter().filter(|w| benches.contains(&w.name));
    picked
        .map(|mut w| {
            w.compile_auto();
            let mut t = Table::new(
                format!("fig4_{}", w.name.to_lowercase()),
                format!("Figure 4 — {} time and energy (exec f: fmin→fmax, access @ fmin)", w.name),
                &columns,
            );
            for variant in Variant::ALL {
                for i in 0..table.len() {
                    let exec_f = FreqId(i);
                    let policy = match variant {
                        Variant::Cae => FreqPolicy::CoupledFixed(exec_f),
                        _ => FreqPolicy::DaePhases { access: table.min(), execute: exec_f },
                    };
                    let r = run(&w, variant, policy, DvfsConfig::latency_500ns());
                    let b = &r.breakdown;
                    t.row(
                        format!("{} @{:.1}GHz", variant.label(), table.point(exec_f).ghz),
                        vec![b.access_s, b.osi_s(), b.execute_s, r.time_s, r.energy_j],
                    );
                }
            }
            t
        })
        .collect()
}

/// Ablations of the design choices DESIGN.md calls out: the §5.1
/// convex-hull check, §5.2.2 CFG simplification, §5.2.3 per-line dedup,
/// store-address prefetching (§5.2.1) and the DVFS latency (§6.1).
fn ablations(smoke: bool) -> Vec<Table> {
    let lbm =
        || if smoke { lbm::build_sized(32, 16, 8, 1) } else { lbm::build_sized(256, 128, 4, 1) };
    let lu = || if smoke { lu::build_sized(32, 8) } else { lu::build_sized(96, 16) };
    let libq = if smoke { libq::build_sized(2048, 512) } else { libq::build_sized(65536, 8192) };
    // Compiles `w` with one option changed and runs its Auto DAE tasks.
    let auto = |mut w: Workload, set: &dyn Fn(&mut CompilerOptions), policy| {
        set(&mut w.base_options);
        w.compile_auto();
        run(&w, Variant::AutoDae, policy, DvfsConfig::latency_500ns())
    };

    let mut hull = Table::new(
        "ablation_hull_check",
        "Ablation 1 — convex-hull profitability check (gapped access)",
        &["polyhedral?", "NOrig", "NconvUn"],
    );
    let (m, task) = gapped_task();
    for (label, skip) in [("check on (paper)", false), ("check off", true)] {
        let opts = CompilerOptions { skip_hull_check: skip, ..Default::default() };
        let g = generate_access(&m, task, &opts).expect("generated");
        hull.row(
            label,
            match &g.strategy {
                Strategy::Polyhedral(s) => vec![1.0, s.n_orig as f64, s.n_conv_un as f64],
                Strategy::Skeleton => vec![0.0, f64::NAN, f64::NAN],
            },
        );
    }

    let mut cfg = Table::new(
        "ablation_cfg_simplify",
        "Ablation 2 — §5.2.2 simplified CFG (LBM)",
        &["access (ms)", "access instrs", "time (ms)", "EDP (uJ*s)"],
    );
    for (label, on) in [("simplify on (paper)", true), ("simplify off", false)] {
        let r = auto(lbm(), &|o| o.cfg_simplify = on, FreqPolicy::DaeMinMax);
        cfg.row(
            label,
            vec![
                r.breakdown.access_s * 1e3,
                r.access_trace.instrs as f64,
                r.time_s * 1e3,
                r.edp() * 1e6,
            ],
        );
    }

    let mut dedup = Table::new(
        "ablation_line_dedup",
        "Ablation 3 — per-cache-line prefetch dedup (LU)",
        &["prefetches", "access (ms)", "EDP (uJ*s)"],
    );
    for (label, on) in [("per-element (paper auto)", false), ("per-line (§5.2.3 ext)", true)] {
        let r = auto(lu(), &|o| o.line_dedup = on, FreqPolicy::DaeOptimal);
        dedup.row(
            label,
            vec![r.access_trace.prefetches as f64, r.breakdown.access_s * 1e3, r.edp() * 1e6],
        );
    }

    let mut writes = Table::new(
        "ablation_store_prefetch",
        "Ablation 4 — prefetching write addresses (LBM)",
        &["prefetches", "time (ms)", "EDP (uJ*s)"],
    );
    for (label, on) in [("reads only (paper)", false), ("reads + writes", true)] {
        let r = auto(lbm(), &|o| o.prefetch_writes = on, FreqPolicy::DaeOptimal);
        writes.row(label, vec![r.access_trace.prefetches as f64, r.time_s * 1e3, r.edp() * 1e6]);
    }

    let mut latency = Table::new(
        "ablation_dvfs_latency",
        "Ablation 5 — DVFS transition latency (LibQ, Auto DAE optimal-f)",
        &["time vs CAE", "EDP vs CAE"],
    );
    let mut w = libq;
    w.compile_auto();
    let cae = run(&w, Variant::Cae, FreqPolicy::CoupledMax, DvfsConfig::latency_500ns());
    for (label, s) in [
        ("0 ns (ideal)", 0.0),
        ("100 ns", 100e-9),
        ("500 ns (Haswell)", 500e-9),
        ("2 us", 2e-6),
        ("10 us (legacy)", 10e-6),
    ] {
        let r = run(&w, Variant::AutoDae, FreqPolicy::DaeOptimal, DvfsConfig { transition_s: s });
        latency.row(label, vec![r.time_s / cae.time_s, r.edp() / cae.edp()]);
    }

    vec![hull, cfg, dedup, writes, latency]
}

/// A task reading two regions of one array 2000 elements apart over 64
/// iterations: one parameter-free class whose convex hull spans the gap,
/// so `NconvUn` ≫ `NOrig` and §5.1's profitability check refuses it.
fn gapped_task() -> (Module, dae_ir::FuncId) {
    let mut m = Module::new();
    let a = m.add_global("A", Type::F64, 4096);
    let mut b = FunctionBuilder::new("gapped", vec![], Type::Void);
    b.set_task();
    b.counted_loop(Value::i64(0), Value::i64(64), Value::i64(1), |b, i| {
        let p1 = b.elem_addr(Value::Global(a), i, Type::F64);
        let v1 = b.load(Type::F64, p1);
        let far = b.iadd(i, 2000i64);
        let p2 = b.elem_addr(Value::Global(a), far, Type::F64);
        let v2 = b.load(Type::F64, p2);
        let s = b.fadd(v1, v2);
        b.store(p1, s);
    });
    b.ret(None);
    let task = m.add_function(b.finish());
    (m, task)
}

/// The online governors against the paper's static policies: per
/// benchmark, the EDP of `MissRatioHeuristic` and `BanditEdp`, cold and
/// after warming over repeated runs (one governor instance carried across
/// the trajectory), normalised to the exhaustive `DaeOptimal` oracle; then
/// each benchmark's run-by-run trajectory. Smoke: one small benchmark over
/// 41 runs; full: the corpus over 24.
fn governor(smoke: bool) -> Vec<Table> {
    const SEED: u64 = 0xace;
    let (runs, benchmarks) =
        if smoke { (41, vec![all_benchmarks_small().remove(0)]) } else { (24, all_benchmarks()) };
    let dvfs = DvfsConfig::latency_500ns();
    let mut summary = Table::new(
        "governor",
        "Governor EDP, normalized to the DaeOptimal oracle",
        &["MinMax", "Heur cold", "Heur warm", "Bandit cold", "Bandit warm"],
    );
    let mut trajectories = Vec::new();
    let mut all_within = true;
    for w in &benchmarks {
        let o = run(w, Variant::ManualDae, FreqPolicy::DaeOptimal, dvfs).edp();
        let m = run(w, Variant::ManualDae, FreqPolicy::DaeMinMax, dvfs).edp();
        let heur = trajectory(w, GovernorKind::Heuristic, runs);
        let bandit = trajectory(w, GovernorKind::Bandit { seed: SEED }, runs);
        let (h_warm, b_warm) = (heur[runs - 1], bandit[runs - 1]);
        summary.row(w.name, vec![m / o, heur[0] / o, h_warm / o, bandit[0] / o, b_warm / o]);
        all_within &= b_warm <= o * 1.10;

        let mut t = Table::new(
            format!("governor_{}", w.name.to_lowercase()),
            format!("Governor trajectory — {} (regret = EDP / oracle − 1)", w.name),
            &["Heur EDP", "Heur regret", "Bandit EDP", "Bandit regret"],
        );
        for (i, (&h, &b)) in heur.iter().zip(&bandit).enumerate() {
            t.row(format!("run {}", i + 1), vec![h, h / o - 1.0, b, b / o - 1.0]);
        }
        t.fact("oracle_edp", o);
        t.fact("minmax_edp", m);
        t.fact("heuristic_warm_vs_minmax", h_warm / m - 1.0);
        t.fact("bandit_warm_vs_minmax", b_warm / m - 1.0);
        trajectories.push(t);
    }
    let gm = summary.geomean_row();
    summary.fact("runs", runs);
    summary.fact("seed", SEED);
    summary.fact("bandit_within_10pct_of_oracle_everywhere", all_within);
    summary.fact("heuristic_warm_vs_oracle_pct", (gm[2] - 1.0) * 100.0);
    summary.fact("bandit_warm_vs_oracle_pct", (gm[4] - 1.0) * 100.0);
    std::iter::once(summary).chain(trajectories).collect()
}

/// The EDP of each of `runs` runs of `w` under one governor instance,
/// which warms up across the trajectory as a long-running runtime would.
fn trajectory(w: &Workload, kind: GovernorKind, runs: usize) -> Vec<f64> {
    let cfg = RuntimeConfig::paper_default();
    let tasks = w.tasks(Variant::ManualDae);
    let mut gov = kind.build(&cfg.table);
    (0..runs)
        .map(|_| {
            let hooks = RunHooks { governor: Some(gov.as_mut()), ..Default::default() };
            run_workload_with(&w.module, &tasks, &cfg, hooks)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name))
                .edp()
        })
        .collect()
}

/// Profile-guided refinement against the static auto-DAE compiler: per
/// benchmark, compile through the driver, replay once through the
/// instrumented scheduler to collect phase profiles, recompile with them,
/// and compare EDP under identical settings (DaeMinMax, 500 ns). The
/// acceptance facts: geomean refined EDP no worse than static, at least
/// one benchmark ≥ 3 % better, none > 1 % worse.
fn pgo(smoke: bool) -> Vec<Table> {
    let cfg = RuntimeConfig::paper_default()
        .with_policy(FreqPolicy::DaeMinMax)
        .with_dvfs(DvfsConfig::latency_500ns());
    // Compiles `w` through the driver (refining with `profiles` when
    // given), installs and verifies the result; returns the driver's base
    // task keys and the refined-task count alongside.
    let build = |mut w: Workload, profiles: Option<&ProfileSet>| {
        let mut driver = Driver::new(&DriverConfig::default());
        if let Some(set) = profiles {
            driver.set_profiles(set.clone());
        }
        let opts = w.auto_options_fn();
        let outcome = driver.compile(&mut w.module, opts);
        let (keys, refined) = (outcome.keys.clone(), outcome.refined);
        w.install_auto(outcome.map);
        verify_module(&w.module).unwrap_or_else(|e| panic!("{}: invalid: {e}", w.name));
        (w, keys, refined)
    };
    let edp = |w: &Workload, hooks: RunHooks| {
        run_workload_with(&w.module, &w.tasks(Variant::AutoDae), &cfg, hooks)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
            .edp()
    };

    let mut t = Table::new(
        "pgo",
        "Static vs profile-refined auto-DAE EDP",
        &[
            "static EDP",
            "refined EDP",
            "refined/static",
            "delta %",
            "refined tasks",
            "profile records",
        ],
    );
    let mut ratios = Vec::new();
    // Compilation mutates a module, so each build starts from a fresh copy.
    for (i, name) in corpus(smoke).iter().map(|w| w.name).enumerate() {
        let (w_static, keys, _) = build(corpus(smoke).remove(i), None);
        let s = edp(&w_static, RunHooks::default());
        // One profiled replay, keyed by the driver's base task keys.
        let mut col = ProfileCollector::new();
        edp(&w_static, RunHooks { sink: Some(&mut col), ..Default::default() });
        let mut profiles = ProfileSet::default();
        for (key, profile) in col.drain_keyed(|f| keys.get(&f).copied()) {
            profiles.insert(key, profile);
        }
        let (w_refined, _, refined_tasks) = build(corpus(smoke).remove(i), Some(&profiles));
        let r = edp(&w_refined, RunHooks::default());
        ratios.push(r / s);
        t.row(
            name,
            vec![s, r, r / s, (r / s - 1.0) * 100.0, refined_tasks as f64, profiles.len() as f64],
        );
    }
    let gm = geomean(ratios.iter().copied());
    t.row("G.Mean", vec![f64::NAN, f64::NAN, gm, (gm - 1.0) * 100.0, f64::NAN, f64::NAN]);
    let geomean_no_worse = gm <= 1.0;
    let any_improved_3pct = ratios.iter().any(|&x| x <= 0.97);
    let none_regressed_1pct = ratios.iter().all(|&x| x <= 1.01);
    t.fact("geomean_no_worse", geomean_no_worse);
    t.fact("any_improved_3pct", any_improved_3pct);
    t.fact("none_regressed_1pct", none_regressed_1pct);
    t.fact("accepted", geomean_no_worse && any_improved_3pct && none_regressed_1pct);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn the_layout_puts_one_row_per_line_and_renders_back() {
        let mut t = Table::new("t", "T", &["a", "b"]);
        t.row("x", vec![1.5, f64::NAN]);
        t.fact("ok", true);
        let doc = JsonValue::obj([("tables", JsonValue::Arr(vec![t.to_json()]))]);
        let mut text = String::new();
        layout(&doc, &mut text);
        assert!(text.contains("\n{\"label\":\"x\",\"values\":[1.5,null]}\n"), "{text}");
        let back = dae_trace::json::parse(&text).expect("valid JSON");
        assert_eq!(back, doc);
        let shown = render(&JsonValue::obj([("sections", JsonValue::Arr(vec![doc]))]));
        assert!(shown.contains("== T =="), "{shown}");
        assert!(shown.contains("1.500") && shown.contains('-'), "{shown}");
        assert!(shown.contains("ok: true"), "{shown}");
    }

    #[test]
    fn columns_format_alike() {
        let col = |v: &[Option<f64>]| format_column(v);
        assert_eq!(
            col(&[Some(0.5), Some(2e-3), Some(0.0), None]),
            ["5.000e-1", "2.000e-3", "0", "-"]
        );
        assert_eq!(col(&[Some(1.0), Some(0.954)]), ["1.000", "0.954"]);
        assert_eq!(col(&[Some(12.0), Some(128.0)]), ["12", "128"]);
    }
}
