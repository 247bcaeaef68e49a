//! Integration tests of the `dae-repro` command line. It writes its
//! document under `target/repro/` of the working directory, so each test
//! runs it in its own directory under cargo's scratch space for tests.

use std::path::Path;
use std::process::Command;

fn dae_repro(dir: &str, args: &[&str]) -> (bool, String, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_dae-repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("dae-repro runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn smoke_table1_prints_the_table_1_header() {
    let (ok, stdout, stderr) = dae_repro("repro-table1", &["--smoke", "table1"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("== Table 1 — Application characteristics"), "{stdout}");
    assert!(stdout.contains("TA (usec)") && stdout.contains("Cholesky"), "{stdout}");
    assert!(stdout.contains("BENCH_model.json"), "{stdout}");
}

#[test]
fn fig4_sweeps_the_named_benchmarks() {
    let (ok, stdout, stderr) = dae_repro("repro-fig4", &["--smoke", "fig4", "lu"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Figure 4 — LU"), "{stdout}");
    assert!(!stdout.contains("Figure 4 — Cholesky"), "{stdout}");
}

#[test]
fn an_unknown_section_fails_with_the_usage() {
    let (ok, stdout, stderr) = dae_repro("repro-usage", &["--smoke", "fig5"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("unknown argument `fig5`"), "{stderr}");
    assert!(stderr.contains("usage: dae-repro [--smoke] [SECTION...]"), "{stderr}");
    // A benchmark name only follows `fig4`.
    let (ok, _, stderr) = dae_repro("repro-usage", &["table1", "lu"]);
    assert!(!ok);
    assert!(stderr.contains("unknown argument `lu`"), "{stderr}");
}
