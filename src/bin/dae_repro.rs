//! `dae-repro` — regenerates the paper's model outputs.
//!
//! ```text
//! dae-repro [--smoke] [SECTION…]
//! SECTION: table1 | fig3 | fig4 [BENCH…] | ablations | governor | pgo
//! ```
//!
//! Runs the named sections of [`dae_repro::model`] (all of them by
//! default), prints their text tables, and writes the `dae-model/1`
//! document to `target/repro/BENCH_model.json`. `--smoke` runs the small
//! corpus and small ablation inputs (the governor: one benchmark, 41
//! runs); its document is the committed `BENCH_model.json`. `fig4` sweeps
//! the named corpus benchmarks (`lu`, `cholesky`, `fft`, `lbm`, `libq`,
//! `cigar`, `cg`), by default Cholesky, FFT and LibQ.

use dae_repro::model::{benchmark_name, document, render, SECTIONS};
use dae_repro::trace::json::parse;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: dae-repro [--smoke] [SECTION...]\n\
    SECTION: table1 | fig3 | fig4 [BENCH...] | ablations | governor | pgo\n\
    BENCH: lu | cholesky | fft | lbm | libq | cigar | cg";

/// `(smoke, sections, fig4 benchmarks)`; a benchmark name must follow `fig4`.
fn parse_args() -> Result<(bool, Vec<&'static str>, Vec<&'static str>), String> {
    let (mut smoke, mut sections, mut benches) = (false, Vec::new(), Vec::new());
    for arg in std::env::args().skip(1) {
        match (SECTIONS.iter().find(|&&s| s == arg), benchmark_name(&arg)) {
            _ if arg == "--smoke" => smoke = true,
            (Some(&section), _) => sections.push(section),
            (None, Some(bench)) if sections.last() == Some(&"fig4") => benches.push(bench),
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }
    if sections.is_empty() {
        sections = SECTIONS.to_vec();
    }
    Ok((smoke, sections, benches))
}

fn main() -> ExitCode {
    let (smoke, sections, benches) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("dae-repro: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let text = document(smoke, &sections, &benches);
    print!("{}", render(&parse(&text).expect("the document is valid JSON")));
    let path = Path::new("target/repro/BENCH_model.json");
    match std::fs::create_dir_all("target/repro").and_then(|()| std::fs::write(path, &text)) {
        Ok(()) => {
            println!("\n-> {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dae-repro: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}
