//! Golden compiler output: the printed module of every corpus benchmark
//! after `compile_auto()`, and of an LU/Cholesky block-size sweep, hashed
//! with the workspace's FNV-1a-64 and compared against digests recorded on
//! the commit *before* the row-granular counting / clean-up pipeline rewrite.
//!
//! `tests/driver_equivalence.rs` compares the driver with
//! `transform_module`; both sit on the same generator and clean-up passes,
//! so a change to those moves both sides together and only a recorded
//! digest notices. Printed text feeds `task_key`s and on-disk cache
//! artefacts, so "same bytes" here is also "parent-written caches stay
//! hits".

use dae_repro::ir::print_module;
use dae_repro::trace::fnv::{fnv1a, OFFSET};
use dae_repro::workloads::{all_benchmarks, all_benchmarks_small, cholesky, lu, Workload};

fn compiled_text(mut w: Workload) -> String {
    w.compile_auto();
    print_module(&w.module)
}

const SMALL: [(&str, u64); 7] = [
    ("LU", 0x48ea_c61b_13d5_c726),
    ("Cholesky", 0x1522_40f2_dccb_5a96),
    ("FFT", 0xed20_3640_53c5_0b5e),
    ("LBM", 0x280d_bc02_e55a_a5b8),
    ("LibQ", 0x49d2_fb5b_e9c9_6615),
    ("Cigar", 0x5fb4_1121_75e4_ae23),
    ("CG", 0xcef3_f384_0d96_3072),
];

const FULL: [(&str, u64); 7] = [
    ("LU", 0x3b2d_bf65_1ab3_e330),
    ("Cholesky", 0x12ed_549e_724b_f33e),
    ("FFT", 0x8c33_edc9_ed0e_7264),
    ("LBM", 0x6a97_8399_4f95_f475),
    ("LibQ", 0xbfdc_5115_4735_fd76),
    ("Cigar", 0xd1a7_da34_48fc_44ca),
    ("CG", 0xcb17_1757_df2c_98c8),
];

#[test]
fn compiled_corpus_and_block_sweep_match_recorded_digests() {
    let mut all = OFFSET;
    let mut bytes = 0usize;
    let mut absorb = |text: &str| {
        all = fnv1a(all, text.as_bytes());
        bytes += text.len();
    };

    let suites = [(all_benchmarks_small(), SMALL, 11274), (all_benchmarks(), FULL, 11348)];
    for (suite, expected, lu_bytes) in suites {
        for (w, (name, digest)) in suite.into_iter().zip(expected) {
            assert_eq!(w.name, name, "corpus order changed");
            let text = compiled_text(w);
            if name == "LU" {
                assert_eq!(text.len(), lu_bytes, "LU: compiled module text size changed");
            }
            assert_eq!(
                fnv1a(OFFSET, text.as_bytes()),
                digest,
                "{name}: compiled module text changed ({} bytes)",
                text.len()
            );
            absorb(&text);
        }
    }

    for b in [4i64, 8, 16] {
        for k in 2..=8i64 {
            absorb(&compiled_text(lu::build_sized(b * k, b)));
            absorb(&compiled_text(cholesky::build_sized(b * k, b)));
        }
    }
    assert_eq!(bytes, 513_715, "total compiled text size changed");
    assert_eq!(all, 0x4f6b_90e2_70ee_e063, "digest over corpus + block sweep changed");
}
