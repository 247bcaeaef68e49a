//! Golden parse results: a few thousand IR texts, generated from a fixed
//! seed, each mapped to what `parse_module` makes of it — `line:message`
//! for a [`ParseError`](dae_repro::ir::parse::ParseError), the FNV-1a-64
//! digest of the printed module otherwise — and one digest per family of
//! texts compared against a recorded value.
//!
//! A family starts from a base text: one of the two `examples/ir`
//! modules or a printed small-corpus module, as written or respaced (tabs,
//! CRLF line ends, extra spaces inside lists and around `=`, blank and
//! `//` lines). Its members are the base text and byte edits of it; an
//! edit puts in a separator, a whitespace byte, a name byte, a carriage
//! return or a multibyte character (`é`, `€`), or takes a character out,
//! so most members are malformed and fail somewhere along their lines.
//!
//! The parser keeps every parse result and every error message across a
//! change to how it reads the text; a digest that moves says which family
//! changed, and the test then prints that family's outcomes, one a line,
//! to be diffed against the same output of the parent commit.

use dae_repro::ir::parse::parse_module;
use dae_repro::ir::print_module;
use dae_repro::trace::fnv::{fnv1a, OFFSET};
use dae_repro::trace::SplitMix64;
use dae_repro::workloads::all_benchmarks_small;

const EXAMPLES: [(&str, &str); 2] = [
    ("gather", include_str!("../examples/ir/gather.dae")),
    ("stream", include_str!("../examples/ir/stream.dae")),
];

/// How a base text is laid out.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// As written or printed.
    AsIs,
    /// A tab for each indent and after each comma.
    Tabs,
    /// `\r\n` line ends.
    Crlf,
    /// Spaces doubled around `=` and after commas, inside parentheses and
    /// at the end of every line.
    Spaced,
    /// A blank line and a `//` line, indented or not, between lines.
    Commented,
}

const LAYOUTS: [Layout; 5] =
    [Layout::AsIs, Layout::Tabs, Layout::Crlf, Layout::Spaced, Layout::Commented];

fn laid_out(text: &str, layout: Layout) -> String {
    match layout {
        Layout::AsIs => text.to_string(),
        Layout::Tabs => text
            .lines()
            .map(|l| match l.strip_prefix("  ") {
                Some(body) => format!("\t{}\n", body.replace(", ", ",\t")),
                None => format!("{}\n", l.replace(", ", ",\t")),
            })
            .collect(),
        Layout::Crlf => text.replace('\n', "\r\n"),
        Layout::Spaced => text
            .lines()
            .map(|l| {
                let l = l.replace(" = ", "  =  ").replace(", ", " ,  ");
                format!("{}  \n", l.replace('(', "( ").replace(')', " )"))
            })
            .collect(),
        Layout::Commented => text
            .lines()
            .enumerate()
            .map(|(i, l)| match i % 3 {
                0 => format!("{l}\n\n"),
                1 => format!("{l}\n  // a comment, v0: i64 = iadd\n"),
                _ => format!("{l}\n// }}\n"),
            })
            .collect(),
    }
}

/// Characters an edit puts into a text: the separators, whitespace and
/// name bytes the parser cuts on, a few that no name may hold, and
/// characters of two and three UTF-8 bytes.
const EDIT_CHARS: &[char] = &[
    ' ', '\n', '\t', ',', '(', ')', ':', '=', '-', '+', '.', '@', '_', '#', '/', '{', '}', 'v',
    'b', 'p', 'a', 'g', 'x', '0', '1', '9', '\r', 'é', '€',
];

/// `text` after one to three edits drawn from `rng`: at a character
/// position, a character of [`EDIT_CHARS`] replaces the one there, goes in
/// before it, or the one there goes.
fn edited(text: &str, rng: &mut SplitMix64) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..1 + rng.next_below(3) {
        let at = rng.next_below(chars.len() as u64 + 1) as usize;
        let c = EDIT_CHARS[rng.next_below(EDIT_CHARS.len() as u64) as usize];
        match rng.next_below(3) {
            0 if at < chars.len() => chars[at] = c,
            2 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, c),
        }
    }
    chars.into_iter().collect()
}

/// What `parse_module` makes of `text`.
fn outcome(text: &str) -> String {
    match parse_module(text) {
        Ok(m) => format!("ok {:016x}", fnv1a(OFFSET, print_module(&m).as_bytes())),
        Err(e) => format!("{}:{}", e.line, e.message),
    }
}

/// Edited members of each family beside its base text.
const EDITS: usize = 120;

/// Family digests recorded on the parser with two line readers, before it
/// was rewritten around one.
const GOLDEN: [(&str, u64); 45] = [
    ("gather/AsIs", 0x9868_ca0a_dbf2_7805),
    ("gather/Tabs", 0x55a2_32e4_319f_fd8f),
    ("gather/Crlf", 0x5a56_fd55_e694_96f2),
    ("gather/Spaced", 0x99b9_0ec2_2289_c953),
    ("gather/Commented", 0x6475_25d2_edd9_5052),
    ("stream/AsIs", 0x5f39_9046_9260_28f1),
    ("stream/Tabs", 0x83ee_0726_e54b_2e59),
    ("stream/Crlf", 0x680e_9a35_457b_05a6),
    ("stream/Spaced", 0x6067_bce5_62fa_62d1),
    ("stream/Commented", 0xdd91_1466_0610_2f19),
    ("LU/AsIs", 0x0383_6661_07d6_6031),
    ("LU/Tabs", 0x2aaa_1660_ee3b_44f4),
    ("LU/Crlf", 0xc5f7_6cfc_ba59_3354),
    ("LU/Spaced", 0xc47b_548b_3635_9fac),
    ("LU/Commented", 0x3348_af8f_94d9_b43f),
    ("Cholesky/AsIs", 0xbb42_f55a_0bf2_156a),
    ("Cholesky/Tabs", 0xd2c9_b948_9ef3_0e50),
    ("Cholesky/Crlf", 0x9904_b322_3f2e_389b),
    ("Cholesky/Spaced", 0x33d0_c088_b666_d97d),
    ("Cholesky/Commented", 0xbaea_c66a_f3d4_4c25),
    ("FFT/AsIs", 0xa2fd_347d_74f1_d042),
    ("FFT/Tabs", 0x929b_9516_edba_abbd),
    ("FFT/Crlf", 0xa132_170d_d9f1_2331),
    ("FFT/Spaced", 0xf2e8_3261_27d8_462a),
    ("FFT/Commented", 0x5c81_fc0d_d262_ae59),
    ("LBM/AsIs", 0x6bdd_b830_bce6_4ef9),
    ("LBM/Tabs", 0xee09_bcd9_b9b9_d6f4),
    ("LBM/Crlf", 0xcbfc_11bd_7a31_5c1c),
    ("LBM/Spaced", 0x4d33_1185_7cbc_ad4d),
    ("LBM/Commented", 0xe51a_fc5c_b8b9_f0cb),
    ("LibQ/AsIs", 0x73a7_941c_af18_e3de),
    ("LibQ/Tabs", 0xc5d4_a0bf_7da0_2113),
    ("LibQ/Crlf", 0x2f7b_43df_4ca9_e8b0),
    ("LibQ/Spaced", 0xb683_7a93_e0e9_1de9),
    ("LibQ/Commented", 0xa38b_e780_bf1b_d1e2),
    ("Cigar/AsIs", 0x79aa_f616_f54e_3b48),
    ("Cigar/Tabs", 0xc109_f2bf_ed59_00d0),
    ("Cigar/Crlf", 0x923a_7b6f_5724_ba8e),
    ("Cigar/Spaced", 0x5932_5709_60ed_632e),
    ("Cigar/Commented", 0x815a_341b_b536_0b38),
    ("CG/AsIs", 0x70c9_6dba_d3ff_4135),
    ("CG/Tabs", 0xdaca_df57_aabc_c36a),
    ("CG/Crlf", 0x3353_9b39_14ec_9c59),
    ("CG/Spaced", 0x8b54_3b9c_7dca_8436),
    ("CG/Commented", 0x2beb_3b5e_881d_8528),
];

#[test]
fn edited_texts_parse_to_recorded_results() {
    let mut bases: Vec<(String, String)> =
        EXAMPLES.iter().map(|&(name, text)| (name.to_string(), text.to_string())).collect();
    bases.extend(
        all_benchmarks_small().into_iter().map(|w| (w.name.to_string(), print_module(&w.module))),
    );

    let mut families = GOLDEN.iter();
    let mut failed = Vec::new();
    let (mut texts, mut parsed) = (0usize, 0usize);
    for (name, base) in &bases {
        for layout in LAYOUTS {
            let family = format!("{name}/{layout:?}");
            let &(expected_name, expected) = families.next().expect("a digest per family");
            assert_eq!(family, expected_name, "family order changed");
            let base = laid_out(base, layout);
            let mut rng = SplitMix64::new(fnv1a(OFFSET, family.as_bytes()));
            let mut outcomes = vec![outcome(&base)];
            outcomes.extend((0..EDITS).map(|_| outcome(&edited(&base, &mut rng))));
            texts += outcomes.len();
            parsed += outcomes.iter().filter(|o| o.starts_with("ok ")).count();
            let digest = outcomes.iter().fold(OFFSET, |d, o| fnv1a(fnv1a(d, o.as_bytes()), b"\n"));
            if digest != expected {
                println!("--- {family}: digest {digest:#018x}, recorded {expected:#018x}");
                for (i, o) in outcomes.iter().enumerate() {
                    println!("{family} {i}: {o}");
                }
                failed.push(family);
            }
        }
    }
    assert!(families.next().is_none(), "a recorded family went missing");
    // The layouts keep the bases parsing and most edits break them: both
    // kinds of outcome are pinned.
    assert_eq!(texts, GOLDEN.len() * (EDITS + 1));
    assert!(parsed > texts / 10 && parsed < texts / 2, "{parsed} of {texts} texts parsed");
    assert!(failed.is_empty(), "parse results changed in {failed:?}");
}
