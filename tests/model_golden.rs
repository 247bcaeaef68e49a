//! The paper's reproduced numbers are pinned: the `--smoke` document of
//! `dae-repro` (every section at small size) must equal the committed
//! `BENCH_model.json` byte for byte. A change to a model figure therefore
//! shows up as a diff of that file, reviewed with the change that caused
//! it: regenerate with `cargo run --release --bin dae-repro -- --smoke`
//! and copy `target/repro/BENCH_model.json` over the committed one.

use dae_repro::model::{document, SECTIONS};
use dae_repro::trace::json::{parse, JsonValue};
use std::path::Path;

fn arr<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key).and_then(JsonValue::as_arr).unwrap_or(&[])
}

fn name(v: &JsonValue, key: &str) -> String {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("?").to_string()
}

/// The first place two documents differ, as `section / table / row`.
fn first_difference(want: &JsonValue, got: &JsonValue) -> String {
    if want.get("schema") != got.get("schema") || want.get("mode") != got.get("mode") {
        return "the document header (schema / mode)".to_string();
    }
    let (ws, gs) = (arr(want, "sections"), arr(got, "sections"));
    for (i, w) in ws.iter().enumerate() {
        let Some(g) = gs.get(i) else {
            return format!("section {} is missing", name(w, "section"));
        };
        let section = name(w, "section");
        if name(g, "section") != section {
            return format!("section {i}: expected `{section}`, got `{}`", name(g, "section"));
        }
        let (wt, gt) = (arr(w, "tables"), arr(g, "tables"));
        for (j, w) in wt.iter().enumerate() {
            let id = name(w, "id");
            let Some(g) = gt.get(j) else {
                return format!("section {section}: table {id} is missing");
            };
            let (wr, gr) = (arr(w, "rows"), arr(g, "rows"));
            for (k, w) in wr.iter().enumerate() {
                if gr.get(k) != Some(w) {
                    return format!(
                        "section {section}, table {id}, row {}: expected {}, got {}",
                        name(w, "label"),
                        w.to_json_string(),
                        gr.get(k).map_or("nothing".to_string(), JsonValue::to_json_string),
                    );
                }
            }
            if w != g {
                return format!("section {section}, table {id}: header, extra rows or facts");
            }
        }
        if w != g {
            return format!("section {section}: extra tables");
        }
    }
    "extra sections".to_string()
}

#[test]
fn the_smoke_document_matches_the_committed_golden() {
    let text = document(true, &SECTIONS, &[]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(root.join("BENCH_model.json")).expect("BENCH_model.json");

    let doc = parse(&text).expect("the document is valid JSON");
    let pgo = arr(&doc, "sections").iter().find(|s| name(s, "section") == "pgo").expect("pgo");
    let accepted = arr(pgo, "tables")[0].get("facts").and_then(|f| f.get("accepted"));
    assert_eq!(accepted, Some(&JsonValue::Bool(true)), "pgo acceptance facts no longer hold");

    if text != golden {
        let out = root.join("target/repro/BENCH_model.json");
        std::fs::create_dir_all(out.parent().unwrap()).unwrap();
        std::fs::write(&out, &text).unwrap();
        let where_ = match parse(&golden) {
            Ok(want) => first_difference(&want, &doc),
            Err(e) => format!("the committed file does not parse ({e:?})"),
        };
        panic!(
            "model outputs differ from BENCH_model.json at {where_}.\n\
             The new document is at {}; if the change is intended, commit it.",
            out.display()
        );
    }
}
