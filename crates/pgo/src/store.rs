//! The persistent profile store: versioned JSON on disk, keyed by the
//! driver's `task_key`, with a bounded in-memory LRU mirror.
//!
//! Two persistence shapes share one record format:
//!
//! * **File mode** ([`ProfileStore::merge_document`] / [`ProfileStore::save_file`])
//!   — a single whole-document snapshot (`daec --profile-out` /
//!   `--profile-in`). The document carries `PROFILE_SCHEMA`; records
//!   are written sorted by key so equal stores serialise byte-identically.
//! * **Dir mode** ([`ProfileStore::open_dir`]) — one
//!   `<key:016x>.pgo.json` file per record, written through atomically
//!   (unique temp file in the same directory, then rename), so a
//!   SIGKILL'd writer can never leave a torn record for a later reader.
//!
//! Hostile input is a load-bearing case: a file that is not JSON at all
//! is a dotted [`codes::PARSE`] error, a wrong schema tag is
//! [`codes::SCHEMA`], and a *malformed individual record* inside an
//! otherwise valid document is silently skipped and counted in
//! [`StoreStats::skipped_records`] — never a panic, never poisoning the
//! good records around it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dae_trace::json::{self, JsonValue};
use dae_trace::write_atomic;

use crate::{codes, PgoError, PhaseProfile, ProfileSet, PROFILE_SCHEMA};

/// Default cap on in-memory records mirrored by a dir-mode store.
pub const DEFAULT_MAX_RECORDS: usize = 4096;

/// Counters describing what a store has seen (all monotone).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records currently resident in memory.
    pub resident: usize,
    /// Records merged in via [`ProfileStore::merge_record`] or loads.
    pub merged: u64,
    /// Malformed records skipped during loads (corruption tolerance).
    pub skipped_records: u64,
    /// Records written to disk (dir mode write-through + file saves).
    pub written: u64,
}

#[derive(Debug)]
struct Resident {
    profile: PhaseProfile,
    stamp: u64,
}

/// A keyed profile store with optional directory persistence.
#[derive(Debug)]
pub struct ProfileStore {
    records: BTreeMap<u64, Resident>,
    dir: Option<PathBuf>,
    max_records: usize,
    clock: u64,
    merged: u64,
    skipped: u64,
    written: u64,
}

impl Default for ProfileStore {
    fn default() -> Self {
        ProfileStore::new()
    }
}

impl ProfileStore {
    /// An in-memory-only store with the default residency bound.
    pub fn new() -> ProfileStore {
        ProfileStore {
            records: BTreeMap::new(),
            dir: None,
            max_records: DEFAULT_MAX_RECORDS,
            clock: 0,
            merged: 0,
            skipped: 0,
            written: 0,
        }
    }

    /// An in-memory-only store holding at most `max_records` (least
    /// recently used records are evicted beyond that; 0 means 1).
    pub(crate) fn with_capacity(max_records: usize) -> ProfileStore {
        let mut s = ProfileStore::new();
        s.max_records = max_records.max(1);
        s
    }

    /// Opens (creating if needed) a dir-mode store at `dir`: every
    /// record already on disk under `<key:016x>.pgo.json` is loaded
    /// (malformed ones skipped and counted), and future merges write
    /// through atomically.
    pub fn open_dir(dir: impl Into<PathBuf>, max_records: usize) -> Result<ProfileStore, PgoError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| PgoError::new(codes::IO, format!("create {}: {e}", dir.display())))?;
        let mut s = ProfileStore::with_capacity(max_records);
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| PgoError::new(codes::IO, format!("read {}: {e}", dir.display())))?;
        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n,
                None => continue,
            };
            let Some(stem) = name.strip_suffix(".pgo.json") else { continue };
            match u64::from_str_radix(stem, 16) {
                Ok(key) if stem.len() == 16 => found.push((key, path)),
                _ => s.skipped += 1,
            }
        }
        // Deterministic load order regardless of readdir order.
        found.sort();
        for (key, path) in found {
            match std::fs::read_to_string(&path) {
                Ok(text) => match json::parse(&text).ok().as_ref().and_then(record_from_json) {
                    Some((file_key, profile)) if file_key == key => {
                        s.merge_in_memory(key, &profile);
                    }
                    _ => s.skipped += 1,
                },
                Err(_) => s.skipped += 1,
            }
        }
        s.dir = Some(dir);
        Ok(s)
    }

    /// Merges a whole profile document (the `save_file` shape) into this
    /// store. Fatal only on unparseable JSON or a wrong schema tag.
    pub fn merge_document(&mut self, text: &str) -> Result<(), PgoError> {
        let doc = json::parse(text)
            .map_err(|e| PgoError::new(codes::PARSE, format!("profile document: {e}")))?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(s) if s == PROFILE_SCHEMA => {}
            Some(other) => {
                return Err(PgoError::new(
                    codes::SCHEMA,
                    format!("profile schema {other:?}, expected {PROFILE_SCHEMA:?}"),
                ))
            }
            None => {
                return Err(PgoError::new(
                    codes::SCHEMA,
                    format!("profile document has no schema tag (expected {PROFILE_SCHEMA:?})"),
                ))
            }
        }
        let records = doc.get("records").and_then(JsonValue::as_arr).unwrap_or(&[]);
        for rec in records {
            match record_from_json(rec) {
                Some((key, profile)) => self.merge_record(key, &profile),
                None => self.skipped += 1,
            }
        }
        Ok(())
    }

    /// Writes the store as one whole document to `path` (atomically:
    /// temp file in the same directory, then rename). Records are sorted
    /// by key, so two stores with equal content write equal bytes.
    pub fn save_file(&mut self, path: impl AsRef<Path>) -> Result<(), PgoError> {
        let path = path.as_ref();
        let doc = self.document_json();
        write_atomic(path, doc.to_json_string().as_bytes())
            .map_err(|e| PgoError::new(codes::IO, format!("write {}: {e}", path.display())))?;
        self.written += 1;
        Ok(())
    }

    /// The store's whole-document JSON form.
    pub fn document_json(&self) -> JsonValue {
        let records: Vec<JsonValue> =
            self.records.iter().map(|(&k, r)| record_to_json(k, &r.profile)).collect();
        JsonValue::obj([("schema", PROFILE_SCHEMA.into()), ("records", records.into())])
    }

    /// Merges one record under `key`, bumping its recency. In dir mode
    /// the merged record is written through atomically; a write failure
    /// is swallowed (the in-memory copy stays authoritative) because
    /// profile persistence is advisory, never correctness-bearing.
    pub fn merge_record(&mut self, key: u64, profile: &PhaseProfile) {
        self.merge_in_memory(key, profile);
        if let Some(dir) = self.dir.clone() {
            if let Some(r) = self.records.get(&key) {
                let bytes = record_to_json(key, &r.profile).to_json_string();
                if write_atomic(&record_path(&dir, key), bytes.as_bytes()).is_ok() {
                    self.written += 1;
                }
            }
        }
    }

    fn merge_in_memory(&mut self, key: u64, profile: &PhaseProfile) {
        self.clock += 1;
        let stamp = self.clock;
        let entry =
            self.records.entry(key).or_insert(Resident { profile: PhaseProfile::default(), stamp });
        entry.profile.merge(profile);
        entry.stamp = stamp;
        self.merged += 1;
        while self.records.len() > self.max_records {
            // Evict the least recently touched record (memory only — any
            // dir-mode copy on disk stays).
            if let Some((&victim, _)) = self.records.iter().min_by_key(|(_, r)| r.stamp) {
                self.records.remove(&victim);
            }
        }
    }

    /// The resident record under `key`, if any (bumps recency).
    pub fn get(&mut self, key: u64) -> Option<PhaseProfile> {
        self.clock += 1;
        let stamp = self.clock;
        let r = self.records.get_mut(&key)?;
        r.stamp = stamp;
        Some(r.profile)
    }

    /// An immutable snapshot of every resident record, keyed by
    /// `task_key` — what the driver's `refine` stage consumes.
    pub fn snapshot(&self) -> ProfileSet {
        let mut set = ProfileSet::new();
        for (&k, r) in &self.records {
            set.insert(k, r.profile);
        }
        set
    }

    /// True when no records are resident.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            resident: self.records.len(),
            merged: self.merged,
            skipped_records: self.skipped,
            written: self.written,
        }
    }
}

fn record_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.pgo.json"))
}

fn record_to_json(key: u64, p: &PhaseProfile) -> JsonValue {
    let mut pairs = vec![("key".to_string(), JsonValue::from(format!("{key:016x}")))];
    if let JsonValue::Obj(body) = p.to_json() {
        pairs.extend(body);
    }
    JsonValue::Obj(pairs)
}

fn record_from_json(v: &JsonValue) -> Option<(u64, PhaseProfile)> {
    let key_str = v.get("key")?.as_str()?;
    if key_str.len() != 16 {
        return None;
    }
    let key = u64::from_str_radix(key_str, 16).ok()?;
    let profile = PhaseProfile::from_json(v)?;
    Some((key, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhaseSample;
    use dae_ir::CodedError as _;

    fn profile(scale: u64) -> PhaseProfile {
        let s = PhaseSample {
            instrs: 100 * scale,
            loads: 50 * scale,
            dram_misses: 5 * scale,
            prefetches: 40 * scale,
            prefetch_dram_lines: 5 * scale,
            branches: 32 * scale,
            mlp_x100: 200,
            mem_bound_ppm: 500_000,
        };
        let mut p = PhaseProfile::default();
        p.absorb(Some(&s), &s);
        p
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dae-pgo-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn a_record_keeps_every_field_of_its_profile() {
        let p = profile(3);
        let rec = record_to_json(0xfeed, &p);
        assert_eq!(record_from_json(&rec), Some((0xfeed, p)));
        let JsonValue::Obj(body) = p.to_json() else { panic!("profiles print as objects") };
        for (k, v) in &body {
            assert_eq!(rec.get(k), Some(v), "field `{k}` survives into the record");
        }
    }

    #[test]
    fn file_round_trip_is_byte_stable_and_merges() {
        let dir = tmpdir("file");
        let path = dir.join("profile.json");
        let mut s = ProfileStore::new();
        s.merge_record(7, &profile(1));
        s.merge_record(3, &profile(2));
        s.save_file(&path).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();

        let mut back = ProfileStore::new();
        back.merge_document(&first).unwrap();
        assert_eq!(back.stats().resident, 2);
        assert_eq!(back.get(7).unwrap(), profile(1));
        assert_eq!(back.snapshot(), s.snapshot());
        back.save_file(&path).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first, second, "equal stores must serialise byte-identically");

        // Loading the same file again doubles the counters (merge).
        back.merge_document(&first).unwrap();
        assert_eq!(back.get(7).unwrap().runs, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_documents_give_dotted_errors_and_bad_records_are_skipped() {
        let e = ProfileStore::new().merge_document("{not json").unwrap_err();
        assert_eq!(e.code(), codes::PARSE);

        let e =
            ProfileStore::new().merge_document(r#"{"schema":"wrong/9","records":[]}"#).unwrap_err();
        assert_eq!(e.code(), codes::SCHEMA);

        // One good record among malformed ones: the good one survives,
        // the bad ones are counted, nothing panics.
        let good = record_to_json(5, &profile(1)).to_json_string();
        let doc = format!(
            r#"{{"schema":"{PROFILE_SCHEMA}","records":[{{"key":"zz"}},{good},{{"runs":1}},42]}}"#
        );
        let mut s = ProfileStore::new();
        s.merge_document(&doc).unwrap();
        assert_eq!(s.stats().resident, 1);
        assert_eq!(s.get(5).unwrap(), profile(1));
        assert_eq!(s.stats().skipped_records, 3);
    }

    #[test]
    fn dir_mode_writes_through_atomically_and_reloads() {
        let dir = tmpdir("dir");
        {
            let mut s = ProfileStore::open_dir(&dir, 64).unwrap();
            s.merge_record(0xabc, &profile(1));
            s.merge_record(0xdef, &profile(3));
            assert!(s.stats().written >= 2);
        }
        // No temp droppings left behind.
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name();
            assert!(name.to_str().unwrap().ends_with(".pgo.json"), "unexpected file {name:?}");
        }
        // Torn/alien files are skipped on reload, good records survive.
        std::fs::write(dir.join("0000000000000abc.pgo.json"), b"{torn").unwrap();
        std::fs::write(dir.join("README.txt"), b"hello").unwrap();
        let mut s = ProfileStore::open_dir(&dir, 64).unwrap();
        assert_eq!(s.stats().resident, 1);
        assert_eq!(s.get(0xdef).unwrap(), profile(3));
        assert!(s.stats().skipped_records >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_mirror_evicts_least_recent() {
        let mut s = ProfileStore::with_capacity(2);
        s.merge_record(1, &profile(1));
        s.merge_record(2, &profile(1));
        let _ = s.get(1); // 1 is now most recent
        s.merge_record(3, &profile(1));
        assert_eq!(s.stats().resident, 2);
        assert!(s.get(2).is_none(), "2 was least recent and must be evicted");
        assert!(s.get(1).is_some());
        assert!(s.get(3).is_some());
    }
}
