//! The workspace's one atomic file write.
//!
//! The driver's on-disk artifact tier and the profile store's file and
//! directory modes both persist records that a later reader validates
//! before trusting. A writer killed mid-write must therefore never leave
//! a torn file under the final name: bytes go to a unique temp file in the
//! same directory, and the rename is the atomicity barrier.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `bytes` to `path` via a unique temp file in the same directory
/// followed by a rename, so readers only ever observe absent-or-complete
/// files. On failure the temp file is removed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let base = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = dir.join(format!(
        ".{base}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all().ok(); // best-effort durability; rename is the atomicity barrier
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_rename_is_an_error_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("dae-trace-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The target is an existing directory: the temp file is written,
        // then the rename over it fails.
        let target = dir.join("occupied");
        std::fs::create_dir_all(&target).unwrap();
        assert!(write_atomic(&target, b"bytes").is_err());
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, ["occupied"], "no .tmp file left behind");
        assert!(target.is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
