//! FNV-1a-64: the workspace's one stable content hash.
//!
//! Driver cache keys, serve response-cache keys, gateway ring positions
//! and profile content hashes are all digests from here, and several of
//! them name on-disk files. `std::hash::Hasher` is deliberately not used:
//! its output is not guaranteed stable across Rust releases, and these
//! values must survive toolchain upgrades.

/// The FNV-1a-64 offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// Folds `bytes` into the running digest `init` (start from [`OFFSET`]).
pub fn fnv1a(init: u64, bytes: &[u8]) -> u64 {
    let mut h = init;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A 64-bit FNV-1a hasher with typed, collision-safe absorb methods.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    /// Absorbs a string, length-prefixed so concatenations cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `i64` in little-endian byte order.
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write(&[v as u8]);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the constants every `task_key`, `request_key`, ring position
    /// and profile hash depends on (and so every on-disk file name).
    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a(OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(OFFSET, b"hello"), 0xa430_d846_80aa_bd0b);
        let mut h = Fnv64::new();
        h.write(b"hel");
        h.write(b"lo");
        assert_eq!(h.finish(), 0xa430_d846_80aa_bd0b, "chunking is invisible");
        // The typed writers are byte-level sugar, nothing more.
        let mut typed = Fnv64::new();
        typed.write_str("ab");
        typed.write_i64(-2);
        typed.write_bool(true);
        let mut raw = Fnv64::new();
        raw.write(&2u64.to_le_bytes());
        raw.write(b"ab");
        raw.write(&(-2i64).to_le_bytes());
        raw.write(&[1]);
        assert_eq!(typed.finish(), raw.finish());
    }
}
