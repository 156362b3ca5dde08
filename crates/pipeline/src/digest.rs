//! The workspace's one FNV-1a implementation.
//!
//! Before this module, several copies of the same 64-bit FNV-1a fold
//! lived in private corners — the sandbox frame digest, the golden
//! suite's trace fingerprinting, and an inline copy hashing the
//! pipeline's (chip, thresholds) context. Copies of a checksum drift
//! apart silently, and digest drift in a durability layer means every
//! existing artifact on disk is suddenly "corrupt". This module is the
//! single definition they all share; the
//! [`ResultStore`](crate::ResultStore) record digest and
//! [`result_digest`] are built on it too.
//!
//! The parameters are the standard 64-bit FNV-1a constants. They are part
//! of the on-disk format of result stores and the sandbox wire protocol —
//! changing them is a format break and must come with a version bump of
//! every consumer.

use crate::PipelineResult;

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice in one call.
///
/// # Examples
///
/// ```
/// use ascend_pipeline::digest::{fnv1a, Fnv64};
///
/// let mut hasher = Fnv64::new();
/// hasher.write(b"ascend");
/// assert_eq!(hasher.finish(), fnv1a(b"ascend"));
/// ```
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv64::new();
    hasher.write(bytes);
    hasher.finish()
}

/// An incremental FNV-1a hasher, for digests built from several parts
/// (a fingerprint followed by a payload, a stream of `u64` fields).
///
/// Feeding the same bytes through [`write`](Fnv64::write) in any
/// grouping produces the same digest as one [`fnv1a`] call over their
/// concatenation; [`write_u64`](Fnv64::write_u64) is exactly
/// `write(&v.to_le_bytes())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET_BASIS }
    }

    /// Folds `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.state ^= u64::from(*byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one `u64` in little-endian byte order — the convention the
    /// golden trace fingerprints are committed under.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The current digest. The hasher stays usable; `finish` is a
    /// snapshot, not a terminator.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// FNV-1a over the canonical JSON serialization of a result — a cheap
/// whole-result identity, e.g. for checking that a served result matches
/// a clean recomputation byte for byte.
#[must_use]
pub fn result_digest(result: &PipelineResult) -> u64 {
    let json = serde_json::to_string(result).unwrap_or_default();
    fnv1a(json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_grouping_is_invisible() {
        let whole = fnv1a(b"hello world");
        let mut split = Fnv64::new();
        split.write(b"hello");
        split.write(b" ");
        split.write(b"world");
        assert_eq!(split.finish(), whole);
    }

    #[test]
    fn write_u64_is_little_endian_bytes() {
        let v = 0x0123_4567_89AB_CDEFu64;
        let mut by_u64 = Fnv64::new();
        by_u64.write_u64(v);
        let mut by_bytes = Fnv64::new();
        by_bytes.write(&v.to_le_bytes());
        assert_eq!(by_u64.finish(), by_bytes.finish());
    }
}
