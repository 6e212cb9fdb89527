//! Content hashing for stage-cache keys.
//!
//! The staged advisor pipeline memoizes its expensive stage output
//! (calibration tables) keyed by the *content* of its inputs, so a
//! batch of advise requests over shared hardware reuses work instead of
//! recomputing it. Keys must be stable across runs and
//! processes — `std::collections::hash_map::DefaultHasher` is
//! explicitly randomized, so this module provides a fixed FNV-1a
//! 64-bit hasher instead.
//!
//! Floating-point values are hashed by their IEEE-754 bit patterns
//! (`f64::to_bits`), which is exactly the identity the determinism
//! contract cares about: two inputs hash equal iff a bit-identical
//! computation would consume them identically.

use crate::json::{Json, ToJson};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit content hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorbs an `f64` by its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Absorbs a string, length-prefixed so concatenations can't
    /// collide with shifted field boundaries.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write_bytes(s.as_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes any JSON-serializable value by its canonical rendering.
///
/// `ToJson` renderings are deterministic (ordered object fields, fixed
/// float formatting), so this gives every serializable input a stable
/// content key with no per-type hashing code. Fine for cache keys built
/// once per request; hot loops should feed [`Fnv64`] directly.
pub fn hash_json<T: ToJson + ?Sized>(value: &T) -> u64 {
    hash_json_value(&value.to_json())
}

fn hash_json_value(v: &Json) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&v.to_string_compact());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_known_value() {
        // FNV-1a of the empty input is the offset basis itself; a fixed
        // input must hash the same across runs and platforms.
        assert_eq!(Fnv64::new().finish(), FNV_OFFSET);
        let a = *Fnv64::new().write_str("wasla");
        let b = *Fnv64::new().write_str("wasla");
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), FNV_OFFSET);
    }

    #[test]
    fn field_boundaries_matter() {
        let ab = *Fnv64::new().write_str("ab").write_str("c");
        let a_bc = *Fnv64::new().write_str("a").write_str("bc");
        assert_ne!(ab.finish(), a_bc.finish());
    }

    #[test]
    fn f64_hashed_by_bits() {
        let a = *Fnv64::new().write_f64(1.0);
        let b = *Fnv64::new().write_f64(1.0 + f64::EPSILON);
        assert_ne!(a.finish(), b.finish());
        // -0.0 and 0.0 are distinct bit patterns, hence distinct keys:
        // the cache may conservatively miss, never wrongly hit.
        let z = *Fnv64::new().write_f64(0.0);
        let nz = *Fnv64::new().write_f64(-0.0);
        assert_ne!(z.finish(), nz.finish());
    }

    #[test]
    fn hash_json_distinguishes_values() {
        assert_eq!(hash_json("x"), hash_json("x"));
        assert_ne!(hash_json("x"), hash_json("y"));
        assert_ne!(hash_json(&1.0f64), hash_json(&2.0f64));
    }
}
