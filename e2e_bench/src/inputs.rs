//! Input hashing: every workload reports a content hash of the
//! inputs it generated from `--seed`, so a run can show that the same
//! seed gave the same inputs.

use std::fmt::{self, Write as _};
use wasla::simlib::hash::Fnv64;

/// Feeds formatted text straight into a hasher.
struct HashWriter<'a>(&'a mut Fnv64);

impl fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Hashes the `Debug` rendering of `value` (every input type derives
/// `Debug`, and its rendering covers every field).
pub fn hash_debug<T: fmt::Debug + ?Sized>(h: &mut Fnv64, value: &T) {
    let _ = write!(HashWriter(h), "{value:?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla::pipeline::Scenario;

    #[test]
    fn scenario_hash_tracks_content() {
        let hash = |s: &Scenario| {
            let mut h = Fnv64::new();
            hash_debug(&mut h, s);
            h.finish()
        };
        let a = Scenario::homogeneous_disks(4, 0.01);
        assert_eq!(hash(&a), hash(&Scenario::homogeneous_disks(4, 0.01)));
        assert_ne!(hash(&a), hash(&Scenario::homogeneous_disks(4, 0.02)));
        assert_ne!(hash(&a), hash(&Scenario::config_3_1(0.01)));
    }
}
