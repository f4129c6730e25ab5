//! A multiplicative hasher for the simulator's integer-keyed maps.
//!
//! Request ids, line numbers and `(channel, bank)` pairs are hashed with
//! one multiply per integer where the default SipHash pays dozens. The
//! rotate in `finish` moves the product's well-mixed high bits into the
//! low bits the table indexes by, so strided keys do not pile into one
//! bucket. Use it only where no output depends on the map's iteration
//! order, and only for keys the simulator makes or bounds itself: unlike
//! SipHash it offers no protection against keys crafted to collide.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply per integer written; see the module docs for where it
/// may be used.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` keyed through [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;
