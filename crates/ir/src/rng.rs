//! Deterministic integer mixing: the splitmix64 pseudo-random number
//! generator and a multiply-rotate hasher for integer-keyed maps.
//!
//! The generator is shared by the random program generator
//! ([`crate::generate`]) and the workload input-data builders.
//! Self-contained so the workspace has no external dependency — generated
//! programs and input data must be reproducible across toolchains, which
//! rules out tracking a third-party RNG's stream (Steele et al., "Fast
//! splittable pseudorandom number generators").

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A splitmix64 generator. The entire stream is determined by the seed.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64-bit value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `lo..hi` (modulo bias is negligible for the small
    /// ranges used here).
    ///
    /// # Panics
    /// Panics in debug builds if `lo >= hi`.
    pub fn gen_range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi);
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// `true` with probability `p` (clamped to `0.0..=1.0`).
    pub fn chance(&mut self, p: f64) -> bool {
        // 53 bits of mantissa: uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// A uniformly chosen index in `0..n`.
    ///
    /// # Panics
    /// Panics in debug builds if `n == 0`.
    pub fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// A derived generator whose stream is independent of this one's
    /// continuation (used to split structure from data decisions).
    pub fn fork(&mut self, salt: u64) -> SplitMix64 {
        SplitMix64::seed_from_u64(self.next_u64() ^ salt)
    }
}

/// The multiply-rotate hash of rustc's `FxHasher`: one rotate, xor and
/// multiply per word. It is not DoS-resistant and its order is fixed, so it
/// suits only keys the program makes itself — simulated addresses, static
/// ids — in maps no output ever iterates in hash order.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Known first value of the splitmix64 reference stream for seed 0.
        let mut z = SplitMix64::seed_from_u64(0);
        assert_eq!(z.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn ranges_and_chances_stay_in_bounds() {
        let mut r = SplitMix64::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(-3, 9);
            assert!((-3..9).contains(&v));
            let i = r.pick(5);
            assert!(i < 5);
        }
        let mut heads = 0;
        for _ in 0..1000 {
            if r.chance(0.5) {
                heads += 1;
            }
        }
        assert!((300..700).contains(&heads), "{heads}");
    }

    #[test]
    fn fx_hash_is_fixed_and_spreads_small_keys() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FxHasher>::default();
        assert_eq!(build.hash_one(1i64), 0x517c_c1b7_2722_0a95);
        assert_eq!(build.hash_one(7i64), build.hash_one(7u64));
        let low: HashSet<u64> = (0..64i64).map(|k| build.hash_one(k) & 63).collect();
        assert_eq!(low.len(), 64, "consecutive keys collide in the low bits");
        let mut m: FxHashMap<i64, i64> = FxHashMap::default();
        for k in -100..100 {
            m.insert(k, k * 3);
        }
        assert!((-100..100).all(|k| m[&k] == k * 3));
    }
}
