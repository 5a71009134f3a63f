//! The benchmark's own PRNG (SplitMix64). Deliberately not the repo's
//! `rand` shim: the generated inputs must not change when the program's
//! crates do.

/// SplitMix64: 64 bits of state, full period, good enough to shuffle and
/// to pick constants.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for an independent stream: same seed, different `lane`,
    /// uncorrelated outputs. Lets data, constants and write names each have
    /// their own sequence, so changing one op count leaves the others'
    /// inputs alone.
    pub fn lane(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_lanes_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::lane(7, 1).next_u64(), Rng::lane(7, 2).next_u64());
        assert_ne!(Rng::lane(7, 1).next_u64(), Rng::lane(8, 1).next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
