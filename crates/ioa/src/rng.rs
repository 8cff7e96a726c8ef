//! In-tree deterministic pseudo-random number generation.
//!
//! The reproduction must build hermetically (no network, no registry
//! cache), so randomized schedule drivers ([`crate::Automaton`] systems
//! driven by `system::sched::run_random`) and the randomized resilience
//! sweeps of `analysis::resilience` cannot pull in the `rand` crate.
//! This module provides the deterministic generator they use instead: a
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) stream, which is
//! tiny, fast, and has a well-understood 2^64-period output sequence.
//!
//! Determinism is load-bearing, not incidental: the paper's arguments
//! (e.g. the Lemma 4 bivalent-initialization scan and the randomized
//! safety sweeps that cross-check Theorems 2/9/10) are replayed in tests
//! keyed by seed, so the same seed must yield the same schedule on every
//! platform and every run. SplitMix64 guarantees that; `StdRng` does not
//! (its algorithm is explicitly unstable across `rand` versions).

/// Deterministic SplitMix64 generator (Steele, Lea & Flood 2014).
///
/// The canonical output function: each draw advances the state by the
/// golden-ratio increment and applies a 3-round xor-shift-multiply
/// finalizer. Passes BigCrush when seeded arbitrarily; every distinct
/// seed yields an independent-looking stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a 64-bit seed. Identical seeds yield
    /// identical streams on every platform — the property the seeded
    /// schedule drivers in `system::sched` rely on.
    #[must_use]
    pub const fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Produce the next 64 bits of the stream.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Draw a uniformly distributed index in `0..n`.
    ///
    /// Uses rejection sampling from the top bits so the distribution is
    /// exactly uniform (no modulo bias).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_range requires a non-empty range");
        let n = n as u64;
        // Rejection sampling: draw from the smallest power-of-two range
        // covering `n` and retry on overshoot. Expected < 2 draws.
        let mask = n.next_power_of_two().wrapping_sub(1);
        loop {
            let x = self.next_u64() & mask;
            if x < n {
                return x as usize;
            }
        }
    }

    /// Draw a uniformly distributed boolean.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Draw a uniformly distributed `i64` in `lo..hi`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn gen_i64_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "gen_i64_range requires lo < hi");
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add(self.gen_range(span as usize) as i64)
    }

    /// Derive a fresh, statistically independent child seed. Used to
    /// fan one experiment seed out into per-trial seeds (e.g. the
    /// randomized sweeps of `analysis::resilience`).
    #[must_use]
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::seed_from_u64(self.next_u64())
    }

    /// Fisher–Yates shuffle of a slice, consuming draws from `self`.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i + 1);
            xs.swap(i, j);
        }
    }

    /// Choose a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.gen_range(xs.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference values from the public-domain splitmix64.c, seed 0.
        let mut g = SplitMix64::seed_from_u64(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(g.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_is_in_bounds_and_hits_everything() {
        let mut g = SplitMix64::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let x = g.gen_range(5);
            assert!(x < 5);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&b| b), "all buckets hit in 200 draws");
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn gen_range_rejects_empty() {
        SplitMix64::seed_from_u64(0).gen_range(0);
    }

    #[test]
    fn gen_i64_range_covers_negative_spans() {
        let mut g = SplitMix64::seed_from_u64(9);
        for _ in 0..100 {
            let x = g.gen_i64_range(-3, 4);
            assert!((-3..4).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut g = SplitMix64::seed_from_u64(11);
        let mut xs: Vec<usize> = (0..16).collect();
        g.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn split_yields_distinct_streams() {
        let mut g = SplitMix64::seed_from_u64(5);
        let mut c1 = g.split();
        let mut c2 = g.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
