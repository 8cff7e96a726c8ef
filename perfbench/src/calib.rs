//! Host-speed calibration.
//!
//! On shared hosts the speed of one vCPU drifts between levels (on the
//! 2-vCPU Xeon host the baselines come from, a fixed loop ran 1.5×
//! slower for phases of 3–20 s), so the median of wall times over a run
//! depends on which phases the run happened to hit. Every timed op is
//! therefore preceded by one run of a fixed kernel, and the op's wall
//! time is scaled by `(NOMINAL_S / kernel time)^SENSITIVITY`: the result
//! is the time the op would take on a host where the kernel takes
//! `NOMINAL_S`.
//!
//! The kernel mixes the kinds of work the pipelines do (integer
//! arithmetic, sorting, ordered-map inserts, hashing and cloning small
//! vectors) and uses no library code, so a change to the library
//! cannot change the yardstick.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference host speed (its median on the
/// baseline host).
pub const NOMINAL_S: f64 = 0.010;

/// xorshift64*: the kernel's own generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn kernel() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut x = 0u64;
    for _ in 0..200_000 {
        x ^= rng.next();
    }
    black_box(x);

    let mut v: Vec<u64> = (0..65_536).map(|_| rng.next()).collect();
    v.sort_unstable();
    let mut ordered = BTreeMap::new();
    for y in v.iter().step_by(4) {
        ordered.insert(y % 100_003, *y);
    }
    black_box(ordered.len());

    let mut interned: HashMap<Vec<u32>, u32, BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    let mut cur = vec![0u32; 12];
    for _ in 0..20_000 {
        cur[(rng.next() % 12) as usize] = (rng.next() % 7) as u32;
        let id = interned.len() as u32;
        interned.entry(cur.clone()).or_insert(id);
    }
    black_box(interned.len());
}

/// How strongly op times follow the kernel's time. The kernel works in
/// caches and slows more under a contending tenant than the pipelines,
/// which also wait on memory: fitted per op over 150–330 s runs, the
/// log–log slope of op time against kernel time was 0.65–0.80 on the four
/// workloads, and with this exponent the medians of 24 s windows varied
/// least (a range of 5–10% per workload, against 6–13% at exponent 1).
pub const SENSITIVITY: f64 = 0.8;

/// Runs the kernel once; returns the factor that scales a wall time
/// measured now to the reference host speed.
pub fn factor() -> f64 {
    let t = Instant::now();
    kernel();
    (NOMINAL_S / t.elapsed().as_secs_f64()).powf(SENSITIVITY)
}
