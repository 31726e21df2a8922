//! The reference kernel: a fixed piece of the benchmark's own code whose
//! running time says how fast the box is *right now*.
//!
//! The reference box is a small shared VM whose speed moves between
//! plateaus up to 2x apart on a scale of seconds, sometimes for longer
//! than a whole run. Identical timed windows therefore differ by far
//! more than any change the benchmark is meant to resolve. Bracketing
//! every window with this kernel and dividing the box's momentary
//! slowness out brought the interquartile spread of `req/s` across runs
//! from 13.7 % to 3.4 % on `serve_warm`, from 13.4 % to 7.8 % on
//! `serve_cold` and from 5.1 % to 2.9 % on `serve_mixed_store`, and the
//! range of `solve_hb_k2` solve times from 38 % to 11 %. This is the
//! ROADMAP's "gate within-run ratios, which cancel machine noise",
//! applied to every timing metric.
//!
//! The kernel is two loops over the same xorshift-indexed table update,
//! one with a cache-resident table and one with a table larger than the
//! private caches: interference hits compute-bound and memory-bound code
//! differently, the workloads are a mix of both, and the geometric mean
//! of the two tracked every workload better than either alone.

use std::time::Instant;

/// Kernel times on the reference box when nothing interferes (the 5th
/// percentile of 1 600 probes). A speed factor of 1 means "as fast as
/// that"; normalised metrics read as they would on that quiet box.
const REF_SMALL_US: f64 = 3_800.0;
const REF_BIG_US: f64 = 3_400.0;

fn kernel(bits: u32, iters: u64) -> f64 {
    let started = Instant::now();
    let mut table = vec![0u32; 1 << bits];
    let mask = (1usize << bits) - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & mask];
        *slot = slot.wrapping_add(i as u32);
        if *slot & 1 == 0 {
            acc = acc.wrapping_add(x);
        } else {
            acc ^= x.rotate_left(7);
        }
    }
    std::hint::black_box((acc, table));
    started.elapsed().as_nanos() as f64 / 1e3
}

/// One probe of the box's speed (about 8 ms).
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    small_us: f64,
    big_us: f64,
}

pub fn probe() -> Probe {
    Probe {
        small_us: kernel(12, 2_000_000),
        big_us: kernel(18, 1_500_000),
    }
}

/// How much slower than the quiet reference box the box ran between two
/// probes (1 = as fast, 2 = half as fast).
pub fn slowness(before: Probe, after: Probe) -> f64 {
    let small = (before.small_us + after.small_us) / 2.0 / REF_SMALL_US;
    let big = (before.big_us + after.big_us) / 2.0 / REF_BIG_US;
    (small * big).sqrt()
}

/// Median slowness between consecutive probes, and how many intervals
/// that is over.
pub fn median_slowness(probes: &[Probe]) -> (f64, usize) {
    let between: Vec<f64> = probes.windows(2).map(|p| slowness(p[0], p[1])).collect();
    (crate::stats::median(&between), between.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_the_geometric_mean_of_both_kernels() {
        let quiet = Probe {
            small_us: REF_SMALL_US,
            big_us: REF_BIG_US,
        };
        assert!((slowness(quiet, quiet) - 1.0).abs() < 1e-12);
        let slow = Probe {
            small_us: 2.0 * REF_SMALL_US,
            big_us: 8.0 * REF_BIG_US,
        };
        assert!((slowness(slow, slow) - 4.0).abs() < 1e-12);
        // Before and after are averaged per kernel.
        assert!((slowness(quiet, slow) - (1.5f64 * 4.5).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_does_its_work() {
        // Twice the iterations take measurably longer: the loop is not
        // optimised away.
        let short = (0..5).map(|_| kernel(12, 200_000)).fold(f64::MAX, f64::min);
        let long = (0..5)
            .map(|_| kernel(12, 2_000_000))
            .fold(f64::MAX, f64::min);
        assert!(long > 3.0 * short, "short {short} us, long {long} us");
    }
}
