//! Host-speed calibration.
//!
//! On a shared host the same deterministic tune takes up to 1.8× longer
//! while other work loads the machine (a busy process on the other vCPU
//! of a 2-vCPU VM alone costs 1.4×), and such phases last from under a
//! second to minutes, often a whole run. No choice of median or run
//! length cancels a slowdown that covers the whole run. The benchmark
//! therefore times a small fixed reference kernel of its own alongside
//! the program: before every `Tuner::step`, or in blocks around every
//! service run. It reports each time at reference speed, scaled by
//! [`REFERENCE_S`] ÷ the kernel's median time around that measurement. The kernel is benchmark code and nothing of
//! the program's, so a change that makes the program faster or slower
//! moves every reported time by the same factor as the raw wall clock.
//! The raw times and the speed factors go to the result file beside
//! the calibrated ones.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Seconds one [`kernel`] call takes at reference speed. This is about
/// its median on an idle 2-vCPU Intel Xeon VM, the host the benchmark's
/// bounds were set on; any fixed value would do, since only ratios of
/// calibrated times are compared.
pub const REFERENCE_S: f64 = 3.5e-4;

/// Board size of the reference kernel: about 0.35 ms at reference speed.
const QUEENS: u32 = 10;

/// Kernel calls in a calibration block, for measurements that cannot be
/// interleaved step by step (a service run's worker threads).
pub const BLOCK: usize = 64;

/// Counts the solutions of the `n`-queens puzzle by bitmask
/// backtracking: branchy integer work in registers, like a constraint
/// solver's inner loop, with no allocation and no memory traffic that
/// could disturb the program's caches.
pub fn queens(n: u32) -> u64 {
    fn place(all: u32, cols: u32, left: u32, right: u32) -> u64 {
        if cols == all {
            return 1;
        }
        let mut free = all & !(cols | left | right);
        let mut count = 0;
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free ^= bit;
            count += place(all, cols | bit, (left | bit) << 1, (right | bit) >> 1);
        }
        count
    }
    place((1 << n) - 1, 0, 0, 0)
}

/// Seconds one call of the reference kernel takes now.
pub fn kernel() -> f64 {
    let t = Instant::now();
    black_box(queens(black_box(QUEENS)));
    t.elapsed().as_secs_f64()
}

/// Kernel times collected around one measurement.
#[derive(Debug, Default, Clone)]
pub struct Speed(Vec<f64>);

impl Speed {
    /// Times one kernel call.
    pub fn sample(&mut self) {
        self.0.push(kernel());
    }

    /// Times a block of [`BLOCK`] kernel calls.
    pub fn block(&mut self) {
        (0..BLOCK).for_each(|_| self.sample());
    }

    /// How fast the host ran relative to reference speed: below 1 when
    /// it was slower. 1 without samples.
    pub fn factor(&self) -> f64 {
        stats::median(&self.0).map_or(1.0, |k| REFERENCE_S / k)
    }

    /// `raw_s` host seconds, scaled to reference speed.
    pub fn calibrate(&self, raw_s: f64) -> f64 {
        raw_s * self.factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queens_counts_known_solutions() {
        assert_eq!(queens(1), 1);
        assert_eq!(queens(4), 2);
        assert_eq!(queens(8), 92);
        assert_eq!(queens(QUEENS), 724);
    }

    #[test]
    fn calibration_scales_by_reference_over_median() {
        let mut s = Speed::default();
        assert_eq!(s.factor(), 1.0);
        // A host at half speed: the kernel takes twice as long, so a
        // raw 3 s reads 1.5 s at reference speed.
        s.0 = vec![2.0 * REFERENCE_S, 9.0 * REFERENCE_S, 2.0 * REFERENCE_S];
        assert_eq!(s.factor(), 0.5);
        assert_eq!(s.calibrate(3.0), 1.5);
    }
}
