//! Speed calibration: a fixed CPU kernel timed alongside the workload.
//!
//! On shared hosts the same code runs up to ~1.6× slower for seconds to
//! minutes at a time, whichever core it is on, because of contention
//! outside the process. Timing this kernel next to every short job and
//! rescaling the job's wall time by `REFERENCE_S / kernel time` cancels
//! most of that: the reported times are seconds on a machine where the
//! kernel takes [`REFERENCE_S`]. The kernel belongs to the benchmark, so
//! no change to the program moves it; raw wall times are kept in the
//! machine header.
//!
//! A job much longer than the host's slow spells averages them itself,
//! while kernel samples at its two ends do not represent it: the cold
//! characterization (tens of seconds on every core) spread about 11 %
//! from run to run as measured and 20–30 % once rescaled, so it is
//! reported as measured.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Kernel time that defines the reported seconds (about its quiet-host
/// time on a 2.1 GHz Xeon).
pub const REFERENCE_S: f64 = 0.0065;

/// One timing of the kernel: floating-point updates and sorts over a
/// cache-resident array.
pub fn kernel_s() -> f64 {
    let t0 = Instant::now();
    let mut v: Vec<f64> = (0..20_000u32)
        .map(|i| f64::from((i * 7919) % 10007))
        .collect();
    for r in 0..20 {
        for x in v.iter_mut() {
            *x = (*x * 1.000_000_1 + f64::from(r)).sqrt() * 3.0;
        }
        let mut w: Vec<u64> = v.iter().map(|x| x.to_bits() % 1_000_003).collect();
        w.sort_unstable();
        black_box(&w);
    }
    black_box(&v);
    t0.elapsed().as_secs_f64()
}

/// Kernel timings of one run.
#[derive(Debug, Default)]
pub struct Clock {
    samples: Vec<f64>,
}

impl Clock {
    /// Times the kernel `n` times.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.samples.push(kernel_s());
        }
    }

    /// `secs` rescaled by the median kernel timing taken since `from`
    /// (an index into this clock's samples).
    pub fn scale_since(&self, from: usize, secs: f64) -> f64 {
        secs * REFERENCE_S / median(&self.samples[from..])
    }

    /// Takes over `other`'s samples.
    pub fn absorb(&mut self, other: Clock) {
        self.samples.extend(other.samples);
    }

    /// Number of samples so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `secs` rescaled by the median of every kernel timing in the run.
    pub fn scale(&self, secs: f64) -> f64 {
        self.scale_since(0, secs)
    }

    /// Median kernel timing of the run.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_kernel_speed() {
        let clock = Clock {
            samples: vec![2.0 * REFERENCE_S, 2.0 * REFERENCE_S, 9.0],
        };
        assert_eq!(clock.scale_since(0, 4.0), 2.0);
        assert_eq!(clock.scale_since(2, 9.0), REFERENCE_S);
        assert!(kernel_s() > 0.0);
    }
}
