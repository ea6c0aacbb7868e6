//! Host speed: a fixed reference kernel, timed between the passes of a
//! run, that the timed end-to-end metrics are scaled by.
//!
//! On the shared two-core host these numbers come from, the host's
//! speed drifts by up to about 20 % over minutes (the kernel's fastest
//! repetition took 163 µs in one run and 190 µs in another), and a
//! whole 35-second run can fall inside a slow stretch, where no
//! best-of-N timing helps. The kernel uses no code of the repository,
//! so a change to the simulator moves the workload's times but not the
//! kernel's; scaling every time by `NOMINAL_US / fastest kernel
//! repetition` takes the host's drift out and leaves the program's.

use std::hint::black_box;
use std::time::Instant;

/// Reference speed: the timed metrics are reported as on a host whose
/// fastest kernel repetition takes this long.
pub const NOMINAL_US: f64 = 175.0;

/// Kernel repetitions after each timed pass.
pub const REPS: usize = 16;

/// Loop iterations of one repetition.
const ITERATIONS: u64 = 60_000;

/// One repetition of the reference kernel: a xorshift stream
/// scattering into and reading from a 32 KiB table, with a
/// data-dependent branch — L1-resident, branchy integer work like an
/// interpreter's.
#[must_use]
pub fn kernel(seed: u64) -> u64 {
    let mut table = [1_u64; 4096];
    let mut x = seed | 1;
    let mut acc = 0_u64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 4095;
        table[j] = table[j].wrapping_add(i);
        acc = acc.wrapping_add(table[(j * 7) & 4095]);
        if acc & 3 == 1 {
            acc = acc.rotate_left(3);
        }
    }
    acc
}

/// The fastest kernel repetition seen so far.
#[derive(Debug, Clone, Copy)]
pub struct HostSpeed {
    fastest_us: f64,
    reps: usize,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            fastest_us: f64::INFINITY,
            reps: 0,
        }
    }
}

impl HostSpeed {
    /// Times [`REPS`] repetitions of the kernel.
    pub fn sample(&mut self) {
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(kernel(black_box(0x9e37_79b9_7f4a_7c15)));
            let us = t.elapsed().as_secs_f64() * 1e6;
            self.fastest_us = self.fastest_us.min(us);
            self.reps += 1;
        }
    }

    /// The fastest repetition (µs).
    #[must_use]
    pub fn fastest_us(&self) -> f64 {
        self.fastest_us
    }

    /// Repetitions timed.
    #[must_use]
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// The factor that turns a host time into a time at
    /// [`NOMINAL_US`] speed (throughputs divide by it).
    #[must_use]
    pub fn time_scale(&self) -> f64 {
        NOMINAL_US / self.fastest_us
    }
}

#[cfg(test)]
mod tests {
    use super::{kernel, HostSpeed};

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(5), kernel(5));
        assert_ne!(kernel(5), kernel(6));
    }

    #[test]
    fn scale_is_nominal_over_fastest() {
        let mut h = HostSpeed::default();
        h.sample();
        assert_eq!(h.reps(), super::REPS);
        assert!(h.fastest_us() > 0.0 && h.fastest_us().is_finite());
        assert!((h.time_scale() * h.fastest_us() - super::NOMINAL_US).abs() < 1e-9);
    }
}
