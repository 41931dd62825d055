//! Host-speed normalisation.
//!
//! The hosts this benchmark runs on are shared: the same single-threaded
//! job reads 580 ms, then 740 ms for six seconds, then 800 ms for a whole
//! ten-second run, with no steal time reported — a busy SMT sibling or a
//! frequency change, which slows all integer code alike. Over 24 ten-second
//! windows the median `hot_loop` job spread 21% (quartile distance over
//! median); no metric with a 10% bound survives that, and no later change
//! could ever show a 5% gain.
//!
//! So every timed round is bracketed by a fixed reference kernel owned by
//! the benchmark, and times measured in the round are multiplied by
//! `NOMINAL_MS / (the kernel's time around the round)`. The same 24 windows
//! then spread 4%, and `suite_sweep` 1.4% against 4.1% raw. What a metric
//! in "ms" therefore means is: milliseconds on a host that runs the
//! reference kernel in `NOMINAL_MS` — this host, when quiet. Raw medians
//! are kept beside every normalised value in the detail output.
//!
//! The kernel is not the program under test and shares no code with it, so
//! a change to the pipeline cannot move the yardstick.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The reference kernel's time on the build host in its quiet state. The
/// value only fixes the scale; comparisons hold on any host.
pub const NOMINAL_MS: f64 = 5.75;

const ELEMS: usize = 4096;
const REPS: usize = 40;

/// One pass of the kernel: fill, hash-insert, sort, look up — integer ALU
/// work, data-dependent branches and hashing over a cache-resident set,
/// the same diet the interpreter and the profiler live on. Deterministic:
/// fixed data, fixed hasher keys.
fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut v: Vec<u64> = (0..ELEMS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut m: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(ELEMS, BuildHasherDefault::default());
    for (i, &k) in v.iter().enumerate() {
        m.insert(k, i as u64);
    }
    v.sort_unstable();
    v.iter().fold(0u64, |acc, k| acc.wrapping_add(m[k]))
}

/// Wall milliseconds of one reference sample (about 6 ms).
fn reference_ms() -> f64 {
    let t0 = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(kernel());
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Samples the reference kernel between rounds.
pub struct Pace {
    last_ms: f64,
}

impl Pace {
    /// Take the first sample: the host's speed as the first round begins.
    pub fn start() -> Pace {
        Pace {
            last_ms: reference_ms(),
        }
    }

    /// Close the round that began at the previous sample: returns the
    /// factor that converts times measured during it to nominal-host
    /// times. The sample taken here also opens the next round.
    pub fn lap(&mut self) -> f64 {
        let now_ms = reference_ms();
        let factor = NOMINAL_MS / ((self.last_ms + now_ms) / 2.0);
        self.last_ms = now_ms;
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_pace_is_positive() {
        assert_eq!(kernel(), kernel());
        // Every key was inserted with its index; the lookups sum them.
        assert_eq!(kernel(), (0..ELEMS as u64).sum::<u64>());
        let mut p = Pace::start();
        let f = p.lap();
        assert!(f.is_finite() && f > 0.0);
    }
}
