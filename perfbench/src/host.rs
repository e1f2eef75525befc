//! The host's speed, measured with a fixed reference kernel.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! tens of percent, and up to twofold, within minutes, with no matching
//! rise in steal time: the same pass of the same operations takes 2.5 s
//! in one minute and 5 s a few minutes later, and its CPU time rises with
//! it. A fixed kernel timed between the operations slows down with them,
//! so the end-to-end times are scaled by it, to the time on a reference
//! host where one kernel call takes [`NOMINAL_S`].
//!
//! The probe runs the kernel on as many threads as the program's pool has,
//! all at once, and yields two times:
//!
//! - The time per call, each call timed on its own thread, is the speed of
//!   one CPU. It scales CPU times and set-up, which is serial.
//! - A round's wall time per call, the slowest thread's, is the pool's
//!   capacity: a parallel batch of the program also waits for its slowest
//!   thread.
//!
//! Wall times mix serial and parallel work, so they are scaled by the
//! geometric mean of the two. Medians of six passes, over 42 passes of
//! `construct_paper` and 36 of `search_mix` while the host's load varied,
//! spread as follows (interquartile range over median):
//!
//! | wall time scaled by | `construct_paper` | `search_mix` |
//! |---|---|---|
//! | nothing | 15.4% | 28.7% |
//! | time per call | 2.1% | 10.1% |
//! | round time per call | 5.7% | 3.9% |
//! | geometric mean | 3.4% | 3.8% |
//!
//! The scaling is not exact: when the host slowed the kernel 1.7-fold, it
//! slowed `construct_paper` twofold. The kernel is plain `std` code in
//! this benchmark, so no change to the program under test can move it.
//! The probe runs only between operations, never beside the program.

use std::hint::black_box;

use crate::clock;

/// Seconds one kernel call takes on the reference host. About what it
/// takes on the 2-vCPU VM the benchmark was calibrated on.
pub const NOMINAL_S: f64 = 1.0e-3;

/// Kernel calls per thread in one probe round: enough to make the cost of
/// starting the threads small.
const CALLS_PER_ROUND: u64 = 2;

/// Probe time kept at this share of the measured work time, so the probe
/// samples the host about as often as the work runs on it.
const SHARE: f64 = 0.03;

/// Probe rounds and their times, sampled alongside some measured work.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct HostSpeed {
    /// Probe rounds run.
    pub rounds: u64,
    /// Wall seconds of the rounds.
    pub round_s: f64,
    /// Kernel calls made, over all threads.
    pub calls: u64,
    /// Seconds the calls took, each timed on its own thread.
    pub call_s: f64,
    /// Seconds of measured work the rounds were run alongside.
    pub work_s: f64,
}

impl HostSpeed {
    /// Account `work_s` seconds of measured work just finished, then run
    /// probe rounds, at least one and until they have taken [`SHARE`] of
    /// all work accounted so far.
    pub fn sample_after(&mut self, work_s: f64) {
        self.work_s += work_s;
        let threads = smartfeat_par::resolve_threads(0);
        loop {
            let (per_thread, secs) = clock::timed(|| {
                std::thread::scope(|s| {
                    let others: Vec<_> = (1..threads).map(|_| s.spawn(time_calls)).collect();
                    let mine = time_calls();
                    others
                        .into_iter()
                        .map(|h| h.join().expect("kernel thread"))
                        .sum::<f64>()
                        + mine
                })
            });
            self.rounds += 1;
            self.round_s += secs;
            self.calls += CALLS_PER_ROUND * threads as u64;
            self.call_s += per_thread;
            if self.round_s >= SHARE * self.work_s {
                break;
            }
        }
    }

    /// Mean seconds per kernel call on one thread; [`NOMINAL_S`] when none
    /// ran.
    pub fn per_call_s(&self) -> f64 {
        if self.calls == 0 {
            NOMINAL_S
        } else {
            self.call_s / self.calls as f64
        }
    }

    /// Mean wall seconds per kernel call of a round, all threads at once;
    /// [`NOMINAL_S`] when none ran.
    pub fn per_round_call_s(&self) -> f64 {
        if self.rounds == 0 {
            NOMINAL_S
        } else {
            self.round_s / (self.rounds * CALLS_PER_ROUND) as f64
        }
    }

    /// Wall seconds measured on this host, as seconds on the reference
    /// host.
    pub fn normalize_wall(&self, secs: f64) -> f64 {
        secs * NOMINAL_S / (self.per_call_s() * self.per_round_call_s()).sqrt()
    }

    /// CPU seconds, or seconds of serial work, measured on this host, as
    /// seconds on the reference host.
    pub fn normalize_cpu(&self, secs: f64) -> f64 {
        secs * NOMINAL_S / self.per_call_s()
    }
}

/// Run [`CALLS_PER_ROUND`] kernel calls; the seconds they took.
fn time_calls() -> f64 {
    let (out, secs) = clock::timed(|| (0..CALLS_PER_ROUND).fold(0, |acc, i| acc ^ kernel(i)));
    black_box(out);
    secs
}

/// About a millisecond of fixed work with the program's mix: allocation,
/// dependent floating-point sweeps over a 256 KiB buffer, and a sort.
fn kernel(salt: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ (salt & 1);
    let mut v: Vec<f64> = (0..32_768)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    for _ in 0..8 {
        let mut acc = 0.0;
        for e in v.iter_mut() {
            acc = acc * 0.5 + *e;
            *e = acc.sqrt();
        }
    }
    let mut bits: Vec<u64> = v.iter().map(|f| f.to_bits()).collect();
    bits.sort_unstable();
    bits[bits.len() / 2] ^ bits[7]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        assert_eq!(kernel(0), kernel(2));
        assert_eq!(kernel(1), kernel(3));
    }

    #[test]
    fn sampling_keeps_up_with_the_work() {
        let mut host = HostSpeed::default();
        assert_eq!(host.normalize_wall(2.0), 2.0);
        host.sample_after(0.0);
        assert_eq!(host.rounds, 1);
        host.sample_after(0.5);
        assert!(host.round_s >= SHARE * 0.5);
        assert_eq!(host.calls % CALLS_PER_ROUND, 0);
        let (c, r) = (host.per_call_s(), host.per_round_call_s());
        assert!(c > 0.0 && r > 0.0);
        assert!((host.normalize_cpu(2.0) - 2.0 * NOMINAL_S / c).abs() < 1e-12);
        assert!((host.normalize_wall(2.0) - 2.0 * NOMINAL_S / (c * r).sqrt()).abs() < 1e-12);
    }
}
