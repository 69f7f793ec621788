//! A gauge of how fast the shared host runs at the moment: a fixed piece
//! of work shaped like the simulator's inner loop (a priority queue, a
//! hash map, short-lived small allocations), timed between scenario runs.
//!
//! The benchmark runs on a few cores of a host shared with other tenants,
//! whose load changes the speed of the same code by up to a third from
//! one minute to the next: identical `paper_tables` passes took 4.4 s and
//! 6.1 s a few minutes apart. The probe slows down with the program, so
//! `run.py` reports each run's timings scaled by the ratio of a reference
//! probe time to the run's median probe time (README.md, "Host speed").
//! The probe's work is benchmark code and never depends on the program,
//! so a change to the program moves the scaled timings as it moves the
//! raw ones.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Rounds of one sample (about 1.7 ms on a 2-vCPU Xeon VM).
const ROUNDS: u64 = 20_000;
/// Entries the queue holds once it is full.
const QUEUE_LEN: usize = 4_000;
/// Distinct keys of the map.
const MAP_KEYS: u64 = 1 << 14;
/// Probe time taken after a scenario run, as a share of that run's wall
/// time (at least one sample), so the host is sampled evenly over a pass
/// whatever the scenarios' lengths.
const SHARE: f64 = 0.02;

/// The probe's state, allocated once so that sampling leaves the
/// program's heap as it found it.
pub struct HostProbe {
    queue: BinaryHeap<Reverse<u64>>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// Allocates the probe's queue and map.
    pub fn new() -> Self {
        HostProbe {
            queue: BinaryHeap::with_capacity(QUEUE_LEN + 1),
            map: HashMap::with_capacity_and_hasher(MAP_KEYS as usize, Default::default()),
        }
    }

    /// Runs the fixed work once and returns its wall seconds.
    pub fn sample(&mut self) -> f64 {
        self.queue.clear();
        self.map.clear();
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for i in 0..black_box(ROUNDS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.queue.push(Reverse(x >> 20));
            if self.queue.len() > QUEUE_LEN {
                acc = acc.wrapping_add(self.queue.pop().map_or(0, |r| r.0));
            }
            *self.map.entry(x % MAP_KEYS).or_insert(0) += i;
            if i % 64 == 0 {
                // A short-lived small block, as packets and timers are.
                acc ^= black_box(vec![x; 16])[3];
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// Samples after a run of `busy_s` wall seconds until the probe has
    /// taken [`SHARE`] of that time, at least once; appends the samples
    /// to `out`.
    pub fn sample_after(&mut self, busy_s: f64, out: &mut Vec<f64>) {
        let mut spent = 0.0;
        while spent == 0.0 || spent < SHARE * busy_s {
            let s = self.sample();
            out.push(s);
            spent += s;
        }
    }
}
