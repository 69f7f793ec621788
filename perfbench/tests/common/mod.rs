//! Small scenarios covering every traced builder copy and agent kind.
#![allow(dead_code)] // each test file uses a subset

use std::sync::{Mutex, MutexGuard};

use iq_experiments::runner::{set_shards, set_telemetry_capture};
use iq_experiments::tables::{table1_scenarios, table2_scenarios, table6_scenarios};
use iq_experiments::{Scenario, Size};

/// The runner's settings are process-global; tests that change them
/// hold this lock.
pub fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sets the runner's shard workers and telemetry capture.
pub fn configure(shards: usize, telemetry: bool) {
    set_shards(shards);
    set_telemetry_capture(telemetry);
}

/// Serial scenarios: TCP and RUDP rows with CBR (Table 1), a TCP cross
/// flow (Table 2) and VBR (Table 6), shrunk to the smallest size.
pub fn serial() -> Vec<Scenario> {
    let size = Size(0.01);
    let mut v = table1_scenarios(size);
    v.extend(table2_scenarios(size));
    v.extend(table6_scenarios(size).into_iter().take(2));
    v
}

/// A sharded population: 2 legs (4 shards) of 400 flows each, long
/// enough that the engine's fixed per-run cost is small next to the run.
pub fn sharded() -> Scenario {
    let mut sc = Scenario::mega(2, 400, 4, 1400);
    sc.deadline_s = 60.0;
    sc
}
