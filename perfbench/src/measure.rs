//! Timed passes over a workload's scenarios.
//!
//! An untraced pass calls `iq_experiments::run_scenario` (and, for
//! `telemetry_figures`, `figures::jitter_series_from_telemetry`) once per
//! scenario and times exactly those calls; after each one it may sample
//! the [`HostProbe`]. A traced pass runs the same
//! scenarios through [`crate::traced::run`] and feeds
//! [`crate::layers::LayerTotals`]. Checks (fingerprints, the figure
//! contract) are computed outside the timed intervals.

use std::time::Instant;

use iq_experiments::figures::jitter_series_from_telemetry;
use iq_experiments::{run_scenario, RunResult, Scenario};
use iq_metrics::TimeSeries;

use crate::alloc;
use crate::check::{figure_matches, fingerprint, sane};
use crate::layers::{LayerTotals, Memory, Metric, Rebuild};
use crate::probe::HostProbe;
use crate::sys::cpu_seconds;
use crate::traced;
use crate::workloads::Workload;

/// The figure flow: the application flow every table scenario runs.
const FIGURE_FLOW: u64 = 1;

/// Checks of one scenario run.
#[derive(Debug, Clone)]
pub struct RunCheck {
    /// [`fingerprint`] of the result.
    pub hash: u64,
    /// [`sane`] held.
    pub sane: bool,
    /// Simulated events.
    pub events: u64,
    /// For figure workloads: whether the rebuilt series met the contract.
    pub figure_ok: Option<bool>,
}

/// One untraced pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall seconds inside the timed calls.
    pub wall_s: f64,
    /// Process CPU seconds inside the timed calls.
    pub cpu_s: f64,
    /// Simulated events.
    pub events: u64,
    /// Per-scenario checks, in scenario order.
    pub runs: Vec<RunCheck>,
    /// Per-scenario wall seconds, in scenario order.
    pub walls: Vec<f64>,
    /// Per-scenario CPU seconds, in scenario order.
    pub cpus: Vec<f64>,
    /// Host probe samples taken after the scenarios, seconds.
    pub probes: Vec<f64>,
}

fn check(r: &RunResult, rebuilt: Option<&TimeSeries>) -> RunCheck {
    RunCheck {
        hash: fingerprint(r),
        sane: sane(r),
        events: r.events_processed,
        figure_ok: rebuilt.map(|s| figure_matches(s, &r.jitter_series)),
    }
}

/// Runs every scenario once through the public entry points, sampling
/// `probe` after each if the workload is [`Workload::host_probed`].
pub fn untraced_pass(w: Workload, scenarios: &[(String, Scenario)], probe: &mut HostProbe) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        events: 0,
        runs: Vec::with_capacity(scenarios.len()),
        walls: Vec::with_capacity(scenarios.len()),
        cpus: Vec::with_capacity(scenarios.len()),
        probes: Vec::new(),
    };
    for (_, sc) in scenarios {
        let cpu = cpu_seconds();
        let t = Instant::now();
        let r = run_scenario(sc);
        let rebuilt = if w.rebuilds_figures() {
            Some(jitter_series_from_telemetry(&r, FIGURE_FLOW).unwrap_or_default())
        } else {
            None
        };
        let wall = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu;
        pass.wall_s += wall;
        pass.cpu_s += cpu;
        pass.walls.push(wall);
        pass.cpus.push(cpu);
        pass.events += r.events_processed;
        pass.runs.push(check(&r, rebuilt.as_ref()));
        drop((r, rebuilt));
        if w.host_probed() {
            probe.sample_after(wall, &mut pass.probes);
        }
    }
    pass
}

/// Runs every scenario with a zero deadline: topology, agents and
/// connections are built and torn down, no simulated time passes.
/// Returns the wall seconds.
pub fn setup_pass(scenarios: &[(String, Scenario)]) -> f64 {
    let mut wall = 0.0;
    for (_, sc) in scenarios {
        let mut sc = sc.clone();
        sc.deadline_s = 0.0;
        let t = Instant::now();
        let r = run_scenario(&sc);
        wall += t.elapsed().as_secs_f64();
        std::hint::black_box(r);
    }
    wall
}

/// One traced pass.
#[derive(Debug, Clone)]
pub struct TracedPass {
    /// Wall seconds of the traced calls (builder copies plus rebuilds).
    pub wall_s: f64,
    /// Per-scenario checks, comparable with an untraced pass's.
    pub runs: Vec<RunCheck>,
    /// Layer sums.
    pub totals: LayerTotals,
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
}

/// Runs every scenario through the traced builder copies.
pub fn traced_pass(w: Workload, scenarios: &[(String, Scenario)]) -> TracedPass {
    let mut totals = LayerTotals::default();
    let mut runs = Vec::with_capacity(scenarios.len());
    let mut wall_ns = 0.0;
    alloc::reset_peaks();
    let mem_start = alloc::snapshot();
    for (_, sc) in scenarios {
        let t = Instant::now();
        let (r, layers) = traced::run(sc);
        let run_ns = t.elapsed().as_nanos() as f64;
        totals.add(&r, &layers);
        let rebuilt = w.rebuilds_figures().then(|| {
            let t = Instant::now();
            let series = jitter_series_from_telemetry(&r, FIGURE_FLOW).unwrap_or_default();
            let nanos = t.elapsed().as_nanos() as u64;
            wall_ns += nanos as f64;
            totals.add_rebuild(
                &Rebuild {
                    // What `parse_jsonl` returns one record for.
                    records: r.telemetry.lines().filter(|l| !l.trim().is_empty()).count() as u64,
                    nanos,
                    rebuilt_points: series.points.len() as u64,
                    matches: figure_matches(&series, &r.jitter_series),
                },
                r.jitter_series.points.len() as u64,
            );
            series
        });
        wall_ns += run_ns;
        runs.push(check(&r, rebuilt.as_ref()));
    }
    let mem = Memory::between(&mem_start, &alloc::snapshot());
    let metrics = totals.metrics(wall_ns, &mem);
    TracedPass {
        wall_s: wall_ns * 1e-9,
        runs,
        totals,
        metrics,
    }
}
