//! Per-layer metrics of a traced pass.
//!
//! Time is accounted in worker-seconds: each scenario contributes
//! `workers × run wall` of capacity (the simulation loop only; building
//! and tearing down happen on the calling thread and are covered by the
//! end-to-end `setup_s`). That capacity splits into
//!
//! ```text
//! idle + ingress + flush + core + Σ agent self time = workers × run wall
//! ```
//!
//! where ingress, flush and execute come from the simulators' own phase
//! profiles, agent self time from the [`crate::traced::Traced`] wrappers,
//! core = execute − Σ agents, and idle is the remainder. The remainder
//! makes the sum exact by construction, so the independent check is
//! `trace.layer_sum_error_frac`: each shard's profile (idle included)
//! must span the measured run wall, i.e. Σ over shards of profiled time
//! equals `shards × run wall` within [`LAYER_SUM_TOLERANCE`].

use iq_experiments::RunResult;
use iq_obs::Phase;

use crate::alloc;
use crate::traced::{CallStats, Kind, Layers};

/// Accepted relative error of the phase-profile identity.
pub const LAYER_SUM_TOLERANCE: f64 = 0.02;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Sums over the scenarios of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    events: u64,
    worker_ns: f64,
    shard_ns: f64,
    profiled_ns: f64,
    phase_ns: [f64; 4],
    kinds: [CallStats; 8],
    near_hits: u64,
    near_inserts: u64,
    wheel_pushes: u64,
    far_spills: u64,
    cascades: u64,
    steals: u64,
    parks: u64,
    wakes: u64,
    windows: u64,
    segments_sent: u64,
    segments_acked: u64,
    retransmits: u64,
    rto: u64,
    sack_truncations: u64,
    window_rescales: u64,
    cond_corrections: u64,
    callbacks: u64,
    telemetry_records: u64,
    telemetry_evicted: u64,
    jsonl_bytes: u64,
    rebuild_ns: f64,
    rebuilt_points: u64,
    accumulated_points: u64,
    figure_mismatch_runs: u64,
    setup_bytes: i64,
    flows: u64,
}

/// A figure rebuild from one run's telemetry.
#[derive(Debug, Clone, Copy)]
pub struct Rebuild {
    /// Records `parse_jsonl` returned.
    pub records: u64,
    /// Nanoseconds in `jitter_series_from_telemetry`.
    pub nanos: u64,
    /// Points in the rebuilt series.
    pub rebuilt_points: u64,
    /// Whether the rebuilt series equals the run's accumulator series.
    pub matches: bool,
}

/// Heap counters over a traced pass (zero when the process does not tag).
#[derive(Debug, Clone, Copy, Default)]
pub struct Memory {
    /// Highest live bytes of the core group above its level at pass start.
    pub core_peak: i64,
    /// Same for the agents group.
    pub agents_peak: i64,
    /// Allocation calls during the pass.
    pub allocs: u64,
}

impl Memory {
    /// Heap use between two allocator snapshots, where `start` was taken
    /// right after [`alloc::reset_peaks`].
    pub fn between(start: &alloc::Snapshot, end: &alloc::Snapshot) -> Self {
        Memory {
            core_peak: end.peak[alloc::CORE as usize] - start.live[alloc::CORE as usize],
            agents_peak: end.peak[alloc::AGENTS as usize] - start.live[alloc::AGENTS as usize],
            allocs: end.allocs - start.allocs,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const MIB: f64 = 1024.0 * 1024.0;

impl LayerTotals {
    /// Adds one traced scenario run.
    pub fn add(&mut self, r: &RunResult, l: &Layers) {
        let run = l.run_nanos as f64;
        self.events += r.events_processed;
        self.worker_ns += l.workers as f64 * run;
        self.shard_ns += r.phase_profile.len() as f64 * run;
        for p in &r.phase_profile {
            self.profiled_ns += p.total_nanos() as f64;
            for (acc, &n) in self.phase_ns.iter_mut().zip(&p.nanos) {
                *acc += n as f64;
            }
        }
        for (acc, k) in self.kinds.iter_mut().zip(&l.kinds) {
            acc.add(k);
        }
        let o = &r.obs;
        self.near_hits += o.counter_total("iq_sched_near_hits_total");
        self.near_inserts += o.counter_total("iq_sched_near_inserts_total");
        self.wheel_pushes += o.counter_total("iq_sched_wheel_pushes_total");
        self.far_spills += o.counter_total("iq_sched_far_spills_total");
        self.cascades += o.counter_total("iq_sched_cascades_total");
        self.windows += o.counter_total("iq_shard_windows_total");
        self.sack_truncations += o.counter_total("iq_rudp_sack_truncations_total");
        self.steals += r.sched.steals;
        self.parks += r.sched.parks;
        self.wakes += r.sched.wakes;
        if let Some(s) = &r.sender_stats {
            self.segments_sent += s.segments_sent;
            self.segments_acked += s.segments_acked;
            self.retransmits += s.retransmits;
            self.rto += s.timeouts;
        }
        if let Some(c) = &r.coordination {
            self.window_rescales += c.window_rescales;
            self.cond_corrections += c.cond_corrections;
        }
        self.callbacks += r.callbacks.0 + r.callbacks.1;
        self.telemetry_evicted += r.telemetry_evicted;
        self.jsonl_bytes += r.telemetry.len() as u64;
        self.setup_bytes += l.setup_bytes;
        self.flows += l.flows;
    }

    /// Adds the figure rebuild that followed a run with `accumulated`
    /// points in its receiver-side jitter series.
    pub fn add_rebuild(&mut self, b: &Rebuild, accumulated: u64) {
        self.telemetry_records += b.records;
        self.rebuild_ns += b.nanos as f64;
        self.rebuilt_points += b.rebuilt_points;
        self.accumulated_points += accumulated;
        self.figure_mismatch_runs += u64::from(!b.matches);
    }

    /// The per-layer metrics, given the pass's wall time and heap use.
    pub fn metrics(&self, pass_wall_ns: f64, mem: &Memory) -> Vec<Metric> {
        let mut out = Vec::new();
        let mut put = |name: &str, value: f64, unit: &'static str| {
            out.push(Metric {
                name: name.to_string(),
                value,
                unit,
            });
        };
        let w = self.worker_ns;
        let [_, ingress, execute, flush] = self.phase_ns;
        let agents_ns: f64 = self.kinds.iter().map(|k| k.nanos as f64).sum();
        let agent_calls: u64 = self.kinds.iter().map(|k| k.calls).sum();
        let core_ns = execute - agents_ns;
        let events = self.events as f64;

        put("netsim.events", events, "count");
        put("netsim.core_frac", ratio(core_ns, w), "ratio");
        put("netsim.core_ns_per_event", ratio(core_ns, events), "ns");
        put("netsim.sched.near_hits", self.near_hits as f64, "count");
        put(
            "netsim.sched.near_inserts",
            self.near_inserts as f64,
            "count",
        );
        put(
            "netsim.sched.wheel_pushes",
            self.wheel_pushes as f64,
            "count",
        );
        put("netsim.sched.far_spills", self.far_spills as f64, "count");
        put("netsim.sched.cascades", self.cascades as f64, "count");
        let hits: u64 = self.kinds.iter().map(|k| k.pool_hits).sum();
        let gets = hits + self.kinds.iter().map(|k| k.pool_misses).sum::<u64>();
        put(
            "netsim.pool.hit_frac",
            ratio(hits as f64, gets as f64),
            "ratio",
        );

        put("shard.busy_frac", ratio(execute, w), "ratio");
        put(
            "shard.idle_frac",
            ratio(w - ingress - execute - flush, w),
            "ratio",
        );
        put("shard.ingress_frac", ratio(ingress, w), "ratio");
        put("shard.flush_frac", ratio(flush, w), "ratio");
        put("shard.steals", self.steals as f64, "count");
        put("shard.parks", self.parks as f64, "count");
        put("shard.wakes", self.wakes as f64, "count");
        put("shard.windows", self.windows as f64, "count");

        put(
            "agent.ns_per_call",
            ratio(agents_ns, agent_calls as f64),
            "ns",
        );
        for (kind, k) in Kind::ALL.iter().zip(&self.kinds) {
            let name = kind.name();
            put(&format!("agent.{name}.calls"), k.calls as f64, "count");
            put(
                &format!("agent.{name}.self_frac"),
                ratio(k.nanos as f64, w),
                "ratio",
            );
        }

        put("rudp.segments_sent", self.segments_sent as f64, "count");
        put("rudp.retransmits", self.retransmits as f64, "count");
        put("rudp.rto", self.rto as f64, "count");
        put(
            "rudp.sack_truncations",
            self.sack_truncations as f64,
            "count",
        );
        put(
            "rudp.useful_frac",
            ratio(self.segments_acked as f64, self.segments_sent as f64),
            "ratio",
        );
        put("core.window_rescales", self.window_rescales as f64, "count");
        put(
            "core.cond_corrections",
            self.cond_corrections as f64,
            "count",
        );
        put("echo.callbacks", self.callbacks as f64, "count");

        let produced = (self.telemetry_records + self.telemetry_evicted) as f64;
        put("telemetry.records", produced, "count");
        put(
            "telemetry.evicted_frac",
            ratio(self.telemetry_evicted as f64, produced),
            "ratio",
        );
        put("telemetry.jsonl_mb", self.jsonl_bytes as f64 / MIB, "MiB");
        put(
            "telemetry.rebuild_frac",
            ratio(self.rebuild_ns, pass_wall_ns),
            "ratio",
        );
        put(
            "telemetry.figure_points_frac",
            ratio(self.rebuilt_points as f64, self.accumulated_points as f64),
            "ratio",
        );
        put(
            "telemetry.figure_mismatch_runs",
            self.figure_mismatch_runs as f64,
            "count",
        );

        put(
            "mem.setup_bytes_per_flow",
            ratio(self.setup_bytes as f64, self.flows as f64),
            "B",
        );
        put("mem.core.peak_live_mb", mem.core_peak as f64 / MIB, "MiB");
        put(
            "mem.agents.peak_live_mb",
            mem.agents_peak as f64 / MIB,
            "MiB",
        );
        put(
            "mem.allocs_per_event",
            ratio(mem.allocs as f64, events),
            "allocs/event",
        );

        put(
            "trace.layer_sum_error_frac",
            self.layer_sum_error(),
            "ratio",
        );
        out
    }

    /// Self nanoseconds per callback of each agent kind that ran (a time
    /// per kind, kept out of the metrics because absent kinds have none).
    pub fn ns_per_call(&self) -> Vec<(&'static str, f64)> {
        Kind::ALL
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| k.calls > 0)
            .map(|(kind, k)| (kind.name(), k.nanos as f64 / k.calls as f64))
            .collect()
    }

    /// Relative gap between the shards' profiled time and
    /// `shards × run wall` (see the module docs).
    pub fn layer_sum_error(&self) -> f64 {
        ratio((self.profiled_ns - self.shard_ns).abs(), self.shard_ns)
    }

    /// Execute time minus agent self time, ns; negative would mean the
    /// agent spans were not nested inside the execute phase.
    pub fn core_ns(&self) -> f64 {
        self.phase_ns[Phase::Execute as usize]
            - self.kinds.iter().map(|k| k.nanos as f64).sum::<f64>()
    }

    /// Worker time not spent in ingress, execute or flush, ns.
    pub fn idle_ns(&self) -> f64 {
        let [_, ingress, execute, flush] = self.phase_ns;
        self.worker_ns - ingress - execute - flush
    }

    /// `workers × run wall` summed over the pass, ns.
    pub fn worker_ns(&self) -> f64 {
        self.worker_ns
    }
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
        && name.as_bytes()[0].is_ascii_alphanumeric()
}
