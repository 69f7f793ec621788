//! The benchmark's workloads: which scenarios each one runs, generated
//! from the base seed, and the process-wide runner settings it uses.

use iq_experiments::runner::{set_jobs, set_shards, set_telemetry_capture};
use iq_experiments::tables::{
    table1_scenarios, table2_scenarios, table3_scenarios, table4_scenarios, table5_scenarios,
    table6_scenarios, table7_scenarios, table8_scenarios, table9_scenarios,
};
use iq_experiments::{Scenario, Size};

/// Seeds each paper-table scenario is expanded over, as
/// `iq_experiments::runner::run_averaged` does.
const SEEDS_PER_ROW: u64 = 3;
/// `run_averaged`'s stride between the expanded seeds.
const SEED_STRIDE: u64 = 7919;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 93 serial scenario runs behind Tables 1-9 at full size.
    PaperTables,
    /// The sharded 102,400-flow population.
    MegaFlows,
    /// The Table 3 + Table 6 runs with in-memory telemetry capture, and
    /// the Figure 2/3 jitter series rebuilt from the captured JSONL.
    TelemetryFigures,
}

impl Workload {
    /// Every workload, in report order.
    const ALL: [Workload; 3] = [
        Workload::PaperTables,
        Workload::MegaFlows,
        Workload::TelemetryFigures,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::MegaFlows => "mega_flows",
            Workload::TelemetryFigures => "telemetry_figures",
        }
    }

    /// The named scenario runs, generated from `seed`: every scenario
    /// takes `seed` as its simulation seed (the paper tables use 42).
    pub fn scenarios(self, seed: u64) -> Vec<(String, Scenario)> {
        match self {
            Workload::PaperTables => expand(
                &[
                    (1, table1_scenarios),
                    (2, table2_scenarios),
                    (3, table3_scenarios),
                    (4, table4_scenarios),
                    (5, table5_scenarios),
                    (6, table6_scenarios),
                    (7, table7_scenarios),
                    (8, table8_scenarios),
                    (9, table9_scenarios),
                ],
                seed,
            ),
            Workload::MegaFlows => {
                let mut sc = Scenario::mega(8, 12_800, 8, 1400);
                sc.seed = seed;
                vec![("mega_flows".to_string(), sc)]
            }
            Workload::TelemetryFigures => {
                expand(&[(3, table3_scenarios), (6, table6_scenarios)], seed)
            }
        }
    }

    /// Sets the process-global runner configuration for this workload
    /// and returns the number of worker threads a scenario may use.
    pub fn configure(self) -> usize {
        set_jobs(1);
        set_telemetry_capture(self == Workload::TelemetryFigures);
        let workers = match self {
            Workload::MegaFlows => host_cores().min(2),
            _ => 1,
        };
        set_shards(workers);
        workers
    }

    /// Whether the host probe ([`crate::probe`]) gauges this workload's
    /// speed. It tracks the serial workloads, whose scenarios are short,
    /// single-threaded and sampled after each. `mega_flows` runs one
    /// two-worker, memory-bound scenario of about 9 s per pass, so the
    /// probe could only sample between passes, and scaling by it widened
    /// the spread of `wall_s` over five runs from 0.07 to 0.19.
    pub fn host_probed(self) -> bool {
        self != Workload::MegaFlows
    }

    /// Whether each run is followed by rebuilding its jitter series from
    /// the captured telemetry.
    pub fn rebuilds_figures(self) -> bool {
        self == Workload::TelemetryFigures
    }
}

/// Cores available to this process.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A paper table: its number and its scenario builder.
type Table = (u32, fn(Size) -> Vec<Scenario>);

/// Expands each table's rows over [`SEEDS_PER_ROW`] seeds starting at
/// `seed`, named `t<table>.r<row>.s<k>`.
fn expand(tables: &[Table], seed: u64) -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    for &(id, table) in tables {
        for (row, sc) in table(Size::FULL).into_iter().enumerate() {
            for k in 0..SEEDS_PER_ROW {
                let mut s = sc.clone();
                s.seed = seed.wrapping_add(k * SEED_STRIDE);
                out.push((format!("t{id}.r{row}.s{k}"), s));
            }
        }
    }
    out
}
