//! Experiment scenarios over the paper's dumbbell. A [`Scenario`] takes
//! one of four shapes, picked by [`run_scenario`]:
//!
//! * **RUDP** (the default): one adaptive application flow plus cross
//!   traffic. Every table builds on it.
//! * **TCP** (`scheme == Scheme::Tcp`): the same dumbbell with a TCP Reno
//!   bulk flow as the application flow.
//! * **Incast** (`incast_flows > 0`): a fleet of RUDP flows of four
//!   sender classes sharing one serial dumbbell.
//! * **Mega** (`mega_legs > 0`): the same fleet spread over many dumbbell
//!   legs of one sharded simulation.
//!
//! Each runner builds only its own topology and agents. The serial
//! set-up, the fleet of the two many-flow shapes, the telemetry capture
//! and the serial run loop are shared.

use std::sync::{Arc, Mutex};

use iq_core::{CoordinationLog, CoordinationMode};
use iq_echo::{
    AdaptiveSourceAgent, DeferredResolution, EchoSinkAgent, MarkingAdapter, Policy,
    ResolutionAdapter, SourceConfig,
};
use iq_metrics::{FlowMetrics, TimeSeries};
use iq_netsim::{
    build_dumbbell, time, Addr, Agent, AgentId, Dumbbell, DumbbellSpec, FlowId, LinkSpec, NodeId,
    PoolStats, ShardAgentId, ShardedSim, Simulator,
};
use iq_obs::{Phase, Plane, Registry};
use iq_rudp::{
    BbrParams, BulkSenderAgent, CcAlgorithm, ConnBuilder, CubicParams, RrrParams, RudpConfig,
};
use iq_tcp::{TcpBulkSenderAgent, TcpConfig, TcpSenderConn, TcpSinkAgent};
use iq_telemetry::{to_jsonl, TelemetryBus, TelemetrySink};
use iq_trace::{MembershipConfig, MembershipTrace};
use iq_workload::{CbrSource, VbrSource};

/// Which transport/adaptation scheme the application flow runs — the
/// row label of the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// TCP Reno baseline.
    Tcp,
    /// RUDP with congestion control, no application adaptation, no
    /// coordination (the "IQ-RUDP" transport-only row of Table 1).
    RudpPlain,
    /// RUDP with application adaptation but congestion control disabled
    /// (Table 1 row 3, "App adaptation only").
    AppAdaptOnly,
    /// Application adaptation + transport adaptation, uncoordinated
    /// (the "RUDP" rows of Tables 3-8).
    Uncoordinated,
    /// Application adaptation + transport adaptation, coordinated
    /// ("IQ-RUDP" rows; "w/o ADAPT_COND" in Table 8's terms).
    Coordinated,
    /// Coordinated plus the Eq. (1) obsolete-information correction
    /// ("IQ-RUDP w/ ADAPT_COND").
    CoordinatedWithCond,
}

impl Scheme {
    /// The coordination mode a scheme maps to (RUDP-based schemes only).
    pub fn mode(self) -> CoordinationMode {
        match self {
            Scheme::Coordinated => CoordinationMode::Coordinated,
            Scheme::CoordinatedWithCond => CoordinationMode::CoordinatedWithCond,
            _ => CoordinationMode::Uncoordinated,
        }
    }

    /// Human-readable row label.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Tcp => "TCP",
            Scheme::RudpPlain => "IQ-RUDP",
            Scheme::AppAdaptOnly => "App adaptation only",
            Scheme::Uncoordinated => "RUDP",
            Scheme::Coordinated => "IQ-RUDP",
            Scheme::CoordinatedWithCond => "IQ-RUDP w/ ADAPT_COND",
        }
    }
}

/// The application adaptation policy a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// No application adaptation.
    None,
    /// §3.3 marking (reliability) adaptation.
    Marking,
    /// §3.4 resolution (down-sampling) adaptation.
    Resolution,
    /// Frequency adaptation (send the same frames, less often).
    Frequency,
    /// §3.5 deferred resolution with the given frame granularity.
    Deferred {
        /// Frames between permissible adaptations (paper: 20).
        granularity: u64,
    },
}

impl PolicySpec {
    fn build(self, scheme: Scheme) -> Policy {
        match self {
            PolicySpec::None => Policy::None,
            PolicySpec::Marking => Policy::Marking(MarkingAdapter::default()),
            PolicySpec::Resolution => Policy::Resolution(ResolutionAdapter::default()),
            PolicySpec::Frequency => Policy::Frequency(iq_echo::FrequencyAdapter::default()),
            PolicySpec::Deferred { granularity } => Policy::Deferred(DeferredResolution::new(
                ResolutionAdapter::default(),
                granularity,
                scheme == Scheme::CoordinatedWithCond,
            )),
        }
    }
}

/// VBR cross-traffic specification.
#[derive(Debug, Clone)]
pub struct VbrSpec {
    /// Frames per second (paper: 500).
    pub fps: f64,
    /// Target mean offered rate in bits/second; the MBone trace is
    /// scaled to hit it.
    pub mean_bps: f64,
    /// Trace seed.
    pub seed: u64,
}

impl VbrSpec {
    /// Materializes the per-frame sizes.
    pub fn frame_sizes(&self) -> Vec<u32> {
        let trace = MembershipTrace::generate(&MembershipConfig {
            seed: self.seed,
            len: 4000,
            ..MembershipConfig::default()
        });
        let mean_group = trace.samples.iter().map(|&g| f64::from(g)).sum::<f64>()
            / trace.samples.len() as f64;
        let bytes_per_member = self.mean_bps / (8.0 * self.fps * mean_group);
        trace
            .samples
            .iter()
            .map(|&g| ((f64::from(g) * bytes_per_member) as u32).max(200))
            .collect()
    }
}

/// Cross traffic sharing the bottleneck with the application flow.
#[derive(Debug, Clone, Default)]
pub struct CrossTraffic {
    /// iperf-style CBR UDP rate in bits/second.
    pub cbr_bps: Option<f64>,
    /// VBR UDP (the changing-network workload).
    pub vbr: Option<VbrSpec>,
    /// A competing TCP bulk flow (the fairness test).
    pub tcp_bulk: bool,
}

/// A complete experiment in one of the four shapes of the module docs.
///
/// Which fields each shape honours:
///
/// * **RUDP**: every field except the fleet sizes.
/// * **TCP**: `seed`, `dumbbell`, `frame_sizes` (total volume and mean
///   message size), `red_bottleneck`, `cross` and `deadline_s`.
/// * **Incast**: what RUDP honours except `policy` (always §3.3
///   marking), `fps` and `datagram_mode` (senders are greedy); `scheme`
///   only for the fixed window of [`Scheme::AppAdaptOnly`]. Flows spread
///   over `dumbbell.pairs` host pairs.
/// * **Mega**: like incast, but `cc` drives only the adaptive class (the
///   other three classes run CUBIC, BBR and RRR), each leg takes only the
///   dumbbell's rates, delay and queue, and `cross` and `red_bottleneck`
///   must stay unset.
///
/// [`run_scenario`] rejects a scenario its shape cannot honour.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Simulation seed.
    pub seed: u64,
    /// Topology (defaults to the paper's 20 Mb / 30 ms dumbbell).
    pub dumbbell: DumbbellSpec,
    /// Row scheme.
    pub scheme: Scheme,
    /// Application adaptation policy.
    pub policy: PolicySpec,
    /// Frame schedule for the application flow.
    pub frame_sizes: Vec<u32>,
    /// `Some(fps)` = rate-based application, `None` = greedy.
    pub fps: Option<f64>,
    /// Split frames into individually markable datagrams.
    pub datagram_mode: bool,
    /// Receiver loss tolerance.
    pub loss_tolerance: f64,
    /// Error-ratio callback thresholds (upper, lower).
    pub thresholds: (Option<f64>, Option<f64>),
    /// Congestion-control algorithm for the transport schemes. Ignored
    /// by [`Scheme::AppAdaptOnly`], which always pins the window at
    /// [`Self::fixed_cwnd`], and by [`Scheme::Tcp`].
    pub cc: CcAlgorithm,
    /// Fixed window used when congestion control is disabled
    /// ([`Scheme::AppAdaptOnly`]).
    pub fixed_cwnd: f64,
    /// Override for the transport's measuring period (long-RTT paths
    /// need a period that spans at least one RTT).
    pub measure_period: Option<iq_netsim::TimeDelta>,
    /// Settle time between upper-threshold adaptations, seconds.
    pub min_adapt_gap_s: f64,
    /// Cadence limit for lower-threshold (recovery) adaptations, seconds.
    pub min_lower_gap_s: f64,
    /// Run the bottleneck queue under RED instead of drop-tail
    /// (queue-discipline ablation; the paper's testbed was drop-tail).
    pub red_bottleneck: bool,
    /// Cross traffic.
    pub cross: CrossTraffic,
    /// Simulated-time budget in seconds.
    pub deadline_s: f64,
    /// When non-zero, run a many-flow incast instead of the single-flow
    /// experiment: this many RUDP flows (a deterministic mix of marked,
    /// partially unmarked, coordinated-adaptive and sparse-ACK senders)
    /// share the bottleneck. `frame_sizes.len()` messages of
    /// `frame_sizes[0]` bytes are offered per flow. At most 64 535: each
    /// flow takes its own port on its host.
    ///
    /// A mega run ([`Self::mega_legs`] non-zero) reuses this field as
    /// the flows *per leg*, which must be at least 1; a leg spreads them
    /// over up to 32 host pairs, at most 64 535 per host.
    pub incast_flows: u32,
    /// When non-zero, run the sharded `mega_flows` population instead:
    /// this many independent dumbbell legs, each one left-side and one
    /// right-side shard of a [`ShardedSim`], carrying
    /// [`Self::incast_flows`] flows per leg (reused as flows-per-leg
    /// here). Flows cycle through the incast sender classes *and* the
    /// four congestion controllers. Executed with
    /// [`crate::runner::shards`] OS threads; results are identical for
    /// any thread count.
    pub mega_legs: u32,
}

impl Scenario {
    /// A scenario skeleton with the paper's defaults.
    pub fn new(scheme: Scheme, policy: PolicySpec, frame_sizes: Vec<u32>) -> Self {
        Self {
            seed: 42,
            dumbbell: DumbbellSpec::paper_default(3),
            scheme,
            policy,
            frame_sizes,
            fps: None,
            datagram_mode: false,
            loss_tolerance: 0.0,
            thresholds: (None, None),
            cc: CcAlgorithm::default(),
            fixed_cwnd: 32.0,
            measure_period: None,
            min_adapt_gap_s: 1.0,
            min_lower_gap_s: 0.4,
            red_bottleneck: false,
            cross: CrossTraffic::default(),
            deadline_s: 600.0,
            incast_flows: 0,
            mega_legs: 0,
        }
    }

    /// A many-flow incast: `flows` RUDP senders, each offering
    /// `msgs_per_flow` messages of `msg_size` bytes, converging on one
    /// widened bottleneck (the per-flow fair share stays small so the
    /// congestion machinery is exercised, not idled).
    pub fn incast(flows: u32, msgs_per_flow: usize, msg_size: u32) -> Self {
        let mut sc = Self::new(
            Scheme::Coordinated,
            PolicySpec::Marking,
            vec![msg_size; msgs_per_flow],
        );
        sc.incast_flows = flows;
        sc.dumbbell = DumbbellSpec::paper_default(8);
        sc.dumbbell.bottleneck_bps = 200e6;
        sc.dumbbell.queue_bytes = 1_500_000;
        sc.thresholds = (Some(0.10), Some(0.02));
        sc.loss_tolerance = 0.40;
        sc.deadline_s = 120.0;
        sc
    }

    /// The sharded many-leg population: `legs` independent dumbbell legs
    /// (each leg = one left shard + one right shard of a [`ShardedSim`],
    /// joined by its bottleneck boundary link), `flows_per_leg` RUDP
    /// flows per leg offering `msgs_per_flow` messages of `msg_size`
    /// bytes each. Flows cycle through the incast sender classes and the
    /// four congestion controllers (LDA / CUBIC / BBR / RRR), so the
    /// population is heterogeneous in both reliability handling and
    /// transport dynamics. `mega(8, 12_800, ..)` is the 102 400-flow
    /// `mega_flows` benchmark scenario.
    pub fn mega(legs: u32, flows_per_leg: u32, msgs_per_flow: usize, msg_size: u32) -> Self {
        let mut sc = Self::new(
            Scheme::Coordinated,
            PolicySpec::Marking,
            vec![msg_size; msgs_per_flow],
        );
        sc.mega_legs = legs;
        sc.incast_flows = flows_per_leg;
        // Per-leg bottleneck: wide enough that the population drains,
        // narrow enough that the fleet contends (incast-style).
        sc.dumbbell.bottleneck_bps = 200e6;
        sc.dumbbell.queue_bytes = 4_000_000;
        sc.thresholds = (Some(0.10), Some(0.02));
        sc.loss_tolerance = 0.40;
        sc.deadline_s = 120.0;
        sc
    }
}

/// What a run measured — the superset of every table's columns.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Row label.
    pub label: &'static str,
    /// Application-level transfer duration (first → last arrival), s.
    pub duration_s: f64,
    /// Receiver goodput, KB/s.
    pub throughput_kbps: f64,
    /// Mean message inter-arrival, s.
    pub inter_arrival_s: f64,
    /// Std-dev of message inter-arrival, s.
    pub jitter_s: f64,
    /// Mean inter-arrival of tagged messages, ms.
    pub tagged_delay_ms: f64,
    /// Std-dev of tagged inter-arrival, ms.
    pub tagged_jitter_ms: f64,
    /// Messages the application offered.
    pub msgs_offered: u64,
    /// Messages delivered to the receiving application.
    pub msgs_delivered: u64,
    /// Delivered percentage.
    pub delivered_pct: f64,
    /// Per-message jitter series (Figures 2/3).
    pub jitter_series: TimeSeries,
    /// Whether the transfer finished before the deadline.
    pub finished: bool,
    /// Coordination counters (RUDP schemes).
    pub coordination: Option<CoordinationLog>,
    /// Upper/lower callbacks fired at the application.
    pub callbacks: (u64, u64),
    /// Sender-side transport counters (RUDP schemes).
    pub sender_stats: Option<iq_rudp::SenderStats>,
    /// Simulator events processed during the run (for events/sec
    /// throughput reporting; not a paper metric).
    pub events_processed: u64,
    /// Structured telemetry captured during the run, serialized as
    /// JSONL (one record per line). Empty unless telemetry capture is
    /// enabled via [`crate::runner::set_telemetry_capture`] or
    /// [`crate::runner::set_telemetry_dir`].
    pub telemetry: String,
    /// OS threads used for intra-scenario sharded execution (1 for the
    /// serial scenarios). Informational: never part of the determinism
    /// fingerprint, because results are identical for any value.
    pub shards_used: u32,
    /// The run's metric registry. Sim-plane entries (simulator counters,
    /// delivery-latency histogram, transport counters, telemetry
    /// evictions) are deterministic sim-time facts whose canonical
    /// rendering is folded into the determinism fingerprint; engine-
    /// plane entries (scheduler placement, payload-pool hit rates,
    /// shard-loop stats, phase times) legitimately vary with thread
    /// scheduling and are never fingerprinted.
    pub obs: Registry,
    /// Wall-clock phase breakdown per shard (engine plane; a single
    /// entry for the serial scenarios, index = shard otherwise).
    pub phase_profile: Vec<iq_obs::PhaseSnapshot>,
    /// Shard-scheduler totals (engine plane; all zero for the serial
    /// scenarios, which have no scheduler).
    pub sched: iq_netsim::SchedTotals,
    /// Telemetry records lost to ring-buffer overflow during the run
    /// (0 when capture is off). Nonzero means the captured JSONL is
    /// incomplete; the runner warns on stderr.
    pub telemetry_evicted: u64,
}

/// Attaches the configured cross traffic to a dumbbell. Pair 1 carries
/// CBR, pair 2 carries VBR or the TCP bulk flow.
fn add_cross_traffic(sim: &mut Simulator, db: &Dumbbell, cross: &CrossTraffic, deadline_s: f64) {
    if let Some(bps) = cross.cbr_bps {
        sim.add_agent(
            db.left_hosts[1],
            10,
            Box::new(CbrSource::new(
                Addr::new(db.right_hosts[1], 10),
                FlowId(100),
                bps,
                972,
            )),
        );
        sim.add_agent(db.right_hosts[1], 10, Box::new(iq_workload::UdpSink::new()));
    }
    if let Some(vbr) = &cross.vbr {
        sim.add_agent(
            db.left_hosts[2],
            11,
            Box::new(VbrSource::new(
                Addr::new(db.right_hosts[2], 11),
                FlowId(101),
                vbr.fps,
                vbr.frame_sizes(),
            )),
        );
        sim.add_agent(db.right_hosts[2], 11, Box::new(iq_workload::UdpSink::new()));
    }
    if cross.tcp_bulk {
        // Enough volume to outlast the run.
        let msgs = (deadline_s * 2.5e6 / 1400.0) as u64;
        let cfg = TcpConfig::default();
        sim.add_agent(
            db.left_hosts[2],
            12,
            Box::new(TcpBulkSenderAgent::new(
                TcpSenderConn::new(900, cfg.clone()),
                Addr::new(db.right_hosts[2], 12),
                FlowId(102),
                msgs,
                1400,
            )),
        );
        sim.add_agent(
            db.right_hosts[2],
            12,
            Box::new(TcpSinkAgent::new(900, cfg, FlowId(102))),
        );
    }
}

/// Runs one scenario to completion (or its deadline) and reports.
///
/// # Panics
///
/// Before anything is built, with a message naming the field, when the
/// scenario asks for something its builder cannot honour: a fleet with
/// more flows per host than there are ports, a mega run with no flows
/// per leg or with cross traffic or RED, or a dumbbell with too few host
/// pairs for the cross traffic.
pub fn run_scenario(sc: &Scenario) -> RunResult {
    validate(sc);
    if sc.mega_legs > 0 {
        return run_mega(sc);
    }
    if sc.incast_flows > 0 {
        return run_incast(sc);
    }
    match sc.scheme {
        Scheme::Tcp => run_tcp(sc),
        _ => run_rudp(sc),
    }
}

/// The most flows one host carries: a fleet's flows take ports
/// `1000..=65534`, one each.
const MAX_FLOWS_PER_HOST: u32 = 64_535;

fn validate(sc: &Scenario) {
    let flows = sc.incast_flows;
    if sc.mega_legs > 0 {
        assert!(
            flows > 0,
            "Scenario::incast_flows (flows per leg) must be at least 1 for a mega run"
        );
        let per_host = flows.div_ceil(flows.min(32));
        assert!(
            per_host <= MAX_FLOWS_PER_HOST,
            "Scenario::incast_flows = {flows} puts {per_host} flows on each host of a leg, \
             more than the {MAX_FLOWS_PER_HOST} ports a host has"
        );
        let cross = &sc.cross;
        assert!(
            cross.cbr_bps.is_none() && cross.vbr.is_none() && !cross.tcp_bulk,
            "Scenario::cross: a mega run carries no cross traffic"
        );
        assert!(
            !sc.red_bottleneck,
            "Scenario::red_bottleneck: a mega run's bottlenecks are drop-tail"
        );
        return;
    }
    assert!(
        flows <= MAX_FLOWS_PER_HOST,
        "Scenario::incast_flows = {flows} exceeds {MAX_FLOWS_PER_HOST}, the ports a host has"
    );
    // Pair 0 carries the application flow, pair 1 CBR, pair 2 VBR or the
    // TCP bulk flow (see `add_cross_traffic`).
    let pairs = if sc.cross.vbr.is_some() || sc.cross.tcp_bulk {
        3
    } else if sc.cross.cbr_bps.is_some() {
        2
    } else {
        1
    };
    assert!(
        sc.dumbbell.pairs >= pairs,
        "Scenario::dumbbell.pairs = {} but the cross traffic needs {pairs} host pairs",
        sc.dumbbell.pairs
    );
}

fn rudp_config(sc: &Scenario) -> RudpConfig {
    let mut cfg = RudpConfig {
        loss_tolerance: sc.loss_tolerance,
        upper_threshold: sc.thresholds.0,
        lower_threshold: sc.thresholds.1,
        ..RudpConfig::default()
    };
    if let Some(p) = sc.measure_period {
        cfg.measure_period = p;
    }
    cfg.cc.algorithm = if sc.scheme == Scheme::AppAdaptOnly {
        // "Application adaptation only": no transport adaptation, the
        // window stays pinned (the old `enabled: false` mode).
        CcAlgorithm::Fixed {
            cwnd: sc.fixed_cwnd,
        }
    } else {
        sc.cc.clone()
    };
    cfg
}

/// The telemetry buses one run captures into: none when capture is off
/// (and for TCP runs, which take no sink), one for a serial run, one per
/// shard for a mega run.
#[derive(Default)]
struct Capture(Vec<Arc<Mutex<TelemetryBus>>>);

impl Capture {
    /// A sink on a fresh bus, or the disabled sink when capture is off.
    fn sink(&mut self) -> TelemetrySink {
        if !crate::runner::telemetry_enabled() {
            return TelemetrySink::disabled();
        }
        let (sink, bus) = TelemetrySink::new_bus(crate::runner::telemetry_ring());
        self.0.push(bus);
        sink
    }

    /// The captured JSONL, buses concatenated in creation (= shard-index)
    /// order so the text is independent of the thread count, and the
    /// records the rings evicted. The first bus's text is kept, not
    /// copied: a paper-scale capture is large enough that a second copy
    /// shows in the peak RSS.
    fn drain(&self) -> (String, u64) {
        let mut jsonl = String::new();
        let mut evicted = 0;
        for bus in &self.0 {
            let bus = bus.lock().unwrap_or_else(|e| e.into_inner());
            let text = to_jsonl(&bus.records());
            if jsonl.is_empty() {
                jsonl = text;
            } else {
                jsonl.push_str(&text);
            }
            evicted += bus.total_evicted();
        }
        (jsonl, evicted)
    }
}

/// The serial runs' shared set-up: a seeded simulator carrying the
/// scenario's dumbbell, with RED applied as asked, and its cross traffic.
fn serial_dumbbell(sc: &Scenario) -> (Simulator, Dumbbell) {
    let mut sim = Simulator::new(sc.seed);
    let mut dspec = sc.dumbbell.clone();
    dspec.red_bottleneck = sc.red_bottleneck;
    let db = build_dumbbell(&mut sim, &dspec);
    add_cross_traffic(&mut sim, &db, &sc.cross, sc.deadline_s);
    (sim, db)
}

/// Runs in one-second slices until `done` holds or `deadline_s` elapses
/// (cross traffic would otherwise keep the heap busy forever), charging
/// the whole loop to the execute phase.
fn run_until_quiet(sim: &mut Simulator, deadline_s: f64, done: impl Fn(&Simulator) -> bool) {
    let deadline = time::secs(deadline_s);
    sim.profiler().enter(Phase::Execute);
    while sim.now() < deadline {
        sim.run_for(time::secs(1.0));
        if done(sim) {
            break;
        }
    }
    sim.profiler().finish();
}

/// What the engine measured, as opposed to the flows: the part of a
/// [`RunResult`] that depends on the engine, not on the runner.
struct EngineReport {
    events_processed: u64,
    obs: Registry,
    shards_used: u32,
    phase_profile: Vec<iq_obs::PhaseSnapshot>,
    sched: iq_netsim::SchedTotals,
}

impl EngineReport {
    fn serial(sim: &Simulator) -> Self {
        let mut obs = Registry::new();
        sim.collect_obs(&mut obs, "0");
        Self {
            events_processed: sim.counters().events_processed,
            obs,
            shards_used: 1,
            phase_profile: vec![sim.phase_snapshot()],
            sched: iq_netsim::SchedTotals::default(),
        }
    }
}

fn run_rudp(sc: &Scenario) -> RunResult {
    let pool_before = iq_netsim::pool_stats();
    let mut capture = Capture::default();
    let tsink = capture.sink();
    let (mut sim, db) = serial_dumbbell(sc);
    sim.attach_telemetry(tsink.clone());

    let mut cfg = SourceConfig::new(1, sc.frame_sizes.clone());
    cfg.rudp = rudp_config(sc);
    cfg.mode = sc.scheme.mode();
    cfg.fps = sc.fps;
    cfg.datagram_mode = sc.datagram_mode;
    cfg.min_adapt_gap = time::secs(sc.min_adapt_gap_s);
    cfg.min_lower_gap = time::secs(sc.min_lower_gap_s);
    cfg.seed = sc.seed ^ 0x5eed;
    let sink_cfg = cfg.rudp.clone();
    let policy = sc.policy.build(sc.scheme);
    let src = AdaptiveSourceAgent::new(cfg, policy, Addr::new(db.right_hosts[0], 1), FlowId(1))
        .with_telemetry(tsink.clone());
    let tx = sim.add_agent(db.left_hosts[0], 1, Box::new(src));
    let rx = sim.add_agent(
        db.right_hosts[0],
        1,
        Box::new(EchoSinkAgent::from_driver(
            sink_cfg.builder(1, FlowId(1)).telemetry(tsink).build_receiver(),
        )),
    );
    run_until_quiet(&mut sim, sc.deadline_s, |sim| {
        sim.agent::<EchoSinkAgent>(rx).is_some_and(|s| s.is_finished())
    });

    let (telemetry, telemetry_evicted) = capture.drain();
    let mut engine = EngineReport::serial(&sim);
    let src = sim.agent::<AdaptiveSourceAgent>(tx).expect("source");
    let sink = sim.agent::<EchoSinkAgent>(rx).expect("sink");
    collect_run_obs(
        &mut engine.obs,
        Some(&src.conn().stats()),
        Some(&sink.conn().stats()),
        pool_before,
        telemetry_evicted,
    );
    RunResult {
        coordination: Some(src.coordination_log()),
        callbacks: src.callbacks,
        sender_stats: Some(src.conn().stats()),
        ..flow_result(
            sc.scheme.label(),
            &sink.metrics,
            src.offered_msgs,
            sink.is_finished(),
            engine,
            (telemetry, telemetry_evicted),
        )
    }
}

/// A run's result as measured at `m`, the sink metrics of the flow it
/// reports (the application flow, or flow 0 of a fleet), plus the
/// engine's report and the captured telemetry. A runner sets what it
/// knows beyond that flow (transport counters, fleet totals) over this.
fn flow_result(
    label: &'static str,
    m: &FlowMetrics,
    offered: u64,
    finished: bool,
    engine: EngineReport,
    (telemetry, telemetry_evicted): (String, u64),
) -> RunResult {
    RunResult {
        label,
        duration_s: m.duration_s(),
        throughput_kbps: m.throughput_kbps(),
        inter_arrival_s: m.inter_arrival_s(),
        jitter_s: m.jitter_s(),
        tagged_delay_ms: m.tagged_inter_arrival_s() * 1e3,
        tagged_jitter_ms: m.tagged_jitter_s() * 1e3,
        msgs_offered: offered,
        msgs_delivered: m.messages(),
        delivered_pct: m.delivered_pct(offered),
        jitter_series: m.jitter_series().clone(),
        finished,
        coordination: None,
        callbacks: (0, 0),
        sender_stats: None,
        events_processed: engine.events_processed,
        telemetry,
        shards_used: engine.shards_used,
        phase_profile: engine.phase_profile,
        sched: engine.sched,
        obs: engine.obs,
        telemetry_evicted,
    }
}

/// Agent insertion and post-run lookup, shared by the serial and
/// sharded engines so one [`Fleet`] builds and reads flows on either.
trait AgentHost {
    type Id: Copy;
    fn put(&mut self, node: NodeId, port: u16, agent: Box<dyn Agent>) -> Self::Id;
    fn get<T: Agent>(&self, id: Self::Id) -> Option<&T>;
}

impl AgentHost for Simulator {
    type Id = AgentId;
    fn put(&mut self, node: NodeId, port: u16, agent: Box<dyn Agent>) -> AgentId {
        self.add_agent(node, port, agent)
    }
    fn get<T: Agent>(&self, id: AgentId) -> Option<&T> {
        self.agent(id)
    }
}

impl AgentHost for ShardedSim {
    type Id = ShardAgentId;
    fn put(&mut self, node: NodeId, port: u16, agent: Box<dyn Agent>) -> ShardAgentId {
        self.add_agent(node, port, agent)
    }
    fn get<T: Agent>(&self, id: ShardAgentId) -> Option<&T> {
        self.agent(id)
    }
}

/// The many-flow sender mix of the incast and mega runs.
///
/// Flow `i` takes sender class `i % 4`: `0` fully marked reliable bulk,
/// `1` a coordinated adaptive source running the §3.3 marking policy,
/// `2` bulk with every 4th message unmarked against a loss-tolerant
/// receiver and `discard_unmarked` coordination, `3` fully marked bulk
/// with 4:1 ACK decimation. Each class shares one `RudpConfig`
/// allocation across all its flows (see
/// [`iq_rudp::ConnBuilder::for_conn`]).
struct Fleet<'a, Id> {
    sc: &'a Scenario,
    /// The scenario's transport config; the adaptive sources use it.
    base: RudpConfig,
    classes: [ConnBuilder; 4],
    bulk_txs: Vec<Id>,
    adaptive_txs: Vec<Id>,
    rxs: Vec<Id>,
}

impl<'a, Id: Copy> Fleet<'a, Id> {
    /// Builds the class configs; each `(class, cc)` in `cc` replaces that
    /// class's congestion controller.
    fn new(sc: &'a Scenario, cc: &[(usize, CcAlgorithm)]) -> Self {
        let base = rudp_config(sc);
        let mut configs = [
            RudpConfig {
                loss_tolerance: 0.0,
                ..base.clone()
            },
            base.clone(),
            RudpConfig {
                discard_unmarked: true,
                ..base.clone()
            },
            RudpConfig {
                loss_tolerance: 0.0,
                ack_every: 4,
                ..base.clone()
            },
        ];
        for (class, algorithm) in cc {
            configs[*class].cc.algorithm = algorithm.clone();
        }
        Self {
            sc,
            base,
            classes: configs.map(|cfg| cfg.builder(0, FlowId(0))),
            bulk_txs: Vec::new(),
            adaptive_txs: Vec::new(),
            rxs: Vec::new(),
        }
    }

    /// Adds flow `i` (its index across the whole fleet) from `src` to
    /// `dst` on `port`: its sender, then its sink.
    fn add_flow<H: AgentHost<Id = Id>>(
        &mut self,
        sim: &mut H,
        i: u32,
        src: NodeId,
        dst: NodeId,
        port: u16,
    ) {
        let sc = self.sc;
        let (conn_id, flow, peer) = (1000 + i, FlowId(1000 + i), Addr::new(dst, port));
        let class = &self.classes[i as usize % 4];
        if i % 4 == 1 {
            let mut cfg = SourceConfig::new(conn_id, sc.frame_sizes.clone());
            cfg.rudp = self.base.clone();
            cfg.mode = CoordinationMode::Coordinated;
            cfg.min_adapt_gap = time::secs(sc.min_adapt_gap_s);
            cfg.min_lower_gap = time::secs(sc.min_lower_gap_s);
            cfg.seed = sc.seed ^ u64::from(i) ^ 0x5eed;
            let policy = Policy::Marking(MarkingAdapter::default());
            let agent = AdaptiveSourceAgent::new(cfg, policy, peer, flow);
            self.adaptive_txs.push(sim.put(src, port, Box::new(agent)));
        } else {
            let msg_size = sc.frame_sizes.first().copied().unwrap_or(1400);
            let driver = class.for_conn(conn_id, flow).build_sender(peer);
            let agent = BulkSenderAgent::from_driver(driver, sc.frame_sizes.len() as u64, msg_size)
                .unmark_every(if i % 4 == 2 { 4 } else { 0 });
            self.bulk_txs.push(sim.put(src, port, Box::new(agent)));
        }
        let sink = EchoSinkAgent::from_driver(class.for_conn(conn_id, flow).build_receiver());
        self.rxs.push(sim.put(dst, port, Box::new(sink)));
    }

    /// Aggregates the fleet into one result: sums for volume metrics, the
    /// max for duration, flow 0's series for jitter shape.
    fn report<H: AgentHost<Id = Id>>(
        &self,
        sim: &H,
        label: &'static str,
        mut engine: EngineReport,
        (telemetry, telemetry_evicted): (String, u64),
        pool_before: PoolStats,
    ) -> RunResult {
        let mut offered = 0u64;
        let mut callbacks = (0u64, 0u64);
        let mut stats = iq_rudp::SenderStats::default();
        let mut coordination: Option<CoordinationLog> = None;
        for &tx in &self.bulk_txs {
            let a = sim.get::<BulkSenderAgent>(tx).expect("bulk sender");
            offered += a.offered_msgs();
            sum_sender_stats(&mut stats, &a.conn().stats());
        }
        for &tx in &self.adaptive_txs {
            let a = sim.get::<AdaptiveSourceAgent>(tx).expect("adaptive source");
            offered += a.offered_msgs;
            callbacks.0 += a.callbacks.0;
            callbacks.1 += a.callbacks.1;
            sum_sender_stats(&mut stats, &a.conn().stats());
            let log = a.coordination_log();
            match &mut coordination {
                None => coordination = Some(log),
                Some(agg) => {
                    agg.window_rescales += log.window_rescales;
                    agg.cond_corrections += log.cond_corrections;
                    agg.reliability_reports += log.reliability_reports;
                    agg.deferred_announcements += log.deferred_announcements;
                    agg.frequency_reports += log.frequency_reports;
                    agg.cumulative_factor *= log.cumulative_factor;
                }
            }
        }
        let mut delivered = 0u64;
        let mut throughput = 0.0f64;
        let mut duration = 0.0f64;
        let mut finished = true;
        let mut rstats = iq_rudp::ReceiverStats::default();
        for &rx in &self.rxs {
            let s = sim.get::<EchoSinkAgent>(rx).expect("sink");
            delivered += s.metrics.messages();
            throughput += s.metrics.throughput_kbps();
            duration = duration.max(s.metrics.duration_s());
            finished &= s.is_finished();
            sum_receiver_stats(&mut rstats, &s.conn().stats());
        }
        collect_run_obs(
            &mut engine.obs,
            Some(&stats),
            Some(&rstats),
            pool_before,
            telemetry_evicted,
        );
        let first = &sim.get::<EchoSinkAgent>(self.rxs[0]).expect("sink 0").metrics;
        RunResult {
            duration_s: duration,
            throughput_kbps: throughput,
            msgs_delivered: delivered,
            delivered_pct: if offered > 0 {
                100.0 * delivered as f64 / offered as f64
            } else {
                0.0
            },
            coordination,
            callbacks,
            sender_stats: Some(stats),
            ..flow_result(label, first, offered, finished, engine, (telemetry, telemetry_evicted))
        }
    }
}

/// Runs the many-flow incast selected by [`Scenario::incast_flows`]: a
/// [`Fleet`] on the serial dumbbell, flows spread round-robin over its
/// host pairs.
fn run_incast(sc: &Scenario) -> RunResult {
    let pool_before = iq_netsim::pool_stats();
    let mut capture = Capture::default();
    let tsink = capture.sink();
    let (mut sim, db) = serial_dumbbell(sc);
    sim.attach_telemetry(tsink);

    let mut fleet = Fleet::new(sc, &[]);
    let pairs = db.left_hosts.len();
    for i in 0..sc.incast_flows {
        let pair = i as usize % pairs;
        let port = 1000 + i as u16;
        fleet.add_flow(&mut sim, i, db.left_hosts[pair], db.right_hosts[pair], port);
    }
    run_until_quiet(&mut sim, sc.deadline_s, |sim| {
        fleet.rxs.iter().all(|&rx| {
            sim.agent::<EchoSinkAgent>(rx).is_some_and(|s| s.is_finished())
        })
    });

    let telemetry = capture.drain();
    let engine = EngineReport::serial(&sim);
    fleet.report(&sim, "many-flow incast", engine, telemetry, pool_before)
}

/// Runs the sharded `mega_flows` population selected by
/// [`Scenario::mega_legs`].
///
/// Topology: `mega_legs` independent dumbbell legs, each split into a
/// left and a right shard of one [`ShardedSim`] joined by its duplex
/// bottleneck (the shard boundary; the bottleneck's propagation delay is
/// the conservative lookahead). Each leg spreads
/// [`Scenario::incast_flows`] flows round-robin over up to 32 host
/// pairs. Flows cycle by *global* index through the [`Fleet`]'s four
/// sender classes, each pinned to a different congestion controller —
/// marked bulk on CUBIC, the adaptive §3.3 marking source on LDA,
/// unmarked-discard bulk on BBR, sparse-ACK bulk on RRR — so every
/// bottleneck carries a heterogeneous mix. Executes with
/// [`crate::runner::shards`] OS threads over the fixed
/// 2×`mega_legs`-shard partition; every output is byte-identical for any
/// thread count.
fn run_mega(sc: &Scenario) -> RunResult {
    let pool_before = iq_netsim::pool_stats();
    let threads = crate::runner::shards();
    let mut sim = ShardedSim::new(sc.seed);
    let legs: Vec<(usize, usize)> = (0..sc.mega_legs)
        .map(|_| (sim.add_shard(), sim.add_shard()))
        .collect();
    sim.set_threads(threads);
    let mut capture = Capture::default();
    for shard in 0..sim.num_shards() {
        sim.attach_telemetry(shard, capture.sink());
    }

    // Same shape as `build_dumbbell`: 10 µs access hops, so the
    // bottleneck's propagation delay (= the shard lookahead) makes up
    // the rest of the one-way delay.
    const ACCESS_DELAY: u64 = 10_000;
    let dspec = &sc.dumbbell;
    let bottleneck = LinkSpec::new(
        dspec.bottleneck_bps,
        dspec.one_way_delay.saturating_sub(2 * ACCESS_DELAY),
        dspec.queue_bytes,
    );
    let access = LinkSpec::new(dspec.access_bps, ACCESS_DELAY, 16_000_000);

    let flows_per_leg = sc.incast_flows;
    let pairs_per_leg = (flows_per_leg as usize).clamp(1, 32);
    let mut fleet = Fleet::new(
        sc,
        &[
            (0, CcAlgorithm::Cubic(CubicParams::default())),
            (2, CcAlgorithm::BbrLike(BbrParams::default())),
            (3, CcAlgorithm::Rrr(RrrParams::default())),
        ],
    );
    let mut global = 0u32;
    for &(left, right) in &legs {
        let lr = sim.add_node(left);
        let rr = sim.add_node(right);
        sim.add_duplex_link(lr, rr, bottleneck.clone());
        let mut left_hosts = Vec::with_capacity(pairs_per_leg);
        let mut right_hosts = Vec::with_capacity(pairs_per_leg);
        for _ in 0..pairs_per_leg {
            let sh = sim.add_node(left);
            let rh = sim.add_node(right);
            sim.add_duplex_link(sh, lr, access.clone());
            sim.add_duplex_link(rh, rr, access.clone());
            left_hosts.push(sh);
            right_hosts.push(rh);
        }
        for i in 0..flows_per_leg {
            let pair = i as usize % pairs_per_leg;
            let port = 1000 + (i as usize / pairs_per_leg) as u16;
            fleet.add_flow(&mut sim, global, left_hosts[pair], right_hosts[pair], port);
            global += 1;
        }
    }

    // Run in one-second epochs on one persistent worker pool until
    // every flow finished or the deadline elapses.
    let deadline = time::secs(sc.deadline_s);
    sim.run_slices(deadline, time::secs(1.0), |view| {
        fleet.rxs.iter().all(|&rx| {
            view.with_agent::<EchoSinkAgent, _>(rx, |s| s.is_finished())
                .unwrap_or(false)
        })
    });

    let telemetry = capture.drain();
    let mut obs = Registry::new();
    sim.collect_obs(&mut obs);
    let engine = EngineReport {
        events_processed: sim.counters().events_processed,
        obs,
        shards_used: threads as u32,
        phase_profile: sim.phase_snapshots(),
        sched: sim.sched_totals(),
    };
    fleet.report(&sim, "mega flows", engine, telemetry, pool_before)
}

fn sum_receiver_stats(acc: &mut iq_rudp::ReceiverStats, s: &iq_rudp::ReceiverStats) {
    acc.segments_received += s.segments_received;
    acc.duplicates += s.duplicates;
    acc.segments_skipped += s.segments_skipped;
    acc.msgs_delivered += s.msgs_delivered;
    acc.msgs_dropped_partial += s.msgs_dropped_partial;
    acc.sack_truncations += s.sack_truncations;
}

/// Reports run-level metrics into `reg`: aggregated RUDP endpoint
/// counters and telemetry evictions on the sim plane (deterministic,
/// fingerprinted), payload-pool deltas since `pool_before` on the engine
/// plane (the pool is thread-local, so the delta depends on which worker
/// executed what). Sorts the registry into canonical order.
fn collect_run_obs(
    reg: &mut Registry,
    tx: Option<&iq_rudp::SenderStats>,
    rx: Option<&iq_rudp::ReceiverStats>,
    pool_before: PoolStats,
    telemetry_evicted: u64,
) {
    let pool = iq_netsim::pool_stats().since(pool_before);
    if let Some(s) = tx {
        reg.counter(Plane::Sim, "iq_rudp_msgs_submitted_total", &[], s.msgs_submitted);
        reg.counter(Plane::Sim, "iq_rudp_msgs_discarded_total", &[], s.msgs_discarded);
        reg.counter(Plane::Sim, "iq_rudp_segments_sent_total", &[], s.segments_sent);
        reg.counter(Plane::Sim, "iq_rudp_retransmits_total", &[], s.retransmits);
        reg.counter(
            Plane::Sim,
            "iq_rudp_segments_abandoned_total",
            &[],
            s.segments_abandoned,
        );
        reg.counter(Plane::Sim, "iq_rudp_segments_acked_total", &[], s.segments_acked);
        reg.counter(Plane::Sim, "iq_rudp_rto_total", &[], s.timeouts);
        reg.counter(Plane::Sim, "iq_rudp_bytes_acked_total", &[], s.bytes_acked);
    }
    if let Some(s) = rx {
        reg.counter(
            Plane::Sim,
            "iq_rudp_segments_received_total",
            &[],
            s.segments_received,
        );
        reg.counter(Plane::Sim, "iq_rudp_duplicates_total", &[], s.duplicates);
        reg.counter(Plane::Sim, "iq_rudp_segments_skipped_total", &[], s.segments_skipped);
        reg.counter(Plane::Sim, "iq_rudp_msgs_delivered_total", &[], s.msgs_delivered);
        reg.counter(
            Plane::Sim,
            "iq_rudp_msgs_dropped_partial_total",
            &[],
            s.msgs_dropped_partial,
        );
        reg.counter(
            Plane::Sim,
            "iq_rudp_sack_truncations_total",
            &[],
            s.sack_truncations,
        );
    }
    reg.counter(Plane::Sim, "iq_telemetry_evicted_total", &[], telemetry_evicted);
    reg.counter(Plane::Engine, "iq_pool_hits_total", &[], pool.hits);
    reg.counter(Plane::Engine, "iq_pool_misses_total", &[], pool.misses);
    reg.counter(Plane::Engine, "iq_pool_returns_total", &[], pool.returns);
    reg.counter(Plane::Engine, "iq_pool_drops_total", &[], pool.drops);
    reg.sort();
}

fn sum_sender_stats(acc: &mut iq_rudp::SenderStats, s: &iq_rudp::SenderStats) {
    acc.msgs_submitted += s.msgs_submitted;
    acc.msgs_discarded += s.msgs_discarded;
    acc.segments_sent += s.segments_sent;
    acc.retransmits += s.retransmits;
    acc.segments_abandoned += s.segments_abandoned;
    acc.segments_acked += s.segments_acked;
    acc.timeouts += s.timeouts;
    acc.bytes_acked += s.bytes_acked;
}

fn run_tcp(sc: &Scenario) -> RunResult {
    let pool_before = iq_netsim::pool_stats();
    let (mut sim, db) = serial_dumbbell(sc);

    // The TCP baseline sends the same frame schedule greedily (TCP has
    // no application adaptation path).
    let cfg = TcpConfig::default();
    let frames = &sc.frame_sizes;
    let total: u64 = frames.iter().map(|&s| u64::from(s)).sum();
    let msg_size = (total / frames.len().max(1) as u64).clamp(200, 64_000) as u32;
    let msgs = total / u64::from(msg_size);
    sim.add_agent(
        db.left_hosts[0],
        1,
        Box::new(TcpBulkSenderAgent::new(
            TcpSenderConn::new(1, cfg.clone()),
            Addr::new(db.right_hosts[0], 1),
            FlowId(1),
            msgs,
            msg_size,
        )),
    );
    let rx = sim.add_agent(
        db.right_hosts[0],
        1,
        Box::new(TcpSinkAgent::new(1, cfg, FlowId(1))),
    );
    run_until_quiet(&mut sim, sc.deadline_s, |sim| {
        sim.agent::<TcpSinkAgent>(rx).is_some_and(|s| s.is_finished())
    });

    let mut engine = EngineReport::serial(&sim);
    collect_run_obs(&mut engine.obs, None, None, pool_before, 0);
    let sink = sim.agent::<TcpSinkAgent>(rx).expect("sink");
    RunResult {
        tagged_delay_ms: 0.0,
        tagged_jitter_ms: 0.0,
        ..flow_result(
            Scheme::Tcp.label(),
            &sink.metrics,
            msgs,
            sink.is_finished(),
            engine,
            (String::new(), 0),
        )
    }
}

/// The paper's default application trace: MBone group dynamics at
/// 3000 bytes/member (§3.1).
pub fn app_frame_sizes(len: usize, seed: u64) -> Vec<u32> {
    let trace = MembershipTrace::generate(&MembershipConfig {
        seed,
        len,
        base: 3.0,
        burst_scale: 3.0,
        min: 1,
        max: 10,
        ..MembershipConfig::default()
    });
    trace.frame_sizes(3000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scenario(scheme: Scheme) -> Scenario {
        let mut sc = Scenario::new(scheme, PolicySpec::None, vec![1400; 150]);
        sc.cross.cbr_bps = Some(10e6);
        sc.deadline_s = 120.0;
        sc
    }

    #[test]
    fn rudp_scenario_completes_and_reports() {
        let r = run_scenario(&small_scenario(Scheme::RudpPlain));
        assert!(r.finished, "did not finish: {r:?}");
        assert_eq!(r.msgs_delivered, 150);
        assert!(r.throughput_kbps > 0.0);
        assert!(r.duration_s > 0.0);
    }

    #[test]
    fn tcp_scenario_completes_and_reports() {
        let r = run_scenario(&small_scenario(Scheme::Tcp));
        assert!(r.finished, "did not finish: {r:?}");
        assert!(r.msgs_delivered > 0);
        assert!(r.throughput_kbps > 0.0);
    }

    #[test]
    fn cc_disabled_scheme_uses_fixed_window() {
        let mut sc = small_scenario(Scheme::AppAdaptOnly);
        sc.fixed_cwnd = 8.0;
        let r = run_scenario(&sc);
        assert!(r.finished);
        assert_eq!(r.msgs_delivered, 150);
    }

    #[test]
    fn identical_seeds_reproduce_results() {
        let sc = small_scenario(Scheme::RudpPlain);
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.duration_s, b.duration_s);
        assert_eq!(a.msgs_delivered, b.msgs_delivered);
        assert_eq!(a.jitter_s, b.jitter_s);
    }

    #[test]
    fn vbr_spec_hits_target_rate() {
        let v = VbrSpec {
            fps: 500.0,
            mean_bps: 8e6,
            seed: 3,
        };
        let sizes = v.frame_sizes();
        let mean = sizes.iter().map(|&s| f64::from(s)).sum::<f64>() / sizes.len() as f64;
        let rate = mean * 8.0 * 500.0;
        assert!((rate - 8e6).abs() / 8e6 < 0.15, "rate = {rate}");
    }

    #[test]
    fn incast_runs_a_mixed_fleet_to_completion() {
        let mut sc = Scenario::incast(24, 40, 1400);
        sc.deadline_s = 60.0;
        let r = run_scenario(&sc);
        assert!(r.finished, "incast did not finish: {r:?}");
        assert_eq!(r.msgs_offered, 24 * 40);
        // Unmarked-discard flows lose some messages by design; most of
        // the fleet is reliable.
        assert!(r.msgs_delivered > 24 * 40 * 8 / 10, "{}", r.msgs_delivered);
        assert!(r.throughput_kbps > 0.0);
        let stats = r.sender_stats.expect("aggregated sender stats");
        assert!(stats.segments_acked > 0);
        assert!(r.coordination.is_some(), "adaptive flows report coordination");
    }

    #[test]
    fn incast_is_deterministic_across_runs() {
        let sc = Scenario::incast(12, 30, 1400);
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.duration_s, b.duration_s);
        assert_eq!(a.msgs_delivered, b.msgs_delivered);
        assert_eq!(a.jitter_s, b.jitter_s);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn mega_runs_a_sharded_fleet_to_completion() {
        let mut sc = Scenario::mega(2, 24, 3, 1400);
        sc.deadline_s = 60.0;
        let r = run_scenario(&sc);
        assert!(r.finished, "mega did not finish: {r:?}");
        assert_eq!(r.msgs_offered, 2 * 24 * 3);
        // Unmarked-discard flows lose some messages by design; most of
        // the fleet is reliable.
        assert!(r.msgs_delivered > 2 * 24 * 3 * 8 / 10, "{}", r.msgs_delivered);
        assert!(r.throughput_kbps > 0.0);
        let stats = r.sender_stats.expect("aggregated sender stats");
        assert!(stats.segments_acked > 0);
        assert!(r.coordination.is_some(), "adaptive flows report coordination");
        assert_eq!(r.shards_used, 1, "default shard thread count");
    }

    #[test]
    fn mega_is_identical_for_any_shard_thread_count() {
        // Serializes against sibling tests: both the telemetry-capture
        // switch and the shard thread count are process-globals.
        let _g = crate::runner::capture_lock_for_tests();
        crate::runner::set_telemetry_capture(true);
        let mut sc = Scenario::mega(3, 17, 3, 1400);
        sc.deadline_s = 60.0;
        let runs: Vec<RunResult> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                crate::runner::set_shards(threads);
                run_scenario(&sc)
            })
            .collect();
        crate::runner::set_shards(1);
        crate::runner::set_telemetry_capture(false);
        let a = &runs[0];
        assert!(!a.telemetry.is_empty(), "capture was on");
        for b in &runs[1..] {
            assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
            assert_eq!(a.jitter_s.to_bits(), b.jitter_s.to_bits());
            assert_eq!(a.msgs_delivered, b.msgs_delivered);
            assert_eq!(a.events_processed, b.events_processed);
            assert_eq!(a.telemetry, b.telemetry, "telemetry JSONL diverged");
        }
        assert_eq!(runs[1].shards_used, 2);
        assert_eq!(runs[2].shards_used, 4);
    }

    #[test]
    fn runs_report_observability_registries() {
        let r = run_scenario(&small_scenario(Scheme::RudpPlain));
        assert!(!r.obs.is_empty());
        assert_eq!(r.obs.counter_total("iq_sim_events_total"), r.events_processed);
        assert!(r.obs.counter_total("iq_rudp_segments_sent_total") > 0);
        assert!(r.obs.counter_total("iq_rudp_msgs_delivered_total") > 0);
        let mut sorted = r.obs.clone();
        sorted.sort();
        let text = iq_obs::expo::render_prom(&sorted, None);
        let samples = iq_obs::expo::validate_prom(&text).expect("exposition parses");
        assert!(samples > 20, "expected a rich exposition, got {samples} samples");
        assert!(text.contains("iq_sim_delivery_latency_ns{shard=\"0\",quantile=\"0.99\"}"));
        // The serial wrapper charges the whole run to the execute phase.
        assert_eq!(r.phase_profile.len(), 1);
        assert!(r.phase_profile[0].total_nanos() > 0);
        assert!(r.phase_profile[0].percent(Phase::Execute) > 99.0);

        // TCP runs carry simulator metrics but no transport counters.
        let t = run_scenario(&small_scenario(Scheme::Tcp));
        assert!(t.obs.counter_total("iq_sim_events_total") > 0);
        assert_eq!(t.obs.counter_total("iq_rudp_segments_sent_total"), 0);
    }

    /// One small run per runner branch, each with telemetry capture off
    /// and on, pinned to recorded `result_fingerprint` values: a change to
    /// the shared set-up, run loop, capture or aggregation must leave every
    /// one unchanged. This is the only result gate on the incast branch.
    #[test]
    fn every_runner_branch_keeps_its_pinned_fingerprint() {
        let _g = crate::runner::capture_lock_for_tests();
        let mut rudp = small_scenario(Scheme::Coordinated);
        rudp.policy = PolicySpec::Marking;
        rudp.cross.vbr = Some(VbrSpec {
            fps: 500.0,
            mean_bps: 4e6,
            seed: 3,
        });
        let mut tcp = small_scenario(Scheme::Tcp);
        tcp.red_bottleneck = true;
        tcp.cross.tcp_bulk = true;
        let mut incast = Scenario::incast(24, 40, 1400);
        incast.cross.cbr_bps = Some(20e6);
        let mut incast_bbr = Scenario::incast(12, 30, 1400);
        incast_bbr.cc = CcAlgorithm::BbrLike(BbrParams::default());
        let mega = Scenario::mega(2, 24, 3, 1400);
        // (name, scenario, shard threads, fingerprint with capture off, on)
        let probes: [(&str, &Scenario, usize, u64, u64); 6] = [
            ("rudp+cbr+vbr", &rudp, 1, 0x0f3c_c39c_487c_a2ca, 0x5f91_8d2e_06c3_940a),
            ("tcp+red+bulk", &tcp, 1, 0x4e56_8eff_4208_1831, 0x4e56_8eff_4208_1831),
            ("incast+cbr", &incast, 1, 0x0e8d_d0af_e62e_6a24, 0x2ff7_fb8b_a3a2_079f),
            ("incast bbr", &incast_bbr, 1, 0x89cf_e08f_b838_7438, 0x76c6_fb24_fe35_1158),
            ("mega", &mega, 1, 0xd7cd_07bb_298c_2b0c, 0xb11b_a8f3_528c_ece4),
            ("mega", &mega, 2, 0xd7cd_07bb_298c_2b0c, 0xb11b_a8f3_528c_ece4),
        ];
        let mut got = Vec::new();
        for &(name, sc, threads, off, on) in &probes {
            crate::runner::set_shards(threads);
            for (capture, want) in [(false, off), (true, on)] {
                crate::runner::set_telemetry_capture(capture);
                let fp = crate::runner::result_fingerprint(&run_scenario(sc));
                got.push((name, threads, capture, fp, want));
            }
        }
        // Restore the globals before asserting, so a failure here leaves
        // sibling tests unaffected.
        crate::runner::set_shards(1);
        crate::runner::set_telemetry_capture(false);
        for &(name, threads, capture, fp, want) in &got {
            assert_eq!(
                fp, want,
                "{name} at {threads} shard(s), capture {capture}: got {fp:#018x}"
            );
        }
    }

    // Each rejection below fires before any node or agent is built.

    #[test]
    #[should_panic(expected = "Scenario::incast_flows (flows per leg) must be at least 1")]
    fn mega_without_flows_is_rejected() {
        run_scenario(&Scenario::mega(1, 0, 3, 1400));
    }

    #[test]
    #[should_panic(expected = "Scenario::incast_flows = 64537 exceeds 64535")]
    fn incast_beyond_the_port_space_is_rejected() {
        run_scenario(&Scenario::incast(64_537, 1, 1400));
    }

    #[test]
    #[should_panic(expected = "puts 64536 flows on each host of a leg")]
    fn mega_beyond_the_port_space_is_rejected() {
        run_scenario(&Scenario::mega(1, 32 * 64_535 + 1, 1, 1400));
    }

    #[test]
    #[should_panic(expected = "Scenario::cross: a mega run carries no cross traffic")]
    fn mega_with_cross_traffic_is_rejected() {
        let mut sc = Scenario::mega(1, 4, 1, 1400);
        sc.cross.cbr_bps = Some(150e6);
        run_scenario(&sc);
    }

    #[test]
    #[should_panic(expected = "Scenario::red_bottleneck: a mega run's bottlenecks are drop-tail")]
    fn mega_with_red_is_rejected() {
        let mut sc = Scenario::mega(1, 4, 1, 1400);
        sc.red_bottleneck = true;
        run_scenario(&sc);
    }

    #[test]
    #[should_panic(expected = "Scenario::dumbbell.pairs = 2 but the cross traffic needs 3")]
    fn too_few_host_pairs_for_the_cross_traffic_is_rejected() {
        let mut sc = small_scenario(Scheme::Tcp);
        sc.cross.tcp_bulk = true;
        sc.dumbbell.pairs = 2;
        run_scenario(&sc);
    }

    #[test]
    fn app_frame_sizes_are_multiples_of_3000() {
        let sizes = app_frame_sizes(100, 1);
        assert_eq!(sizes.len(), 100);
        assert!(sizes.iter().all(|&s| s % 3000 == 0 && s >= 3000));
    }
}
