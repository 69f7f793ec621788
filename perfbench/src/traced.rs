//! The traced run: benchmark-side copies of the scenario builders that
//! wrap every agent in a timing shim.
//!
//! `iq_experiments::run_scenario` builds its agents privately, so the
//! agent boundary (netsim calling `Agent::on_start` / `on_packet` /
//! `on_timer`) can only be observed from outside by building the same
//! world here, over the same public constructors, with each agent boxed
//! inside [`Traced`]. The copies must stay in step with
//! `crates/experiments/src/scenario.rs`: every traced scenario's result
//! fingerprint is compared with the untraced run's, and a mismatch voids
//! the traced numbers.

use std::time::Instant;

use iq_core::{CoordinationLog, CoordinationMode};
use iq_echo::{
    AdaptiveSourceAgent, DeferredResolution, EchoSinkAgent, MarkingAdapter, Policy,
    ResolutionAdapter, SourceConfig,
};
use iq_experiments::runner::{shards, telemetry_enabled, telemetry_ring};
use iq_experiments::{CrossTraffic, PolicySpec, RunResult, Scenario, Scheme};
use iq_netsim::{
    build_dumbbell, time, Addr, Agent, AgentId, Ctx, Dumbbell, FlowId, LinkSpec, Packet,
    ShardAgentId, ShardedSim, Simulator,
};
use iq_obs::{Phase, Plane, Registry};
use iq_rudp::{BbrParams, BulkSenderAgent, CcAlgorithm, CubicParams, RrrParams, RudpConfig};
use iq_tcp::{TcpBulkSenderAgent, TcpConfig, TcpSenderConn, TcpSinkAgent};
use iq_telemetry::{to_jsonl, TelemetrySink};
use iq_workload::{CbrSource, UdpSink, VbrSource};

use crate::alloc;

/// The agent types the scenarios build, one timing bucket each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `iq_rudp::BulkSenderAgent` (mega_flows bulk classes).
    BulkSender,
    /// `iq_echo::AdaptiveSourceAgent` (the adaptive application flow).
    AdaptiveSource,
    /// `iq_echo::EchoSinkAgent` (RUDP receiver + application sink).
    EchoSink,
    /// `iq_tcp::TcpBulkSenderAgent`.
    TcpSender,
    /// `iq_tcp::TcpSinkAgent`.
    TcpSink,
    /// `iq_workload::CbrSource` cross traffic.
    CbrSource,
    /// `iq_workload::VbrSource` cross traffic.
    VbrSource,
    /// `iq_workload::UdpSink` cross-traffic sink.
    UdpSink,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 8] = [
        Kind::BulkSender,
        Kind::AdaptiveSource,
        Kind::EchoSink,
        Kind::TcpSender,
        Kind::TcpSink,
        Kind::CbrSource,
        Kind::VbrSource,
        Kind::UdpSink,
    ];

    /// Metric-name segment.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BulkSender => "bulk_sender",
            Kind::AdaptiveSource => "adaptive_source",
            Kind::EchoSink => "echo_sink",
            Kind::TcpSender => "tcp_sender",
            Kind::TcpSink => "tcp_sink",
            Kind::CbrSource => "cbr_source",
            Kind::VbrSource => "vbr_source",
            Kind::UdpSink => "udp_sink",
        }
    }

    /// Whether the kind originates a flow (used for bytes per flow).
    fn is_source(self) -> bool {
        matches!(
            self,
            Kind::BulkSender
                | Kind::AdaptiveSource
                | Kind::TcpSender
                | Kind::CbrSource
                | Kind::VbrSource
        )
    }
}

/// Counters of the callbacks one agent (or one kind of agent) served.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    /// Callbacks.
    pub calls: u64,
    /// Wall nanoseconds inside them (self time).
    pub nanos: u64,
    /// Payload-pool gets served from the free list during them.
    pub pool_hits: u64,
    /// Payload-pool gets that fell through to the allocator.
    pub pool_misses: u64,
}

/// A transparent agent wrapper: forwards every callback to `inner` and
/// counts it in [`CallStats`], with the thread's allocations charged to
/// [`alloc::AGENTS`] while the callback runs. Agents never call each
/// other synchronously, so each call's time is the agent's self time.
/// The payload pool is thread-local and shard workers are threads of
/// their own, so pool counters are read around each call on the thread
/// that makes it.
pub struct Traced<A> {
    /// The wrapped agent.
    pub inner: A,
    /// What the wrapper counted.
    pub stats: CallStats,
}

impl CallStats {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.nanos += other.nanos;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }
}

impl<A: Agent> Traced<A> {
    fn new(inner: A) -> Self {
        Self {
            inner,
            stats: CallStats::default(),
        }
    }

    #[inline]
    fn timed(&mut self, f: impl FnOnce(&mut A)) {
        let _group = alloc::enter(alloc::AGENTS);
        let pool = iq_netsim::pool_stats();
        let t = Instant::now();
        f(&mut self.inner);
        self.stats.nanos += t.elapsed().as_nanos() as u64;
        let after = iq_netsim::pool_stats();
        self.stats.calls += 1;
        self.stats.pool_hits += after.hits - pool.hits;
        self.stats.pool_misses += after.misses - pool.misses;
    }
}

impl<A: Agent> Agent for Traced<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(|a| a.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.timed(|a| a.on_packet(ctx, pkt));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.timed(|a| a.on_timer(ctx, token));
    }
}

/// What the traced copy of one scenario measured besides its result.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Worker threads that executed the simulation (1 when serial).
    pub workers: usize,
    /// Wall nanoseconds of the simulation loop (`run_until_quiet` or
    /// `run_slices`), the interval the phase profiles cover.
    pub run_nanos: u64,
    /// Per-kind totals, indexed like [`Kind::ALL`].
    pub kinds: [CallStats; 8],
    /// Live heap bytes added by building the topology, agents and
    /// connections (tagged processes only; 0 otherwise).
    pub setup_bytes: i64,
    /// Flow-originating agents built.
    pub flows: u64,
}

/// Post-run agent lookup shared by the serial and sharded simulators.
trait AgentHost {
    type Id: Copy;
    fn get<T: Agent>(&self, id: Self::Id) -> Option<&T>;
    fn put(&mut self, node: iq_netsim::NodeId, port: u16, agent: Box<dyn Agent>) -> Self::Id;
}

impl AgentHost for Simulator {
    type Id = AgentId;
    fn get<T: Agent>(&self, id: AgentId) -> Option<&T> {
        self.agent::<T>(id)
    }
    fn put(&mut self, node: iq_netsim::NodeId, port: u16, agent: Box<dyn Agent>) -> AgentId {
        self.add_agent(node, port, agent)
    }
}

impl AgentHost for ShardedSim {
    type Id = ShardAgentId;
    fn get<T: Agent>(&self, id: ShardAgentId) -> Option<&T> {
        self.agent::<T>(id)
    }
    fn put(&mut self, node: iq_netsim::NodeId, port: u16, agent: Box<dyn Agent>) -> ShardAgentId {
        self.add_agent(node, port, agent)
    }
}

/// Every agent a builder added, with its kind, so the wrappers' counters
/// can be read back after the run.
struct Roster<Id> {
    agents: Vec<(Id, Kind)>,
}

impl<Id: Copy> Roster<Id> {
    fn new() -> Self {
        Self { agents: Vec::new() }
    }

    fn add<H: AgentHost<Id = Id>, A: Agent>(
        &mut self,
        sim: &mut H,
        node: iq_netsim::NodeId,
        port: u16,
        kind: Kind,
        agent: A,
    ) -> Id {
        let id = sim.put(node, port, Box::new(Traced::new(agent)));
        self.agents.push((id, kind));
        id
    }

    fn flows(&self) -> u64 {
        self.agents.iter().filter(|(_, k)| k.is_source()).count() as u64
    }

    fn totals<H: AgentHost<Id = Id>>(&self, sim: &H) -> [CallStats; 8] {
        fn read<H: AgentHost, A: Agent>(sim: &H, id: H::Id) -> CallStats {
            sim.get::<Traced<A>>(id)
                .expect("roster kind matches agent type")
                .stats
        }
        let mut out = [CallStats::default(); 8];
        for &(id, kind) in &self.agents {
            let s = match kind {
                Kind::BulkSender => read::<H, BulkSenderAgent>(sim, id),
                Kind::AdaptiveSource => read::<H, AdaptiveSourceAgent>(sim, id),
                Kind::EchoSink => read::<H, EchoSinkAgent>(sim, id),
                Kind::TcpSender => read::<H, TcpBulkSenderAgent>(sim, id),
                Kind::TcpSink => read::<H, TcpSinkAgent>(sim, id),
                Kind::CbrSource => read::<H, CbrSource>(sim, id),
                Kind::VbrSource => read::<H, VbrSource>(sim, id),
                Kind::UdpSink => read::<H, UdpSink>(sim, id),
            };
            let slot = &mut out[Kind::ALL.iter().position(|&k| k == kind).expect("listed")];
            slot.add(&s);
        }
        out
    }
}

fn inner<H: AgentHost, A: Agent>(sim: &H, id: H::Id) -> &A {
    &sim.get::<Traced<A>>(id)
        .expect("agent of the built type")
        .inner
}

/// Runs `sc` through the traced builder copy matching the branch
/// `iq_experiments::run_scenario` takes. The many-flow incast branch is
/// not covered: no benchmark workload uses it.
pub fn run(sc: &Scenario) -> (RunResult, Layers) {
    let live_before = alloc::snapshot().total_live;
    if sc.mega_legs > 0 {
        return run_mega(sc, live_before);
    }
    assert_eq!(sc.incast_flows, 0, "the incast builder has no traced copy");
    match sc.scheme {
        Scheme::Tcp => run_tcp(sc, live_before),
        _ => run_rudp(sc, live_before),
    }
}

fn policy(spec: PolicySpec, scheme: Scheme) -> Policy {
    match spec {
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

fn add_cross_traffic(
    sim: &mut Simulator,
    roster: &mut Roster<AgentId>,
    db: &Dumbbell,
    cross: &CrossTraffic,
    deadline_s: f64,
) {
    if let Some(bps) = cross.cbr_bps {
        let src = CbrSource::new(Addr::new(db.right_hosts[1], 10), FlowId(100), bps, 972);
        roster.add(sim, db.left_hosts[1], 10, Kind::CbrSource, src);
        roster.add(sim, db.right_hosts[1], 10, Kind::UdpSink, UdpSink::new());
    }
    if let Some(vbr) = &cross.vbr {
        let src = VbrSource::new(
            Addr::new(db.right_hosts[2], 11),
            FlowId(101),
            vbr.fps,
            vbr.frame_sizes(),
        );
        roster.add(sim, db.left_hosts[2], 11, Kind::VbrSource, src);
        roster.add(sim, db.right_hosts[2], 11, Kind::UdpSink, UdpSink::new());
    }
    if cross.tcp_bulk {
        let msgs = (deadline_s * 2.5e6 / 1400.0) as u64;
        let cfg = TcpConfig::default();
        let src = TcpBulkSenderAgent::new(
            TcpSenderConn::new(900, cfg.clone()),
            Addr::new(db.right_hosts[2], 12),
            FlowId(102),
            msgs,
            1400,
        );
        roster.add(sim, db.left_hosts[2], 12, Kind::TcpSender, src);
        let sink = TcpSinkAgent::new(900, cfg, FlowId(102));
        roster.add(sim, db.right_hosts[2], 12, Kind::TcpSink, sink);
    }
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
        CcAlgorithm::Fixed {
            cwnd: sc.fixed_cwnd,
        }
    } else {
        sc.cc.clone()
    };
    cfg
}

/// Runs a serial loop in one-second slices until `done` or the deadline,
/// charging the interval to the execute phase; returns its wall time.
fn run_serial(sim: &mut Simulator, deadline_s: f64, done: impl Fn(&Simulator) -> bool) -> u64 {
    let t = Instant::now();
    sim.profiler().enter(Phase::Execute);
    let deadline = time::secs(deadline_s);
    while sim.now() < deadline {
        sim.run_for(time::secs(1.0));
        if done(sim) {
            break;
        }
    }
    sim.profiler().finish();
    t.elapsed().as_nanos() as u64
}

fn setup_bytes(live_before: i64) -> i64 {
    alloc::snapshot().total_live - live_before
}

fn run_rudp(sc: &Scenario, live_before: i64) -> (RunResult, Layers) {
    let pool_before = iq_netsim::pool_stats();
    let (tsink, bus) = if telemetry_enabled() {
        let (s, b) = TelemetrySink::new_bus(telemetry_ring());
        (s, Some(b))
    } else {
        (TelemetrySink::disabled(), None)
    };
    let mut roster = Roster::new();
    let mut sim = Simulator::new(sc.seed);
    let mut dspec = sc.dumbbell.clone();
    dspec.red_bottleneck = sc.red_bottleneck;
    let db = build_dumbbell(&mut sim, &dspec);
    add_cross_traffic(&mut sim, &mut roster, &db, &sc.cross, sc.deadline_s);
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
    let policy = policy(sc.policy, sc.scheme);
    let src = AdaptiveSourceAgent::new(cfg, policy, Addr::new(db.right_hosts[0], 1), FlowId(1))
        .with_telemetry(tsink.clone());
    let tx = roster.add(&mut sim, db.left_hosts[0], 1, Kind::AdaptiveSource, src);
    let sink = EchoSinkAgent::from_driver(
        sink_cfg
            .builder(1, FlowId(1))
            .telemetry(tsink)
            .build_receiver(),
    );
    let rx = roster.add(&mut sim, db.right_hosts[0], 1, Kind::EchoSink, sink);
    let setup_bytes = setup_bytes(live_before);

    let run_nanos = run_serial(&mut sim, sc.deadline_s, |sim| {
        sim.get::<Traced<EchoSinkAgent>>(rx)
            .is_some_and(|s| s.inner.is_finished())
    });

    let (telemetry, telemetry_evicted) = bus.map_or_else(
        || (String::new(), 0),
        |b| {
            let bus = b.lock().unwrap_or_else(|e| e.into_inner());
            (to_jsonl(&bus.records()), bus.total_evicted())
        },
    );
    let events_processed = sim.counters().events_processed;
    let src: &AdaptiveSourceAgent = inner(&sim, tx);
    let sink: &EchoSinkAgent = inner(&sim, rx);
    let mut obs = Registry::new();
    sim.collect_obs(&mut obs, "0");
    collect_run_obs(
        &mut obs,
        Some(&src.conn().stats()),
        Some(&sink.conn().stats()),
        iq_netsim::pool_stats().since(pool_before),
        telemetry_evicted,
    );
    let m = &sink.metrics;
    let result = RunResult {
        label: sc.scheme.label(),
        duration_s: m.duration_s(),
        throughput_kbps: m.throughput_kbps(),
        inter_arrival_s: m.inter_arrival_s(),
        jitter_s: m.jitter_s(),
        tagged_delay_ms: m.tagged_inter_arrival_s() * 1e3,
        tagged_jitter_ms: m.tagged_jitter_s() * 1e3,
        msgs_offered: src.offered_msgs,
        msgs_delivered: m.messages(),
        delivered_pct: m.delivered_pct(src.offered_msgs),
        jitter_series: m.jitter_series().clone(),
        finished: sink.is_finished(),
        coordination: Some(src.coordination_log()),
        callbacks: src.callbacks,
        sender_stats: Some(src.conn().stats()),
        events_processed,
        telemetry,
        shards_used: 1,
        phase_profile: vec![sim.phase_snapshot()],
        sched: iq_netsim::SchedTotals::default(),
        obs,
        telemetry_evicted,
    };
    let layers = Layers {
        workers: 1,
        run_nanos,
        kinds: roster.totals(&sim),
        setup_bytes,
        flows: roster.flows(),
    };
    (result, layers)
}

fn run_tcp(sc: &Scenario, live_before: i64) -> (RunResult, Layers) {
    let pool_before = iq_netsim::pool_stats();
    let mut roster = Roster::new();
    let mut sim = Simulator::new(sc.seed);
    let mut dspec = sc.dumbbell.clone();
    dspec.red_bottleneck = sc.red_bottleneck;
    let db = build_dumbbell(&mut sim, &dspec);
    add_cross_traffic(&mut sim, &mut roster, &db, &sc.cross, sc.deadline_s);

    let cfg = TcpConfig::default();
    let frames = sc.frame_sizes.clone();
    let total: u64 = frames.iter().map(|&s| u64::from(s)).sum();
    let msg_size = (total / frames.len().max(1) as u64).clamp(200, 64_000) as u32;
    let msgs = total / u64::from(msg_size);
    let src = TcpBulkSenderAgent::new(
        TcpSenderConn::new(1, cfg.clone()),
        Addr::new(db.right_hosts[0], 1),
        FlowId(1),
        msgs,
        msg_size,
    );
    roster.add(&mut sim, db.left_hosts[0], 1, Kind::TcpSender, src);
    let sink = TcpSinkAgent::new(1, cfg, FlowId(1));
    let rx = roster.add(&mut sim, db.right_hosts[0], 1, Kind::TcpSink, sink);
    let setup_bytes = setup_bytes(live_before);

    let run_nanos = run_serial(&mut sim, sc.deadline_s, |sim| {
        sim.get::<Traced<TcpSinkAgent>>(rx)
            .is_some_and(|s| s.inner.is_finished())
    });

    let events_processed = sim.counters().events_processed;
    let mut obs = Registry::new();
    sim.collect_obs(&mut obs, "0");
    collect_run_obs(
        &mut obs,
        None,
        None,
        iq_netsim::pool_stats().since(pool_before),
        0,
    );
    let sink: &TcpSinkAgent = inner(&sim, rx);
    let m = &sink.metrics;
    let result = RunResult {
        label: Scheme::Tcp.label(),
        duration_s: m.duration_s(),
        throughput_kbps: m.throughput_kbps(),
        inter_arrival_s: m.inter_arrival_s(),
        jitter_s: m.jitter_s(),
        tagged_delay_ms: 0.0,
        tagged_jitter_ms: 0.0,
        msgs_offered: msgs,
        msgs_delivered: m.messages(),
        delivered_pct: m.delivered_pct(msgs),
        jitter_series: m.jitter_series().clone(),
        finished: sink.is_finished(),
        coordination: None,
        callbacks: (0, 0),
        sender_stats: None,
        events_processed,
        telemetry: String::new(),
        shards_used: 1,
        phase_profile: vec![sim.phase_snapshot()],
        sched: iq_netsim::SchedTotals::default(),
        obs,
        telemetry_evicted: 0,
    };
    let layers = Layers {
        workers: 1,
        run_nanos,
        kinds: roster.totals(&sim),
        setup_bytes,
        flows: roster.flows(),
    };
    (result, layers)
}

fn run_mega(sc: &Scenario, live_before: i64) -> (RunResult, Layers) {
    let pool_before = iq_netsim::pool_stats();
    let threads = shards();
    let mut sim = ShardedSim::new(sc.seed);
    let legs: Vec<(usize, usize)> = (0..sc.mega_legs)
        .map(|_| (sim.add_shard(), sim.add_shard()))
        .collect();
    sim.set_threads(threads);

    let mut buses = Vec::new();
    if telemetry_enabled() {
        for shard in 0..sim.num_shards() {
            let (sink, bus) = TelemetrySink::new_bus(telemetry_ring());
            sim.attach_telemetry(shard, sink);
            buses.push(bus);
        }
    }

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
    let msgs_per_flow = sc.frame_sizes.len() as u64;
    let msg_size = sc.frame_sizes.first().copied().unwrap_or(1400);

    let base = rudp_config(sc);
    let mut marked_cfg = RudpConfig {
        loss_tolerance: 0.0,
        ..base.clone()
    };
    marked_cfg.cc.algorithm = CcAlgorithm::Cubic(CubicParams::default());
    let marked = marked_cfg.builder(0, FlowId(0));
    let adaptive = base.clone().builder(0, FlowId(0));
    let mut unmarked_cfg = RudpConfig {
        discard_unmarked: true,
        ..base.clone()
    };
    unmarked_cfg.cc.algorithm = CcAlgorithm::BbrLike(BbrParams::default());
    let unmarked = unmarked_cfg.builder(0, FlowId(0));
    let mut sparse_cfg = RudpConfig {
        loss_tolerance: 0.0,
        ack_every: 4,
        ..base.clone()
    };
    sparse_cfg.cc.algorithm = CcAlgorithm::Rrr(RrrParams::default());
    let sparse_ack = sparse_cfg.builder(0, FlowId(0));

    let mut roster = Roster::new();
    let mut bulk_txs = Vec::new();
    let mut adaptive_txs = Vec::new();
    let mut rxs = Vec::new();
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
            let conn_id = 1000 + global;
            let flow = FlowId(1000 + global);
            let peer = Addr::new(right_hosts[pair], port);
            let class_builder = match global % 4 {
                0 => &marked,
                1 => &adaptive,
                2 => &unmarked,
                _ => &sparse_ack,
            };
            if global % 4 == 1 {
                let mut cfg = SourceConfig::new(conn_id, sc.frame_sizes.clone());
                cfg.rudp = base.clone();
                cfg.mode = CoordinationMode::Coordinated;
                cfg.min_adapt_gap = time::secs(sc.min_adapt_gap_s);
                cfg.min_lower_gap = time::secs(sc.min_lower_gap_s);
                cfg.seed = sc.seed ^ u64::from(global) ^ 0x5eed;
                let src = AdaptiveSourceAgent::new(
                    cfg,
                    Policy::Marking(MarkingAdapter::default()),
                    peer,
                    flow,
                );
                let id = roster.add(&mut sim, left_hosts[pair], port, Kind::AdaptiveSource, src);
                adaptive_txs.push(id);
            } else {
                let unmark = if global % 4 == 2 { 4 } else { 0 };
                let driver = class_builder.for_conn(conn_id, flow).build_sender(peer);
                let agent = BulkSenderAgent::from_driver(driver, msgs_per_flow, msg_size)
                    .unmark_every(unmark);
                let id = roster.add(&mut sim, left_hosts[pair], port, Kind::BulkSender, agent);
                bulk_txs.push(id);
            }
            let sink =
                EchoSinkAgent::from_driver(class_builder.for_conn(conn_id, flow).build_receiver());
            rxs.push(roster.add(&mut sim, right_hosts[pair], port, Kind::EchoSink, sink));
            global += 1;
        }
    }
    let setup_bytes = setup_bytes(live_before);

    let t = Instant::now();
    let deadline = time::secs(sc.deadline_s);
    sim.run_slices(deadline, time::secs(1.0), |view| {
        rxs.iter().all(|&rx| {
            view.with_agent::<Traced<EchoSinkAgent>, _>(rx, |s| s.inner.is_finished())
                .unwrap_or(false)
        })
    });
    let run_nanos = t.elapsed().as_nanos() as u64;

    let mut telemetry = String::new();
    let mut telemetry_evicted = 0u64;
    for bus in &buses {
        let bus = bus.lock().unwrap_or_else(|e| e.into_inner());
        telemetry.push_str(&to_jsonl(&bus.records()));
        telemetry_evicted += bus.total_evicted();
    }
    let events_processed = sim.counters().events_processed;

    let mut offered = 0u64;
    let mut callbacks = (0u64, 0u64);
    let mut stats = iq_rudp::SenderStats::default();
    let mut coordination: Option<CoordinationLog> = None;
    for &tx in &bulk_txs {
        let a: &BulkSenderAgent = inner(&sim, tx);
        offered += a.offered_msgs();
        sum_sender_stats(&mut stats, &a.conn().stats());
    }
    for &tx in &adaptive_txs {
        let a: &AdaptiveSourceAgent = inner(&sim, tx);
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
    for &rx in &rxs {
        let s: &EchoSinkAgent = inner(&sim, rx);
        delivered += s.metrics.messages();
        throughput += s.metrics.throughput_kbps();
        duration = duration.max(s.metrics.duration_s());
        finished &= s.is_finished();
        sum_receiver_stats(&mut rstats, &s.conn().stats());
    }
    let mut obs = Registry::new();
    sim.collect_obs(&mut obs);
    collect_run_obs(
        &mut obs,
        Some(&stats),
        Some(&rstats),
        iq_netsim::pool_stats().since(pool_before),
        telemetry_evicted,
    );
    let first: &EchoSinkAgent = inner(&sim, rxs[0]);
    let result = RunResult {
        label: "mega flows",
        duration_s: duration,
        throughput_kbps: throughput,
        inter_arrival_s: first.metrics.inter_arrival_s(),
        jitter_s: first.metrics.jitter_s(),
        tagged_delay_ms: first.metrics.tagged_inter_arrival_s() * 1e3,
        tagged_jitter_ms: first.metrics.tagged_jitter_s() * 1e3,
        msgs_offered: offered,
        msgs_delivered: delivered,
        delivered_pct: if offered > 0 {
            100.0 * delivered as f64 / offered as f64
        } else {
            0.0
        },
        jitter_series: first.metrics.jitter_series().clone(),
        finished,
        coordination,
        callbacks,
        sender_stats: Some(stats),
        events_processed,
        telemetry,
        shards_used: threads as u32,
        phase_profile: sim.phase_snapshots(),
        sched: sim.sched_totals(),
        obs,
        telemetry_evicted,
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let layers = Layers {
        // `run_slices` caps its pool at the shard count and the host's
        // cores; mirror that cap so per-worker shares use the real pool.
        workers: threads.clamp(1, sim.num_shards()).min(cores),
        run_nanos,
        kinds: roster.totals(&sim),
        setup_bytes,
        flows: roster.flows(),
    };
    (result, layers)
}

fn sum_receiver_stats(acc: &mut iq_rudp::ReceiverStats, s: &iq_rudp::ReceiverStats) {
    acc.segments_received += s.segments_received;
    acc.duplicates += s.duplicates;
    acc.segments_skipped += s.segments_skipped;
    acc.msgs_delivered += s.msgs_delivered;
    acc.msgs_dropped_partial += s.msgs_dropped_partial;
    acc.sack_truncations += s.sack_truncations;
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

fn collect_run_obs(
    reg: &mut Registry,
    tx: Option<&iq_rudp::SenderStats>,
    rx: Option<&iq_rudp::ReceiverStats>,
    pool: iq_netsim::PoolStats,
    telemetry_evicted: u64,
) {
    if let Some(s) = tx {
        reg.counter(
            Plane::Sim,
            "iq_rudp_msgs_submitted_total",
            &[],
            s.msgs_submitted,
        );
        reg.counter(
            Plane::Sim,
            "iq_rudp_msgs_discarded_total",
            &[],
            s.msgs_discarded,
        );
        reg.counter(
            Plane::Sim,
            "iq_rudp_segments_sent_total",
            &[],
            s.segments_sent,
        );
        reg.counter(Plane::Sim, "iq_rudp_retransmits_total", &[], s.retransmits);
        reg.counter(
            Plane::Sim,
            "iq_rudp_segments_abandoned_total",
            &[],
            s.segments_abandoned,
        );
        reg.counter(
            Plane::Sim,
            "iq_rudp_segments_acked_total",
            &[],
            s.segments_acked,
        );
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
        reg.counter(
            Plane::Sim,
            "iq_rudp_segments_skipped_total",
            &[],
            s.segments_skipped,
        );
        reg.counter(
            Plane::Sim,
            "iq_rudp_msgs_delivered_total",
            &[],
            s.msgs_delivered,
        );
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
    reg.counter(
        Plane::Sim,
        "iq_telemetry_evicted_total",
        &[],
        telemetry_evicted,
    );
    reg.counter(Plane::Engine, "iq_pool_hits_total", &[], pool.hits);
    reg.counter(Plane::Engine, "iq_pool_misses_total", &[], pool.misses);
    reg.counter(Plane::Engine, "iq_pool_returns_total", &[], pool.returns);
    reg.counter(Plane::Engine, "iq_pool_drops_total", &[], pool.drops);
    reg.sort();
}
