//! Allocation smoke tests.
//!
//! A counting global allocator wraps `System` and tracks, per thread,
//! allocation calls and live heap bytes — per thread so that libtest's
//! other test threads cannot disturb a measurement.
//!
//! * After a warm-up phase that sizes every ring, queue, and scratch
//!   buffer, a sustained data → ACK → drain cycle between a
//!   [`SenderConn`] and a [`ReceiverConn`] must perform **zero** heap
//!   allocations. This pins the zero-alloc claims: inline SACK storage
//!   in `AckSeg`, ring-buffer transport state, and the swap-style
//!   `take_*_into` / `clear_events` drain APIs.
//! * A [`BulkSenderAgent`] → [`RudpSinkAgent`] pair whose transfer is
//!   over must hold a constant live heap while its measuring-period
//!   timer keeps rolling: nothing may keep per-period history.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use iq_netsim::{time, Addr, Agent, Ctx, FlowId, LinkSpec, Packet, Simulator};
use iq_rudp::{
    BulkSenderAgent, CcAlgorithm, ReceiverConn, RudpConfig, RudpSinkAgent, Segment, SenderConn,
    SenderState,
};

struct CountingAlloc;

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) on this thread.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation call that changed the thread's live heap by
/// `live_delta` bytes (0 calls for a free).
fn note(calls: u64, live_delta: i64) {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + calls));
    let _ = LIVE_BYTES.try_with(|l| l.set(l.get() + live_delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One steady-state cycle: submit data, ship segments to the receiver,
/// return its ACKs, drain messages and events through reused scratch.
fn cycle(
    now: &mut u64,
    s: &mut SenderConn,
    r: &mut ReceiverConn,
    msgs: &mut Vec<iq_rudp::DeliveredMsg>,
) {
    for _ in 0..4 {
        let _ = s.send_message(*now, 1000, true);
    }
    s.on_tick(*now);
    while let Some(seg) = s.poll_transmit(*now) {
        r.on_segment(*now, &seg);
    }
    *now += 2_000_000; // 2 ms one-way
    while let Some(seg) = r.poll_transmit(*now) {
        s.on_segment(*now, &seg);
    }
    r.take_messages_into(msgs);
    r.clear_events();
    s.clear_events();
    *now += 3_000_000;
}

/// Runs the steady-state measurement under one congestion controller
/// and returns the best (lowest) allocation delta over three attempts.
fn measure(algorithm: CcAlgorithm) -> u64 {
    let mut cfg = RudpConfig::default();
    cfg.cc.algorithm = algorithm;
    let mut s = SenderConn::new(7, cfg.clone());
    let mut r = ReceiverConn::new(7, cfg);
    let mut now = 0u64;

    // Handshake.
    let syn = s.poll_transmit(now).expect("syn");
    assert!(matches!(syn, Segment::Syn { .. }));
    r.on_segment(now, &syn);
    let synack = r.poll_transmit(now).expect("synack");
    s.on_segment(now, &synack);

    // Warm up: grow the inflight/reorder rings, outboxes, event vecs,
    // and the caller-side message scratch to their steady-state sizes.
    let mut msgs = Vec::new();
    for _ in 0..300 {
        cycle(&mut now, &mut s, &mut r, &mut msgs);
    }

    // State can still grow once after the warm-up: under BBR one
    // allocation lands in each of the first two attempts. An allocation
    // on the data/ACK cycle itself would show in every attempt, so
    // requiring one clean attempt out of three keeps the gate sound.
    let mut delta = u64::MAX;
    for _ in 0..3 {
        let before = ALLOC_CALLS.with(Cell::get);
        for _ in 0..200 {
            cycle(&mut now, &mut s, &mut r, &mut msgs);
        }
        delta = ALLOC_CALLS.with(Cell::get) - before;
        if delta == 0 {
            break;
        }
    }
    delta
}

#[test]
fn steady_state_ack_path_does_not_allocate() {
    // Every controller must hold the zero-alloc line: the trait seam is
    // enum dispatch stored inline in the sender (no `Box<dyn>`), and
    // the controllers themselves keep their state in fixed arrays.
    let mut algorithms: Vec<CcAlgorithm> = CcAlgorithm::all_adaptive().to_vec();
    algorithms.push(CcAlgorithm::from_name("fixed").unwrap());
    for alg in algorithms {
        let name = alg.name();
        let delta = measure(alg);
        assert_eq!(
            delta, 0,
            "steady-state data/ACK cycles performed {delta} heap allocations under {name}"
        );
    }
}

/// Pre-sizes the simulator's own structures: a timer every 100 µs over
/// the first 300 ms — more than one revolution of the timer wheel's
/// finest level — leaves a buffer in every wheel bucket and free slots
/// in the timer slab. After it, only agent state can grow the heap.
struct SchedulerWarmup;

impl Agent for SchedulerWarmup {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for k in 0..3_000 {
            ctx.set_timer(k * 100 * time::MICROSECOND, 0);
        }
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
}

#[test]
fn finished_bulk_pair_keeps_no_per_period_history() {
    let mut sim = Simulator::new(11);
    let a = sim.add_node();
    let b = sim.add_node();
    sim.add_link(a, b, LinkSpec::new(10e6, time::millis(5), 64_000));
    // The return path's 50-byte queue passes the 44-byte handshake
    // segments but no ACK (60 bytes and up): the sink receives the whole
    // transfer, while the sender, never hearing an ACK, stays
    // established — it retransmits on RTO backoff and its 100 ms
    // measuring period keeps rolling.
    sim.add_link(b, a, LinkSpec::new(10e6, time::millis(5), 50));
    let cfg = RudpConfig::default();
    let conn = SenderConn::new(1, cfg.clone());
    let sender = BulkSenderAgent::new(conn, Addr::new(b, 1), FlowId(1), 2, 1000);
    let tx = sim.add_agent(a, 1, Box::new(sender));
    let rx = sim.add_agent(b, 1, Box::new(RudpSinkAgent::new(1, cfg, FlowId(1))));
    sim.add_agent(a, 2, Box::new(SchedulerWarmup));

    sim.run_until(time::secs(1.0));
    assert_eq!(sim.agent::<BulkSenderAgent>(tx).unwrap().offered_msgs(), 2);
    let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
    assert_eq!(sink.metrics.messages(), 2);

    let mut sample = |until: f64| {
        sim.run_until(time::secs(until));
        (LIVE_BYTES.with(Cell::get), sim.counters().timers_fired)
    };
    let (live_10, fired_10) = sample(11.0);
    let (live_60, fired_60) = sample(61.0);
    let sender = sim.agent::<BulkSenderAgent>(tx).unwrap();
    assert_eq!(sender.conn().state(), SenderState::Established);
    assert!(
        fired_60 - fired_10 >= 490,
        "the measuring period stopped rolling ({} timer firings in 50 s)",
        fired_60 - fired_10
    );
    assert_eq!(
        live_60,
        live_10,
        "the finished pair's heap grew by {} bytes over 500 measuring periods",
        live_60 - live_10
    );
}
