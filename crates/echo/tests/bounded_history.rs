//! Bounded per-flow state of the adaptive source.
//!
//! A counting global allocator tracks this thread's live heap bytes. An
//! [`AdaptiveSourceAgent`] → [`RudpSinkAgent`] pair whose transfer is
//! over must hold a constant live heap while its measuring period keeps
//! rolling and firing threshold callbacks: the per-period `NetCond`
//! feeds the callbacks and the coordinator, and nothing may keep it
//! afterwards.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use iq_echo::{AdaptiveSourceAgent, Policy, ResolutionAdapter, SourceConfig};
use iq_netsim::{time, Addr, Agent, Ctx, FlowId, LinkSpec, Packet, Simulator};
use iq_rudp::{RudpSinkAgent, SenderState};

struct CountingAlloc;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread (per thread, so
    /// libtest's other threads cannot disturb a measurement).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    let _ = LIVE_BYTES.try_with(|l| l.set(l.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
fn finished_adaptive_source_keeps_no_per_period_history() {
    let mut sim = Simulator::new(13);
    let a = sim.add_node();
    let b = sim.add_node();
    sim.add_link(a, b, LinkSpec::new(10e6, time::millis(5), 64_000));
    // The return path's 50-byte queue passes the 44-byte handshake
    // segments but no ACK (60 bytes and up): the sink receives both
    // frames, while the source, never hearing an ACK, stays established
    // — its 100 ms measuring period keeps rolling, and every period ends
    // in a threshold callback.
    sim.add_link(b, a, LinkSpec::new(10e6, time::millis(5), 50));
    let mut cfg = SourceConfig::new(4, vec![1000; 2]);
    cfg.rudp.upper_threshold = Some(0.05);
    cfg.rudp.lower_threshold = Some(0.005);
    let sink = RudpSinkAgent::new(4, cfg.rudp.clone(), FlowId(1));
    let policy = Policy::Resolution(ResolutionAdapter::default());
    let src = AdaptiveSourceAgent::new(cfg, policy, Addr::new(b, 1), FlowId(1));
    let tx = sim.add_agent(a, 1, Box::new(src));
    let rx = sim.add_agent(b, 1, Box::new(sink));
    sim.add_agent(a, 2, Box::new(SchedulerWarmup));

    sim.run_until(time::secs(1.0));
    let src = sim.agent::<AdaptiveSourceAgent>(tx).unwrap();
    assert!(src.schedule_done());
    let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
    assert_eq!(sink.metrics.messages(), 2);

    let mut sample = |until: f64| {
        sim.run_until(time::secs(until));
        let (upper, lower) = sim.agent::<AdaptiveSourceAgent>(tx).unwrap().callbacks;
        (LIVE_BYTES.with(Cell::get), upper + lower)
    };
    let (live_10, callbacks_10) = sample(11.0);
    let (live_60, callbacks_60) = sample(61.0);
    let src = sim.agent::<AdaptiveSourceAgent>(tx).unwrap();
    assert_eq!(src.conn().state(), SenderState::Established);
    assert!(
        callbacks_60 - callbacks_10 >= 490,
        "the measuring period stopped rolling ({} threshold callbacks in 50 s)",
        callbacks_60 - callbacks_10
    );
    assert_eq!(
        live_60,
        live_10,
        "the finished source's heap grew by {} bytes over 500 measuring periods",
        live_60 - live_10
    );
}
