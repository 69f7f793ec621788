//! Differential test of the timer-wheel scheduler against the old
//! scheduler design: a single `BinaryHeap<Event>`.
//!
//! The simulator's determinism guarantee rests on [`EventQueue`] popping
//! in exactly ascending `(time, seq)` order — the order the old heap
//! produced. This drives both structures with identical randomized op
//! streams (pushes at near/mid/far offsets, timer bursts, interleaved
//! pops) and requires bit-identical pop sequences, including the final
//! drain.

use std::collections::BinaryHeap;

use iq_netsim::event::{Event, EventKind};
use iq_netsim::sched::BUCKET_RETAIN;
use iq_netsim::{AgentId, EventQueue, EventSource, ShardEventSource};
use proptest::{prop, prop_assert_eq, proptest, ProptestConfig};

fn ev(at: u64, seq: u64) -> Event {
    Event {
        at,
        seq,
        kind: EventKind::Start { agent: AgentId(0) },
    }
}

/// Conformance harness shared by every [`EventSource`] implementation:
/// drives the source and a model `BinaryHeap` with one randomized op
/// stream (pushes at near/mid/far offsets, pops, deadline-bounded pops,
/// and — op 6 — timer bursts) and requires bit-identical behavior,
/// including the final drain. New source implementations get
/// differentially pinned to the old heap order just by adding one
/// `proptest!` wrapper below.
fn source_matches_model<S: EventSource>(src: &mut S, ops: &[(u32, u64)]) {
    let mut model: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = 0u64; // last popped time: pushes never go to the past

    for &(kind, raw) in ops {
        match kind {
            // Pop from both, compare, and advance the clock.
            4 => {
                let got = src.next_event().map(|e| (e.at, e.seq));
                let want = model.pop().map(|e| (e.at, e.seq));
                assert_eq!(got, want);
                if let Some((at, _)) = want {
                    now = at;
                }
            }
            // Deadline-bounded pop at a random horizon past the clock.
            5 => {
                let deadline = now.saturating_add(raw % 2_000_000_000);
                let got = src.next_event_before(deadline).map(|e| (e.at, e.seq));
                let want = match model.peek() {
                    Some(e) if e.at <= deadline => model.pop().map(|e| (e.at, e.seq)),
                    _ => None,
                };
                assert_eq!(got, want);
                if let Some((at, _)) = want {
                    now = at;
                }
            }
            // A timer burst: at least 10× the wheel's bucket retention
            // bound on a few timestamps 1 µs apart, within a level-0
            // bucket or (odd `raw`) through a level-1 cascade. Draining
            // it frees the bucket's buffer, so a later burst regrows it.
            6 => {
                let dt = if raw % 2 == 0 {
                    raw % 1_000_000
                } else {
                    raw % 2_000_000_000
                };
                let base = now.saturating_add(dt);
                let n = 10 * BUCKET_RETAIN as u64 + raw % 64;
                for k in 0..n {
                    let at = base.saturating_add((k * 7) % 5 * 1_000);
                    src.push_event(ev(at, seq));
                    model.push(ev(at, seq));
                    seq += 1;
                }
            }
            // Push at a near / mid / far offset from the clock.
            k => {
                let dt = match k {
                    0 => raw % 1_000_000,     // ≤ 1 ms: level 0
                    1 => raw % 2_000_000_000, // ≤ 2 s: levels 1–2
                    _ => raw,                 // anything, incl. far heap
                };
                let at = now.saturating_add(dt);
                src.push_event(ev(at, seq));
                model.push(ev(at, seq));
                seq += 1;
            }
        }
        assert_eq!(src.pending(), model.len());
        assert_eq!(src.next_time(), model.peek().map(|e| e.at));
    }

    // Drain both completely: the tails must match too.
    loop {
        let got = src.next_event().map(|e| (e.at, e.seq));
        let want = model.pop().map(|e| (e.at, e.seq));
        assert_eq!(got, want);
        if want.is_none() {
            break;
        }
    }
    assert_eq!(src.pending(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wheel_pops_in_exactly_the_old_heap_order(
        ops in prop::collection::vec((0u32..4, proptest::any::<u64>()), 1..400),
    ) {
        let mut wheel = EventQueue::new();
        let mut model: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64; // last popped time: pushes never go to the past

        for &(kind, raw) in &ops {
            match kind {
                // Pop from both, compare, and advance the clock.
                3 => {
                    let got = wheel.pop().map(|e| (e.at, e.seq));
                    let want = model.pop().map(|e| (e.at, e.seq));
                    prop_assert_eq!(got, want);
                    if let Some((at, _)) = want {
                        now = at;
                    }
                }
                // Push at a near / mid / far offset from the clock.
                k => {
                    let dt = match k {
                        0 => raw % 1_000_000,         // ≤ 1 ms: level 0
                        1 => raw % 2_000_000_000,     // ≤ 2 s: levels 1–2
                        _ => raw,                     // anything, incl. far heap
                    };
                    let at = now.saturating_add(dt);
                    wheel.push(ev(at, seq));
                    model.push(ev(at, seq));
                    seq += 1;
                }
            }
            prop_assert_eq!(wheel.len(), model.len());
            prop_assert_eq!(wheel.peek_time(), model.peek().map(|e| e.at));
        }

        // Drain both completely: the tails must match too.
        loop {
            let got = wheel.pop().map(|e| (e.at, e.seq));
            let want = model.pop().map(|e| (e.at, e.seq));
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn burst_of_simultaneous_events_pops_in_schedule_order(
        times in prop::collection::vec(0u64..50_000, 2..64),
    ) {
        // Many events on few distinct timestamps: tie-breaking by seq is
        // where an unordered bucket drain would betray itself.
        let mut wheel = EventQueue::new();
        let mut model: BinaryHeap<Event> = BinaryHeap::new();
        for (seq, &t) in times.iter().enumerate() {
            let at = (t / 10_000) * 10_000; // collapse onto ~5 timestamps
            wheel.push(ev(at, seq as u64));
            model.push(ev(at, seq as u64));
        }
        while let Some(want) = model.pop() {
            let got = wheel.pop().expect("wheel drained early");
            prop_assert_eq!((got.at, got.seq), (want.at, want.seq));
        }
        prop_assert_eq!(wheel.pop().map(|e| e.at), None);
    }

    #[test]
    fn event_queue_conforms_to_the_source_contract(
        ops in prop::collection::vec((0u32..6, proptest::any::<u64>()), 1..400),
    ) {
        source_matches_model(&mut EventQueue::new(), &ops);
    }

    #[test]
    fn bursts_pop_in_the_old_heap_order_across_bucket_regrowth(
        ops in prop::collection::vec((0u32..7, proptest::any::<u64>()), 1..120),
    ) {
        // Bursts drain through buckets that free and regrow their
        // buffers; pops between bursts keep the clock moving so later
        // bursts land in slots earlier ones vacated.
        source_matches_model(&mut EventQueue::new(), &ops);
    }

    #[test]
    fn shard_source_conforms_to_the_source_contract(
        ops in prop::collection::vec((0u32..6, proptest::any::<u64>()), 1..400),
    ) {
        // With the horizon at its default (unbounded) the per-shard
        // source must be indistinguishable from the bare queue.
        source_matches_model(&mut ShardEventSource::new(), &ops);
    }

    #[test]
    fn shard_source_horizon_withholds_events(
        times in prop::collection::vec(0u64..100_000, 1..64),
        horizon in 1u64..100_000,
    ) {
        let mut src = ShardEventSource::new();
        for (seq, &t) in times.iter().enumerate() {
            src.push_event(ev(t, seq as u64));
        }
        src.set_horizon(horizon);
        let mut below = 0;
        while let Some(e) = src.next_event() {
            assert!(e.at < horizon, "horizon must be exclusive");
            below += 1;
        }
        prop_assert_eq!(below, times.iter().filter(|&&t| t < horizon).count());
        // Everything at/after the horizon is withheld, not lost.
        prop_assert_eq!(src.next_time(), None);
        src.set_horizon(u64::MAX);
        prop_assert_eq!(src.pending(), times.len() - below);
    }
}
