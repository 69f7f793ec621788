//! Output checks: a fingerprint of everything a run reports that is a
//! fact of the simulated world, and the Figure 2/3 rebuild contract.

use iq_experiments::RunResult;
use iq_metrics::TimeSeries;

/// FNV-1a, 64-bit: stable across toolchains, so stored reference
/// fingerprints stay valid.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Fingerprint of a run: every public [`RunResult`] field that describes
/// the simulated world (the scalar metrics, the jitter series, the
/// transport and coordination counters, the captured telemetry and the
/// sim-plane registry via `obs.sim_fingerprint()`). Engine-plane fields
/// (thread count, phase times, scheduler totals) vary with the host and
/// are left out.
pub fn fingerprint(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.bytes(r.label.as_bytes());
    for v in [
        r.duration_s,
        r.throughput_kbps,
        r.inter_arrival_s,
        r.jitter_s,
        r.tagged_delay_ms,
        r.tagged_jitter_ms,
        r.delivered_pct,
    ] {
        h.f64(v);
    }
    h.u64(r.msgs_offered);
    h.u64(r.msgs_delivered);
    h.u64(r.jitter_series.points.len() as u64);
    for &(at, v) in &r.jitter_series.points {
        h.u64(at);
        h.f64(v);
    }
    h.u64(u64::from(r.finished));
    if let Some(c) = &r.coordination {
        for v in [
            c.window_rescales,
            c.cond_corrections,
            c.reliability_reports,
            c.deferred_announcements,
            c.frequency_reports,
        ] {
            h.u64(v);
        }
        h.f64(c.cumulative_factor);
    }
    h.u64(r.callbacks.0);
    h.u64(r.callbacks.1);
    if let Some(s) = &r.sender_stats {
        for v in [
            s.msgs_submitted,
            s.msgs_discarded,
            s.segments_sent,
            s.retransmits,
            s.segments_abandoned,
            s.segments_acked,
            s.timeouts,
            s.bytes_acked,
        ] {
            h.u64(v);
        }
    }
    h.u64(r.events_processed);
    h.bytes(r.telemetry.as_bytes());
    h.u64(r.telemetry_evicted);
    h.u64(r.obs.sim_fingerprint());
    h.0
}

/// Internal consistency every run must show, whatever its seed: nothing
/// delivered that was not offered, and the event count the run reports
/// equals the simulator's own sim-plane counter.
pub fn sane(r: &RunResult) -> bool {
    r.msgs_delivered <= r.msgs_offered
        && r.events_processed == r.obs.counter_total("iq_sim_events_total")
}

/// The contract `iq_experiments::figures` documents for
/// `jitter_series_from_telemetry`: the series rebuilt from telemetry is
/// bit-identical to the receiver-side accumulator.
pub fn figure_matches(rebuilt: &TimeSeries, accumulated: &TimeSeries) -> bool {
    rebuilt.points.len() == accumulated.points.len()
        && rebuilt
            .points
            .iter()
            .zip(&accumulated.points)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}
