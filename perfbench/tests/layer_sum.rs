//! The layer-sum identity of a traced pass: idle + ingress + flush +
//! core + Σ agent self time = workers × run wall, with the shards' own
//! phase profiles spanning the measured run wall within the stated
//! tolerance.

mod common;

use perfbench::layers::{LayerTotals, Memory, LAYER_SUM_TOLERANCE};
use perfbench::traced;

fn totals(scenarios: &[iq_experiments::Scenario]) -> LayerTotals {
    let mut t = LayerTotals::default();
    for sc in scenarios {
        let (r, layers) = traced::run(sc);
        t.add(&r, &layers);
    }
    t
}

fn assert_identity(t: &LayerTotals) {
    assert!(
        t.layer_sum_error() <= LAYER_SUM_TOLERANCE,
        "profiles cover {} of shards × run wall",
        1.0 - t.layer_sum_error()
    );
    let w = t.worker_ns();
    assert!(w > 0.0);
    assert!(t.core_ns() >= 0.0, "agent spans exceed the execute phase");
    assert!(
        t.idle_ns() >= -LAYER_SUM_TOLERANCE * w,
        "busy time exceeds workers × run wall"
    );
    let metrics = t.metrics(w, &Memory::default());
    let get = |n: &str| metrics.iter().find(|m| m.name == n).expect(n).value;
    let agents: f64 = metrics
        .iter()
        .filter(|m| m.name.starts_with("agent.") && m.name.ends_with(".self_frac"))
        .map(|m| m.value)
        .sum();
    let sum = get("shard.idle_frac")
        + get("shard.ingress_frac")
        + get("shard.flush_frac")
        + get("netsim.core_frac")
        + agents;
    assert!((sum - 1.0).abs() < 1e-9, "layer shares sum to {sum}");
    assert!((get("shard.busy_frac") - get("netsim.core_frac") - agents).abs() < 1e-9);
}

#[test]
fn serial_layers_sum_to_run_wall() {
    let _g = common::config_lock();
    common::configure(1, false);
    let t = totals(&common::serial());
    assert_identity(&t);
}

#[test]
fn sharded_layers_sum_to_workers_times_run_wall() {
    let _g = common::config_lock();
    for workers in [1, 2] {
        common::configure(workers, false);
        assert_identity(&totals(&[common::sharded()]));
    }
    common::configure(1, false);
}
