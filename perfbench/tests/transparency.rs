//! The traced builder copies are transparent: with every agent wrapped,
//! each scenario reproduces the untraced run's fingerprint and events.

mod common;

use iq_experiments::{run_scenario, Scenario};
use perfbench::check::fingerprint;
use perfbench::traced;

fn assert_transparent(sc: &Scenario) {
    let plain = run_scenario(sc);
    let (traced, layers) = traced::run(sc);
    assert!(plain.events_processed > 0, "{} ran no events", plain.label);
    assert_eq!(
        plain.events_processed, traced.events_processed,
        "{}",
        plain.label
    );
    assert_eq!(fingerprint(&plain), fingerprint(&traced), "{}", plain.label);
    let calls: u64 = layers.kinds.iter().map(|k| k.calls).sum();
    assert!(calls > 0, "{}: the wrappers saw no callbacks", plain.label);
}

#[test]
fn serial_builders_are_transparent() {
    let _g = common::config_lock();
    common::configure(1, false);
    for sc in common::serial() {
        assert_transparent(&sc);
    }
}

#[test]
fn serial_builders_are_transparent_with_telemetry() {
    let _g = common::config_lock();
    common::configure(1, true);
    for sc in common::serial() {
        assert_transparent(&sc);
    }
    common::configure(1, false);
}

#[test]
fn sharded_builder_is_transparent_at_one_and_two_workers() {
    let _g = common::config_lock();
    for (workers, telemetry) in [(1, false), (2, true)] {
        common::configure(workers, telemetry);
        assert_transparent(&common::sharded());
    }
    common::configure(1, false);
}
