//! Every emitted per-layer metric has a valid, unique name, and the set
//! matches the `per_layer` list in BENCHMARK.json (which also names the
//! overhead metric `run.py` adds).

mod common;

use std::collections::BTreeSet;

use perfbench::layers::{valid_name, LayerTotals, Memory};
use perfbench::traced;

#[test]
fn metric_names_are_valid_unique_and_declared() {
    let _g = common::config_lock();
    common::configure(1, false);
    let mut t = LayerTotals::default();
    let sc = &common::serial()[1];
    let (r, layers) = traced::run(sc);
    t.add(&r, &layers);
    let metrics = t.metrics(1e9, &Memory::default());
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    for n in &names {
        assert!(valid_name(n), "invalid metric name {n:?}");
    }
    let set: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(set.len(), names.len(), "duplicate metric names");
    for m in &metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }

    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    // The value of every `"name"` key; per-layer names are the dotted ones.
    let declared: BTreeSet<String> = spec
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .filter(|n| n.contains('.'))
        .collect();
    let mut emitted: BTreeSet<String> = set.iter().map(|s| s.to_string()).collect();
    emitted.insert("trace.overhead_frac".to_string());
    assert_eq!(declared, emitted);
}

#[test]
fn names_outside_the_charset_are_rejected() {
    for bad in ["", "a b", "x/y", ".lead", "é"] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    for good in [
        "wall_s",
        "agent.echo_sink.calls",
        "mem.core.peak_live_mb",
        "a-b",
    ] {
        assert!(valid_name(good), "{good:?}");
    }
}
