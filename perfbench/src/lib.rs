//! Outside-in benchmark of the IQ-RUDP simulator.
//!
//! [`workloads`] names what runs, [`measure`] times it through the
//! program's public entry points, [`traced`] rebuilds the same scenarios
//! with every agent wrapped in a timing shim, [`layers`] turns a traced
//! pass into per-layer metrics, [`check`] fingerprints each run so
//! traced, untraced and stored reference results can be compared, and
//! [`probe`] gauges the shared host's speed between runs.

pub mod alloc;
pub mod check;
pub mod layers;
pub mod measure;
pub mod probe;
pub mod sys;
pub mod traced;
pub mod workloads;
