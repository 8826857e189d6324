//! dirbench — the served-directory benchmark.
//!
//! Three workloads drive the real `bschema_server::Server` over loopback
//! TCP and report what a user of the directory sees (end to end) and
//! what each layer costs (per layer, from a separate traced run). See
//! `README.md` for the workloads, every metric's definition, and how the
//! per-layer numbers map onto the end-to-end ones. End-to-end times are
//! calibrated against the host's speed at the moment (`calib`).

pub mod calib;
pub mod gen;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stats;
pub mod wire;
