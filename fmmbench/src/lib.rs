//! # fmmbench — end-to-end and per-layer benchmark of the fastmm engines
//!
//! One binary, four seeded workloads (`seq_fast`, `par_fast`,
//! `serve_small`, `dist_caps`), each calling the program only through its
//! public entry points. The timed run (`--trace 0`) prints the end-to-end
//! metrics, host-normalised; the traced run (`--trace 1`) records spans
//! around each call into a layer and prints the per-layer metrics. Every
//! output is checked, and the last line of standard output is the result
//! object. See `README.md` next to this crate for the workloads, the
//! metric map and the normalisation rule.

pub mod check;
pub mod cli;
pub mod closed;
pub mod dist;
pub mod host;
pub mod par;
pub mod report;
pub mod rewalk;
pub mod rng;
pub mod seq;
pub mod serve;
pub mod stats;
pub mod trace;

/// What a workload hands back: its metrics and the check outcome.
pub struct Run {
    /// Metrics the workload measured.
    pub metrics: report::Metrics,
    /// Operations attempted and checks failed.
    pub outcome: report::Outcome,
}
