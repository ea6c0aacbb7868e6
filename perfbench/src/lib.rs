//! Host-time benchmark of the TICS reproduction.
//!
//! Three workloads drive the library's public functions from outside —
//! `fleet` (`tics_bench::fleet::run_shard`), `oracle` (the fault grid's
//! `golden_run`/`run_plan`/`judge`/`shrink_plan`) and `ckpt` (long
//! checkpoint-bound device runs) — and report end-to-end host metrics.
//! A traced run mirrors the same call paths behind forwarding wrappers
//! and reports where the host time went, layer by layer. Every run
//! checks the simulated results against a fingerprint. See `README.md`
//! beside this crate for the metrics and why each workload exists.

pub mod ckpt;
pub mod common;
pub mod fingerprint;
pub mod fleet;
pub mod harness;
pub mod host;
pub mod ledger;
pub mod oracle;
pub mod stats;
pub mod traced;

/// Committed default-seed fingerprints, by workload.
#[must_use]
pub fn committed_fingerprint(workload: &str) -> &'static str {
    match workload {
        "fleet" => include_str!("../fingerprints/fleet.txt"),
        "oracle" => include_str!("../fingerprints/oracle.txt"),
        "ckpt" => include_str!("../fingerprints/ckpt.txt"),
        _ => "",
    }
}
