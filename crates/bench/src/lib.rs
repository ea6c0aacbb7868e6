//! # tics-bench — the experiment harness
//!
//! One module per concern, one binary per table/figure of the paper:
//!
//! | binary | regenerates |
//! |---|---|
//! | `exp_table1` | Table 1 — GHM routine counts & consistency vs intermittency |
//! | `exp_table2` | Table 2 — time-consistency violations, AR w/ and w/o TICS |
//! | `exp_table3` | Table 3 — `.text`/`.data` for InK / Chinchilla / TICS |
//! | `exp_table4` | Table 4 — per-operation runtime overheads |
//! | `exp_table5` | Table 5 — the runtime capability matrix |
//! | `exp_fig9`   | Figure 9 — benchmark performance (three panels) |
//! | `exp_fig10`  | Figure 10 — user-study proxy (complexity + synthetic reviewers) |
//! | `exp_ablations` | design-choice ablations beyond the paper |
//! | `exp_fault`  | adversarial fault injection vs the crash-consistency oracle |
//! | `exp_chaos`  | brown-out corruption vs the detect-or-die oracle |
//! | `exp_periph` | torn-wire peripherals vs the detect-or-recover oracle |
//! | `exp_profile` | Table 4 re-derived from attributed spans + Figure-9-style cycle breakdown + Chrome trace export |
//!
//! Every binary declares its cells as a [`sweep::Sweep`] grid, runs it
//! on a work-stealing thread pool (`--threads N`, `TICS_BENCH_THREADS`,
//! default = available parallelism), folds the resulting
//! [`journal::JournalRow`]s into its printed table, and leaves the full
//! per-cell record in `results/<exp>.jsonl` (`--journal PATH`
//! overrides). The [`oracle`] module is the simulation's logic
//! analyzer: it derives the paper's three time-consistency violation
//! counts from ground-truth event timelines, and the [`gate`] module is
//! how the three robustness gates run, report and judge their grids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod fleet;
pub mod gate;
pub mod journal;
pub mod json;
pub mod oracle;
pub mod periph;
pub mod reviewer;
pub mod runner;
pub mod sweep;
pub mod trial;

pub use fleet::{run_shard, Exemplar, FleetSpec, Reservoir, ShardStats, StreamingHistogram};
pub use json::Json;
pub use oracle::{count_violations, Violations};
pub use runner::{run_app, ClockKind};
pub use sweep::{Cell, CellOutput, Sweep, SweepArgs, SweepOutcome, SweepSummary, SupplySpec};

use std::path::Path;

/// Writes a [`Json`] result to `results/<name>.json` (best effort —
/// experiments still print their tables if the write fails).
pub fn write_json(name: &str, value: &Json) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, value.to_pretty()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("(wrote {})", path.display());
    }
}
