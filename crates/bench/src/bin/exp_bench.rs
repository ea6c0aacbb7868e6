//! `exp_bench` — interpreter dispatch microbenchmark and regression
//! guard.
//!
//! Sweeps the seven fault-corpus programs across the legacy-capable
//! systems under continuous and periodic-intermittent supplies, running
//! every cell under **both** dispatch engines (the reference
//! interpreter and the decoded fast-dispatch engine), and records
//! host-side throughput: simulated instructions per second and complete
//! cell-runs per second.
//!
//! Two properties are enforced on every cell, so the benchmark doubles
//! as a differential smoke test (an untimed pass over the torn-wire
//! peripheral workloads rides along, so UART/I2C intrinsics and the
//! transaction journal are also engine-differential):
//!
//! 1. **Equivalence** — both engines must produce the same outcome,
//!    simulated cycle count, instruction count, and trace stream.
//!    Any mismatch exits non-zero.
//! 2. **Speedup and checkpoint traffic** (`--check`) — the per-cell
//!    speedup ratio `decoded_ips / reference_ips` is compared against
//!    the committed baseline `BENCH_interpreter.json`. Ratios are
//!    machine-independent (both engines run on the same host), so the
//!    guard is meaningful on any CI machine. Each cell also records its
//!    simulated checkpoint-bytes-written and checkpoint-span cycles;
//!    since those are deterministic, `--check` fails tightly when a
//!    cell's checkpoint traffic grows past its baseline — the guard
//!    that keeps the dirty-word incremental imaging from silently
//!    degrading back to full-image commits. `--check` prints one
//!    `PASS`/`FAIL` line per check (per-cell speedup, per-cell
//!    checkpoint traffic, geomean speedup) in the
//!    [`tics_bench::gate::Check`] format: threshold, measured value
//!    against the baseline, timed runs, cells; a failing line lists
//!    each offending cell.
//!
//! Flags: `--quick` (reduced measurement time for CI), `--check`
//! (compare against the committed baseline), `--out PATH` (baseline
//! path, default `BENCH_interpreter.json`), `--no-write` (measure and
//! check only). The sweep is deliberately single-threaded: wall-clock
//! throughput is the measurement, so cells must not contend for cores.
//!
//! To refresh the committed baseline after interpreter work:
//! `cargo run --release -p tics-bench --bin exp_bench` and commit the
//! rewritten `BENCH_interpreter.json`.

use std::process::ExitCode;
use std::time::Instant;

use tics_apps::SystemUnderTest;
use tics_bench::fault::{build_fault_program, FaultProgram};
use tics_bench::gate::{print_checks, Check};
use tics_bench::periph::{build_periph_program, PeriphWorkload};
use tics_bench::Json;
use tics_energy::{ContinuousPower, PeriodicTrace, PowerSupply};
use tics_minic::Program;
use tics_trace::{SpanKind, TraceRecord};
use tics_vm::{DispatchEngine, Executor, Machine, MachineConfig};

/// Systems that run the legacy fault corpus.
const SYSTEMS: [SystemUnderTest; 5] = [
    SystemUnderTest::PlainC,
    SystemUnderTest::Mementos,
    SystemUnderTest::Tics,
    SystemUnderTest::Chinchilla,
    SystemUnderTest::Ratchet,
];

/// Periodic supply shape for the intermittent half of the grid.
const ON_US: u64 = 50_000;
const OFF_US: u64 = 300;

/// On-time budget: bounds starving cells (the guard below diagnoses
/// them long before this).
const BUDGET_US: u64 = 50_000_000;
const GUARD_BOOTS: u64 = 48;

/// A cell regressing below this fraction of its baseline speedup fails
/// `--check`. Deliberately loose: single cells are noisy under `--quick`
/// (few repetitions), so the per-cell gate only catches catastrophic
/// regressions — the geomean gate below catches broad ones.
const CHECK_TOLERANCE: f64 = 0.5;

/// The grid-wide geomean speedup regressing below this fraction of the
/// baseline's geomean fails `--check`. Averaging over every cell makes
/// this stable even under `--quick` timing noise.
const GEOMEAN_TOLERANCE: f64 = 0.85;

/// A cell whose checkpoint-bytes-written grows beyond this multiple of
/// its baseline fails `--check`. Unlike the throughput ratios this is a
/// deterministic simulated quantity (no host timing noise), so the
/// tolerance only absorbs intentional small format changes — it exists
/// to catch the incremental-checkpoint machinery silently degrading to
/// full images.
const CKPT_BYTES_TOLERANCE: f64 = 1.10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Supply {
    Continuous,
    Periodic,
}

impl Supply {
    fn label(self) -> &'static str {
        match self {
            Supply::Continuous => "continuous",
            Supply::Periodic => "periodic",
        }
    }

    fn build(self) -> Box<dyn PowerSupply> {
        match self {
            Supply::Continuous => Box::new(ContinuousPower::new()),
            Supply::Periodic => Box::new(PeriodicTrace::new(ON_US, OFF_US)),
        }
    }
}

/// What one timed engine measurement produced.
struct EngineRun {
    /// Observables of a single run, for cross-engine equality.
    outcome: String,
    cycles: u64,
    instructions: u64,
    /// Simulated bytes committed by checkpoints over one run.
    checkpoint_bytes: u64,
    /// Simulated cycles spent inside checkpoint spans over one run.
    checkpoint_cycles: u64,
    trace: Vec<TraceRecord>,
    /// Throughput over all repetitions.
    ips: f64,
    runs: u32,
    runs_per_sec: f64,
}

/// Runs one (program image, supply, engine) cell repeatedly until
/// `min_host_ms` of wall clock has elapsed, and reports throughput.
fn measure(prog: &Program, system: SystemUnderTest, supply: Supply, engine: DispatchEngine, min_host_ms: u64) -> EngineRun {
    let mut first: Option<(String, u64, u64, u64, u64, Vec<TraceRecord>)> = None;
    let mut total_instructions = 0u64;
    let mut runs = 0u32;
    let started = Instant::now();
    loop {
        let mut m = Machine::new(prog.clone(), MachineConfig::default()).expect("image loads");
        let mut rt = tics_apps::build::make_runtime(system, prog);
        let mut sup = supply.build();
        let exec = Executor::new()
            .with_engine(engine)
            .with_time_budget(BUDGET_US)
            .with_progress_guard(GUARD_BOOTS);
        let outcome = match exec.run(&mut m, rt.as_mut(), sup.as_mut()) {
            Ok(o) => format!("{o:?}"),
            Err(e) => format!("error: {e}"),
        };
        total_instructions += m.stats().instructions;
        runs += 1;
        if first.is_none() {
            first = Some((
                outcome,
                m.cycles(),
                m.stats().instructions,
                m.stats().checkpoint_bytes,
                m.mem.span_cycles(SpanKind::Checkpoint),
                m.trace().records().to_vec(),
            ));
        }
        if started.elapsed().as_millis() as u64 >= min_host_ms || runs >= 400 {
            break;
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let (outcome, cycles, instructions, checkpoint_bytes, checkpoint_cycles, trace) =
        first.expect("at least one run");
    EngineRun {
        outcome,
        cycles,
        instructions,
        checkpoint_bytes,
        checkpoint_cycles,
        trace,
        ips: total_instructions as f64 / elapsed,
        runs,
        runs_per_sec: f64::from(runs) / elapsed,
    }
}

struct CellResult {
    program: &'static str,
    system: &'static str,
    supply: &'static str,
    outcome: String,
    cycles: u64,
    instructions: u64,
    /// Simulated checkpoint traffic per run — the quantity the
    /// incremental-imaging work drives down and `--check` guards.
    checkpoint_bytes: u64,
    checkpoint_cycles: u64,
    reference_ips: f64,
    decoded_ips: f64,
    reference_runs_per_sec: f64,
    decoded_runs_per_sec: f64,
    /// Timed runs over both engines.
    runs: u32,
    speedup: f64,
}

impl CellResult {
    fn label(&self) -> String {
        format!("{}/{}/{}", self.program, self.system, self.supply)
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let no_write = args.iter().any(|a| a == "--no-write");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_interpreter.json".to_string(), Clone::clone);
    let min_host_ms: u64 = if quick { 40 } else { 120 };

    let mut cells: Vec<CellResult> = Vec::new();
    let mut mismatches = 0u32;
    let sweep_started = Instant::now();

    for program in FaultProgram::ALL {
        for system in SYSTEMS {
            let prog = match build_fault_program(program, system) {
                Ok(p) => p,
                Err(_) => continue, // infeasible combination (e.g. recursion on Chinchilla)
            };
            for supply in [Supply::Continuous, Supply::Periodic] {
                let reference =
                    measure(&prog, system, supply, DispatchEngine::Reference, min_host_ms);
                let decoded = measure(&prog, system, supply, DispatchEngine::Decoded, min_host_ms);

                // Differential smoke: the engines must agree on every
                // observable of the (deterministic) first run.
                if reference.outcome != decoded.outcome
                    || reference.cycles != decoded.cycles
                    || reference.instructions != decoded.instructions
                    || reference.checkpoint_bytes != decoded.checkpoint_bytes
                    || reference.trace != decoded.trace
                {
                    eprintln!(
                        "ENGINE MISMATCH {}/{}/{}: ref=({}, {} cy, {} in, {} ev) dec=({}, {} cy, {} in, {} ev)",
                        program.name(),
                        system.name(),
                        supply.label(),
                        reference.outcome,
                        reference.cycles,
                        reference.instructions,
                        reference.trace.len(),
                        decoded.outcome,
                        decoded.cycles,
                        decoded.instructions,
                        decoded.trace.len(),
                    );
                    mismatches += 1;
                }

                cells.push(CellResult {
                    program: program.name(),
                    system: system.name(),
                    supply: supply.label(),
                    outcome: decoded.outcome.clone(),
                    cycles: decoded.cycles,
                    instructions: decoded.instructions,
                    checkpoint_bytes: decoded.checkpoint_bytes,
                    checkpoint_cycles: decoded.checkpoint_cycles,
                    reference_ips: reference.ips,
                    decoded_ips: decoded.ips,
                    reference_runs_per_sec: reference.runs_per_sec,
                    decoded_runs_per_sec: decoded.runs_per_sec,
                    runs: reference.runs + decoded.runs,
                    speedup: decoded.ips / reference.ips.max(1e-9),
                });
            }
        }
    }

    // Differential smoke over the torn-wire peripheral workloads:
    // untimed single runs, deliberately outside the throughput baseline
    // — engine equality must also hold for the UART/I2C intrinsics and
    // the transaction-journal syscalls, whose device-side state (FIFO
    // contents, sensor cursor) is part of the observable trace.
    let mut periph_cells = 0u32;
    for workload in PeriphWorkload::ALL {
        for system in SYSTEMS {
            let Ok(prog) = build_periph_program(workload, system) else {
                continue;
            };
            for supply in [Supply::Continuous, Supply::Periodic] {
                let reference = measure(&prog, system, supply, DispatchEngine::Reference, 0);
                let decoded = measure(&prog, system, supply, DispatchEngine::Decoded, 0);
                periph_cells += 1;
                if reference.outcome != decoded.outcome
                    || reference.cycles != decoded.cycles
                    || reference.instructions != decoded.instructions
                    || reference.trace != decoded.trace
                {
                    eprintln!(
                        "ENGINE MISMATCH (periph) {}/{}/{}: ref=({}, {} cy, {} in, {} ev) dec=({}, {} cy, {} in, {} ev)",
                        workload.name(),
                        system.name(),
                        supply.label(),
                        reference.outcome,
                        reference.cycles,
                        reference.instructions,
                        reference.trace.len(),
                        decoded.outcome,
                        decoded.cycles,
                        decoded.instructions,
                        decoded.trace.len(),
                    );
                    mismatches += 1;
                }
            }
        }
    }
    println!("periph differential smoke: {periph_cells} cells, {mismatches} mismatches so far");

    let geomean_all = geomean(cells.iter().map(|c| c.speedup));
    let min_speedup = cells.iter().map(|c| c.speedup).fold(f64::INFINITY, f64::min);
    let total_ckpt_bytes: u64 = cells.iter().map(|c| c.checkpoint_bytes).sum();

    println!(
        "{} cells in {:.1}s | speedup geomean {:.2}x, min {:.2}x | ckpt traffic {} B",
        cells.len(),
        sweep_started.elapsed().as_secs_f64(),
        geomean_all,
        min_speedup,
        total_ckpt_bytes,
    );
    for c in &cells {
        println!(
            "  {:>14}/{:<10} {:<10} {:>7.2} Mips -> {:>7.2} Mips  ({:.2}x)  ckpt {:>7} B / {:>8} cy  [{}]",
            c.program,
            c.system,
            c.supply,
            c.reference_ips / 1e6,
            c.decoded_ips / 1e6,
            c.speedup,
            c.checkpoint_bytes,
            c.checkpoint_cycles,
            c.outcome,
        );
    }

    let json = Json::obj()
        .field("version", 1i64)
        .field("quick", quick)
        .field(
            "grid",
            Json::obj()
                .field("programs", FaultProgram::ALL.map(|p| p.name()).to_vec())
                .field("systems", SYSTEMS.map(SystemUnderTest::name).to_vec())
                .field(
                    "supplies",
                    vec!["continuous".to_string(), format!("periodic:{ON_US}/{OFF_US}")],
                )
                .build(),
        )
        .field(
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::obj()
                            .field("program", c.program)
                            .field("system", c.system)
                            .field("supply", c.supply)
                            .field("outcome", c.outcome.as_str())
                            .field("cycles", c.cycles)
                            .field("instructions", c.instructions)
                            .field("checkpoint_bytes", c.checkpoint_bytes)
                            .field("checkpoint_cycles", c.checkpoint_cycles)
                            .field("reference_ips", c.reference_ips)
                            .field("decoded_ips", c.decoded_ips)
                            .field("reference_cells_per_sec", c.reference_runs_per_sec)
                            .field("decoded_cells_per_sec", c.decoded_runs_per_sec)
                            .field("speedup", c.speedup)
                            .build()
                    })
                    .collect(),
            ),
        )
        .field(
            "summary",
            Json::obj()
                .field("cells", cells.len())
                .field("geomean_speedup", geomean_all)
                .field("min_speedup", min_speedup)
                .field("total_checkpoint_bytes", total_ckpt_bytes)
                .build(),
        )
        .build();

    // Results copy for artifact upload alongside the other experiments.
    tics_bench::write_json("bench_interpreter", &json);

    let mut regressions = 0usize;
    if check {
        let baseline = std::fs::read_to_string(&out_path)
            .map_err(|e| format!("cannot read baseline {out_path}: {e}"))
            .and_then(|text| {
                Json::parse(&text).map_err(|e| format!("cannot parse baseline {out_path}: {e:?}"))
            });
        match baseline {
            Ok(baseline) => regressions = print_checks("bench", &check_against(&baseline, &cells)),
            Err(e) => {
                eprintln!("{e}");
                regressions = 1;
            }
        }
    } else if !no_write {
        if let Err(e) = std::fs::write(&out_path, json.to_pretty()) {
            eprintln!("cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("baseline written to {out_path}");
    }

    if mismatches > 0 {
        eprintln!("{mismatches} engine mismatch(es)");
        return ExitCode::FAILURE;
    }
    if regressions > 0 {
        eprintln!(
            "{regressions} check(s) failed against the baseline (speedup or checkpoint \
             traffic; re-baseline with `cargo run --release -p tics-bench --bin exp_bench` \
             if intended)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Judges the measured cells against the committed baseline: the
/// per-cell speedup check, the per-cell checkpoint-traffic check and
/// the geomean check, in that order. Cells are matched by (program,
/// system, supply); a cell missing from the baseline is noted on
/// stdout and left out of the per-cell checks.
fn check_against(baseline: &Json, cells: &[CellResult]) -> Vec<Check> {
    let rows = baseline
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let baseline_row = |c: &CellResult| -> Option<&Json> {
        rows.iter().find(|row| {
            row.get("program").and_then(Json::as_str) == Some(c.program)
                && row.get("system").and_then(Json::as_str) == Some(c.system)
                && row.get("supply").and_then(Json::as_str) == Some(c.supply)
        })
    };
    let mut matched: Vec<(&CellResult, &Json)> = Vec::new();
    for c in cells {
        match baseline_row(c) {
            Some(row) => matched.push((c, row)),
            None => println!("note: cell {} not in baseline", c.label()),
        }
    }
    let trials: u64 = matched.iter().map(|(c, _)| u64::from(c.runs)).sum();
    let mut systems: Vec<&str> = matched.iter().map(|(c, _)| c.system).collect();
    systems.sort_unstable();
    systems.dedup();
    let scope = format!("{} cells: {}", matched.len(), systems.join(", "));

    // A per-cell rule: each cell's value against its baseline row's
    // `key` (cells whose baseline is 0 are skipped: plain C commits no
    // checkpoint bytes). A tolerance above 1 is a ceiling, below 1 a
    // floor; the line's measured value is the cell closest to failing.
    let per_cell = |rule: &str, key: &str, value: fn(&CellResult) -> f64, tolerance: f64| {
        let ceiling = tolerance > 1.0;
        let unit = |v: f64| {
            if ceiling {
                format!("{v:.0} B")
            } else {
                format!("{v:.2}x")
            }
        };
        let mut worst: Option<(f64, String)> = None;
        let mut failures = Vec::new();
        for (c, row) in &matched {
            let Some(base) = row.get(key).and_then(Json::as_f64).filter(|&b| b > 0.0) else {
                continue;
            };
            let v = value(c);
            let ratio = v / base;
            let line = format!("{} {} vs baseline {}", c.label(), unit(v), unit(base));
            let closer = |w: f64| if ceiling { ratio > w } else { ratio < w };
            if worst.as_ref().is_none_or(|(w, _)| closer(*w)) {
                worst = Some((ratio, line.clone()));
            }
            if closer(tolerance) {
                failures.push(line);
            }
        }
        let measured = match worst {
            Some((_, line)) => format!("worst {line}"),
            None => {
                failures.push(format!("no cell has a baseline {key}"));
                "nothing".to_string()
            }
        };
        let op = if ceiling { "<=" } else { ">=" };
        let threshold = format!(
            "every cell's {key} {op} {:.0}% of its baseline",
            tolerance * 100.0
        );
        Check::new(rule, threshold, measured, trials, &scope, failures)
    };

    let measured = geomean(cells.iter().map(|c| c.speedup));
    let base = baseline
        .get("summary")
        .and_then(|s| s.get("geomean_speedup"))
        .and_then(Json::as_f64);
    let failures = match base {
        Some(b) if measured >= b * GEOMEAN_TOLERANCE => Vec::new(),
        Some(_) => vec![format!("{measured:.2}x is below the threshold")],
        None => vec!["baseline has no summary.geomean_speedup".to_string()],
    };
    let base = base.unwrap_or(f64::NAN);
    vec![
        per_cell("speedup", "speedup", |c| c.speedup, CHECK_TOLERANCE),
        // Simulated, hence deterministic: the tolerance is tight.
        per_cell(
            "checkpoint traffic",
            "checkpoint_bytes",
            |c| c.checkpoint_bytes as f64,
            CKPT_BYTES_TOLERANCE,
        ),
        Check::new(
            "geomean",
            format!(
                "geomean speedup >= {:.0}% of baseline {base:.2}x = {:.2}x",
                GEOMEAN_TOLERANCE * 100.0,
                base * GEOMEAN_TOLERANCE
            ),
            format!("{measured:.2}x vs baseline {base:.2}x"),
            trials,
            &scope,
            failures,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(program: &'static str, system: &'static str, speedup: f64, bytes: u64) -> CellResult {
        CellResult {
            program,
            system,
            supply: "periodic",
            outcome: "Finished(0)".to_string(),
            cycles: 1,
            instructions: 1,
            checkpoint_bytes: bytes,
            checkpoint_cycles: 1,
            reference_ips: 1.0,
            decoded_ips: speedup,
            reference_runs_per_sec: 1.0,
            decoded_runs_per_sec: 1.0,
            runs: 10,
            speedup,
        }
    }

    /// The baseline the synthetic cells are judged against: every cell
    /// at 2x with 1,000 checkpoint bytes.
    fn baseline(cells: &[CellResult]) -> Json {
        let rows = cells
            .iter()
            .map(|c| {
                Json::obj()
                    .field("program", c.program)
                    .field("system", c.system)
                    .field("supply", c.supply)
                    .field("speedup", 2.0)
                    .field("checkpoint_bytes", 1_000u64)
                    .build()
            })
            .collect();
        Json::obj()
            .field("cells", Json::Arr(rows))
            .field("summary", Json::obj().field("geomean_speedup", 2.0).build())
            .build()
    }

    #[test]
    fn a_slow_cell_fails_the_speedup_check_and_is_named() {
        let cells = [
            cell("nv-accumulator", "TICS", 2.1, 1_000),
            cell("big-state", "TICS", 0.9, 1_000),
            cell("big-state", "Ratchet", 2.0, 1_050),
        ];
        let checks = check_against(&baseline(&cells), &cells);
        assert_eq!(checks.len(), 3);
        let speedup = &checks[0];
        assert!(!speedup.pass);
        assert!(
            speedup.line.starts_with(
                "FAIL speedup: every cell's speedup >= 50% of its baseline \
                 | measured worst big-state/TICS/periodic 0.90x vs baseline 2.00x \
                 | 30 trials | 3 cells: Ratchet, TICS"
            ),
            "{}",
            speedup.line
        );
        let offenders: Vec<&str> = speedup.line.lines().skip(1).collect();
        assert_eq!(
            offenders,
            ["    big-state/TICS/periodic 0.90x vs baseline 2.00x"]
        );
        assert!(checks[1].pass, "{}", checks[1].line);
        assert!(checks[1]
            .line
            .contains("measured worst big-state/Ratchet/periodic 1050 B vs baseline 1000 B"));
        // (2.1 * 0.9 * 2.0)^(1/3) = 1.56 < 0.85 * 2.0 = 1.70.
        assert!(!checks[2].pass, "{}", checks[2].line);
        assert!(checks[2]
            .line
            .contains("geomean speedup >= 85% of baseline 2.00x = 1.70x | measured 1.56x"));
    }

    #[test]
    fn grown_checkpoint_traffic_fails_its_own_check() {
        let cells = [
            cell("nv-accumulator", "TICS", 2.0, 1_000),
            cell("big-state", "MementOS", 2.0, 1_200),
        ];
        let checks = check_against(&baseline(&cells), &cells);
        assert!(checks[0].pass && checks[2].pass);
        assert!(!checks[1].pass);
        assert!(checks[1]
            .line
            .ends_with("\n    big-state/MementOS/periodic 1200 B vs baseline 1000 B"));
    }
}
