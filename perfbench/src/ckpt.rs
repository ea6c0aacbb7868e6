//! The `ckpt` workload: long single-device runs of the checkpoint-bound
//! `exp_bench` cells, one fresh machine per run, repeated.
//!
//! `big-state` under TICS, MementOS, Chinchilla and Ratchet plus
//! `task-pipeline` under TICS and Ratchet, on `exp_bench`'s periodic
//! supply (50 ms on / 300 µs off). Checkpoint commit and restore carry
//! the work; reset, judging and aggregation are absent.

use std::time::Instant;

use tics_apps::build::make_runtime;
use tics_apps::SystemUnderTest;
use tics_bench::fault::{build_fault_program, FaultProgram};
use tics_bench::sweep::splitmix64;
use tics_clock::PerfectClock;
use tics_energy::{AdversarialSupply, FaultPlan, Tail};
use tics_minic::Program;
use tics_vm::{Executor, Machine, MachineConfig, MachineImage, RunOutcome, VmError};

use crate::common::{outcome_label, Report, SimTotals, Tracing};
use crate::fingerprint::{Fingerprint, Fnv, Group};
use crate::harness::{self, Aliases, Measured, RunCfg};
use crate::ledger::{Layer, Ledger, Phase};
use crate::traced;

/// `exp_bench`'s periodic supply.
const ON_US: u64 = 50_000;
const OFF_US: u64 = 300;
/// `exp_bench`'s on-time budget and live-lock guard.
const BUDGET_US: u64 = 50_000_000;
const GUARD_BOOTS: u64 = 48;

/// The cells, in the order a round runs them. The short
/// `task-pipeline` runs appear twice so a round has seven runs: the
/// p50 and p90 ranks (3.5 and 6.3 of 7) then fall inside a cell's
/// spread of run times instead of on the edge between two cells.
pub const ROUND: [(FaultProgram, SystemUnderTest); 7] = [
    (FaultProgram::BigState, SystemUnderTest::Tics),
    (FaultProgram::TaskPipeline, SystemUnderTest::Tics),
    (FaultProgram::BigState, SystemUnderTest::Mementos),
    (FaultProgram::TaskPipeline, SystemUnderTest::Ratchet),
    (FaultProgram::BigState, SystemUnderTest::Chinchilla),
    (FaultProgram::TaskPipeline, SystemUnderTest::Tics),
    (FaultProgram::BigState, SystemUnderTest::Ratchet),
];

/// One cell of a round.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Corpus program.
    pub program: FaultProgram,
    /// System under test.
    pub system: SystemUnderTest,
    /// Built program.
    pub prog: Program,
    /// Cycle of the first power cut: the device boots at a seeded phase
    /// of the harvester's period, then sees the periodic supply.
    pub phase_us: u64,
}

/// Set-up: builds every cell of the round.
///
/// # Errors
///
/// Build failures.
pub fn setup(seed: u64, tracing: &Tracing) -> Result<Vec<Cell>, String> {
    ROUND
        .iter()
        .enumerate()
        .map(|(i, &(program, system))| {
            let prog = {
                let _span = tracing.span(Layer::MinicBuild);
                build_fault_program(program, system)?
            };
            let phase_us =
                ON_US / 2 + splitmix64(seed ^ splitmix64(i as u64 + 0xC4)) % (ON_US / 2) + 1;
            Ok(Cell {
                program,
                system,
                prog,
                phase_us,
            })
        })
        .collect()
}

/// Runs one cell on a fresh machine with the same public calls as
/// `exp_bench`, returning the machine and outcome.
///
/// # Errors
///
/// Machine construction failures.
pub fn run_cell(
    cell: &Cell,
    tracing: &Tracing,
) -> Result<(Machine, Result<RunOutcome, VmError>), String> {
    let config = MachineConfig::default();
    let image = {
        let _span = tracing.span(Layer::ImageBuild);
        MachineImage::build(cell.prog.clone(), &config).map_err(|e| e.to_string())?
    };
    let (mut m, mut rt, mut supply) = {
        let _span = tracing.span(Layer::MachineNew);
        let rt = tracing.runtime(make_runtime(cell.system, &cell.prog));
        let supply = tracing.supply(Box::new(AdversarialSupply::new(
            FaultPlan::new(vec![cell.phase_us], OFF_US).with_tail(Tail::Periodic {
                on_us: ON_US,
                off_us: OFF_US,
            }),
        )));
        let clock = tracing.clock(Box::new(PerfectClock::new()));
        let m = Machine::from_image(image, config.seed, clock).map_err(|e| e.to_string())?;
        (m, rt, supply)
    };
    let outcome = {
        let _span = tracing.span(Layer::Exec);
        Executor::new()
            .with_time_budget(BUDGET_US)
            .with_progress_guard(GUARD_BOOTS)
            .run(&mut m, rt.as_mut(), supply.as_mut())
    };
    Ok((m, outcome))
}

/// A run's simulated result: its fingerprint group.
fn run_group(m: &Machine, outcome: &Result<RunOutcome, VmError>) -> Group {
    let mut h = Fnv::default();
    h.str(&outcome_label(outcome));
    let s = m.stats();
    Group::new(
        1,
        &[
            ("outcome", h.finish()),
            ("cycles", m.cycles()),
            ("instructions", s.instructions),
            ("checkpoint_bytes", s.checkpoint_bytes),
            ("checkpoints", s.checkpoints),
            ("power_failures", s.power_failures),
            ("restores", s.restores),
            ("recoveries", s.recoveries),
            ("trace_len", m.trace().records().len() as u64),
        ],
    )
}

fn coords(slot: usize, cell: &Cell) -> String {
    format!("{}/{}/{slot}", cell.program.name(), cell.system.name())
}

/// The fingerprint of one round (no timing).
///
/// # Errors
///
/// Set-up and machine errors.
pub fn pass_fingerprint(seed: u64) -> Result<Fingerprint, String> {
    let cells = setup(seed, &Tracing::None)?;
    let mut fp = Fingerprint::default();
    for (slot, cell) in cells.iter().enumerate() {
        let (m, outcome) = run_cell(cell, &Tracing::None)?;
        fp.insert(coords(slot, cell), run_group(&m, &outcome));
    }
    Ok(fp)
}

/// The untraced run: complete rounds until the time is up.
///
/// # Errors
///
/// Harness errors and refused percentiles.
pub fn run(cfg: &RunCfg, committed: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let mut check = harness::PassCheck::new(cfg.seed, committed)?;
    let mut latencies = Vec::new();
    let (mut pass_instructions, mut pass_ops) = (0, 0);
    let timings = harness::measure(
        cfg.seconds,
        || setup(cfg.seed, &Tracing::None),
        |k, cells| {
            let mut fp = Fingerprint::default();
            let mut instructions = 0;
            let mut pass_latencies = Vec::with_capacity(cells.len());
            for (slot, cell) in cells.iter().enumerate() {
                let t = Instant::now();
                let (m, outcome) = run_cell(cell, &Tracing::None)?;
                pass_latencies.push(t.elapsed().as_nanos() as f64 / 1e3);
                instructions += m.stats().instructions;
                fp.insert(coords(slot, cell), run_group(&m, &outcome));
            }
            if k.is_some() {
                (pass_instructions, pass_ops) = (instructions, cells.len() as u64);
                latencies.push(pass_latencies);
                check.check(fp);
            }
            Ok(())
        },
    )?;
    report.attempted = pass_ops * timings.pass_walls.len() as u64;
    check.finish(&mut report, "ckpt", cfg.seed);
    harness::end_to_end(
        &mut report,
        Measured {
            timings: &timings,
            pass_instructions,
            pass_ops,
            latencies_us: &latencies,
            sample_ops: 1,
        },
        &Aliases {
            rate: "runs_per_s",
            latency: "run_ms",
            latency_div: 1e3,
            tail: 90,
        },
    )?;
    Ok(report)
}

/// The traced run: every run goes once plain and once behind the
/// wrappers; the two must agree exactly.
///
/// # Errors
///
/// Harness errors.
pub fn run_traced(cfg: &RunCfg, committed: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let ledger = Ledger::new(Instant::now());
    let cells = setup(cfg.seed, &Tracing::Fine(ledger.clone()))?;
    ledger.set_phase(Phase::Pass);
    let tracing = Tracing::Fine(ledger.clone());
    let mut sim = SimTotals::default();
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut check = harness::PassCheck::new(cfg.seed, committed)?;
    let mut runs = 0u64;
    let passes = harness::timed_passes(cfg.seconds, |k| {
        let mut fp = Fingerprint::default();
        for (slot, cell) in cells.iter().enumerate() {
            let t = Instant::now();
            let (pm, poutcome) = run_cell(cell, &Tracing::None)?;
            untraced_ns += t.elapsed().as_nanos() as u64;
            tracing.begin_op((k << 8) | slot as u64);
            let t = Instant::now();
            let (m, outcome) = run_cell(cell, &tracing)?;
            traced_ns += t.elapsed().as_nanos() as u64;
            sim.add_machine(&m);
            runs += 1;
            let group = run_group(&m, &outcome);
            if group != run_group(&pm, &poutcome) || m.trace().records() != pm.trace().records() {
                report.fail(
                    1,
                    format!("TRACED MISMATCH at {} round {k}", coords(slot, cell)),
                );
            }
            fp.insert(coords(slot, cell), group);
        }
        check.check(fp);
        Ok(())
    })?
    .len() as u64;
    report.attempted = runs;
    check.finish(&mut report, "ckpt", cfg.seed);
    let ledger = ledger.finish();
    traced::per_layer(
        &mut report,
        &ledger,
        &sim,
        passes,
        &traced::Extra {
            overhead_frac: traced_ns as f64 / untraced_ns as f64 - 1.0,
            ..traced::Extra::default()
        },
    );
    report.spans_tsv = Some(ledger.spans_tsv());
    Ok(report)
}
