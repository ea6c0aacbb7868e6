//! Adversarial power-failure fault injection against the
//! crash-consistency oracle.
//!
//! Sweeps (corpus program × system × cut-point strategy): each cell
//! replays a golden trace under hundreds of fault plans, judges every
//! replay with the idempotent-prefix oracle, and shrinks the first
//! violation to a minimal cut set the journal can replay verbatim.
//!
//! Exit status is the gate's verdict (`tics_bench::gate`: `violations`
//! against naive MementOS as the control) plus the headline
//! demonstration — naive checkpointing diverges on a plan TICS survives.
//!
//! `--quick` runs a reduced CI grid; `--threads N` as usual.

use std::process::ExitCode;

use tics_apps::{App, SystemUnderTest};
use tics_bench::fault::{
    build_fault_program, cuts_string, fault_budget_us, golden_device, golden_run, judge,
    parse_cuts, run_fault_cell, run_plan, FaultProgram, Strategy, Verdict, GUARD_BOOTS, OFF_US,
};
use tics_bench::gate::{self, Check, Gate};
use tics_bench::journal::JournalRow;
use tics_bench::sweep::{Cell, Sweep, SweepArgs};
use tics_energy::FaultPlan;

const GATE: Gate = Gate {
    name: "fault",
    violation_key: "violations",
    controls: &[SystemUnderTest::Mementos],
};

fn strategy_from(name: &str) -> Strategy {
    Strategy::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or(Strategy::Stride)
}

/// The headline demonstration: the first shrunk naive-MementOS
/// violation, replayed verbatim against TICS, must be survived.
fn demo(rows: &[JournalRow]) -> Check {
    let (naive, tics) = (SystemUnderTest::Mementos, SystemUnderTest::Tics);
    let systems = format!("{} vs {}", tics.name(), naive.name());
    let found = rows
        .iter()
        .filter(|r| r.system == naive.name())
        .find_map(|row| {
            let cuts = parse_cuts(row.metric("shrunk_cuts")?.as_str()?);
            let plan = FaultPlan::new(cuts, row.metric_u64("off_us").unwrap_or(OFF_US));
            Some((FaultProgram::from_name(&row.app)?, plan)).filter(|(_, p)| !p.cuts.is_empty())
        });
    let Some((program, plan)) = found else {
        let missing = format!("a shrunk {} violation to replay", naive.name());
        let why = vec!["no reproducible naive divergence found".to_string()];
        return Check::new("demo", missing, "none".to_string(), 0, &systems, why);
    };
    let verdict = build_fault_program(program, tics).and_then(|prog| {
        let golden = golden_run(&prog, tics)?;
        let trial = run_plan(&prog, tics, &plan, fault_budget_us(&golden), GUARD_BOOTS);
        Ok(judge(&golden, &trial))
    });
    let measured = match &verdict {
        Ok(v) => v.label().to_string(),
        Err(e) => format!("no replay: {e}"),
    };
    let why = match verdict {
        Ok(Verdict::Consistent) => Vec::new(),
        _ => vec!["TICS did not survive the shrunk naive-divergence plan".to_string()],
    };
    let threshold = format!(
        "TICS consistent on {}'s shrunk {} plan, cuts [{}]",
        naive.name(),
        program.name(),
        cuts_string(&plan)
    );
    Check::new("demo", threshold, measured, 1, &systems, why)
}

fn main() -> ExitCode {
    let args = SweepArgs::parse_env();
    let quick = args.rest.iter().any(|a| a == "--quick");
    println!("Fault injection: adversarial cut points vs the consistency oracle\n");

    let programs: &[FaultProgram] = if quick {
        &[FaultProgram::NvAccumulator, FaultProgram::LcgStream]
    } else {
        &FaultProgram::ALL
    };
    let systems: &[SystemUnderTest] = if quick {
        &[
            SystemUnderTest::PlainC,
            SystemUnderTest::Tics,
            SystemUnderTest::Mementos,
            SystemUnderTest::Chinchilla,
            SystemUnderTest::Ratchet,
            SystemUnderTest::Alpaca,
        ]
    } else {
        &SystemUnderTest::ALL
    };
    let strategies: &[Strategy] = if quick {
        &[Strategy::Stride]
    } else {
        &Strategy::ALL
    };
    let (stride_trials, random_trials) = if quick { (40, 12) } else { (200, 64) };

    let mut sweep = Sweep::new(GATE.name).args(args);
    for &p in programs {
        for &system in systems {
            for &strategy in strategies {
                sweep = sweep.cell(
                    Cell::new(App::Bc, system)
                        .label(p.name())
                        .param("program", p.name())
                        .param("strategy", strategy.name()),
                );
            }
        }
    }

    let outcome = sweep.run_with(|cell| {
        let program = FaultProgram::from_name(cell.param_str("program"))
            .ok_or_else(|| "unknown corpus program".to_string())?;
        let strategy = strategy_from(cell.param_str("strategy"));
        let trials = match strategy {
            Strategy::Stride => stride_trials,
            Strategy::Random => random_trials,
            Strategy::Probe => 0, // probe brings its own period ladder
        };
        gate::cell(
            build_fault_program(program, cell.system),
            cell.system,
            |subject| {
                let (golden, _) = golden_device(subject)?;
                Ok(run_fault_cell(subject, &golden, strategy, trials, cell.seed).to_output())
            },
        )
    });

    GATE.report(&outcome);
    GATE.verdict(&outcome.rows, [demo(&outcome.rows)])
}
