//! Brown-out corruption chaos sweep against the detect-or-die oracle.
//!
//! Sweeps (corruption rate × system × corpus program): every cell
//! replays seeded multi-cut fault plans with the brown-out corruption
//! model riding on each cut — stores issued in the at-risk window
//! before the cut bit-flip or drop, and SRAM is clobbered across the
//! outage. The oracle's rule is *detect or die*: a runtime facing
//! corrupted checkpoint state may recover (CRC-validated fallback to
//! the older bank, or a declared fresh start), or it may trap loudly —
//! but silently computing on garbage is a `corrupted-state` violation.
//!
//! Exit status is the gate's verdict (`tics_bench::gate`):
//! `corrupted_state` is 0 on every consistency-claiming runtime, and
//! above 0 on the un-hardened naive checkpointer, the control.
//!
//! `--quick` runs a reduced CI grid; `--threads N` / `--journal PATH` /
//! `--cell-timeout-ms N` / `--resume` as usual.

use std::process::ExitCode;

use tics_apps::{App, SystemUnderTest};
use tics_bench::fault::{
    build_fault_program, golden_device, run_chaos_cell, FaultProgram, CHAOS_WINDOW,
};
use tics_bench::gate::{self, Gate};
use tics_bench::sweep::{Cell, Sweep, SweepArgs};
use tics_bench::Json;

const GATE: Gate = Gate {
    name: "chaos",
    violation_key: "corrupted_state",
    controls: &[SystemUnderTest::Mementos],
};

fn main() -> ExitCode {
    let args = SweepArgs::parse_env();
    let quick = args.rest.iter().any(|a| a == "--quick");
    println!(
        "Chaos: brown-out corruption (window {CHAOS_WINDOW} cycles) vs the \
         detect-or-die oracle\n"
    );

    let programs: &[FaultProgram] = if quick {
        &[FaultProgram::NvAccumulator, FaultProgram::LcgStream]
    } else {
        &[
            FaultProgram::NvAccumulator,
            FaultProgram::LcgStream,
            FaultProgram::TaskPipeline,
        ]
    };
    let systems: &[SystemUnderTest] = if quick {
        &[
            SystemUnderTest::Tics,
            SystemUnderTest::Mementos,
            SystemUnderTest::Ratchet,
        ]
    } else {
        &[
            SystemUnderTest::Tics,
            SystemUnderTest::Mementos,
            SystemUnderTest::Ratchet,
            SystemUnderTest::Chinchilla,
            SystemUnderTest::Alpaca,
        ]
    };
    let rates: &[f64] = if quick { &[0.4] } else { &[0.15, 0.3, 0.5] };
    let trials = if quick { 16 } else { 32 };

    let mut sweep = Sweep::new(GATE.name).args(args);
    for &rate in rates {
        for &system in systems {
            for &p in programs {
                sweep = sweep.cell(
                    Cell::new(App::Bc, system)
                        .label(p.name())
                        .param("program", p.name())
                        .param("rate", rate),
                );
            }
        }
    }

    let outcome = sweep.run_with(|cell| {
        let program = FaultProgram::from_name(cell.param_str("program"))
            .ok_or_else(|| "unknown corpus program".to_string())?;
        let rate = cell
            .param_value("rate")
            .and_then(Json::as_f64)
            .ok_or_else(|| "rate param missing".to_string())?;
        gate::cell(
            build_fault_program(program, cell.system),
            cell.system,
            |subject| {
                let (golden, _) = golden_device(subject)?;
                Ok(run_chaos_cell(subject, &golden, rate, trials, cell.seed).to_output())
            },
        )
    });

    GATE.report(&outcome);
    GATE.verdict(&outcome.rows, [])
}
