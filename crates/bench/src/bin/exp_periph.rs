//! Torn-wire peripheral sweep against the detect-or-recover oracle.
//!
//! Sweeps (workload × system × corruption rate): every cell replays
//! seeded multi-cut fault plans against the UART/I2C peripheral models,
//! whose device-side state — FIFO bytes already on the wire, the I2C
//! sensor's read-out cursor — persists across MCU reboots. Checkpoints
//! rewind the program, never the wire, so a runtime replaying from a
//! checkpoint re-drives half-completed I/O unless its driver layer
//! makes every transaction idempotent.
//!
//! The oracle judges each trial at the *device* side of the wire:
//! duplicate attempt-tagged frames, regressed or mutated print streams,
//! and payloads that don't match the sensor's own served-readings log
//! are violations; explicit traps are acceptable detections; journaled
//! retries, commit-window gaps, and stale-drops are counted recovery.
//!
//! Exit status is the gate's verdict (`tics_bench::gate`): `violations`
//! is 0 on every consistency-claiming runtime, and above 0 on each
//! un-hardened control (plain C, the naive checkpointer). On a claim
//! failure the offending cell's wire-level exhibit (last wire bytes,
//! decoded frames, prints, served readings, cut schedule) lands in
//! `results/periph_wire_<workload>_<system>[_rNN].json`.
//!
//! `--quick` runs a reduced CI grid; `--threads N` / `--journal PATH` /
//! `--cell-timeout-ms N` / `--resume` as usual.

use std::process::ExitCode;

use tics_apps::{App, SystemUnderTest};
use tics_bench::gate::{self, Gate};
use tics_bench::periph::{build_periph_program, periph_golden, run_periph_cell, PeriphWorkload};
use tics_bench::sweep::{Cell, Sweep, SweepArgs};
use tics_bench::Json;

const GATE: Gate = Gate {
    name: "periph",
    violation_key: "violations",
    controls: &[SystemUnderTest::PlainC, SystemUnderTest::Mementos],
};

/// The corruption-rate coordinate of a cell's params or a row's `extra`.
fn rate_of(fields: &[(String, Json)]) -> Option<f64> {
    fields.iter().find(|(k, _)| k == "rate")?.1.as_f64()
}

fn main() -> ExitCode {
    let args = SweepArgs::parse_env();
    let quick = args.rest.iter().any(|a| a == "--quick");
    println!("Torn-wire peripherals vs the detect-or-recover oracle\n");

    let workloads: &[PeriphWorkload] = if quick {
        &[PeriphWorkload::SensorLog, PeriphWorkload::Telemetry]
    } else {
        &PeriphWorkload::ALL
    };
    let systems: &[SystemUnderTest] = if quick {
        &[
            SystemUnderTest::PlainC,
            SystemUnderTest::Tics,
            SystemUnderTest::Mementos,
            SystemUnderTest::Alpaca,
        ]
    } else {
        &SystemUnderTest::ALL
    };
    let rates: &[f64] = if quick { &[0.0] } else { &[0.0, 0.3] };
    let trials = if quick { 8 } else { 24 };

    let mut sweep = Sweep::new(GATE.name).args(args);
    for &rate in rates {
        for &system in systems {
            for &w in workloads {
                sweep = sweep.cell(
                    Cell::new(App::Bc, system)
                        .label(w.name())
                        .param("workload", w.name())
                        .param("rate", rate),
                );
            }
        }
    }

    let outcome = sweep.run_with(|cell| {
        let workload = PeriphWorkload::from_name(cell.param_str("workload"))
            .ok_or_else(|| "unknown workload".to_string())?;
        let rate = rate_of(&cell.params).ok_or_else(|| "rate param missing".to_string())?;
        gate::cell(
            build_periph_program(workload, cell.system),
            cell.system,
            |subject| {
                let golden = periph_golden(subject)?;
                Ok(
                    run_periph_cell(workload, subject, &golden, rate, trials, cell.seed)
                        .to_output(),
                )
            },
        )
    });

    GATE.report(&outcome);
    // Only a claiming runtime's violation carries its exhibit to disk.
    for row in outcome.ok_rows().filter(|r| gate::claims_consistency(r)) {
        if let Some(exhibit) = row.metric("wire_exhibit") {
            let rate = rate_of(&row.extra).unwrap_or(0.0);
            let tag = if rate > 0.0 {
                format!("_r{:02}", (rate * 100.0).round() as u32)
            } else {
                String::new()
            };
            tics_bench::write_json(
                &format!("periph_wire_{}_{}{tag}", row.app, row.system),
                exhibit,
            );
        }
    }
    GATE.verdict(&outcome.rows, [])
}
