//! Tracing must not change what the simulator does: a run behind the
//! forwarding wrappers gives the same trace stream, cycles, statistics
//! and final SRAM/FRAM as the plain run, on one op per system of every
//! workload.

use std::time::Instant;

use tics_apps::SystemUnderTest;
use tics_perfbench::common::{Observed, Tracing};
use tics_perfbench::ledger::{Ledger, TracedRuntime};
use tics_perfbench::{ckpt, fleet, oracle};
use tics_vm::IntermittentRuntime;

fn fine() -> Tracing {
    Tracing::Fine(Ledger::new(Instant::now()))
}

#[test]
fn fleet_devices_are_unchanged_by_tracing() {
    let systems = fleet::setup(3, &Tracing::None).unwrap();
    assert_eq!(systems.len(), 7, "AR is feasible on seven systems");
    for s in &systems {
        // Two devices: the first is built fresh, the second recycled.
        let run = |tracing: &Tracing| {
            let mut seen = Vec::new();
            fleet::mirror_shard(s, 5, 2, tracing, 0, |m, outcome| {
                seen.push(Observed::capture(m, outcome));
            })
            .unwrap();
            seen
        };
        let plain = run(&Tracing::None);
        assert_eq!(plain.len(), 2);
        assert_eq!(run(&fine()), plain, "fleet/{}", s.system.name());
    }
}

#[test]
fn oracle_trials_are_unchanged_by_tracing() {
    let cells = oracle::setup(3, &Tracing::None).unwrap();
    for system in SystemUnderTest::ALL {
        let cell = cells
            .iter()
            .find(|c| c.system == system)
            .expect("every system hosts a corpus program");
        // A corrupted multi-cut plan exercises boot, restore, CRC
        // recovery and torn writes at once.
        let chaos = cell.families.iter().find(|f| f.name == "chaos").unwrap();
        for plan in [&chaos.plans[1], &cell.families[0].plans[3]] {
            let run = |tracing: &Tracing| {
                let (trial, m) =
                    oracle::mirror_trial(&cell.prog, cell.system, plan, cell.budget, tracing);
                Observed::capture(&m.expect("machine builds"), &trial.outcome)
            };
            let plain = run(&Tracing::None);
            assert!(
                plain.stats.power_failures > 0,
                "{}: the plan cuts power",
                system.name()
            );
            assert_eq!(
                run(&fine()),
                plain,
                "oracle/{}/{}",
                cell.program.name(),
                system.name()
            );
        }
    }
}

#[test]
fn ckpt_runs_are_unchanged_by_tracing() {
    for cell in ckpt::setup(3, &Tracing::None).unwrap() {
        let run = |tracing: &Tracing| {
            let (m, outcome) = ckpt::run_cell(&cell, tracing).unwrap();
            Observed::capture(&m, &outcome)
        };
        let plain = run(&Tracing::None);
        assert_eq!(
            run(&fine()),
            plain,
            "ckpt/{}/{}",
            cell.program.name(),
            cell.system.name()
        );
    }
}

/// The methods with default bodies are the ones a wrapper can drop
/// silently; compare them against the wrapped runtime directly.
#[test]
fn the_runtime_wrapper_forwards_the_default_methods() {
    let cells = oracle::setup(3, &Tracing::None).unwrap();
    for system in SystemUnderTest::ALL {
        let cell = cells.iter().find(|c| c.system == system).unwrap();
        let mut inner = tics_apps::build::make_runtime(system, &cell.prog);
        let mut wrapped = TracedRuntime::new(
            tics_apps::build::make_runtime(system, &cell.prog),
            Ledger::new(Instant::now()),
        );
        assert_eq!(wrapped.name(), inner.name());
        assert_eq!(wrapped.capabilities(), inner.capabilities());
        assert_eq!(
            wrapped.instruction_hook(),
            inner.instruction_hook(),
            "{}",
            system.name()
        );
        assert_eq!(
            wrapped.tx_driver().is_some(),
            inner.tx_driver().is_some(),
            "{}",
            system.name()
        );
        assert_eq!(
            wrapped.check_program(&cell.prog).is_ok(),
            inner.check_program(&cell.prog).is_ok()
        );
    }
}
