//! The span-total identity for every oracle harness: a fault, chaos or
//! torn-wire cell sums its trials' counters into one journal row, and
//! the row's per-span cycles must add up to its cycles — including a
//! naive-MementOS chaos cell, whose corrupted state can crash the VM
//! mid-trial (a contained panic).

use tics_apps::SystemUnderTest;
use tics_bench::fault::{
    build_fault_program, golden_device, run_chaos_cell, run_fault_cell, FaultProgram, Strategy,
};
use tics_bench::periph::{build_periph_program, periph_golden, run_periph_cell, PeriphWorkload};
use tics_bench::trial::Subject;
use tics_bench::CellOutput;

const PROGRAMS: [FaultProgram; 2] = [FaultProgram::NvAccumulator, FaultProgram::LcgStream];

fn assert_identity(what: &str, counters: &CellOutput) {
    assert!(counters.cycles > 0, "{what}: no cycles simulated");
    assert_eq!(
        counters.span_cycles.iter().sum::<u64>(),
        counters.cycles,
        "{what}: spans {:?}",
        counters.span_cycles
    );
}

fn fault_subject(program: FaultProgram, system: SystemUnderTest) -> Option<Subject> {
    let prog = build_fault_program(program, system).ok()?;
    Some(Subject::load(&prog, system).expect("corpus program loads"))
}

#[test]
fn fault_cells_attribute_every_cycle() {
    for program in PROGRAMS {
        for system in SystemUnderTest::ALL {
            let Some(subject) = fault_subject(program, system) else {
                continue;
            };
            let (golden, _) = golden_device(&subject).expect("golden run");
            for strategy in Strategy::ALL {
                let report = run_fault_cell(&subject, &golden, strategy, 8, 0xF417);
                let what = format!(
                    "{} x {} x {}",
                    program.name(),
                    system.name(),
                    strategy.name()
                );
                assert_identity(&what, &report.counters);
            }
        }
    }
}

/// Naive MementOS is included because corrupted state can crash its VM
/// mid-trial; the crashed trial's counters must still add up (the
/// contained path itself is unit-tested in `trial.rs`).
#[test]
fn chaos_cells_attribute_every_cycle() {
    for program in PROGRAMS {
        for system in [
            SystemUnderTest::Tics,
            SystemUnderTest::Mementos,
            SystemUnderTest::Ratchet,
        ] {
            let subject = fault_subject(program, system).expect("builds");
            let (golden, _) = golden_device(&subject).expect("golden run");
            let report = run_chaos_cell(&subject, &golden, 0.4, 16, 0x9B9E_636B_85B9_E3AB);
            let what = format!("{} x {}", program.name(), system.name());
            assert_identity(&what, &report.counters);
        }
    }
}

#[test]
fn periph_cells_attribute_every_cycle() {
    for workload in PeriphWorkload::ALL {
        for system in [
            SystemUnderTest::PlainC,
            SystemUnderTest::Tics,
            SystemUnderTest::Mementos,
            SystemUnderTest::Alpaca,
        ] {
            let Ok(prog) = build_periph_program(workload, system) else {
                continue;
            };
            let subject = Subject::load(&prog, system).expect("workload loads");
            let golden = periph_golden(&subject).expect("golden run");
            for rate in [0.0, 0.3] {
                let report = run_periph_cell(workload, &subject, &golden, rate, 8, 0x7E57);
                let what = format!("{} x {} at rate {rate}", workload.name(), system.name());
                assert_identity(&what, &report.counters);
            }
        }
    }
}
