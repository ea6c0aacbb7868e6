//! The span-total identity, end to end: every cycle the machine charges
//! is attributed to exactly one span kind, so the per-span totals must
//! sum back to the machine's cycle counter — for every runtime, on both
//! continuous and failing power.

use tics_bench::runner::{run_app, ClockKind};
use tics_bench::Cell;
use tics_repro::apps::{App, SystemUnderTest};
use tics_repro::energy::{ContinuousPower, PeriodicTrace, PowerSupply};
use tics_trace::SpanKind;

fn check(app: App, system: SystemUnderTest, supply: &mut dyn PowerSupply) {
    let cell = Cell::new(app, system)
        .scale(8)
        .clock(ClockKind::Perfect)
        .budget(2_000_000_000);
    let Ok(r) = run_app(&cell, supply) else {
        // Infeasible app × system combinations (the paper's red
        // crosses) have nothing to attribute.
        return;
    };
    let total: u64 = r.span_cycles.iter().sum();
    assert_eq!(
        total,
        r.cycles,
        "span-total identity violated: {} under {} ({})",
        app.name(),
        system.name(),
        r.outcome
    );
}

#[test]
fn span_totals_equal_cycles_for_every_system() {
    for app in [App::Ar, App::Bc, App::Cuckoo] {
        for system in SystemUnderTest::ALL {
            check(app, system, &mut ContinuousPower::new());
            check(app, system, &mut PeriodicTrace::new(100_000, 5_000));
        }
    }
}

#[test]
fn tics_attributes_runtime_work_outside_the_app_span() {
    let cell = Cell::new(App::Bc, SystemUnderTest::Tics)
        .scale(8)
        .budget(2_000_000_000);
    let r = run_app(&cell, &mut PeriodicTrace::new(100_000, 5_000)).expect("BC builds under TICS");
    let spans = r.span_cycles;
    assert!(spans[SpanKind::App.index()] > 0, "{spans:?}");
    assert!(spans[SpanKind::Checkpoint.index()] > 0, "{spans:?}");
    assert!(spans[SpanKind::Restore.index()] > 0, "{spans:?}");
    assert!(spans[SpanKind::UndoLog.index()] > 0, "{spans:?}");
    // App work must dominate runtime bookkeeping on this benchmark.
    let runtime: u64 = SpanKind::ALL
        .iter()
        .filter(|k| k.is_runtime())
        .map(|k| spans[k.index()])
        .sum();
    assert!(runtime > 0 && runtime < r.cycles, "{spans:?}");
}

#[test]
fn plain_c_charges_everything_to_the_app() {
    let cell = Cell::new(App::Bc, SystemUnderTest::PlainC)
        .scale(8)
        .budget(2_000_000_000);
    let r = run_app(&cell, &mut ContinuousPower::new()).expect("plain C builds");
    assert_eq!(r.span_cycles[SpanKind::App.index()], r.cycles);
    for k in SpanKind::ALL.iter().filter(|k| k.is_runtime()) {
        assert_eq!(r.span_cycles[k.index()], 0, "{k:?}");
    }
}
