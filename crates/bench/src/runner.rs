//! The default cell runner: build a sweep cell's app for its system,
//! run it through the [`crate::trial`] pipeline on a supply, and report
//! its counters.

use tics_apps::build::{make_runtime, Scale};
use tics_apps::build_app;
use tics_clock::{CapacitorRtc, PerfectClock, Timekeeper, VolatileClock};
use tics_energy::PowerSupply;
use tics_vm::{Executor, MachineConfig};

use crate::sweep::{Cell, CellOutput};
use crate::trial::Device;

/// Which timekeeper the device carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    /// Ground truth (also a fine stand-in for an ideal RTC).
    Perfect,
    /// The MCU's internal timer: resets at every reboot. What legacy
    /// code gets without TICS.
    Volatile,
    /// An RTC alive through outages up to a capacitor budget (µs).
    CapacitorRtc(u64),
}

impl ClockKind {
    /// Journal label (`perfect`, `volatile`, `rtc:<budget µs>`).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            ClockKind::Perfect => "perfect".to_string(),
            ClockKind::Volatile => "volatile".to_string(),
            ClockKind::CapacitorRtc(budget) => format!("rtc:{budget}"),
        }
    }

    /// Instantiates the timekeeper.
    #[must_use]
    pub fn build(self) -> Box<dyn Timekeeper> {
        match self {
            ClockKind::Perfect => Box::new(PerfectClock::new()),
            ClockKind::Volatile => Box::new(VolatileClock::new()),
            ClockKind::CapacitorRtc(budget) => Box::new(CapacitorRtc::new(budget)),
        }
    }
}

/// The device `cell` denotes: its app built for its system at its opt
/// level and scale, loaded with the app's standard sensor trace, with
/// the system's runtime, the cell's seed and the cell's timekeeper.
///
/// # Errors
///
/// Infeasible app × system × opt combinations, and programs that
/// compile but do not load (image too large, bad layout), as text.
pub fn cell_device(cell: &Cell) -> Result<Device, String> {
    let prog =
        build_app(cell.app, cell.system, cell.opt, Scale(cell.scale)).map_err(|e| e.to_string())?;
    let runtime = make_runtime(cell.system, &prog);
    let config = MachineConfig {
        sensor_trace: cell.sensor_trace(),
        seed: cell.seed,
        ..MachineConfig::default()
    };
    Device::load(prog, &config, runtime, cell.clock.build())
        .map_err(|e| format!("load failed under {}: {e}", cell.system.name()))
}

/// Runs `cell`'s device ([`cell_device`]) on `supply` within the cell's
/// on-time budget and returns its counters plus the image's `.text` and
/// `.data` sizes. VM-level traps surface as an `"error: …"` outcome so
/// sweeps can continue.
///
/// # Errors
///
/// As [`cell_device`].
pub fn run_app(cell: &Cell, supply: &mut dyn PowerSupply) -> Result<CellOutput, String> {
    let mut device = cell_device(cell)?;
    let outcome = device.run(
        &Executor::new().with_time_budget(cell.time_budget_us),
        supply,
    );
    let prog = &device.machine.loaded().program;
    Ok(CellOutput {
        text_bytes: prog.text_bytes(),
        data_bytes: prog.data_bytes(),
        ..device.counters(&outcome)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tics_apps::{App, SystemUnderTest};
    use tics_energy::ContinuousPower;

    #[test]
    fn runs_bc_under_tics_continuously() {
        let cell = Cell::new(App::Bc, SystemUnderTest::Tics).scale(10);
        let r = run_app(&cell, &mut ContinuousPower::new()).unwrap();
        assert_eq!(r.outcome, "finished");
        assert!(r.exit_code.unwrap() > 0);
        assert!(r.cycles > 0);
        assert!(r.text_bytes > 0 && r.data_bytes > 0);
        // Span-total identity: every cycle is attributed to exactly one
        // span, so the per-span totals sum back to the cycle counter.
        assert_eq!(r.span_cycles.iter().sum::<u64>(), r.cycles);
    }

    #[test]
    fn propagates_unsupported_combinations() {
        let cell = Cell::new(App::Bc, SystemUnderTest::Chinchilla);
        assert!(run_app(&cell, &mut ContinuousPower::new()).is_err());
    }
}
