//! The trial pipeline: the one place a device is run.
//!
//! Every harness — the default sweep runner, the fault, chaos and
//! torn-wire oracles, the fleet engine and the hand-built experiment
//! cells — instantiates a [`Device`] from a shared [`MachineImage`]
//! (a [`Subject`] binds one to the system under test), optionally arms
//! brown-out corruption, runs one configured [`Executor`] on a supply
//! and reads the finished machine back as journal counters
//! ([`Device::counters`]). A cell of many lives sums those counters, so
//! every journal row's per-span cycles add up to its cycle count
//! (DESIGN.md §5h).

use std::sync::Arc;

use tics_apps::build::make_runtime;
use tics_apps::SystemUnderTest;
use tics_clock::{PerfectClock, Timekeeper};
use tics_energy::{Corruption, PowerSupply};
use tics_mcu::CorruptionModel;
use tics_minic::Program;
use tics_vm::{
    Executor, IntermittentRuntime, Machine, MachineConfig, MachineImage, RunOutcome,
    RuntimeCapabilities, VmError,
};

use crate::sweep::CellOutput;

/// One simulated device: a machine instantiated from a shared image and
/// the runtime that drives it.
pub struct Device {
    /// The machine (public so harnesses can read traces, wire logs and
    /// app state, or switch on detailed tracing before a run).
    pub machine: Machine,
    /// The intermittent runtime.
    pub runtime: Box<dyn IntermittentRuntime>,
}

impl Device {
    /// Instantiates a fresh device against `image`; fails as
    /// [`Machine::from_image`] does.
    pub(crate) fn new(
        image: &Arc<MachineImage>,
        runtime: Box<dyn IntermittentRuntime>,
        seed: u64,
        clock: Box<dyn Timekeeper>,
    ) -> Result<Device, VmError> {
        Ok(Device {
            machine: Machine::from_image(Arc::clone(image), seed, clock)?,
            runtime,
        })
    }

    /// A device with a private image of `prog` under `config`, seeded
    /// with `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Load`] if the program does not load.
    pub fn load(
        prog: Program,
        config: &MachineConfig,
        runtime: Box<dyn IntermittentRuntime>,
        clock: Box<dyn Timekeeper>,
    ) -> Result<Device, VmError> {
        Device::new(&MachineImage::build(prog, config)?, runtime, config.seed, clock)
    }

    /// Rewinds the device for its next life: the machine resets to what
    /// `Device::new` would build with `seed` (failing as
    /// [`Machine::reset`] does), and the runtime re-arms.
    pub(crate) fn recycle(&mut self, seed: u64) -> Result<(), VmError> {
        self.machine.reset(seed)?;
        self.runtime.recycle();
        Ok(())
    }

    /// Arms the brown-out corruption model `spec` describes.
    pub(crate) fn arm_corruption(&mut self, spec: &Corruption) {
        self.machine.mem.set_corruption(Some(
            CorruptionModel::new(spec.window, spec.flip_prob, spec.drop_prob, spec.seed)
                .with_sram_decay(spec.sram_decay),
        ));
    }

    /// Runs one life on `supply` under `exec`. A VM panic propagates:
    /// only the fault oracles, which arm corruption, contain it (see
    /// [`crate::fault::run_plan`]); anywhere else it reaches the sweep
    /// and is journaled as a `panicked` row.
    ///
    /// # Errors
    ///
    /// The executor's error.
    pub fn run(
        &mut self,
        exec: &Executor,
        supply: &mut dyn PowerSupply,
    ) -> Result<RunOutcome, VmError> {
        exec.run(&mut self.machine, self.runtime.as_mut(), supply)
    }

    /// The finished life as journal counters. `text_bytes`, `data_bytes`
    /// and `extra` are left for the caller.
    #[must_use]
    pub fn counters(&self, outcome: &Result<RunOutcome, VmError>) -> CellOutput {
        let stats = self.machine.stats();
        CellOutput {
            outcome: match outcome {
                Ok(RunOutcome::Finished(_)) => "finished".to_string(),
                Ok(RunOutcome::OutOfEnergy) => "out-of-energy".to_string(),
                Ok(RunOutcome::BudgetExhausted) => "budget-exhausted".to_string(),
                Ok(RunOutcome::Starved { boots }) => format!("starved after {boots} boots"),
                Err(e) => format!("error: {e}"),
            },
            exit_code: outcome.as_ref().ok().and_then(|o| o.exit_code()),
            cycles: self.machine.cycles(),
            checkpoints: stats.checkpoints,
            restores: stats.restores,
            power_failures: stats.power_failures,
            undo_appends: stats.undo_log_appends,
            span_cycles: self.machine.mem.span_cycles_all(),
            ..CellOutput::default()
        }
    }
}

/// A program image bound to the system whose runtime runs it, under the
/// default machine configuration: what the fault, chaos and torn-wire
/// oracles replay. The golden run and every trial of a cell instantiate
/// fresh devices from the one image.
#[derive(Debug)]
pub struct Subject {
    /// The shared image.
    pub image: Arc<MachineImage>,
    /// The system under test.
    pub system: SystemUnderTest,
}

impl Subject {
    /// Loads `prog` for `system`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Load`] if the program does not load.
    pub fn load(prog: &Program, system: SystemUnderTest) -> Result<Subject, VmError> {
        Ok(Subject {
            image: MachineImage::build(prog.clone(), &MachineConfig::default())?,
            system,
        })
    }

    /// What the system's runtime declares it guarantees (its Table 5
    /// row), for the program this subject runs.
    #[must_use]
    pub fn capabilities(&self) -> RuntimeCapabilities {
        make_runtime(self.system, &self.image.loaded().program).capabilities()
    }

    /// A fresh device: the system's runtime, the default seed and a
    /// perfect clock.
    ///
    /// # Errors
    ///
    /// Propagates [`Machine::from_image`]'s error.
    pub fn device(&self) -> Result<Device, VmError> {
        Device::new(
            &self.image,
            make_runtime(self.system, &self.image.loaded().program),
            MachineConfig::default().seed,
            Box::new(PerfectClock::new()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::run_contained;
    use crate::journal::CellStatus;
    use crate::runner::{cell_device, run_app};
    use crate::sweep::{Cell, Sweep, SweepArgs};
    use tics_apps::App;
    use tics_energy::OnPeriod;

    /// Power for one millisecond, then a crash inside the executor at
    /// the first reboot: a VM panic mid-run, after simulated cycles.
    struct PanicsAtReboot(bool);

    impl PowerSupply for PanicsAtReboot {
        fn next_period(&mut self) -> Option<OnPeriod> {
            assert!(!self.0, "supply exploded at reboot");
            self.0 = true;
            Some(OnPeriod {
                on_us: 1_000,
                off_us: 1_000,
            })
        }
    }

    fn bc() -> Cell {
        Cell::new(App::Bc, SystemUnderTest::PlainC).scale(10)
    }

    /// Outside the fault oracles a VM panic is not an outcome: the
    /// default runner lets it reach the sweep, which journals a
    /// `panicked` row.
    #[test]
    fn a_vm_panic_in_a_runner_journals_a_panicked_row() {
        let journal = std::env::temp_dir().join(format!("tics-trial-{}.jsonl", std::process::id()));
        let outcome = Sweep::new("trial-panic")
            .args(SweepArgs {
                threads: 1,
                journal: Some(journal.clone()),
                ..SweepArgs::default()
            })
            .cell(bc())
            .run_with(|cell| run_app(cell, &mut PanicsAtReboot(false)));
        let _ = std::fs::remove_file(journal);
        let row = &outcome.rows[0];
        assert_eq!(row.status, CellStatus::Panicked);
        assert!(row.outcome.contains("supply exploded"), "{}", row.outcome);
    }

    /// The fault oracles' one containment site turns the same panic into
    /// a trap, and the crashed device still attributes every cycle.
    #[test]
    fn a_contained_panic_is_a_trap_with_every_cycle_attributed() {
        let mut device = cell_device(&bc()).expect("loads");
        let out = run_contained(&mut device, &Executor::new(), &mut PanicsAtReboot(false));
        let counters = device.counters(&out);
        assert_eq!(
            counters.outcome,
            "error: trap: vm crashed on corrupted state: supply exploded at reboot"
        );
        assert!(counters.cycles > 0, "the crash must come mid-run");
        assert_eq!(counters.span_cycles.iter().sum::<u64>(), counters.cycles);
    }
}
