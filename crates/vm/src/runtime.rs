//! The [`IntermittentRuntime`] trait and the bare (plain C) runtime.

use tics_mcu::Addr;
use tics_minic::isa::{CkptSite, VarId};
use tics_minic::program::{Instrumentation, Program};

use crate::caps::{PortingEffort, RuntimeCapabilities};
use crate::error::VmError;
use crate::machine::Machine;
use crate::Result;

/// What the machine should do after a (re)boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeAction {
    /// Start from `main` with a fresh stack. `reinit_globals` re-runs
    /// crt0-style initialization of non-`nv` globals.
    Restart {
        /// Whether to re-initialize non-`nv` globals.
        reinit_globals: bool,
    },
    /// The runtime has restored registers (and any needed memory); resume
    /// where they point.
    Restored,
}

/// Why a checkpoint was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// An inserted or manual checkpoint site in the code.
    Site(CkptSite),
    /// The runtime's periodic timer fired.
    Timer,
    /// The supply's low-voltage interrupt fired.
    Voltage,
}

/// The policy layer between the VM and the MCU: frame placement, store
/// interception, checkpointing, recovery, and time semantics.
///
/// Implementations (the TICS runtime in `tics-core`, the baselines in
/// `tics-baselines`, [`BareRuntime`] here) hold *their persistent state
/// inside simulated FRAM* — a runtime that cached state in host memory
/// would silently survive power failures it should not survive.
pub trait IntermittentRuntime {
    /// Short display name ("TICS", "MementOS", ...).
    fn name(&self) -> &'static str;

    /// The Table 5 capability row for this runtime.
    fn capabilities(&self) -> RuntimeCapabilities;

    /// Validates that the program image carries the instrumentation this
    /// runtime expects. Called once before execution.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::IncompatibleInstrumentation`] on mismatch.
    fn check_program(&self, program: &Program) -> Result<()>;

    /// Returns the runtime to its as-constructed state so it can drive a
    /// recycled machine ([`Machine::reset`]) as if freshly built, keeping
    /// scratch allocations where possible. Runtimes whose entire state is
    /// host-side caches of FRAM structures rebuilt on boot use the
    /// default no-op only if they hold *no* such caches; everything
    /// stateful must override. The reset differential test runs every
    /// runtime through recycle-then-rerun to prove equivalence.
    fn recycle(&mut self) {}

    /// Called at every boot (first boot and after every power failure).
    ///
    /// # Errors
    ///
    /// Propagates memory errors during recovery.
    fn on_boot(&mut self, m: &mut Machine) -> Result<ResumeAction>;

    /// Places a frame of `frame_size` bytes for a call to `fidx` and
    /// returns its base address. `arg_bytes` of arguments will be copied
    /// into the frame body by the VM.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::StackOverflow`] when the stack region is
    /// exhausted.
    fn alloc_frame(
        &mut self,
        m: &mut Machine,
        fidx: u16,
        frame_size: u32,
        arg_bytes: u32,
    ) -> Result<Addr>;

    /// The frame at `fp` is being freed (function return).
    ///
    /// # Errors
    ///
    /// Propagates memory errors (e.g. from an enforced checkpoint).
    fn free_frame(&mut self, m: &mut Machine, fp: Addr) -> Result<()>;

    /// An instrumented store is about to write `len` bytes at `addr`
    /// (the old value is still in memory). TICS classifies the address
    /// and undo-logs it; baselines ignore it.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from logging.
    fn logged_store(&mut self, m: &mut Machine, addr: Addr, len: u32) -> Result<()>;

    /// A checkpoint site was reached (or the executor's timer/voltage
    /// event fired). The runtime decides whether to actually commit one.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from committing.
    fn checkpoint(&mut self, m: &mut Machine, kind: CheckpointKind) -> Result<()>;

    /// Called after every instruction; cheap bookkeeping (timer-driven
    /// checkpoints, expiration timers).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    fn on_instruction(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Ok(())
    }

    /// Whether [`IntermittentRuntime::on_instruction`] does real work for
    /// this runtime. When it returns `false` the decoded dispatcher
    /// skips the hook after plain (non-runtime-mediated) instructions;
    /// when `true` it asks [`IntermittentRuntime::next_hook_at`] how far
    /// its fused burst loop may run between calls. The default is
    /// conservatively `true` so an overriding runtime that forgets to
    /// change it stays correct (just slower). Must be constant for the
    /// lifetime of a run.
    fn instruction_hook(&self) -> bool {
        true
    }

    /// The earliest machine cycle at which
    /// [`IntermittentRuntime::on_instruction`] can next do work: called
    /// after an instruction that leaves the cycle counter below this
    /// value, the hook must be a no-op. The answer may only change
    /// through this runtime's own methods (the decoded dispatcher asks
    /// again after each of them), never through plain ALU, stack, memory
    /// or branch instructions. The default, `0`, means "after every
    /// instruction", which is exact for any runtime.
    fn next_hook_at(&self) -> u64 {
        0
    }

    /// A power failure just wiped volatile state; drop any volatile
    /// mirrors the runtime keeps outside simulated memory.
    fn on_power_failure(&mut self, m: &mut Machine) {
        let _ = m;
    }

    /// Entering an interrupt service routine.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    fn on_isr_enter(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Ok(())
    }

    /// Returned from an interrupt service routine.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    fn on_isr_exit(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Ok(())
    }

    // ---- time semantics (TICS annotations) ----

    /// `@=` executed: record "now" as the timestamp of annotated `var`.
    ///
    /// # Errors
    ///
    /// Default: time annotations need a time-aware runtime.
    fn timestamp_var(&mut self, m: &mut Machine, var: VarId) -> Result<()> {
        let _ = (m, var);
        Err(VmError::Trap(format!(
            "{}: time annotations require a time-aware runtime",
            self.name()
        )))
    }

    /// `@expires` guard: is `var` still fresh?
    ///
    /// # Errors
    ///
    /// Default: unsupported (see [`IntermittentRuntime::timestamp_var`]).
    fn expires_check(&mut self, m: &mut Machine, var: VarId) -> Result<bool> {
        let _ = (m, var);
        Err(VmError::Trap(format!(
            "{}: time annotations require a time-aware runtime",
            self.name()
        )))
    }

    /// `@timely(deadline_ms)`: is now strictly before the deadline?
    ///
    /// # Errors
    ///
    /// Default: unsupported.
    fn timely_check(&mut self, m: &mut Machine, deadline_ms: i32) -> Result<bool> {
        let _ = (m, deadline_ms);
        Err(VmError::Trap(format!(
            "{}: time annotations require a time-aware runtime",
            self.name()
        )))
    }

    /// Automatic checkpoints disabled (atomic region entered).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    fn atomic_begin(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Ok(())
    }

    /// Automatic checkpoints re-enabled.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    fn atomic_end(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Ok(())
    }

    /// Enter an `@expires`/`catch` block for `var`; `catch_pc` is the
    /// (flattened) handler address the runtime jumps to on expiration.
    ///
    /// # Errors
    ///
    /// Default: unsupported.
    fn expires_block_begin(&mut self, m: &mut Machine, var: VarId, catch_pc: u32) -> Result<()> {
        let _ = (m, var, catch_pc);
        Err(VmError::Trap(format!(
            "{}: time annotations require a time-aware runtime",
            self.name()
        )))
    }

    /// Leave an `@expires`/`catch` block normally.
    ///
    /// # Errors
    ///
    /// Default: unsupported.
    fn expires_block_end(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Err(VmError::Trap(format!(
            "{}: time annotations require a time-aware runtime",
            self.name()
        )))
    }

    /// The runtime's transactional peripheral driver, if it hardens wire
    /// I/O with the FRAM journal ([`crate::driver::TxDriver`]). The
    /// executor uses this to reconcile in-flight transactions at boot, to
    /// route `tx_begin`/`tx_commit`, and to suppress checkpoints while a
    /// transaction is open. The default (`None`) is the un-hardened
    /// behavior: `tx_begin` always proceeds with attempt 0 and nothing is
    /// journaled — exactly what legacy code does today.
    fn tx_driver(&mut self) -> Option<&mut crate::driver::TxDriver> {
        None
    }

    /// A `send(value)` is about to transmit. Return `true` if the
    /// runtime *virtualizes* the I/O — buffering it until the enclosing
    /// state is committed, so a rollback cannot leave a transmission the
    /// program later un-executes (the paper's §7 "virtualizing the I/O
    /// interface across power failures"). Returning `false` (the
    /// default) lets the radio fire immediately.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from buffering.
    fn io_send(&mut self, m: &mut Machine, value: i32) -> Result<bool> {
        let _ = (m, value);
        Ok(false)
    }
}

/// The "plain C" runtime: a continuously-powered program's view of the
/// world. Frames live in volatile SRAM; there are no checkpoints; every
/// reboot restarts `main` and re-initializes non-`nv` globals.
///
/// Running legacy code under [`BareRuntime`] on intermittent power
/// produces exactly the paper's Table 1 failure mode: `nv` state mutated
/// before the failure survives, everything else restarts — inconsistent
/// mixes included.
#[derive(Debug, Clone, Default)]
pub struct BareRuntime {
    frames_high_water: u32,
}

impl BareRuntime {
    /// Creates a bare runtime.
    #[must_use]
    pub fn new() -> BareRuntime {
        BareRuntime::default()
    }
}

impl IntermittentRuntime for BareRuntime {
    fn name(&self) -> &'static str {
        "plain-C"
    }

    fn instruction_hook(&self) -> bool {
        false
    }

    fn capabilities(&self) -> RuntimeCapabilities {
        RuntimeCapabilities {
            pointer_support: true,
            recursion_support: true,
            scalable: true,
            timely_execution: false,
            // Unprotected legacy code: nv state survives a reboot while
            // volatile state restarts — the one row Table 5 does not
            // claim consistency for.
            memory_consistency: false,
            porting_effort: PortingEffort::None,
        }
    }

    fn check_program(&self, program: &Program) -> Result<()> {
        if program.instrumentation == Instrumentation::None {
            Ok(())
        } else {
            Err(VmError::IncompatibleInstrumentation {
                expected: "none".into(),
                found: format!("{:?}", program.instrumentation),
            })
        }
    }

    fn on_boot(&mut self, _m: &mut Machine) -> Result<ResumeAction> {
        Ok(ResumeAction::Restart {
            reinit_globals: true,
        })
    }

    fn alloc_frame(
        &mut self,
        m: &mut Machine,
        _fidx: u16,
        frame_size: u32,
        _arg_bytes: u32,
    ) -> Result<Addr> {
        let sram = m.mem.layout().sram;
        let base = if m.regs.fp == Addr(0) && m.regs.sp == Addr(0) {
            sram.start
        } else {
            m.regs.sp
        };
        if !sram.contains_range(base, frame_size) {
            return Err(VmError::StackOverflow {
                detail: format!("SRAM stack exhausted allocating {frame_size} bytes"),
            });
        }
        self.frames_high_water = self
            .frames_high_water
            .max(base.raw() + frame_size - sram.start.raw());
        Ok(base)
    }

    fn free_frame(&mut self, _m: &mut Machine, _fp: Addr) -> Result<()> {
        Ok(())
    }

    fn logged_store(&mut self, _m: &mut Machine, _addr: Addr, _len: u32) -> Result<()> {
        Ok(())
    }

    fn checkpoint(&mut self, _m: &mut Machine, _kind: CheckpointKind) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tics_minic::{compile, opt::OptLevel, passes};

    #[test]
    fn bare_rejects_instrumented_programs() {
        let mut prog = compile("int main() { return 0; }", OptLevel::O0).unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let rt = BareRuntime::new();
        assert!(matches!(
            rt.check_program(&prog),
            Err(VmError::IncompatibleInstrumentation { .. })
        ));
    }

    #[test]
    fn bare_accepts_plain_programs() {
        let prog = compile("int main() { return 0; }", OptLevel::O0).unwrap();
        assert!(BareRuntime::new().check_program(&prog).is_ok());
    }
}
