//! # tics-baselines — the systems TICS is evaluated against
//!
//! Faithful-behavior models of the five comparison systems from the
//! paper's evaluation (§5.3, Table 5), each implemented as a
//! [`tics_vm::IntermittentRuntime`]:
//!
//! * [`NaiveCheckpoint`] — "a naïve checkpoint-based system that logs the
//!   complete stack and all global variables (which closely resembles
//!   what MementOS does)": voltage-check sites, whole-state double
//!   buffering, checkpoint cost that grows with program state.
//! * [`ChinchillaRuntime`] — runs programs whose locals were promoted to
//!   globals by [`tics_minic::passes::instrument_chinchilla`];
//!   over-instrumented checkpoint sites thinned by a timing heuristic;
//!   rejects recursion; `.data`-heavy double buffering.
//! * [`RatchetRuntime`] — register-only checkpoints at every
//!   idempotent-section boundary; all memory in FRAM. Cheap per
//!   checkpoint but extremely frequent on pointer-heavy code.
//! * [`TaskKernel`] — the task-based kernels (Alpaca, InK, MayFly as
//!   [`TaskFlavor`]s): hand-ported task-graph programs, privatized
//!   global writes (undo log), commits at task boundaries, and — for
//!   InK/MayFly — time-aware extensions.
//!
//! As in `tics-core`, all persistent runtime state lives in simulated
//! FRAM; reboots rebuild host-side caches from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chinchilla;
pub mod naive;
pub mod ratchet;
pub mod taskkernel;

pub use chinchilla::ChinchillaRuntime;
pub use naive::NaiveCheckpoint;
pub use ratchet::RatchetRuntime;
pub use taskkernel::{TaskFlavor, TaskKernel};

use tics_mcu::Addr;
use tics_vm::nvstore::{journal_capacity, CtrlWords, NvStore, RecordBanks, RECORD_HEADER};
use tics_vm::{Machine, VmError};

/// Magic marking an initialized control block.
const MAGIC: u32 = 0xBA5E_C001;

/// Size of the control block in bytes.
const CTRL_SIZE: u32 = 28;

/// The persistent control block every baseline keeps at its runtime area
/// base: `u32` magic, `u32` valid-buffer flag (0 = none, 1 = A, 2 = B),
/// `u32` scratch word (the task kernels' undo count), `u64` delta-chain
/// base and `u64` delta-chain tip (the [`CtrlWords`] of the hardened
/// baselines' record store). The checkpoint buffers follow it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CtrlBlock {
    base: Addr,
}

impl CtrlBlock {
    /// The block at `m`'s runtime area base, initialized if this is the
    /// first boot on the image.
    fn attach(m: &mut Machine) -> Result<CtrlBlock, VmError> {
        let base = m.runtime_area_base();
        if m.mem.peek_u32(base)? != MAGIC {
            m.mem.poke_u32(base, MAGIC)?;
            m.mem.poke_u32(base.offset(4), 0)?;
            m.mem.poke_u32(base.offset(8), 0)?;
            m.mem.poke_u64(base.offset(12), 0)?;
            m.mem.poke_u64(base.offset(20), 0)?;
        }
        Ok(CtrlBlock { base })
    }

    /// First address past the block: where the checkpoint buffers start.
    fn end(m: &Machine) -> Addr {
        m.runtime_area_base().offset(CTRL_SIZE)
    }

    pub(crate) fn flag(&self, m: &Machine) -> Result<u32, VmError> {
        Ok(m.mem.peek_u32(self.base.offset(4))?)
    }

    pub(crate) fn set_flag(&self, m: &mut Machine, v: u32) -> Result<(), VmError> {
        Ok(m.mem.poke_u32(self.base.offset(4), v)?)
    }

    pub(crate) fn scratch(&self, m: &Machine) -> Result<u32, VmError> {
        Ok(m.mem.peek_u32(self.base.offset(8))?)
    }

    pub(crate) fn set_scratch(&self, m: &mut Machine, v: u32) -> Result<(), VmError> {
        Ok(m.mem.poke_u32(self.base.offset(8), v)?)
    }
}

/// Lays out a hardened baseline's record store after the control block:
/// banks A and B of up to `max_payload` payload bytes each, then the
/// delta journal. Returns the first address past the journal.
fn place_store(
    m: &Machine,
    max_payload: u32,
    banks: &mut RecordBanks,
    store: &mut NvStore,
) -> Addr {
    let bank_bytes = RECORD_HEADER + max_payload;
    let a = CtrlBlock::end(m);
    *banks = RecordBanks {
        a,
        b: a.offset(bank_bytes),
        max_payload,
    };
    let journal = banks.b.offset(bank_bytes);
    let capacity = journal_capacity(bank_bytes);
    let ctrl = m.runtime_area_base();
    store.place(
        CtrlWords {
            flag: ctrl.offset(4),
            delta_base: ctrl.offset(12),
            delta_tip: ctrl.offset(20),
        },
        journal,
        capacity,
    );
    journal.offset(capacity)
}

#[cfg(test)]
mod tests {
    use tics_core::{TicsConfig, TicsRuntime};
    use tics_energy::ContinuousPower;
    use tics_minic::program::Program;
    use tics_minic::{compile, opt::OptLevel, passes};
    use tics_trace::TraceEvent;
    use tics_vm::{Executor, IntermittentRuntime, MachineConfig, ResumeAction};

    use super::*;

    fn program(src: &str, instrument: impl FnOnce(&mut Program)) -> Program {
        let mut prog = compile(src, OptLevel::O1).unwrap();
        instrument(&mut prog);
        prog
    }

    /// Runs `rt` on continuous power; returns the machine, the runtime
    /// and the journal base its store uses.
    fn run<R: IntermittentRuntime + 'static>(
        prog: Program,
        mut rt: R,
        journal: impl Fn(&R) -> Addr,
    ) -> (Machine, Box<dyn IntermittentRuntime>, Addr) {
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        let at = journal(&rt);
        (m, Box::new(rt), at)
    }

    /// A chain whose last commits were incremental, in every hardened
    /// runtime: a corrupted first delta record truncates the chain to
    /// the anchoring full bank (still a valid restore point) and
    /// journals exactly one typed Recovery — never a silent restore of
    /// stale words, never a fresh start.
    #[test]
    fn corrupt_delta_record_falls_back_in_every_hardened_runtime() {
        const TASKS: &str = "
            nv int cur_task;
            nv int done;
            int acc;
            int task_work() { acc = acc + 1; return 1; }
            int task_publish() { done = 1; return 0; }
            int main() {
                int pad[32];
                for (int i = 0; i < 32; i++) { pad[i] = i; }
                while (done == 0) {
                    if (cur_task == 0) { cur_task = task_work(); }
                    else { cur_task = task_publish(); }
                }
                return acc + pad[31];
            }";
        type Case = Box<dyn Fn() -> (Machine, Box<dyn IntermittentRuntime>, Addr)>;
        let cases: [(&str, Case); 4] = [
            (
                "TICS",
                Box::new(|| {
                    let prog = program(
                        "int main() { int x = 1; checkpoint(); x = x + 1; checkpoint(); return x; }",
                        |p| passes::instrument_tics(p).unwrap(),
                    );
                    run(prog, TicsRuntime::new(TicsConfig::default()), |rt| {
                        rt.layout().unwrap().journal
                    })
                }),
            ),
            (
                "Ratchet",
                Box::new(|| {
                    let prog = program(
                        "int g; int main() { int pad[16]; for (int i = 0; i < 10; i++) { g = g + 1; } return g + pad[0]; }",
                        |p| passes::instrument_ratchet(p).unwrap(),
                    );
                    run(prog, RatchetRuntime::default(), |rt| rt.store.journal())
                }),
            ),
            (
                "Chinchilla",
                Box::new(|| {
                    let prog = program(
                        "int g[64]; int main() { g[0] = 1; checkpoint(); g[1] = 2; checkpoint(); return g[1]; }",
                        |p| passes::instrument_chinchilla(p).unwrap(),
                    );
                    run(prog, ChinchillaRuntime::default(), |rt| rt.store.journal())
                }),
            ),
            (
                "InK",
                Box::new(|| {
                    let prog = program(TASKS, |p| {
                        passes::instrument_task_based(p, &["task_work", "task_publish"], 0, 0)
                            .unwrap();
                    });
                    run(prog, TaskKernel::new(TaskFlavor::Ink), |rt| {
                        rt.store.journal()
                    })
                }),
            ),
        ];
        for (name, case) in cases {
            let (mut m, mut rt, journal) = case();
            let a = journal.offset(RECORD_HEADER + 2);
            let b = m.mem.peek_slice(a, 1).unwrap()[0];
            m.mem.poke_bytes(a, &[b ^ 0x40]).unwrap();
            let seen = m.trace().records().len();
            let action = rt.on_boot(&mut m).unwrap();
            assert_eq!(
                action,
                ResumeAction::Restored,
                "{name}: the full bank still restores"
            );
            let recoveries: Vec<TraceEvent> = m.trace().records()[seen..]
                .iter()
                .map(|r| r.event)
                .filter(|e| matches!(e, TraceEvent::Recovery { .. }))
                .collect();
            assert_eq!(
                recoveries,
                [TraceEvent::Recovery {
                    invalid_banks: 1,
                    fresh_start: false
                }],
                "{name}: one typed Recovery for the broken chain"
            );
            assert_eq!(m.stats().fresh_starts, 0, "{name}: no fresh start");
        }
    }
}
