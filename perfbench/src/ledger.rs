//! The outside-in layer ledger: host-time spans recorded around every
//! call the benchmark makes into a layer of the simulator, plus
//! forwarding wrappers that put the runtime hooks, the power supply and
//! the timekeeper behind the same spans.
//!
//! Accumulators are indexed by [`Layer`], never keyed by a map: the
//! fleet workload makes roughly a thousand hook calls per device life,
//! and a hashed lookup per call doubled its wall time.
//!
//! Spans nest. A span's *self* time is its duration minus the time its
//! child spans cover, so the self times of all layers add up to the
//! traced wall time. Hook calls are not kept one by one: each op
//! (device, trial or run) keeps one aggregate record per layer it
//! touched — name, first start, last end, parent layer, call count,
//! total and self time — and those records are written out when the
//! benchmark ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use tics_clock::{TimeMicros, Timekeeper};
use tics_energy::{OnPeriod, PowerSupply};
use tics_mcu::Addr;
use tics_minic::isa::VarId;
use tics_minic::program::Program;
use tics_vm::driver::TxDriver;
use tics_vm::{
    CheckpointKind, IntermittentRuntime, Machine, ResumeAction, RuntimeCapabilities, VmError,
};

/// One layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `tics-minic`/`tics-apps` program build (frontend + instrumentation).
    MinicBuild,
    /// `MachineImage::build` (decode, verify, fuse).
    ImageBuild,
    /// `Machine::from_image`: a fresh device's mutable block.
    MachineNew,
    /// `Machine::reset`: recycling a device.
    Reset,
    /// `Executor::run`: dispatch, minus the hooks, supply and clock
    /// below it.
    Exec,
    /// `IntermittentRuntime::recycle`.
    Recycle,
    /// `IntermittentRuntime::on_boot` (recovery / restore).
    OnBoot,
    /// `IntermittentRuntime::checkpoint`.
    Checkpoint,
    /// `IntermittentRuntime::logged_store` (undo logging).
    LoggedStore,
    /// `IntermittentRuntime::alloc_frame`.
    AllocFrame,
    /// `IntermittentRuntime::free_frame`.
    FreeFrame,
    /// `IntermittentRuntime::on_instruction`.
    OnInstruction,
    /// `IntermittentRuntime::on_power_failure`.
    OnPowerFailure,
    /// `IntermittentRuntime::on_isr_enter` / `on_isr_exit`.
    Isr,
    /// Time semantics: timestamp, expires, timely, atomic regions and
    /// expires blocks.
    Time,
    /// `IntermittentRuntime::io_send`.
    IoSend,
    /// `PowerSupply::next_period`.
    Supply,
    /// Every `Timekeeper` method.
    Clock,
    /// `fault::golden_run`.
    Golden,
    /// Copying a trial's trace out of the machine for the oracle.
    Capture,
    /// `fault::judge`.
    Judge,
    /// `fault::shrink_plan`.
    Shrink,
    /// `fleet::run_shard`, timed whole (its fold is private).
    RunShard,
    /// `ShardStats::merge`.
    Merge,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 24;

    /// Every layer, in index order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::MinicBuild,
        Layer::ImageBuild,
        Layer::MachineNew,
        Layer::Reset,
        Layer::Exec,
        Layer::Recycle,
        Layer::OnBoot,
        Layer::Checkpoint,
        Layer::LoggedStore,
        Layer::AllocFrame,
        Layer::FreeFrame,
        Layer::OnInstruction,
        Layer::OnPowerFailure,
        Layer::Isr,
        Layer::Time,
        Layer::IoSend,
        Layer::Supply,
        Layer::Clock,
        Layer::Golden,
        Layer::Capture,
        Layer::Judge,
        Layer::Shrink,
        Layer::RunShard,
        Layer::Merge,
    ];

    /// Span name, as written to the trace file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::MinicBuild => "minic.build",
            Layer::ImageBuild => "vm.image_build",
            Layer::MachineNew => "vm.machine_new",
            Layer::Reset => "vm.reset",
            Layer::Exec => "vm.exec",
            Layer::Recycle => "rt.recycle",
            Layer::OnBoot => "rt.on_boot",
            Layer::Checkpoint => "rt.checkpoint",
            Layer::LoggedStore => "rt.logged_store",
            Layer::AllocFrame => "rt.alloc_frame",
            Layer::FreeFrame => "rt.free_frame",
            Layer::OnInstruction => "rt.on_instruction",
            Layer::OnPowerFailure => "rt.on_power_failure",
            Layer::Isr => "rt.isr",
            Layer::Time => "rt.time",
            Layer::IoSend => "rt.io_send",
            Layer::Supply => "energy.next_period",
            Layer::Clock => "clock",
            Layer::Golden => "oracle.golden",
            Layer::Capture => "oracle.capture",
            Layer::Judge => "oracle.judge",
            Layer::Shrink => "oracle.shrink",
            Layer::RunShard => "fleet.run_shard",
            Layer::Merge => "fleet.merge",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Whether work belongs to a run's set-up or to one of its passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Builds and goldens made once before the first timed op.
    Setup = 0,
    /// The workload's repeated op list.
    Pass = 1,
}

/// Calls and host time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations (ns).
    pub total_ns: u64,
    /// Summed durations minus child spans (ns).
    pub self_ns: u64,
}

impl Acc {
    fn add(&mut self, other: &Acc) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// Per-layer totals, split by phase: `totals[phase][layer]`.
pub type Totals = [[Acc; Layer::COUNT]; 2];

/// One op's aggregate over one layer.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// The op (device, trial or run) the calls belonged to.
    pub op: u64,
    /// The layer.
    pub layer: Layer,
    /// The layer whose span was open when this layer was first entered.
    pub parent: Option<Layer>,
    /// First entry, ns since the ledger's origin.
    pub start_ns: u64,
    /// Last exit, ns since the ledger's origin.
    pub end_ns: u64,
    /// Spans closed.
    pub calls: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Summed self time (ns).
    pub self_ns: u64,
}

/// Span records kept in memory per ledger or merged report; later ones
/// are counted, not kept, so a long traced run cannot grow without
/// bound.
pub const SPAN_CAP: usize = 100_000;

#[derive(Clone, Copy)]
struct Frame {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Clone, Copy, Default)]
struct OpAcc {
    acc: Acc,
    parent: Option<Layer>,
    start_ns: u64,
    end_ns: u64,
}

struct State {
    stack: Vec<Frame>,
    phase: Phase,
    op: u64,
    op_acc: [OpAcc; Layer::COUNT],
    totals: Totals,
    spans: Vec<SpanRecord>,
    dropped: u64,
}

/// A single-threaded span recorder. Share it between the wrappers of
/// one device with [`Rc`]; give every worker thread its own.
pub struct Ledger {
    origin: Instant,
    state: RefCell<State>,
}

impl Ledger {
    /// A ledger whose span times count from `origin` (share one origin
    /// between threads so their spans line up).
    #[must_use]
    pub fn new(origin: Instant) -> Rc<Ledger> {
        Rc::new(Ledger {
            origin,
            state: RefCell::new(State {
                stack: Vec::with_capacity(16),
                phase: Phase::Setup,
                op: 0,
                op_acc: [OpAcc::default(); Layer::COUNT],
                totals: [[Acc::default(); Layer::COUNT]; 2],
                spans: Vec::new(),
                dropped: 0,
            }),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it closes when the guard drops.
    #[must_use]
    pub fn span(&self, layer: Layer) -> Span<'_> {
        let start_ns = self.now_ns();
        self.state.borrow_mut().stack.push(Frame {
            layer,
            start_ns,
            child_ns: 0,
        });
        Span { ledger: self }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let _span = self.span(layer);
        f()
    }

    fn close(&self) {
        let end_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        let frame = st.stack.pop().expect("span closed without being opened");
        let dur = end_ns.saturating_sub(frame.start_ns);
        let own = dur.saturating_sub(frame.child_ns);
        let parent = st.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.layer
        });
        let phase = st.phase as usize;
        let i = frame.layer.index();
        let total = &mut st.totals[phase][i];
        total.calls += 1;
        total.total_ns += dur;
        total.self_ns += own;
        let op = &mut st.op_acc[i];
        if op.acc.calls == 0 {
            op.parent = parent;
            op.start_ns = frame.start_ns;
        }
        op.acc.calls += 1;
        op.acc.total_ns += dur;
        op.acc.self_ns += own;
        op.end_ns = end_ns;
    }

    /// Switches the phase later spans are charged to.
    pub fn set_phase(&self, phase: Phase) {
        self.state.borrow_mut().phase = phase;
    }

    /// Starts charging span records to op `op` (closing the previous op).
    pub fn begin_op(&self, op: u64) {
        self.end_op();
        self.state.borrow_mut().op = op;
    }

    /// Flushes the current op's per-layer records.
    pub fn end_op(&self) {
        let mut st = self.state.borrow_mut();
        let op = st.op;
        for layer in Layer::ALL {
            let a = st.op_acc[layer.index()];
            if a.acc.calls == 0 {
                continue;
            }
            st.op_acc[layer.index()] = OpAcc::default();
            if st.spans.len() < SPAN_CAP {
                st.spans.push(SpanRecord {
                    op,
                    layer,
                    parent: a.parent,
                    start_ns: a.start_ns,
                    end_ns: a.end_ns,
                    calls: a.acc.calls,
                    total_ns: a.acc.total_ns,
                    self_ns: a.acc.self_ns,
                });
            } else {
                st.dropped += 1;
            }
        }
    }

    /// Closes the last op and hands the ledger's contents over (they
    /// are `Send`, the ledger is not).
    #[must_use]
    pub fn finish(&self) -> LedgerReport {
        self.end_op();
        let mut st = self.state.borrow_mut();
        assert!(st.stack.is_empty(), "ledger finished with open spans");
        LedgerReport {
            totals: st.totals,
            spans: std::mem::take(&mut st.spans),
            dropped: st.dropped,
        }
    }
}

/// An open span; closes on drop.
pub struct Span<'a> {
    ledger: &'a Ledger,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.ledger.close();
    }
}

/// What a finished ledger (or several merged ones) recorded.
#[derive(Debug, Clone)]
pub struct LedgerReport {
    /// Per-phase, per-layer totals.
    pub totals: Totals,
    /// Per-(op, layer) records.
    pub spans: Vec<SpanRecord>,
    /// Records not kept because [`SPAN_CAP`] was reached.
    pub dropped: u64,
}

impl Default for LedgerReport {
    fn default() -> Self {
        LedgerReport {
            totals: [[Acc::default(); Layer::COUNT]; 2],
            spans: Vec::new(),
            dropped: 0,
        }
    }
}

impl LedgerReport {
    /// Folds another report in, keeping at most [`SPAN_CAP`] records.
    pub fn merge(&mut self, other: LedgerReport) {
        for (mine, theirs) in self.totals.iter_mut().zip(&other.totals) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.add(b);
            }
        }
        let room = SPAN_CAP
            .saturating_sub(self.spans.len())
            .min(other.spans.len());
        self.dropped += other.dropped + (other.spans.len() - room) as u64;
        self.spans.extend_from_slice(&other.spans[..room]);
    }

    /// One set-up plus `1/passes` of the pass totals: the cost of a run
    /// that made exactly one pass.
    #[must_use]
    pub fn per_pass(&self, layer: Layer, passes: u64) -> (f64, f64) {
        let s = self.totals[Phase::Setup as usize][layer.index()];
        let p = self.totals[Phase::Pass as usize][layer.index()];
        let n = passes.max(1) as f64;
        (
            s.calls as f64 + p.calls as f64 / n,
            s.self_ns as f64 + p.self_ns as f64 / n,
        )
    }

    /// Summed self time over every layer and phase (ns).
    #[must_use]
    pub fn self_ns_all(&self) -> u64 {
        self.totals.iter().flatten().map(|a| a.self_ns).sum()
    }

    /// The records as tab-separated text, one per line.
    #[must_use]
    pub fn spans_tsv(&self) -> String {
        let mut out =
            String::from("op\tlayer\tparent\tstart_ns\tend_ns\tcalls\ttotal_ns\tself_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{:#x}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                s.layer.name(),
                s.parent.map_or("-", Layer::name),
                s.start_ns,
                s.end_ns,
                s.calls,
                s.total_ns,
                s.self_ns
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "# {} records dropped at the cap of {SPAN_CAP}",
                self.dropped
            );
        }
        out
    }
}

// ---------------------------------------------------------------------
// Forwarding wrappers
// ---------------------------------------------------------------------

/// Forwards every one of the 23 [`IntermittentRuntime`] methods to the
/// wrapped runtime, timing the hooks. Methods with a default body are
/// forwarded too: inheriting the default would change behaviour
/// (`tx_driver` → `None`) or speed (`instruction_hook` → `true`).
pub struct TracedRuntime {
    inner: Box<dyn IntermittentRuntime>,
    ledger: Rc<Ledger>,
}

impl TracedRuntime {
    /// Wraps `inner`, recording into `ledger`.
    #[must_use]
    pub fn new(inner: Box<dyn IntermittentRuntime>, ledger: Rc<Ledger>) -> TracedRuntime {
        TracedRuntime { inner, ledger }
    }
}

type VmResult<T> = Result<T, VmError>;

impl IntermittentRuntime for TracedRuntime {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capabilities(&self) -> RuntimeCapabilities {
        self.inner.capabilities()
    }

    fn check_program(&self, program: &Program) -> VmResult<()> {
        self.inner.check_program(program)
    }

    fn recycle(&mut self) {
        let _span = self.ledger.span(Layer::Recycle);
        self.inner.recycle();
    }

    fn on_boot(&mut self, m: &mut Machine) -> VmResult<ResumeAction> {
        let _span = self.ledger.span(Layer::OnBoot);
        self.inner.on_boot(m)
    }

    fn alloc_frame(
        &mut self,
        m: &mut Machine,
        fidx: u16,
        frame_size: u32,
        arg_bytes: u32,
    ) -> VmResult<Addr> {
        let _span = self.ledger.span(Layer::AllocFrame);
        self.inner.alloc_frame(m, fidx, frame_size, arg_bytes)
    }

    fn free_frame(&mut self, m: &mut Machine, fp: Addr) -> VmResult<()> {
        let _span = self.ledger.span(Layer::FreeFrame);
        self.inner.free_frame(m, fp)
    }

    fn logged_store(&mut self, m: &mut Machine, addr: Addr, len: u32) -> VmResult<()> {
        let _span = self.ledger.span(Layer::LoggedStore);
        self.inner.logged_store(m, addr, len)
    }

    fn checkpoint(&mut self, m: &mut Machine, kind: CheckpointKind) -> VmResult<()> {
        let _span = self.ledger.span(Layer::Checkpoint);
        self.inner.checkpoint(m, kind)
    }

    fn on_instruction(&mut self, m: &mut Machine) -> VmResult<()> {
        let _span = self.ledger.span(Layer::OnInstruction);
        self.inner.on_instruction(m)
    }

    fn instruction_hook(&self) -> bool {
        self.inner.instruction_hook()
    }

    fn on_power_failure(&mut self, m: &mut Machine) {
        let _span = self.ledger.span(Layer::OnPowerFailure);
        self.inner.on_power_failure(m);
    }

    fn on_isr_enter(&mut self, m: &mut Machine) -> VmResult<()> {
        let _span = self.ledger.span(Layer::Isr);
        self.inner.on_isr_enter(m)
    }

    fn on_isr_exit(&mut self, m: &mut Machine) -> VmResult<()> {
        let _span = self.ledger.span(Layer::Isr);
        self.inner.on_isr_exit(m)
    }

    fn timestamp_var(&mut self, m: &mut Machine, var: VarId) -> VmResult<()> {
        let _span = self.ledger.span(Layer::Time);
        self.inner.timestamp_var(m, var)
    }

    fn expires_check(&mut self, m: &mut Machine, var: VarId) -> VmResult<bool> {
        let _span = self.ledger.span(Layer::Time);
        self.inner.expires_check(m, var)
    }

    fn timely_check(&mut self, m: &mut Machine, deadline_ms: i32) -> VmResult<bool> {
        let _span = self.ledger.span(Layer::Time);
        self.inner.timely_check(m, deadline_ms)
    }

    fn atomic_begin(&mut self, m: &mut Machine) -> VmResult<()> {
        let _span = self.ledger.span(Layer::Time);
        self.inner.atomic_begin(m)
    }

    fn atomic_end(&mut self, m: &mut Machine) -> VmResult<()> {
        let _span = self.ledger.span(Layer::Time);
        self.inner.atomic_end(m)
    }

    fn expires_block_begin(&mut self, m: &mut Machine, var: VarId, catch_pc: u32) -> VmResult<()> {
        let _span = self.ledger.span(Layer::Time);
        self.inner.expires_block_begin(m, var, catch_pc)
    }

    fn expires_block_end(&mut self, m: &mut Machine) -> VmResult<()> {
        let _span = self.ledger.span(Layer::Time);
        self.inner.expires_block_end(m)
    }

    fn tx_driver(&mut self) -> Option<&mut TxDriver> {
        self.inner.tx_driver()
    }

    fn io_send(&mut self, m: &mut Machine, value: i32) -> VmResult<bool> {
        let _span = self.ledger.span(Layer::IoSend);
        self.inner.io_send(m, value)
    }
}

/// Times every [`PowerSupply::next_period`] call.
pub struct TracedSupply {
    inner: Box<dyn PowerSupply>,
    ledger: Rc<Ledger>,
}

impl TracedSupply {
    /// Wraps `inner`, recording into `ledger`.
    #[must_use]
    pub fn new(inner: Box<dyn PowerSupply>, ledger: Rc<Ledger>) -> TracedSupply {
        TracedSupply { inner, ledger }
    }
}

impl PowerSupply for TracedSupply {
    fn next_period(&mut self) -> Option<OnPeriod> {
        let _span = self.ledger.span(Layer::Supply);
        self.inner.next_period()
    }
}

/// Times every [`Timekeeper`] method, forwarding all five.
pub struct TracedClock {
    inner: Box<dyn Timekeeper>,
    ledger: Rc<Ledger>,
}

impl TracedClock {
    /// Wraps `inner`, recording into `ledger`.
    #[must_use]
    pub fn new(inner: Box<dyn Timekeeper>, ledger: Rc<Ledger>) -> TracedClock {
        TracedClock { inner, ledger }
    }
}

impl Timekeeper for TracedClock {
    fn now(&self) -> TimeMicros {
        let _span = self.ledger.span(Layer::Clock);
        self.inner.now()
    }

    fn advance_on(&mut self, us: u64) {
        let _span = self.ledger.span(Layer::Clock);
        self.inner.advance_on(us);
    }

    fn power_cycle(&mut self, true_off_us: u64) {
        let _span = self.ledger.span(Layer::Clock);
        self.inner.power_cycle(true_off_us);
    }

    fn is_time_known(&self) -> bool {
        let _span = self.ledger.span(Layer::Clock);
        self.inner.is_time_known()
    }

    fn reset(&mut self) {
        let _span = self.ledger.span(Layer::Clock);
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_is_in_index_order() {
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn self_time_excludes_children_and_sums_to_the_outer_span() {
        let ledger = Ledger::new(Instant::now());
        ledger.set_phase(Phase::Pass);
        ledger.begin_op(7);
        {
            let _outer = ledger.span(Layer::Exec);
            for _ in 0..3 {
                let _inner = ledger.span(Layer::Checkpoint);
                std::hint::black_box((0..1000).sum::<u64>());
            }
        }
        let r = ledger.finish();
        let exec = r.totals[1][Layer::Exec.index()];
        let ck = r.totals[1][Layer::Checkpoint.index()];
        assert_eq!((exec.calls, ck.calls), (1, 3));
        assert_eq!(exec.self_ns + ck.total_ns, exec.total_ns);
        assert_eq!(r.self_ns_all(), exec.total_ns);
        let rec = r
            .spans
            .iter()
            .find(|s| s.layer == Layer::Checkpoint)
            .unwrap();
        assert_eq!((rec.op, rec.parent, rec.calls), (7, Some(Layer::Exec), 3));
    }
}
