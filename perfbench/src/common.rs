//! Pieces every workload shares: optional tracing around layer calls,
//! simulated totals, the observable end state of a run, and the
//! workload report.

use std::rc::Rc;

use tics_clock::Timekeeper;
use tics_energy::PowerSupply;
use tics_trace::{SpanKind, TraceRecord};
use tics_vm::{ExecStats, IntermittentRuntime, Machine, RunOutcome, VmError};

use crate::ledger::{Layer, Ledger, Span, TracedClock, TracedRuntime, TracedSupply};

/// How a mirrored call path records: `None` runs it plain, `Coarse`
/// times only the calls the benchmark itself makes, `Fine` also puts
/// the runtime, supply and clock behind forwarding wrappers.
#[derive(Clone)]
pub enum Tracing {
    /// No spans, no wrappers.
    None,
    /// Spans around the benchmark's own calls into the layers.
    Coarse(Rc<Ledger>),
    /// Coarse spans plus hook, supply and clock wrappers.
    Fine(Rc<Ledger>),
}

impl Tracing {
    /// The ledger, if any.
    #[must_use]
    pub fn ledger(&self) -> Option<&Rc<Ledger>> {
        match self {
            Tracing::None => None,
            Tracing::Coarse(l) | Tracing::Fine(l) => Some(l),
        }
    }

    /// The ledger whose wrappers should record, if hooks are traced.
    #[must_use]
    pub fn hooks(&self) -> Option<&Rc<Ledger>> {
        match self {
            Tracing::Fine(l) => Some(l),
            _ => None,
        }
    }

    /// Opens a span of `layer` when tracing.
    #[must_use]
    pub fn span(&self, layer: Layer) -> Option<Span<'_>> {
        self.ledger().map(|l| l.span(layer))
    }

    /// The runtime, behind the forwarding wrapper when hooks are traced.
    #[must_use]
    pub fn runtime(&self, rt: Box<dyn IntermittentRuntime>) -> Box<dyn IntermittentRuntime> {
        match self.hooks() {
            Some(l) => Box::new(TracedRuntime::new(rt, l.clone())),
            None => rt,
        }
    }

    /// The timekeeper, behind the forwarding wrapper when hooks are traced.
    #[must_use]
    pub fn clock(&self, clock: Box<dyn Timekeeper>) -> Box<dyn Timekeeper> {
        match self.hooks() {
            Some(l) => Box::new(TracedClock::new(clock, l.clone())),
            None => clock,
        }
    }

    /// The supply, behind the forwarding wrapper when hooks are traced.
    #[must_use]
    pub fn supply(&self, supply: Box<dyn PowerSupply>) -> Box<dyn PowerSupply> {
        match self.hooks() {
            Some(l) => Box::new(TracedSupply::new(supply, l.clone())),
            None => supply,
        }
    }

    /// Starts op `op` when tracing.
    pub fn begin_op(&self, op: u64) {
        if let Some(l) = self.ledger() {
            l.begin_op(op);
        }
    }
}

/// Simulated totals over a set of runs. Deterministic for a seed, so
/// they must not move under a change meant only to speed the
/// simulator up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTotals {
    /// Bytecode instructions executed.
    pub instructions: u64,
    /// On-time cycles.
    pub cycles: u64,
    /// Cycles per [`SpanKind`].
    pub span_cycles: [u64; SpanKind::COUNT],
    /// Bytes committed by checkpoints.
    pub checkpoint_bytes: u64,
    /// Power failures.
    pub power_failures: u64,
    /// Checkpoint restores.
    pub restores: u64,
    /// CRC-detected recoveries.
    pub recoveries: u64,
    /// Stores torn at a power cut.
    pub torn_writes: u64,
    /// Stores corrupted by the brown-out model.
    pub corrupted_writes: u64,
}

impl SimTotals {
    /// Folds one finished machine in.
    pub fn add_machine(&mut self, m: &Machine) {
        let s = m.stats();
        let mem = m.mem.stats();
        self.instructions += s.instructions;
        self.cycles += m.cycles();
        for (a, b) in self.span_cycles.iter_mut().zip(m.mem.span_cycles_all()) {
            *a += b;
        }
        self.checkpoint_bytes += s.checkpoint_bytes;
        self.power_failures += s.power_failures;
        self.restores += s.restores;
        self.recoveries += s.recoveries;
        self.torn_writes += mem.torn_writes;
        self.corrupted_writes += mem.corrupted_writes;
    }

    /// Folds another total in.
    pub fn add(&mut self, o: &SimTotals) {
        self.instructions += o.instructions;
        self.cycles += o.cycles;
        for (a, b) in self.span_cycles.iter_mut().zip(o.span_cycles) {
            *a += b;
        }
        self.checkpoint_bytes += o.checkpoint_bytes;
        self.power_failures += o.power_failures;
        self.restores += o.restores;
        self.recoveries += o.recoveries;
        self.torn_writes += o.torn_writes;
        self.corrupted_writes += o.corrupted_writes;
    }
}

/// A run's outcome as one comparable string.
#[must_use]
pub fn outcome_label(outcome: &Result<RunOutcome, VmError>) -> String {
    match outcome {
        Ok(o) => format!("{o:?}"),
        Err(e) => format!("error: {e}"),
    }
}

/// Everything a finished run leaves observable: what tracing must not
/// change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Outcome text.
    pub outcome: String,
    /// On-time cycles.
    pub cycles: u64,
    /// Cycles per span kind.
    pub span_cycles: [u64; SpanKind::COUNT],
    /// Execution statistics.
    pub stats: ExecStats,
    /// The full trace stream.
    pub trace: Vec<TraceRecord>,
    /// Final SRAM contents.
    pub sram: Vec<u8>,
    /// Final FRAM contents.
    pub fram: Vec<u8>,
}

impl Observed {
    /// Captures `m` after a run that ended in `outcome`.
    ///
    /// # Panics
    ///
    /// If the machine's own layout regions cannot be read.
    #[must_use]
    pub fn capture(m: &Machine, outcome: &Result<RunOutcome, VmError>) -> Observed {
        let layout = *m.mem.layout();
        let read = |r: tics_mcu::Region| {
            m.mem
                .peek_slice(r.start, r.len())
                .expect("a layout region is readable")
                .to_vec()
        };
        Observed {
            outcome: outcome_label(outcome),
            cycles: m.cycles(),
            span_cycles: m.mem.span_cycles_all(),
            stats: m.stats().clone(),
            trace: m.trace().records().to_vec(),
            sram: read(layout.sram),
            fram: read(layout.fram),
        }
    }
}

/// One end-to-end or per-layer metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed (harness errors and fingerprint mismatches).
    pub failed: u64,
    /// Metrics to print, in order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Span records of the traced run, as text.
    pub spans_tsv: Option<String>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failure message.
    pub fn fail(&mut self, ops: u64, line: String) {
        self.failed += ops;
        self.lines.push(line);
    }
}
