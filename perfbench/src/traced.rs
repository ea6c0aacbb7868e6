//! The per-layer metrics of a traced run. Every workload prints every
//! metric; a layer a workload does not exercise reads zero.
//!
//! Counts and times describe one set-up plus one pass of the
//! workload's op list (pass totals divided by the passes made), so
//! counts repeat exactly from run to run. Times are self times: a
//! layer's spans minus the spans nested inside them.

use tics_trace::SpanKind;

use crate::common::{Report, SimTotals};
use crate::ledger::{Layer, LedgerReport, Phase};

/// Per-layer values a workload derives itself.
#[derive(Debug, Default)]
pub struct Extra {
    /// `fleet.fold_ms`: `run_shard` time minus the mirrored build,
    /// instantiate, reset, recycle and exec time, per pass.
    pub fold_ms: f64,
    /// `pool.busy_frac`: worker busy time over threads × pool wall.
    pub busy_frac: f64,
    /// `oracle.cycle_inflation`: Σ trial cycles / Σ golden cycles.
    pub cycle_inflation: f64,
    /// `trace.overhead_frac`: traced wall / untraced wall − 1.
    pub overhead_frac: f64,
}

/// Runtime hooks with their metric stems.
const HOOKS: [(Layer, &str); 11] = [
    (Layer::OnBoot, "rt.on_boot"),
    (Layer::Checkpoint, "rt.checkpoint"),
    (Layer::LoggedStore, "rt.logged_store"),
    (Layer::AllocFrame, "rt.alloc_frame"),
    (Layer::FreeFrame, "rt.free_frame"),
    (Layer::OnInstruction, "rt.on_instruction"),
    (Layer::OnPowerFailure, "rt.on_power_failure"),
    (Layer::Isr, "rt.isr"),
    (Layer::Time, "rt.time"),
    (Layer::IoSend, "rt.io_send"),
    (Layer::Recycle, "rt.recycle"),
];

/// Appends every per-layer metric to `report`.
pub fn per_layer(
    report: &mut Report,
    ledger: &LedgerReport,
    sim: &SimTotals,
    passes: u64,
    extra: &Extra,
) {
    let n = passes.max(1) as f64;
    let layer = |l: Layer| ledger.per_pass(l, passes);
    let timed =
        |report: &mut Report, l: Layer, time: &str, div: f64, unit: &'static str, count: &str| {
            let (calls, ns) = layer(l);
            report.metric(time, ns / div, unit);
            report.metric(count, calls, "count");
        };
    timed(
        report,
        Layer::MinicBuild,
        "minic.build_ms",
        1e6,
        "ms",
        "minic.builds",
    );
    timed(
        report,
        Layer::ImageBuild,
        "vm.image_build_us",
        1e3,
        "us",
        "vm.image_builds",
    );
    timed(
        report,
        Layer::MachineNew,
        "vm.machine_new_us",
        1e3,
        "us",
        "vm.machine_news",
    );
    timed(report, Layer::Reset, "vm.reset_us", 1e3, "us", "vm.resets");
    let exec_ns = layer(Layer::Exec).1;
    let instructions = sim.instructions as f64 / n;
    report.metric("vm.exec_self_ms", exec_ns / 1e6, "ms");
    report.metric("vm.instructions", instructions, "count");
    report.metric("vm.ns_per_instr", ratio(exec_ns, instructions), "ns/instr");
    for (l, stem) in HOOKS {
        timed(
            report,
            l,
            &format!("{stem}_us"),
            1e3,
            "us",
            &format!("{stem}_calls"),
        );
    }
    let ckpt_pass_ns =
        ledger.totals[Phase::Pass as usize][Layer::Checkpoint as usize].self_ns as f64;
    report.metric(
        "rt.ckpt_mb_per_s",
        ratio(sim.checkpoint_bytes as f64 / 1e6, ckpt_pass_ns / 1e9),
        "MB/s",
    );
    timed(
        report,
        Layer::Supply,
        "energy.next_period_us",
        1e3,
        "us",
        "energy.periods",
    );
    timed(report, Layer::Clock, "clock.us", 1e3, "us", "clock.calls");
    report.metric("oracle.golden_ms", layer(Layer::Golden).1 / 1e6, "ms");
    report.metric("oracle.capture_us", layer(Layer::Capture).1 / 1e3, "us");
    timed(
        report,
        Layer::Judge,
        "oracle.judge_us",
        1e3,
        "us",
        "oracle.judges",
    );
    timed(
        report,
        Layer::Shrink,
        "oracle.shrink_ms",
        1e6,
        "ms",
        "oracle.shrinks",
    );
    report.metric("oracle.cycle_inflation", extra.cycle_inflation, "ratio");
    report.metric("fleet.fold_ms", extra.fold_ms, "ms");
    report.metric("fleet.merge_us", layer(Layer::Merge).1 / 1e3, "us");
    report.metric("pool.busy_frac", extra.busy_frac, "frac");
    report.metric("sim.cycles", sim.cycles as f64 / n, "cycles");
    for kind in SpanKind::ALL {
        report.metric(
            &format!("sim.span_cycles.{}", kind.label()),
            sim.span_cycles[kind.index()] as f64 / n,
            "cycles",
        );
    }
    report.metric(
        "sim.checkpoint_bytes",
        sim.checkpoint_bytes as f64 / n,
        "bytes",
    );
    report.metric("sim.power_failures", sim.power_failures as f64 / n, "count");
    report.metric("sim.restores", sim.restores as f64 / n, "count");
    report.metric("sim.recoveries", sim.recoveries as f64 / n, "count");
    report.metric("sim.torn_writes", sim.torn_writes as f64 / n, "count");
    report.metric(
        "sim.corrupted_writes",
        sim.corrupted_writes as f64 / n,
        "count",
    );
    report.metric("trace.overhead_frac", extra.overhead_frac, "frac");
    report.lines.push(format!(
        "traced: {passes} passes; per-layer values are one set-up plus one pass; {} span records{}",
        ledger.spans.len(),
        if ledger.dropped > 0 {
            format!(" ({} dropped at the cap)", ledger.dropped)
        } else {
            String::new()
        }
    ));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
