//! Differential equivalence: decoded fast dispatch vs the reference
//! interpreter.
//!
//! The decoded engine is only allowed to change *host-side* work —
//! dispatch and bounds-check overhead. Everything observable about the
//! simulated device must be bit-identical to the reference interpreter:
//! the trace event stream, the cycle counter, per-span cycle
//! attribution, execution and memory statistics, the final contents of
//! SRAM and FRAM, and the run outcome (including trap text and panic
//! text from runs on corrupted state).
//!
//! Every test here runs the same image twice — once per engine, with
//! freshly built machine/runtime/supply — and compares full machine
//! snapshots. The grids cover the seven fault-corpus programs and the
//! Table 1 applications across the legacy-capable systems, under
//! continuous power, periodic intermittent power, adversarial fault
//! plans with torn writes, brown-out store corruption, an
//! ISR-configured machine (the decoded engine's per-instruction "safe"
//! mode), voltage-comparator warnings, TICS on short odd checkpoint
//! timers (the burst loop stopping at the runtime's hook deadlines),
//! and every fallback of the burst loop's static path: cuts, stops and
//! instruction budgets inside fused ops, traps inside fused ops, and a
//! layout where no window resolves.

use tics_apps::build::{build_app, make_runtime, App, Scale, SystemUnderTest};
use tics_bench::fault::{build_fault_program, FaultProgram};
use tics_core::{TicsConfig, TicsRuntime};
use tics_energy::{
    AdversarialSupply, ContinuousPower, Corruption, FaultPlan, PeriodicTrace, PowerSupply,
};
use tics_mcu::memory::MemoryStats;
use tics_mcu::{Addr, CorruptionModel, MemoryLayout, Region, Registers};
use tics_minic::opt::OptLevel;
use tics_minic::{compile, passes, Program};
use tics_trace::{SpanKind, TraceRecord};
use tics_vm::decoded::Op;
use tics_vm::{
    BareRuntime, DispatchEngine, Executor, ExecStats, IntermittentRuntime, Machine, MachineConfig,
};

/// Generous on-time budget: every grid cell either finishes or is
/// diagnosed (starved / budget-exhausted) well inside this.
const BUDGET_US: u64 = 50_000_000;

/// Reboots without progress before a run is declared starved. Both
/// engines must starve at the identical boot count.
const GUARD_BOOTS: u64 = 48;

/// Legacy-capable systems (the task kernels run different images and
/// are exercised by the fault/chaos suites, not this grid).
const SYSTEMS: [SystemUnderTest; 5] = [
    SystemUnderTest::PlainC,
    SystemUnderTest::Mementos,
    SystemUnderTest::Tics,
    SystemUnderTest::Chinchilla,
    SystemUnderTest::Ratchet,
];

// ---------------------------------------------------------------------
// Snapshot plumbing
// ---------------------------------------------------------------------

/// Everything observable about a finished run. Two engines agree iff
/// their snapshots are equal field-for-field.
#[derive(Debug)]
struct Snapshot {
    outcome: String,
    trace: Vec<TraceRecord>,
    cycles: u64,
    stats: ExecStats,
    mem_stats: MemoryStats,
    span: [u64; SpanKind::COUNT],
    regs: Registers,
    sram: Vec<u8>,
    fram: Vec<u8>,
    /// Dirty words of both regions, in address order.
    dirty: Vec<Addr>,
}

/// A rebuildable power-supply spec (each engine run needs a fresh one).
#[derive(Debug, Clone)]
enum Supply {
    Continuous,
    Periodic { on_us: u64, off_us: u64 },
    Adversarial(FaultPlan),
}

impl Supply {
    fn build(&self) -> Box<dyn PowerSupply> {
        match self {
            Supply::Continuous => Box::new(ContinuousPower::new()),
            Supply::Periodic { on_us, off_us } => Box::new(PeriodicTrace::new(*on_us, *off_us)),
            Supply::Adversarial(plan) => Box::new(AdversarialSupply::new(plan.clone())),
        }
    }
}

/// The executor every grid runs under, before the engine is chosen.
fn base_executor() -> Executor {
    Executor::new()
        .with_time_budget(BUDGET_US)
        .with_progress_guard(GUARD_BOOTS)
}

/// Runs one engine over a fresh machine/runtime/supply and snapshots
/// the observable state. Panics from executing corrupted state are
/// contained and compared as text, exactly like the fault harness.
fn run_one(
    prog: &Program,
    cfg: &MachineConfig,
    rt_of: &dyn Fn() -> Box<dyn IntermittentRuntime>,
    exec: &Executor,
    supply: &Supply,
    corruption: Option<&Corruption>,
) -> Snapshot {
    let mut m = Machine::new(prog.clone(), cfg.clone()).expect("machine construction");
    if let Some(c) = corruption {
        m.mem.set_corruption(Some(
            CorruptionModel::new(c.window, c.flip_prob, c.drop_prob, c.seed)
                .with_sram_decay(c.sram_decay),
        ));
    }
    let mut rt = rt_of();
    let mut sup = supply.build();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec.run(&mut m, rt.as_mut(), sup.as_mut())
    }));
    let outcome = match result {
        Ok(Ok(o)) => format!("{o:?}"),
        Ok(Err(e)) => format!("error: {e}"),
        Err(payload) => {
            let text = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            format!("panic: {text}")
        }
    };
    let layout = *m.mem.layout();
    let sram = m
        .mem
        .peek_bytes(layout.sram.start, layout.sram.len())
        .expect("SRAM dump");
    let fram = m
        .mem
        .peek_bytes(layout.fram.start, layout.fram.len())
        .expect("FRAM dump");
    let mut dirty = Vec::new();
    for r in [layout.sram, layout.fram] {
        m.mem
            .for_each_dirty_word(r.start, r.len(), |a| dirty.push(a));
    }
    Snapshot {
        outcome,
        trace: m.trace().records().to_vec(),
        cycles: m.cycles(),
        stats: m.stats().clone(),
        mem_stats: m.mem.stats(),
        span: m.mem.span_cycles_all(),
        regs: m.regs,
        sram,
        fram,
        dirty,
    }
}

/// Runs both engines under [`base_executor`] and asserts snapshot
/// equality.
fn assert_engines_agree(
    label: &str,
    prog: &Program,
    cfg: &MachineConfig,
    rt_of: &dyn Fn() -> Box<dyn IntermittentRuntime>,
    supply: &Supply,
    corruption: Option<&Corruption>,
) {
    let exec = base_executor();
    assert_engines_agree_under(&exec, label, prog, cfg, rt_of, supply, corruption);
}

/// Runs both engines under `exec` and asserts snapshot equality,
/// reporting the first diverging trace event for debuggability.
fn assert_engines_agree_under(
    exec: &Executor,
    label: &str,
    prog: &Program,
    cfg: &MachineConfig,
    rt_of: &dyn Fn() -> Box<dyn IntermittentRuntime>,
    supply: &Supply,
    corruption: Option<&Corruption>,
) {
    let run = |e| {
        let exec = exec.clone().with_engine(e);
        run_one(prog, cfg, rt_of, &exec, supply, corruption)
    };
    let reference = run(DispatchEngine::Reference);
    let decoded = run(DispatchEngine::Decoded);

    if reference.trace != decoded.trace {
        let i = reference
            .trace
            .iter()
            .zip(&decoded.trace)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| reference.trace.len().min(decoded.trace.len()));
        panic!(
            "[{label}] trace diverges at event {i}:\n  reference: {:?}\n  decoded:   {:?}\n  (lengths {} vs {})",
            reference.trace.get(i),
            decoded.trace.get(i),
            reference.trace.len(),
            decoded.trace.len(),
        );
    }
    assert_eq!(reference.outcome, decoded.outcome, "[{label}] outcome");
    assert_eq!(reference.cycles, decoded.cycles, "[{label}] cycle counter");
    assert_eq!(reference.stats, decoded.stats, "[{label}] exec stats");
    assert_eq!(reference.mem_stats, decoded.mem_stats, "[{label}] memory stats");
    assert_eq!(reference.span, decoded.span, "[{label}] span cycle attribution");
    assert_eq!(reference.regs, decoded.regs, "[{label}] registers");
    assert_eq!(reference.dirty, decoded.dirty, "[{label}] dirty words");
    assert!(
        reference.sram == decoded.sram,
        "[{label}] final SRAM contents differ"
    );
    assert!(
        reference.fram == decoded.fram,
        "[{label}] final FRAM contents differ"
    );
}

/// The fault-corpus grid: every feasible (program, system) image.
fn fault_grid() -> Vec<(String, Program, SystemUnderTest)> {
    let mut cells = Vec::new();
    for program in FaultProgram::ALL {
        for system in SYSTEMS {
            match build_fault_program(program, system) {
                Ok(prog) => cells.push((
                    format!("{}/{:?}", program.name(), system),
                    prog,
                    system,
                )),
                Err(_) => continue, // infeasible (e.g. recursion on Chinchilla)
            }
        }
    }
    assert!(cells.len() >= 30, "fault grid unexpectedly sparse");
    cells
}

// ---------------------------------------------------------------------
// Grids
// ---------------------------------------------------------------------

#[test]
fn fault_corpus_agrees_on_continuous_power() {
    let cfg = MachineConfig::default();
    for (label, prog, system) in fault_grid() {
        assert_engines_agree(
            &format!("{label}/continuous"),
            &prog,
            &cfg,
            &|| make_runtime(system, &prog),
            &Supply::Continuous,
            None,
        );
    }
}

#[test]
fn fault_corpus_agrees_on_intermittent_power() {
    let cfg = MachineConfig::default();
    // Two on-period lengths: one roomy (few reboots), one tight enough
    // that whole-state checkpointers starve on the big-state program —
    // both engines must starve at the identical boot.
    for (on_us, off_us) in [(60_000, 200), (9_000, 150)] {
        for (label, prog, system) in fault_grid() {
            assert_engines_agree(
                &format!("{label}/periodic-{on_us}"),
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &Supply::Periodic { on_us, off_us },
                None,
            );
        }
    }
}

#[test]
fn fault_corpus_agrees_under_adversarial_cuts_and_corruption() {
    let cfg = MachineConfig::default();
    for (idx, (label, prog, system)) in fault_grid().into_iter().enumerate() {
        // Anchor the cuts to the run's own length: a continuous run
        // measures total cycles, then power dies at 1/4, 1/2, and 3/4
        // of that — guaranteed mid-execution cuts with torn-write
        // boundaries armed. (Engine choice is immaterial here: the
        // continuous-power test proves cycle equality.)
        let golden = run_one(
            &prog,
            &cfg,
            &|| make_runtime(system, &prog),
            &base_executor().with_engine(DispatchEngine::Decoded),
            &Supply::Continuous,
            None,
        );
        let total = golden.cycles.max(8);
        let plan = FaultPlan::new(vec![total / 4, total / 2, 3 * total / 4], 150);

        // Torn writes only.
        assert_engines_agree(
            &format!("{label}/adversarial"),
            &prog,
            &cfg,
            &|| make_runtime(system, &prog),
            &Supply::Adversarial(plan.clone()),
            None,
        );

        // Torn writes plus brown-out corruption: at-risk stores flip or
        // drop, SRAM decays across outages. The corruption RNG stream
        // advances per intercepted store, so agreement here proves the
        // decoded engine issues the identical store sequence.
        let corruption = Corruption::with_rate(2_000, 0.5, 0xC0FF_EE00 ^ idx as u64);
        assert_engines_agree(
            &format!("{label}/corrupted"),
            &prog,
            &cfg,
            &|| make_runtime(system, &prog),
            &Supply::Adversarial(plan),
            Some(&corruption),
        );
    }
}

#[test]
fn table1_apps_agree_across_engines() {
    let cfg = MachineConfig::default();
    for app in [App::Ar, App::Bc, App::Cuckoo, App::Ghm] {
        for system in SYSTEMS {
            let opt = if system == SystemUnderTest::Chinchilla {
                OptLevel::O0
            } else {
                OptLevel::O2
            };
            let Ok(prog) = build_app(app, system, opt, Scale(8)) else {
                continue; // infeasible combination
            };
            let label = format!("{}/{system:?}", app.name());
            assert_engines_agree(
                &format!("{label}/continuous"),
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &Supply::Continuous,
                None,
            );
            assert_engines_agree(
                &format!("{label}/periodic"),
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &Supply::Periodic {
                    on_us: 40_000,
                    off_us: 200,
                },
                None,
            );
        }
    }
}

#[test]
fn isr_machine_runs_in_safe_mode_and_agrees() {
    // A periodic ISR forces the decoded engine into per-instruction
    // "safe" dispatch (the ISR must be able to fire between any two
    // instructions, exactly as in the reference interpreter).
    let src = "
        nv int ticks;
        nv int acc;
        int on_tick() {
            ticks = ticks + 1;
            return 0;
        }
        int main() {
            for (int i = 0; i < 600; i++) {
                acc = acc + i * 3;
                if (i % 64 == 63) { send(acc); }
            }
            send(ticks);
            return acc;
        }
    ";
    let prog = compile(src, OptLevel::O2).expect("compile ISR program");
    let cfg = MachineConfig {
        isr: Some(("on_tick".to_string(), 700)),
        ..MachineConfig::default()
    };
    for supply in [
        Supply::Continuous,
        Supply::Periodic {
            on_us: 5_000,
            off_us: 150,
        },
    ] {
        assert_engines_agree(
            "isr/bare",
            &prog,
            &cfg,
            &|| Box::new(BareRuntime::new()),
            &supply,
            None,
        );
    }
}

/// A TICS program whose `@expires`/catch block aborts once its reading
/// goes stale mid-body, with calls and returns (stack shrinks) inside
/// and outside the block.
const EXPIRES_CATCH_SRC: &str = "
    @expires_after = 2ms
    int t;
    nv int rounds;
    nv int caught;
    int work(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) { s += i * 3; }
        return s;
    }
    int main() {
        while (rounds < 24) {
            t @= sample();
            @expires(t) {
                int s = work(rounds * 40);
                send(s);
            } catch {
                caught = caught + 1;
            }
            rounds = rounds + 1;
        }
        send(caught);
        return rounds;
    }
";

#[test]
fn tics_hook_deadlines_agree_across_engines() {
    // Short odd timers land their deadlines inside fused
    // superinstructions, next to `Ref` ops and on period deadlines; the
    // decoded engine stops its bursts there and must run the hook after
    // exactly the instruction the reference interpreter does. At 37 µs a
    // commit outlasts the period, so the timer is due again at once and
    // the engine steps one op at a time except inside atomic blocks
    // (AR's `@expires` guards); 97 µs and 1,009 µs leave bursts between
    // commits.
    let cfg = MachineConfig::default();
    let mut catch_prog = compile(EXPIRES_CATCH_SRC, OptLevel::O1).expect("compile expires program");
    passes::instrument_tics(&mut catch_prog).expect("instrument expires program");
    let mut cells = vec![
        ("expires-catch".to_string(), catch_prog),
        (
            "AR".to_string(),
            build_app(App::Ar, SystemUnderTest::Tics, OptLevel::O2, Scale(8)).expect("AR builds"),
        ),
    ];
    for program in [
        FaultProgram::NvAccumulator,
        FaultProgram::BigState,
        FaultProgram::TaskPipeline,
    ] {
        let prog = build_fault_program(program, SystemUnderTest::Tics).expect("corpus builds");
        cells.push((program.name().to_string(), prog));
    }
    for (name, prog) in &cells {
        for timer_us in [37, 97, 1_009] {
            let rt_of = || -> Box<dyn IntermittentRuntime> {
                let mut c = TicsConfig::s2_star().with_timer(Some(timer_us));
                c.seg_size = c.seg_size.max(prog.max_frame_size().next_multiple_of(64));
                Box::new(TicsRuntime::new(c))
            };
            for warning in [None, Some(433)] {
                let mut exec = base_executor();
                exec.voltage_warning_us = warning;
                for supply in [
                    Supply::Continuous,
                    Supply::Periodic {
                        on_us: 6_007,
                        off_us: 150,
                    },
                ] {
                    assert_engines_agree_under(
                        &exec,
                        &format!("{name}/timer-{timer_us}/warning-{warning:?}/{supply:?}"),
                        prog,
                        &cfg,
                        &rt_of,
                        &supply,
                        None,
                    );
                }
            }
        }
    }
}

#[test]
fn voltage_warning_agrees_across_engines() {
    // The comparator's checkpoint can run past the period deadline; the
    // reference interpreter still steps one instruction after it, so the
    // decoded engine must too, hook or no hook.
    let cfg = MachineConfig::default();
    for margin_us in [433, 23] {
        let exec = base_executor().with_voltage_warning(margin_us);
        for (label, prog, system) in fault_grid() {
            assert_engines_agree_under(
                &exec,
                &format!("{label}/voltage-warning-{margin_us}"),
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &Supply::Periodic {
                    on_us: 6_007,
                    off_us: 150,
                },
                None,
            );
        }
    }
}

// ---------------------------------------------------------------------
// The static path's fallbacks
// ---------------------------------------------------------------------

/// A loop of fused ops with SRAM-frame and FRAM-global stores: `s = s +
/// 3` (`LdLKBinSt`), `g = g + 5` (`LdGKBinSt`), `h = 7` (`KStG`), `t =
/// 9` (`KStL`), `(s + i) * 2` (`KBin`) and the `i < 40` header
/// (`LdLKBinBr`).
const STATIC_PATH_SRC: &str = "
    nv int g;
    nv int h;
    int main() {
        int s = 0;
        int t = 0;
        int i = 0;
        while (i < 40) {
            s = s + 3;
            g = g + 5;
            h = 7;
            t = 9;
            s = (s + i) * 2 + t;
            i = i + 1;
        }
        send(s);
        return g;
    }
";

/// [`STATIC_PATH_SRC`] built for the systems whose frames live in SRAM
/// (plain C), in FRAM (Ratchet) and in TICS's segments.
fn static_path_cells() -> Vec<(String, Program, SystemUnderTest)> {
    let mut cells = Vec::new();
    for system in [
        SystemUnderTest::PlainC,
        SystemUnderTest::Ratchet,
        SystemUnderTest::Tics,
    ] {
        let mut prog = compile(STATIC_PATH_SRC, OptLevel::O1).expect("compile static-path program");
        match system {
            SystemUnderTest::Ratchet => passes::instrument_ratchet(&mut prog),
            SystemUnderTest::Tics => passes::instrument_tics(&mut prog),
            _ => Ok(()),
        }
        .expect("instrument static-path program");
        cells.push((format!("static-path/{system:?}"), prog, system));
    }
    let m =
        Machine::new(cells[0].1.clone(), MachineConfig::default()).expect("machine construction");
    let ops = &m.loaded().decoded.ops;
    for want in [
        "LdLKBinSt",
        "LdGKBinSt",
        "LdLKBinBr",
        "KBin",
        "KStL",
        "KStG",
    ] {
        assert!(
            ops.iter().any(|op| format!("{op:?}").starts_with(want)),
            "the static-path program fuses no {want}"
        );
    }
    cells
}

/// The cycles and instructions of one continuous run, and of one loop
/// iteration (the program's 40 iterations dominate the run).
fn run_extent(prog: &Program, system: SystemUnderTest) -> (u64, u64, u64, u64) {
    let golden = run_one(
        prog,
        &MachineConfig::default(),
        &|| make_runtime(system, prog),
        &base_executor(),
        &Supply::Continuous,
        None,
    );
    let (cycles, instrs) = (golden.cycles, golden.stats.instructions);
    (cycles, instrs, cycles / 40 + 8, instrs / 40 + 4)
}

#[test]
fn static_path_cut_at_every_offset_agrees() {
    // One cut per cycle across a whole loop iteration from mid-run: the
    // cut lands at every offset inside each fused op's charge (stores
    // past it tear), at its start and at its end.
    let cfg = MachineConfig::default();
    for (label, prog, system) in static_path_cells() {
        let (cycles, _, per_iter, _) = run_extent(&prog, system);
        for cut in cycles / 2..cycles / 2 + per_iter {
            assert_engines_agree(
                &format!("{label}/cut-{cut}"),
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &Supply::Adversarial(FaultPlan::single(cut, 150)),
                None,
            );
        }
    }
}

#[test]
fn static_path_stop_and_budget_at_every_offset_agree() {
    // A stop boundary with no cut (the time budget) at every cycle of a
    // loop iteration, and the instruction budget at every instruction of
    // one: both land strictly inside the 4-instruction fused ops.
    let cfg = MachineConfig::default();
    for (label, prog, system) in static_path_cells() {
        let (cycles, instrs, per_iter, instrs_per_iter) = run_extent(&prog, system);
        for stop in cycles / 2..cycles / 2 + per_iter {
            let exec = base_executor().with_time_budget(stop);
            assert_engines_agree_under(
                &exec,
                &format!("{label}/stop-{stop}"),
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &Supply::Continuous,
                None,
            );
        }
        for budget in instrs / 2..instrs / 2 + instrs_per_iter {
            let exec = base_executor().with_instruction_budget(budget);
            assert_engines_agree_under(
                &exec,
                &format!("{label}/budget-{budget}"),
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &Supply::Continuous,
                None,
            );
        }
    }
}

#[test]
fn static_path_traps_inside_fused_ops_agree() {
    // Division and remainder by an immediate zero trap at the `Bin` of a
    // fused op, after its earlier sub-ops stored: pc, sp, counts,
    // cycles, traffic, memory and dirty words must match the reference.
    let cfg = MachineConfig::default();
    let cases = [
        ("return x / 0;", "LdLKBin"),
        ("x = x / 0; return x;", "LdLKBinSt"),
        ("if (x % 0) { x = 1; } return x;", "LdLKBinBr"),
        ("return (x + 1) / 0;", "KBin"),
        ("return g % 0;", "LdGKBin"),
        ("g = g / 0; return g;", "LdGKBinSt"),
    ];
    for (body, name) in cases {
        let src = format!(
            "nv int g; int main() {{ int x = 7; g = 3; int y = x + g; x = y * 2; {body} }}"
        );
        let prog = compile(&src, OptLevel::O1).expect("compile trap program");
        let m = Machine::new(prog.clone(), cfg.clone()).expect("machine construction");
        let by_zero = |op: &Op| {
            let text = format!("{op:?}");
            text.starts_with(&format!("{name} {{"))
                && text.contains("k: 0")
                && (text.contains("op: Div") || text.contains("op: Mod"))
        };
        assert!(
            m.loaded().decoded.ops.iter().any(by_zero),
            "{name}: the trap program fuses no {name} by zero"
        );
        for supply in [
            Supply::Continuous,
            Supply::Periodic {
                on_us: 30,
                off_us: 150,
            },
        ] {
            assert_engines_agree(
                &format!("trap-{name}/{supply:?}"),
                &prog,
                &cfg,
                &|| Box::new(BareRuntime::new()),
                &supply,
                None,
            );
        }
    }
}

#[test]
fn static_path_falls_back_on_an_unaligned_layout() {
    // FRAM starts 2 bytes off word alignment, so the word-aligned
    // frames Ratchet and TICS place in FRAM sit off the region's
    // dirty-word grid: no frame window resolves and every frame op runs
    // per access. (Plain C's SRAM frames and the globals, at the start of
    // FRAM, stay on their grids and keep the static path.)
    let cfg = MachineConfig {
        layout: MemoryLayout::new(
            Region::with_len(Addr(0x1C00), 2 * 1024),
            Region::with_len(Addr(0x4002), 64 * 1024),
        ),
        ..MachineConfig::default()
    };
    let mut cells = static_path_cells();
    cells.extend(fault_grid().into_iter().filter(|(label, _, _)| {
        label.starts_with("nv-accumulator") || label.starts_with("ghm-mini")
    }));
    for (label, prog, system) in cells {
        if matches!(system, SystemUnderTest::Ratchet | SystemUnderTest::Tics) {
            let run = run_one(
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &base_executor(),
                &Supply::Continuous,
                None,
            );
            assert!(
                cfg.layout.fram.contains(run.regs.fp)
                    && cfg.layout.word_window(run.regs.fp, 4).is_none(),
                "[{label}] frames must sit in FRAM off its word grid (fp {})",
                run.regs.fp
            );
        }
        for supply in [
            Supply::Continuous,
            Supply::Periodic {
                on_us: 9_000,
                off_us: 150,
            },
        ] {
            assert_engines_agree(
                &format!("{label}/unaligned/{supply:?}"),
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &supply,
                None,
            );
        }
    }
}
