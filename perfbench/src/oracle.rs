//! The `oracle` workload: the `exp_fault` grid without `big-state`
//! (six corpus programs × eight systems), each cell replaying stride,
//! random and probe plans plus `exp_chaos`'s corrupted multi-cut plans
//! at rate 0.4, judged against the cell's golden run.
//!
//! Each trial is short and runs on a freshly built `Machine` with its
//! whole trace recorded and judged, so construction, trace capture,
//! judging and CRC recovery carry the work; reset and aggregation do
//! nothing here.

use std::time::Instant;

use tics_apps::build::make_runtime;
use tics_apps::SystemUnderTest;
use tics_bench::fault::{
    build_fault_program, fault_budget_us, golden_run, judge, run_plan, shrink_plan, FaultProgram,
    Golden, Strategy, Trial, Verdict, CHAOS_WINDOW, GUARD_BOOTS, OFF_US,
};
use tics_bench::sweep::{cell_seed, splitmix64};
use tics_clock::PerfectClock;
use tics_energy::{AdversarialSupply, Corruption, FaultPlan};
use tics_mcu::CorruptionModel;
use tics_minic::Program;
use tics_vm::{Executor, Machine, MachineConfig, MachineImage, VmError};

use crate::common::{outcome_label, Report, SimTotals, Tracing};
use crate::fingerprint::{Fingerprint, Fnv, Group};
use crate::harness::{self, Aliases, Measured, RunCfg};
use crate::ledger::{Layer, Ledger, Phase};
use crate::traced;

/// Stride (single-cut) plans per cell and pass.
const STRIDE_TRIALS: usize = 24;
/// Seeded multi-cut plans per cell and pass.
const RANDOM_TRIALS: usize = 12;
/// Corrupted multi-cut plans per cell and pass.
const CHAOS_TRIALS: usize = 12;
/// Brown-out corruption rate of the chaos plans.
const CHAOS_RATE: f64 = 0.4;

/// A family of plans within a cell.
#[derive(Debug, Clone)]
pub struct Family {
    /// `stride`, `random`, `probe` or `chaos`.
    pub name: &'static str,
    /// Whether a non-finishing replay counts as a violation.
    pub strict: bool,
    /// Whether the first violation is shrunk (`exp_fault` does, the
    /// chaos grid does not).
    pub shrink: bool,
    /// The plans.
    pub plans: Vec<FaultPlan>,
}

/// One (program × system) cell with its golden run and plans.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Corpus program.
    pub program: FaultProgram,
    /// System under test.
    pub system: SystemUnderTest,
    /// Built program.
    pub prog: Program,
    /// Continuous-power reference.
    pub golden: Golden,
    /// Replay budget.
    pub budget: u64,
    /// Plan families.
    pub families: Vec<Family>,
}

impl Cell {
    fn coords(&self, family: &Family) -> String {
        format!(
            "{}/{}/{}",
            self.program.name(),
            self.system.name(),
            family.name
        )
    }
}

/// The corrupted multi-cut plans of `run_chaos_cell`.
fn chaos_plans(golden: &Golden, trials: usize, seed: u64) -> Vec<FaultPlan> {
    (0..trials)
        .map(|i| {
            let s = splitmix64(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            FaultPlan::random(s, golden.on_cycles, 1 + i % 3, OFF_US).with_corruption(
                Corruption::with_rate(CHAOS_WINDOW, CHAOS_RATE, splitmix64(s)),
            )
        })
        .collect()
}

/// Set-up: builds, goldens and plans of every feasible cell.
///
/// # Errors
///
/// A golden run that does not finish (a corpus or runtime bug).
pub fn setup(seed: u64, tracing: &Tracing) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    let programs = FaultProgram::ALL
        .into_iter()
        .filter(|p| *p != FaultProgram::BigState);
    for (index, (program, system)) in programs
        .flat_map(|p| SystemUnderTest::ALL.into_iter().map(move |s| (p, s)))
        .enumerate()
    {
        let built = {
            let _span = tracing.span(Layer::MinicBuild);
            build_fault_program(program, system)
        };
        let Ok(prog) = built else { continue };
        let golden = {
            let _span = tracing.span(Layer::Golden);
            golden_run(&prog, system)
                .map_err(|e| format!("{}/{}: {e}", program.name(), system.name()))?
        };
        let s = cell_seed(seed, index as u64);
        let family = |name, strategy: Strategy, trials| Family {
            name,
            strict: strategy.strict_completion(),
            shrink: true,
            plans: strategy.plans(&golden, trials, s),
        };
        let families = vec![
            family("stride", Strategy::Stride, STRIDE_TRIALS),
            family("random", Strategy::Random, RANDOM_TRIALS),
            family("probe", Strategy::Probe, 0),
            Family {
                name: "chaos",
                strict: true,
                shrink: false,
                plans: chaos_plans(&golden, CHAOS_TRIALS, splitmix64(s ^ 0xC4A0)),
            },
        ];
        cells.push(Cell {
            program,
            system,
            budget: fault_budget_us(&golden),
            prog,
            golden,
            families,
        });
    }
    Ok(cells)
}

/// Mirrors `run_plan` with the same public calls: image build, fresh
/// machine, corruption model, runtime, adversarial supply, executor
/// (panics contained as `run_plan` contains them), trace capture.
/// Returns the trial and the machine it ran on.
#[must_use]
pub fn mirror_trial(
    prog: &Program,
    system: SystemUnderTest,
    plan: &FaultPlan,
    budget_us: u64,
    tracing: &Tracing,
) -> (Trial, Option<Machine>) {
    let config = MachineConfig::default();
    let built = {
        let _span = tracing.span(Layer::ImageBuild);
        MachineImage::build(prog.clone(), &config)
    }
    .and_then(|image| {
        let _span = tracing.span(Layer::MachineNew);
        let rt = tracing.runtime(make_runtime(system, prog));
        let supply = tracing.supply(Box::new(AdversarialSupply::new(plan.clone())));
        let m = Machine::from_image(
            image,
            config.seed,
            tracing.clock(Box::new(PerfectClock::new())),
        )?;
        Ok((m, rt, supply))
    });
    let (mut m, mut rt, mut supply) = match built {
        Ok(parts) => parts,
        Err(e) => {
            return (
                Trial {
                    outcome: Err(e),
                    trace: Vec::new(),
                    power_failures: 0,
                    torn_writes: 0,
                    corrupted_writes: 0,
                    recoveries: 0,
                    cycles: 0,
                },
                None,
            )
        }
    };
    if let Some(c) = &plan.corruption {
        m.mem.set_corruption(Some(
            CorruptionModel::new(c.window, c.flip_prob, c.drop_prob, c.seed)
                .with_sram_decay(c.sram_decay),
        ));
    }
    let outcome = {
        let _span = tracing.span(Layer::Exec);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Executor::new()
                .with_time_budget(budget_us)
                .with_progress_guard(GUARD_BOOTS)
                .run(&mut m, rt.as_mut(), supply.as_mut())
        }))
        .unwrap_or_else(|payload| {
            let text = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(VmError::Trap(format!(
                "vm crashed on corrupted state: {text}"
            )))
        })
    };
    let trace = {
        let _span = tracing.span(Layer::Capture);
        m.trace().records().to_vec()
    };
    let trial = Trial {
        outcome,
        trace,
        power_failures: m.stats().power_failures,
        torn_writes: m.mem.stats().torn_writes,
        corrupted_writes: m.mem.stats().corrupted_writes,
        recoveries: m.stats().recoveries,
        cycles: m.cycles(),
    };
    (trial, Some(m))
}

/// Verdict tallies and a hash over the trials of one cell family.
#[derive(Default)]
struct Tally {
    trials: u64,
    verdicts: [u64; 7],
    violations: u64,
    cycles: u64,
    power_failures: u64,
    torn_writes: u64,
    corrupted_writes: u64,
    recoveries: u64,
    contained_panics: u64,
    shrunk: Option<u64>,
    hash: Fnv,
}

/// Whether `run_plan` contained a VM panic in this trial (it judges one
/// as an `Error` verdict).
fn contained_panic(trial: &Trial) -> bool {
    matches!(&trial.outcome, Err(VmError::Trap(t)) if t.starts_with("vm crashed on corrupted state"))
}

fn verdict_index(v: &Verdict) -> usize {
    match v {
        Verdict::Consistent => 0,
        Verdict::Divergent { .. } => 1,
        Verdict::WrongExit { .. } => 2,
        Verdict::CorruptedState { .. } => 3,
        Verdict::Incomplete { .. } => 4,
        Verdict::Livelock { .. } => 5,
        Verdict::Error { .. } => 6,
    }
}

impl Tally {
    fn add(&mut self, trial: &Trial, verdict: &Verdict, violation: bool) {
        self.trials += 1;
        self.verdicts[verdict_index(verdict)] += 1;
        self.violations += u64::from(violation);
        self.cycles += trial.cycles;
        self.power_failures += trial.power_failures;
        self.torn_writes += trial.torn_writes;
        self.corrupted_writes += trial.corrupted_writes;
        self.recoveries += trial.recoveries;
        self.contained_panics += u64::from(contained_panic(trial));
        self.hash.str(verdict.label());
        self.hash.str(&outcome_label(&trial.outcome));
        for v in [
            trial.cycles,
            trial.power_failures,
            trial.torn_writes,
            trial.corrupted_writes,
            trial.recoveries,
            trial.trace.len() as u64,
        ] {
            self.hash.u64(v);
        }
    }

    fn shrunk(&mut self, plan: &FaultPlan) {
        let mut h = Fnv::default();
        for &c in &plan.cuts {
            h.u64(c);
        }
        self.shrunk = Some(h.finish());
    }

    fn group(&self) -> Group {
        let v = &self.verdicts;
        Group::new(
            self.trials,
            &[
                ("consistent", v[0]),
                ("divergent", v[1]),
                ("wrong_exit", v[2]),
                ("corrupted_state", v[3]),
                ("incomplete", v[4]),
                ("livelock", v[5]),
                ("error", v[6]),
                ("violations", self.violations),
                ("cycles", self.cycles),
                ("power_failures", self.power_failures),
                ("torn_writes", self.torn_writes),
                ("corrupted_writes", self.corrupted_writes),
                ("recoveries", self.recoveries),
                ("contained_panics", self.contained_panics),
                ("shrunk_cuts", self.shrunk.unwrap_or(0)),
                ("hash", self.hash.finish()),
            ],
        )
    }
}

/// How a pass replays a trial.
enum Replay<'a> {
    /// `run_plan`, timing `run_plan` + `judge` per trial.
    Library(&'a mut Vec<f64>),
    /// The mirror, plain; collects simulated totals.
    Mirror(&'a mut SimTotals),
    /// Both, for the traced run: `run_plan` + `judge` timed plain, then
    /// the mirror behind the wrappers; any difference is a failure.
    Traced {
        ledger: &'a std::rc::Rc<Ledger>,
        sim: &'a mut SimTotals,
        untraced_ns: &'a mut u64,
        traced_ns: &'a mut u64,
        golden_cycles: &'a mut u64,
        mismatches: &'a mut Vec<String>,
    },
}

fn same_trial(a: &Trial, b: &Trial) -> bool {
    outcome_label(&a.outcome) == outcome_label(&b.outcome)
        && a.trace == b.trace
        && a.cycles == b.cycles
        && a.power_failures == b.power_failures
        && a.torn_writes == b.torn_writes
        && a.corrupted_writes == b.corrupted_writes
        && a.recoveries == b.recoveries
}

/// One pass over every cell and plan; returns the fingerprint and the
/// trials judged.
fn pass(cells: &[Cell], pass_no: u64, mut replay: Replay<'_>) -> (Fingerprint, u64) {
    let mut fp = Fingerprint::default();
    let mut trials = 0u64;
    for (ci, cell) in cells.iter().enumerate() {
        for (fi, family) in cell.families.iter().enumerate() {
            let mut tally = Tally::default();
            for (pi, plan) in family.plans.iter().enumerate() {
                let (trial, verdict) = match &mut replay {
                    Replay::Library(latencies) => {
                        let t = Instant::now();
                        let trial =
                            run_plan(&cell.prog, cell.system, plan, cell.budget, GUARD_BOOTS);
                        let verdict = judge(&cell.golden, &trial);
                        latencies.push(t.elapsed().as_nanos() as f64 / 1e3);
                        (trial, verdict)
                    }
                    Replay::Mirror(sim) => {
                        let (trial, m) = mirror_trial(
                            &cell.prog,
                            cell.system,
                            plan,
                            cell.budget,
                            &Tracing::None,
                        );
                        if let Some(m) = m {
                            sim.add_machine(&m);
                        }
                        let verdict = judge(&cell.golden, &trial);
                        (trial, verdict)
                    }
                    Replay::Traced {
                        ledger,
                        sim,
                        untraced_ns,
                        traced_ns,
                        golden_cycles,
                        mismatches,
                    } => {
                        let t = Instant::now();
                        let plain =
                            run_plan(&cell.prog, cell.system, plan, cell.budget, GUARD_BOOTS);
                        let plain_verdict = judge(&cell.golden, &plain);
                        **untraced_ns += t.elapsed().as_nanos() as u64;
                        let tracing = Tracing::Fine((*ledger).clone());
                        tracing.begin_op(
                            (pass_no << 40) | ((ci as u64) << 24) | ((fi as u64) << 20) | pi as u64,
                        );
                        let t = Instant::now();
                        let (trial, m) =
                            mirror_trial(&cell.prog, cell.system, plan, cell.budget, &tracing);
                        let verdict = ledger.time(Layer::Judge, || judge(&cell.golden, &trial));
                        **traced_ns += t.elapsed().as_nanos() as u64;
                        if let Some(m) = m {
                            sim.add_machine(&m);
                        }
                        **golden_cycles += cell.golden.on_cycles;
                        if !same_trial(&plain, &trial) || plain_verdict != verdict {
                            mismatches.push(format!(
                                "TRACED MISMATCH at {} plan {pi}: traced {} ({} cycles) vs untraced {} ({} cycles)",
                                cell.coords(family),
                                verdict.label(),
                                trial.cycles,
                                plain_verdict.label(),
                                plain.cycles
                            ));
                        }
                        (trial, verdict)
                    }
                };
                trials += 1;
                let violation = verdict.is_violation(family.strict);
                tally.add(&trial, &verdict, violation);
                if violation && family.shrink && tally.shrunk.is_none() {
                    let shrunk = {
                        let _span = match &replay {
                            Replay::Traced { ledger, .. } => Some(ledger.span(Layer::Shrink)),
                            _ => None,
                        };
                        shrink_plan(
                            &cell.prog,
                            cell.system,
                            &cell.golden,
                            plan,
                            cell.budget,
                            GUARD_BOOTS,
                            family.strict,
                        )
                    };
                    tally.shrunk(&shrunk);
                }
            }
            fp.insert(cell.coords(family), tally.group());
        }
    }
    (fp, trials)
}

/// Contained VM panics are judged results today (`Error` verdicts), not
/// harness failures; the count is printed so it stays visible.
fn panic_note(fp: &Fingerprint) -> String {
    format!(
        "contained VM panics per pass: {} (run_plan judges each as an error verdict)",
        fp.field_sum("contained_panics")
    )
}

/// The fingerprint of one mirrored pass (no timing).
///
/// # Errors
///
/// Set-up errors.
pub fn pass_fingerprint(seed: u64) -> Result<Fingerprint, String> {
    let cells = setup(seed, &Tracing::None)?;
    let mut sim = SimTotals::default();
    Ok(pass(&cells, 0, Replay::Mirror(&mut sim)).0)
}

/// The untraced run. `run_plan` does not hand its machine back, so the
/// simulated instruction count of a pass comes from one mirrored pass
/// after the timed window, whose fingerprint must match the timed
/// passes'.
///
/// # Errors
///
/// Harness errors and refused percentiles.
pub fn run(cfg: &RunCfg, committed: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let mut latencies = Vec::new();
    let mut warm_up = Vec::new();
    let mut check = harness::PassCheck::new(cfg.seed, committed)?;
    let mut pass_trials = 0;
    let timings = harness::measure(
        cfg.seconds,
        || setup(cfg.seed, &Tracing::None),
        |k, cells| {
            let Some(k) = k else {
                pass(cells, 0, Replay::Library(&mut warm_up));
                return Ok(());
            };
            let mut pass_latencies = Vec::with_capacity(pass_trials as usize);
            let (fp, n) = pass(cells, k, Replay::Library(&mut pass_latencies));
            latencies.push(pass_latencies);
            check.check(fp);
            pass_trials = n;
            Ok(())
        },
    )?;
    report.attempted = pass_trials * timings.pass_walls.len() as u64;

    let cells = setup(cfg.seed, &Tracing::None)?;
    let mut sim = SimTotals::default();
    let (mirrored, _) = pass(&cells, 0, Replay::Mirror(&mut sim));
    let first = check.first().expect("at least one timed pass");
    let m = mirrored.compare(first, "run_plan");
    report.failed += m.failed_ops;
    report.lines.extend(m.lines);
    report.lines.push(panic_note(first));
    check.finish(&mut report, "oracle", cfg.seed);
    harness::end_to_end(
        &mut report,
        Measured {
            timings: &timings,
            pass_instructions: sim.instructions,
            pass_ops: pass_trials,
            latencies_us: &latencies,
            sample_ops: 1,
        },
        &Aliases {
            rate: "trials_per_s",
            latency: "trial_us",
            latency_div: 1.0,
            tail: 99,
        },
    )?;
    Ok(report)
}

/// The traced run: every trial runs through `run_plan` and then through
/// the wrapped mirror; the two must agree exactly.
///
/// # Errors
///
/// Harness errors.
pub fn run_traced(cfg: &RunCfg, committed: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let ledger = Ledger::new(Instant::now());
    let cells = setup(cfg.seed, &Tracing::Fine(ledger.clone()))?;
    ledger.set_phase(Phase::Pass);
    let mut sim = SimTotals::default();
    let (mut untraced_ns, mut traced_ns, mut golden_cycles) = (0u64, 0u64, 0u64);
    let mut mismatches = Vec::new();
    let mut check = harness::PassCheck::new(cfg.seed, committed)?;
    let mut trials = 0;
    let passes = harness::timed_passes(cfg.seconds, |k| {
        let (fp, n) = pass(
            &cells,
            k,
            Replay::Traced {
                ledger: &ledger,
                sim: &mut sim,
                untraced_ns: &mut untraced_ns,
                traced_ns: &mut traced_ns,
                golden_cycles: &mut golden_cycles,
                mismatches: &mut mismatches,
            },
        );
        check.check(fp);
        trials += n;
        Ok(())
    })?
    .len() as u64;
    report.attempted = trials;
    report.failed += mismatches.len() as u64;
    report.lines.extend(mismatches);
    report
        .lines
        .push(panic_note(check.first().expect("at least one pass")));
    check.finish(&mut report, "oracle", cfg.seed);
    let ledger = ledger.finish();
    traced::per_layer(
        &mut report,
        &ledger,
        &sim,
        passes,
        &traced::Extra {
            cycle_inflation: sim.cycles as f64 / golden_cycles as f64,
            overhead_frac: traced_ns as f64 / untraced_ns as f64 - 1.0,
            ..traced::Extra::default()
        },
    );
    report.spans_tsv = Some(ledger.spans_tsv());
    Ok(report)
}
