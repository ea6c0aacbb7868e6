//! The `fleet` workload: `tics_bench::fleet::run_shard` over shards of
//! AR devices, on at most two worker threads.
//!
//! Many short device lives run on one recycled `Machine` per shard, so
//! reset, boot/restore, the AR app's time-semantics hooks and the
//! per-device fold carry the work; the frontend and image build are
//! paid once per shard.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tics_apps::build::{make_runtime, Scale};
use tics_apps::{build_app, App, SystemUnderTest};
use tics_bench::fleet::{run_shard, FleetSpec, ShardStats};
use tics_bench::oracle::count_violations;
use tics_bench::runner::ClockKind;
use tics_bench::sweep::{splitmix64, standard_sensor_trace, SupplySpec};
use tics_minic::opt::OptLevel;
use tics_vm::{
    DispatchEngine, Executor, IntermittentRuntime, Machine, MachineConfig, MachineImage,
    RunOutcome, VmError,
};

use crate::common::{Report, SimTotals, Tracing};
use crate::fingerprint::{Fingerprint, Group};
use crate::harness::{self, Aliases, Measured, RunCfg};
use crate::ledger::{Layer, Ledger, LedgerReport, Phase};
use crate::traced;

/// The fleet's device: the AR app at scale 6, as `exp_fleet` runs it.
const APP: App = App::Ar;
const OPT: OptLevel = OptLevel::O2;
const SCALE: u32 = 6;
/// Capacitor-backed RTC with a 60 s retention budget.
const CLOCK: ClockKind = ClockKind::CapacitorRtc(60_000_000);
/// Jittered duty-cycled power: 35 % uptime, 20 ms period, 55 % jitter.
const SUPPLY: SupplySpec = SupplySpec::DutyCycle {
    duty: 0.35,
    period_us: 20_000,
    jitter: 0.55,
};
const BUDGET_US: u64 = 5_000_000;
const GUARD_BOOTS: u64 = 96;

/// Devices per system in one pass: 15 shards a system, so a pass holds
/// 105 shard samples and is timed per shard (each shard's fastest
/// repetition), and its p50 and p90 fall inside one system's shards
/// rather than on the step between two systems.
pub const DEVICES_PER_SYSTEM: u64 = 750;
/// Devices per shard in the timed passes.
pub const SHARD_DEVICES: u64 = 50;
const _: () = assert!(DEVICES_PER_SYSTEM % SHARD_DEVICES == 0, "whole shards only");
/// Worker threads of the timed passes. The pool takes up to the host's
/// two cores, but on a shared two-core host two busy workers tripled
/// the run-to-run spread of `devices_per_s` (IQR/median 0.30 against
/// about 0.10 on one), so timed passes use one; the invariance test
/// runs both counts.
pub const THREADS: usize = 1;

/// Set-up: a spec for each system that can host the app, with a fleet
/// seed derived from the run's seed and the system's index in
/// `SystemUnderTest::ALL`.
///
/// # Errors
///
/// When no system can host the app.
pub fn setup(seed: u64, tracing: &Tracing) -> Result<Vec<FleetSpec>, String> {
    let mut systems = Vec::new();
    for (canonical, system) in SystemUnderTest::ALL.into_iter().enumerate() {
        let built = {
            let _span = tracing.span(Layer::MinicBuild);
            build_app(APP, system, OPT, Scale(SCALE))
        };
        if built.is_err() {
            continue;
        }
        systems.push(FleetSpec {
            app: APP,
            system,
            opt: OPT,
            clock: CLOCK,
            supply: SUPPLY.clone(),
            scale: SCALE,
            time_budget_us: BUDGET_US,
            guard_boots: GUARD_BOOTS,
            engine: DispatchEngine::Decoded,
            fleet_seed: splitmix64(seed ^ splitmix64(canonical as u64 + 0x51)),
        });
    }
    if systems.is_empty() {
        return Err(format!("no system can host {}", APP.name()));
    }
    Ok(systems)
}

/// One shard of a pass: system index into the set-up list, first
/// device and device count.
#[derive(Debug, Clone, Copy)]
pub struct Shard {
    /// Index into the set-up's systems.
    pub system: usize,
    /// First device.
    pub first: u64,
    /// Devices.
    pub count: u64,
}

/// The shards of one pass, system-major.
#[must_use]
pub fn shards(systems: usize, devices: u64, shard_devices: u64) -> Vec<Shard> {
    let mut out = Vec::new();
    for system in 0..systems {
        let mut first = 0;
        while first < devices {
            let count = shard_devices.min(devices - first);
            out.push(Shard {
                system,
                first,
                count,
            });
            first += count;
        }
    }
    out
}

/// The `ShardStats` counters the benchmark can also fold itself from a
/// mirrored device run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    devices: u64,
    finished: u64,
    out_of_energy: u64,
    budget_exhausted: u64,
    livelocked: u64,
    errored: u64,
    violating_devices: u64,
    violations: u64,
    recovered_devices: u64,
    power_failures: u64,
    checkpoints: u64,
    instructions: u64,
    cycles: u64,
    reactive_samples: u64,
    overhead_samples: u64,
    offenders_seen: u64,
}

impl Counters {
    /// The counters of a shard (or merged) aggregate.
    #[must_use]
    pub fn of(s: &ShardStats) -> Counters {
        Counters {
            devices: s.devices,
            finished: s.finished,
            out_of_energy: s.out_of_energy,
            budget_exhausted: s.budget_exhausted,
            livelocked: s.livelocked,
            errored: s.errored,
            violating_devices: s.violating_devices,
            violations: s.violations,
            recovered_devices: s.recovered_devices,
            power_failures: s.power_failures,
            checkpoints: s.checkpoints,
            instructions: s.instructions,
            cycles: s.cycles,
            reactive_samples: s.reactive_us.total(),
            overhead_samples: s.overhead_permille.total(),
            offenders_seen: s.offenders.seen(),
        }
    }

    /// Folds one finished device, counting what `run_shard` counts.
    pub fn fold(
        &mut self,
        m: &Machine,
        outcome: &Result<RunOutcome, VmError>,
        atomic_timestamps: bool,
    ) {
        self.devices += 1;
        match outcome {
            Ok(RunOutcome::Finished(_)) => self.finished += 1,
            Ok(RunOutcome::OutOfEnergy) => self.out_of_energy += 1,
            Ok(RunOutcome::BudgetExhausted) => self.budget_exhausted += 1,
            Ok(RunOutcome::Starved { .. }) => self.livelocked += 1,
            Err(_) => self.errored += 1,
        }
        let stats = m.stats();
        self.power_failures += stats.power_failures;
        self.checkpoints += stats.checkpoints;
        self.instructions += stats.instructions;
        self.cycles += m.cycles();
        if stats.recoveries > 0 {
            self.recovered_devices += 1;
        }
        let mut si = 0;
        for &(value, at_us) in &stats.sends_timed {
            if value < 0 {
                continue;
            }
            while si < stats.samples_timed.len() && stats.samples_timed[si] <= at_us {
                si += 1;
            }
            if si > 0 {
                self.reactive_samples += 1;
            }
        }
        if m.cycles() > 0 {
            self.overhead_samples += 1;
        }
        let v = count_violations(m.trace().records(), atomic_timestamps).total();
        self.violations += v;
        if v > 0 {
            self.violating_devices += 1;
        }
        if v > 0 || matches!(outcome, Ok(RunOutcome::Starved { .. })) {
            self.offenders_seen += 1;
        }
    }

    fn add(&mut self, o: &Counters) {
        self.devices += o.devices;
        self.finished += o.finished;
        self.out_of_energy += o.out_of_energy;
        self.budget_exhausted += o.budget_exhausted;
        self.livelocked += o.livelocked;
        self.errored += o.errored;
        self.violating_devices += o.violating_devices;
        self.violations += o.violations;
        self.recovered_devices += o.recovered_devices;
        self.power_failures += o.power_failures;
        self.checkpoints += o.checkpoints;
        self.instructions += o.instructions;
        self.cycles += o.cycles;
        self.reactive_samples += o.reactive_samples;
        self.overhead_samples += o.overhead_samples;
        self.offenders_seen += o.offenders_seen;
    }

    fn group(&self) -> Group {
        Group::new(
            self.devices,
            &[
                ("finished", self.finished),
                ("out_of_energy", self.out_of_energy),
                ("budget_exhausted", self.budget_exhausted),
                ("livelocked", self.livelocked),
                ("errored", self.errored),
                ("violating_devices", self.violating_devices),
                ("violations", self.violations),
                ("recovered_devices", self.recovered_devices),
                ("power_failures", self.power_failures),
                ("checkpoints", self.checkpoints),
                ("instructions", self.instructions),
                ("cycles", self.cycles),
                ("reactive_samples", self.reactive_samples),
                ("overhead_samples", self.overhead_samples),
                ("offenders_seen", self.offenders_seen),
            ],
        )
    }
}

/// The fingerprint of per-system counters.
#[must_use]
pub fn fingerprint(systems: &[FleetSpec], per_system: &[Counters]) -> Fingerprint {
    let mut fp = Fingerprint::default();
    for (s, c) in systems.iter().zip(per_system) {
        fp.insert(format!("fleet/{}", s.system.name()), c.group());
    }
    fp
}

/// Op id of a device: pass, system and device index.
fn op_id(pass: u64, system: usize, device: u64) -> u64 {
    (pass << 40) | ((system as u64) << 32) | device
}

/// Mirrors `run_shard`: the same public calls in the same order, with
/// spans (and, for [`Tracing::Fine`], wrappers) around them. `on_device`
/// sees every finished device.
///
/// # Errors
///
/// Build and load failures, as `run_shard` reports them.
pub fn mirror_shard(
    spec: &FleetSpec,
    first: u64,
    count: u64,
    tracing: &Tracing,
    op_base: u64,
    mut on_device: impl FnMut(&Machine, &Result<RunOutcome, VmError>),
) -> Result<(), String> {
    tracing.begin_op(op_base | first);
    let prog = {
        let _span = tracing.span(Layer::MinicBuild);
        build_app(spec.app, spec.system, spec.opt, Scale(spec.scale)).map_err(|e| e.to_string())?
    };
    let image = {
        let _span = tracing.span(Layer::ImageBuild);
        MachineImage::build(
            prog.clone(),
            &MachineConfig {
                sensor_trace: standard_sensor_trace(spec.app, spec.scale),
                ..MachineConfig::default()
            },
        )
        .map_err(|e| e.to_string())?
    };
    let mut parts: Option<(Machine, Box<dyn IntermittentRuntime>)> = None;
    for d in first..first + count {
        tracing.begin_op(op_base | d);
        let seed = spec.device_seed(d);
        let (m, runtime) = match parts.as_mut() {
            None => {
                let _span = tracing.span(Layer::MachineNew);
                let rt = tracing.runtime(make_runtime(spec.system, &prog));
                let clock = tracing.clock(spec.clock.build());
                let m = Machine::from_image(Arc::clone(&image), seed, clock)
                    .map_err(|e| e.to_string())?;
                let (m, rt) = parts.insert((m, rt));
                (m, rt)
            }
            Some((m, rt)) => {
                let _span = tracing.span(Layer::Reset);
                m.reset(seed).map_err(|e| e.to_string())?;
                (m, rt)
            }
        };
        match tracing {
            Tracing::Coarse(l) => l.time(Layer::Recycle, || runtime.recycle()),
            _ => runtime.recycle(),
        }
        let mut supply = tracing.supply(spec.supply.build(seed));
        let outcome = {
            let _span = tracing.span(Layer::Exec);
            Executor::new()
                .with_engine(spec.engine)
                .with_time_budget(spec.time_budget_us)
                .with_progress_guard(spec.guard_boots)
                .run(m, runtime.as_mut(), supply.as_mut())
        };
        on_device(m, &outcome);
    }
    Ok(())
}

/// Counters of one mirrored shard.
///
/// # Errors
///
/// As [`mirror_shard`].
pub fn mirror_counters(
    spec: &FleetSpec,
    first: u64,
    count: u64,
    tracing: &Tracing,
    op_base: u64,
    sim: &mut SimTotals,
) -> Result<Counters, String> {
    let atomic = spec.system == SystemUnderTest::Tics;
    let mut c = Counters::default();
    mirror_shard(spec, first, count, tracing, op_base, |m, outcome| {
        c.fold(m, outcome, atomic);
        sim.add_machine(m);
    })?;
    Ok(c)
}

/// Result of one shard in a pass.
struct ShardResult {
    index: usize,
    stats: ShardStats,
    wall_ns: u64,
}

/// Runs `work(i)` for every shard index on `threads` workers pulling
/// from a shared counter; returns the results and per-worker busy ns.
fn pool<T: Send>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<(Vec<(usize, T)>, u64), String> {
    if threads <= 1 {
        // Inline: no worker thread, so no per-thread allocator arena.
        let mut out = Vec::with_capacity(n);
        let mut busy = 0;
        for i in 0..n {
            let t = Instant::now();
            out.push((i, work(i)?));
            busy += t.elapsed().as_nanos() as u64;
        }
        return Ok((out, busy));
    }
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(n));
    let busy = AtomicUsize::new(0);
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t = Instant::now();
                let r = work(i);
                busy.fetch_add(t.elapsed().as_nanos() as usize, Ordering::Relaxed);
                match r {
                    Ok(v) => out
                        .lock()
                        .expect("no worker panics holding the lock")
                        .push((i, v)),
                    Err(e) => errors
                        .lock()
                        .expect("no worker panics holding the lock")
                        .push(e),
                }
            });
        }
    });
    let errors = errors.into_inner().expect("workers joined");
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    let mut out = out.into_inner().expect("workers joined");
    out.sort_by_key(|(i, _)| *i);
    Ok((out, busy.into_inner() as u64))
}

/// One untraced pass through `run_shard`: per-system merged stats (in
/// shard order) and per-shard results.
fn untraced_pass(
    systems: &[FleetSpec],
    plan: &[Shard],
    threads: usize,
) -> Result<(Vec<ShardStats>, Vec<ShardResult>), String> {
    let (results, _) = pool(plan.len(), threads, |i| {
        let s = plan[i];
        let t = Instant::now();
        let stats = run_shard(&systems[s.system], s.first, s.count)?;
        Ok((stats, t.elapsed().as_nanos() as u64))
    })?;
    let results: Vec<ShardResult> = results
        .into_iter()
        .map(|(index, (stats, wall_ns))| ShardResult {
            index,
            stats,
            wall_ns,
        })
        .collect();
    let mut merged: Vec<ShardStats> = systems
        .iter()
        .map(|s| ShardStats::new(s.device_seed(0)))
        .collect();
    for r in &results {
        merged[plan[r.index].system].merge(&r.stats);
    }
    Ok((merged, results))
}

/// The per-system counter fingerprint of one pass at the given shard
/// size and thread count (the fleet invariance test compares these).
///
/// # Errors
///
/// Shard errors.
pub fn pass_fingerprint(
    seed: u64,
    devices: u64,
    shard_devices: u64,
    threads: usize,
) -> Result<Fingerprint, String> {
    let systems = setup(seed, &Tracing::None)?;
    let plan = shards(systems.len(), devices, shard_devices);
    let (merged, _) = untraced_pass(&systems, &plan, threads)?;
    let counters: Vec<Counters> = merged.iter().map(Counters::of).collect();
    Ok(fingerprint(&systems, &counters))
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Harness errors and refused percentiles.
pub fn run(cfg: &RunCfg, committed: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let mut check = harness::PassCheck::new(cfg.seed, committed)?;
    let mut latencies = Vec::new();
    let (mut pass_instructions, mut pass_devices) = (0, 0);
    let timings = harness::measure(
        cfg.seconds,
        || setup(cfg.seed, &Tracing::None),
        |k, systems| {
            let plan = shards(systems.len(), DEVICES_PER_SYSTEM, SHARD_DEVICES);
            let (merged, results) = untraced_pass(systems, &plan, THREADS)?;
            if k.is_none() {
                return Ok(());
            }
            latencies.push(
                results
                    .iter()
                    .map(|r| r.wall_ns as f64 / 1e3 / r.stats.devices.max(1) as f64)
                    .collect(),
            );
            let counters: Vec<Counters> = merged.iter().map(Counters::of).collect();
            pass_instructions = counters.iter().map(|c| c.instructions).sum::<u64>();
            pass_devices = counters.iter().map(|c| c.devices).sum::<u64>();
            check.check(fingerprint(systems, &counters));
            Ok(())
        },
    )?;
    report.attempted = pass_devices * timings.pass_walls.len() as u64;
    check.finish(&mut report, "fleet", cfg.seed);
    harness::end_to_end(
        &mut report,
        Measured {
            timings: &timings,
            pass_instructions,
            pass_ops: pass_devices,
            latencies_us: &latencies,
            sample_ops: SHARD_DEVICES,
        },
        &Aliases {
            rate: "devices_per_s",
            latency: "device_us",
            latency_div: 1.0,
            tail: 90,
        },
    )?;
    report.lines.push(format!(
        "latency samples are per shard: run_shard wall / devices ({SHARD_DEVICES}-device shards, {THREADS} threads)"
    ));
    Ok(report)
}

/// What one worker of the traced pool returns.
struct TracedShard {
    run_shard: Counters,
    coarse: Counters,
    fine: Counters,
    fine_ns: u64,
    stats: ShardStats,
}

/// The traced run: per shard, `run_shard` timed whole, a coarse mirror
/// (spans at the benchmark's calls only; `fleet.fold_ms` is `run_shard`
/// minus its build, instantiate, reset, recycle and exec time) and a
/// fine mirror behind the wrappers. Both mirrors must reproduce
/// `run_shard`'s counters exactly.
///
/// # Errors
///
/// Harness errors.
pub fn run_traced(cfg: &RunCfg, committed: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let origin = Instant::now();
    let setup_ledger = Ledger::new(origin);
    let systems = setup(cfg.seed, &Tracing::Fine(setup_ledger.clone()))?;
    let plan = shards(systems.len(), DEVICES_PER_SYSTEM, SHARD_DEVICES);

    let coarse_all = Mutex::new(LedgerReport::default());
    let fine_all = Mutex::new(LedgerReport::default());
    fine_all
        .lock()
        .expect("unpoisoned")
        .merge(setup_ledger.finish());
    let sim_all = Mutex::new(SimTotals::default());
    let mut busy_ns = 0u64;
    let mut pool_wall_ns = 0u64;
    let mut merge_report = LedgerReport::default();
    let mut fine_ns = 0u64;
    let mut devices = 0u64;
    let mut check = harness::PassCheck::new(cfg.seed, committed)?;

    let passes = harness::timed_passes(cfg.seconds, |pass| {
        let t = Instant::now();
        let (results, busy) = pool(plan.len(), THREADS, |i| {
            let s = plan[i];
            let spec = &systems[s.system];
            let op_base = op_id(pass, s.system, 0);
            let coarse = Ledger::new(origin);
            coarse.set_phase(Phase::Pass);
            let stats = {
                let _span = coarse.span(Layer::RunShard);
                run_shard(spec, s.first, s.count)?
            };
            let mut scratch = SimTotals::default();
            let coarse_c = mirror_counters(
                spec,
                s.first,
                s.count,
                &Tracing::Coarse(coarse.clone()),
                op_base,
                &mut scratch,
            )?;
            let fine = Ledger::new(origin);
            fine.set_phase(Phase::Pass);
            let mut sim = SimTotals::default();
            let t1 = Instant::now();
            let fine_c = mirror_counters(
                spec,
                s.first,
                s.count,
                &Tracing::Fine(fine.clone()),
                op_base,
                &mut sim,
            )?;
            let fine_ns = t1.elapsed().as_nanos() as u64;
            coarse_all
                .lock()
                .expect("unpoisoned")
                .merge(coarse.finish());
            fine_all.lock().expect("unpoisoned").merge(fine.finish());
            sim_all.lock().expect("unpoisoned").add(&sim);
            Ok(TracedShard {
                run_shard: Counters::of(&stats),
                coarse: coarse_c,
                fine: fine_c,
                fine_ns,
                stats,
            })
        })?;
        busy_ns += busy;
        pool_wall_ns += t.elapsed().as_nanos() as u64;
        let merge_ledger = Ledger::new(origin);
        merge_ledger.set_phase(Phase::Pass);
        let tracing = Tracing::Coarse(merge_ledger.clone());
        let mut merged: Vec<ShardStats> = systems
            .iter()
            .map(|s| ShardStats::new(s.device_seed(0)))
            .collect();
        let mut mirrored = vec![Counters::default(); systems.len()];
        for (i, r) in &results {
            let sys = plan[*i].system;
            {
                let _span = tracing.span(Layer::Merge);
                merged[sys].merge(&r.stats);
            }
            mirrored[sys].add(&r.fine);
            fine_ns += r.fine_ns;
            devices += r.run_shard.devices;
            for (name, c) in [("coarse mirror", &r.coarse), ("fine mirror", &r.fine)] {
                if *c != r.run_shard {
                    let s = plan[*i];
                    let coords = format!(
                        "fleet/{} devices {}..{}",
                        systems[s.system].system.name(),
                        s.first,
                        s.first + s.count
                    );
                    report.fail(
                        r.run_shard.devices,
                        format!("TRACED MISMATCH: {name} of {coords} differs from run_shard"),
                    );
                }
            }
        }
        merge_report.merge(merge_ledger.finish());
        let untraced: Vec<Counters> = merged.iter().map(Counters::of).collect();
        let traced = fingerprint(&systems, &mirrored);
        let m = traced.compare(&fingerprint(&systems, &untraced), "untraced");
        report.failed += m.failed_ops;
        report.lines.extend(m.lines);
        check.check(traced);
        Ok(())
    })?
    .len() as u64;
    report.attempted = devices;
    check.finish(&mut report, "fleet", cfg.seed);

    let coarse = coarse_all.into_inner().expect("unpoisoned");
    let mut fine = fine_all.into_inner().expect("unpoisoned");
    fine.merge(merge_report);
    let sim = sim_all.into_inner().expect("unpoisoned");
    let phases = [
        Layer::MinicBuild,
        Layer::ImageBuild,
        Layer::MachineNew,
        Layer::Reset,
        Layer::Recycle,
        Layer::Exec,
    ];
    let mirrored_ns: u64 = phases
        .iter()
        .map(|&l| coarse.totals[Phase::Pass as usize][l as usize].total_ns)
        .sum();
    let run_shard_total = coarse.totals[Phase::Pass as usize][Layer::RunShard as usize].total_ns;
    let fold_ms = (run_shard_total as f64 - mirrored_ns as f64) / 1e6 / passes as f64;
    let busy_frac = busy_ns as f64 / (THREADS as f64 * pool_wall_ns as f64);
    traced::per_layer(
        &mut report,
        &fine,
        &sim,
        passes,
        &traced::Extra {
            fold_ms,
            busy_frac,
            overhead_frac: fine_ns as f64 / run_shard_total as f64 - 1.0,
            ..traced::Extra::default()
        },
    );
    report.spans_tsv = Some(fine.spans_tsv());
    Ok(report)
}
