//! `exp_fleet` — fleet-scale streaming Monte Carlo over the capability
//! matrix.
//!
//! Simulates a large population of independent AR devices (default
//! ~100 000, `--devices 999999` for the million-device run) for every
//! system that can host the app, each device with its own
//! splitmix64-derived supply fate, on stochastic duty-cycled power with
//! a drifting capacitor-backed RTC. Devices are folded into
//! fixed-memory aggregates as they complete — counters, streaming
//! log-bucket histograms for reactive time and runtime overhead, and a
//! reservoir of worst offenders — so memory use is independent of the
//! fleet size.
//!
//! The engine is the machine-recycling path: each shard builds one
//! shared `MachineImage` and recycles a single `Machine` (and runtime)
//! across its whole device range, so the per-device cost is a state
//! reset, not a construction. Shards are sweep cells (`--threads N`
//! parallelism, `--resume` reuse, per-shard journal rows carrying the
//! full aggregate), and device seeds depend only on the fleet seed and
//! the global device index — shard boundaries and thread count never
//! change any device's fate.
//!
//! Flags beyond the standard sweep set:
//!
//! - `--devices N` — total fleet size, split evenly across the feasible
//!   systems; an N that does not split evenly is rejected (default: the
//!   largest multiple of the system count up to 100 000).
//! - `--check` — compare per-system device and instruction totals
//!   against the committed `BENCH_fleet.json`. Instruction counts are
//!   simulated (host-independent) and engine-invariant, so equality is
//!   exact; a mismatch means device behavior changed. Without
//!   `--devices`, the run reuses the arguments the baseline records.
//!   Prints one [`tics_bench::gate::Check`] line per system and key
//!   (threshold, measured and baseline value, device count) and a
//!   `gate fleet: N of M checks passed` line.
//! - `--out PATH` — baseline path (default `BENCH_fleet.json`).
//! - `--no-write` — run and report without touching the baseline.
//!
//! To refresh the committed baseline (1400 devices, the size CI checks):
//! `cargo run --release -p tics-bench --bin exp_fleet -- --devices 1400`
//! and commit the rewritten `BENCH_fleet.json`.

use std::process::ExitCode;

use tics_apps::{build_app, App, SystemUnderTest};
use tics_bench::fleet::{run_shard, FleetSpec, ShardStats};
use tics_bench::gate::{print_checks, Check};
use tics_bench::sweep::splitmix64;
use tics_bench::{Cell, ClockKind, Json, SupplySpec, Sweep, SweepArgs};
use tics_minic::opt::OptLevel;
use tics_vm::DispatchEngine;

/// The fleet's device: the paper's activity-recognition app, scaled
/// down so one device is cheap enough to mass-produce.
const FLEET_APP: App = App::Ar;
const FLEET_OPT: OptLevel = OptLevel::O2;
const FLEET_SCALE: u32 = 6;

/// Capacitor-backed RTC with a 60 s retention budget — the realistic
/// timekeeper whose drift the oracle's slack absorbs.
const FLEET_CLOCK: ClockKind = ClockKind::CapacitorRtc(60_000_000);

/// Stochastic duty-cycled power: 35 % uptime over a 20 ms nominal
/// period with 55 % jitter, instantiated per device from its seed.
/// Harsh enough that every system sees mid-run failures, gentle enough
/// that healthy devices finish.
const FLEET_SUPPLY: SupplySpec = SupplySpec::DutyCycle {
    duty: 0.35,
    period_us: 20_000,
    jitter: 0.55,
};

/// Per-device on-time budget (µs) and livelock guard. The budget is
/// ~3000x the continuous-power workload, so it only trips for devices
/// making pathological (but technically forward) progress — and bounds
/// their wall-clock cost, which matters at a million devices.
const BUDGET_US: u64 = 5_000_000;
const GUARD_BOOTS: u64 = 96;

/// Devices per shard (= per journal row / work-stealing unit).
const SHARD_DEVICES: u64 = 250;

/// Root of every per-system fleet seed.
const FLEET_SEED: u64 = 0xF1EE_7000_0000_5EED;

/// Default fleet size.
const DEFAULT_DEVICES: u64 = 100_000;

/// The per-system fleet seed, derived from the system's *canonical*
/// index in [`SystemUnderTest::ALL`] so it never shifts when the
/// feasible subset changes.
fn system_fleet_seed(canonical_index: usize) -> u64 {
    splitmix64(FLEET_SEED ^ splitmix64(canonical_index as u64 + 0x51))
}

struct Flags {
    devices: Option<u64>,
    check: bool,
    no_write: bool,
    out_path: String,
}

fn parse_flags(rest: &[String]) -> Flags {
    let mut flags = Flags {
        devices: None,
        check: false,
        no_write: false,
        out_path: "BENCH_fleet.json".to_string(),
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--devices" {
            match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => flags.devices = Some(n),
                _ => eprintln!("warning: --devices needs a positive integer"),
            }
        } else if let Some(v) = arg.strip_prefix("--devices=") {
            match v.parse::<u64>() {
                Ok(n) if n >= 1 => flags.devices = Some(n),
                _ => eprintln!("warning: --devices needs a positive integer"),
            }
        } else if arg == "--check" {
            flags.check = true;
        } else if arg == "--no-write" {
            flags.no_write = true;
        } else if arg == "--out" {
            match it.next() {
                Some(p) => flags.out_path = p.clone(),
                None => eprintln!("warning: --out needs a path"),
            }
        } else if let Some(v) = arg.strip_prefix("--out=") {
            flags.out_path = v.to_string();
        } else {
            eprintln!("warning: unknown argument {arg:?}");
        }
    }
    flags
}

/// Formats a percentile's bucket bounds compactly (`lo..hi µs`-style).
fn fmt_bounds(b: Option<(u64, u64)>) -> String {
    match b {
        Some((lo, hi)) if lo == hi => format!("{lo}"),
        Some((lo, hi)) => format!("{lo}..{hi}"),
        None => "-".to_string(),
    }
}

fn percentile_json(h: &tics_bench::StreamingHistogram, p: f64) -> Json {
    match h.percentile(p) {
        Some((lo, hi)) => Json::Arr(vec![Json::from(lo), Json::from(hi)]),
        None => Json::Null,
    }
}

fn main() -> ExitCode {
    let mut args = SweepArgs::parse_env();
    let flags = parse_flags(&args.rest);
    args.rest.clear();

    // Probe the capability matrix once: a system joins the fleet iff it
    // can host the app at all (the same feasibility rule every other
    // experiment uses).
    let feasible: Vec<(usize, SystemUnderTest)> = SystemUnderTest::ALL
        .into_iter()
        .enumerate()
        .filter(|(_, system)| {
            build_app(
                FLEET_APP,
                *system,
                FLEET_OPT,
                tics_apps::build::Scale(FLEET_SCALE),
            )
            .is_ok()
        })
        .collect();
    if feasible.is_empty() {
        eprintln!("no system can host {}", FLEET_APP.name());
        return ExitCode::FAILURE;
    }
    let systems = feasible.len() as u64;

    // --check reads the baseline up front: without --devices, the run
    // reuses the arguments that generated it.
    let baseline = if flags.check {
        match std::fs::read_to_string(&flags.out_path)
            .map_err(|e| format!("cannot read baseline {}: {e}", flags.out_path))
            .and_then(|text| {
                Json::parse(&text)
                    .map_err(|e| format!("cannot parse baseline {}: {e:?}", flags.out_path))
            }) {
            Ok(json) => Some(json),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let recorded = baseline
        .as_ref()
        .and_then(|b| b.get("args")?.get("devices")?.as_u64());
    let total_devices = match flags.devices.or(recorded) {
        Some(n) if n % systems != 0 => {
            eprintln!(
                "error: --devices {n} does not split evenly over the {systems} feasible \
                 systems; use a multiple of {systems}"
            );
            return ExitCode::from(2);
        }
        Some(n) => n,
        None => DEFAULT_DEVICES / systems * systems,
    };
    let per_system = total_devices / systems;

    // One cell per (system, shard). The shard carries its device range
    // in params; everything else is deterministic cell coordinates.
    let mut sweep = Sweep::new("fleet").args(args);
    for (canonical, system) in &feasible {
        let fleet_seed = system_fleet_seed(*canonical);
        let shards = per_system.div_ceil(SHARD_DEVICES);
        for shard in 0..shards {
            let first = shard * SHARD_DEVICES;
            let count = SHARD_DEVICES.min(per_system - first);
            sweep = sweep.cell(
                Cell::new(FLEET_APP, *system)
                    .opt(FLEET_OPT)
                    .clock(FLEET_CLOCK)
                    .supply(FLEET_SUPPLY.clone())
                    .scale(FLEET_SCALE)
                    .budget(BUDGET_US)
                    .shard(shard)
                    .param("first_device", i64::try_from(first).expect("fits"))
                    .param("devices", i64::try_from(count).expect("fits"))
                    .param("fleet_seed", format!("{fleet_seed:#x}")),
            );
        }
    }

    println!(
        "fleet: {} devices/system x {} systems = {} devices, {} shards",
        per_system,
        feasible.len(),
        total_devices,
        sweep.len(),
    );

    let outcome = sweep.run_with(|cell| {
        let fleet_seed =
            u64::from_str_radix(cell.param_str("fleet_seed").trim_start_matches("0x"), 16)
                .map_err(|e| format!("bad fleet_seed param: {e}"))?;
        let spec = FleetSpec {
            app: cell.app,
            system: cell.system,
            opt: cell.opt,
            clock: cell.clock,
            supply: cell.supply.clone(),
            scale: cell.scale,
            time_budget_us: cell.time_budget_us,
            guard_boots: GUARD_BOOTS,
            engine: DispatchEngine::from_env(),
            fleet_seed,
        };
        let first = u64::try_from(cell.param_i64("first_device")).map_err(|e| e.to_string())?;
        let count = u64::try_from(cell.param_i64("devices")).map_err(|e| e.to_string())?;
        Ok(run_shard(&spec, first, count)?.to_output())
    });

    // Fold the journal rows (fresh and resumed alike) back into
    // per-system fleet aggregates, in shard order.
    let mut failed = 0u32;
    let mut fleets: Vec<(SystemUnderTest, ShardStats)> = Vec::new();
    for (_, system) in &feasible {
        let mut rows: Vec<_> = outcome
            .ok_rows()
            .filter(|r| r.system == system.name())
            .collect();
        rows.sort_by_key(|r| r.shard);
        let mut total = ShardStats::new(0);
        for row in rows {
            match ShardStats::from_row(row) {
                Some(shard) => total.merge(&shard),
                None => {
                    eprintln!(
                        "malformed shard row {}/{:?} in journal",
                        row.system, row.shard
                    );
                    failed += 1;
                }
            }
        }
        fleets.push((*system, total));
    }
    failed += u32::try_from(
        outcome.rows.len() - outcome.ok_rows().count(),
    )
    .unwrap_or(u32::MAX);

    let devices_per_sec = if outcome.summary.wall_s > 0.0 {
        total_devices as f64 / outcome.summary.wall_s
    } else {
        0.0
    };

    println!();
    println!(
        "{:<10} {:>9} {:>7} {:>7} {:>7} {:>6} {:>8} {:>8} {:>14} {:>14} {:>12}",
        "system",
        "devices",
        "fin%",
        "live%",
        "viol%",
        "recov",
        "pwrfail",
        "ckpts",
        "react p50 us",
        "react p99 us",
        "ovhd p50 \u{2030}"
    );
    for (system, f) in &fleets {
        let pct = |n: u64| {
            if f.devices == 0 {
                0.0
            } else {
                100.0 * n as f64 / f.devices as f64
            }
        };
        println!(
            "{:<10} {:>9} {:>6.1}% {:>6.1}% {:>6.1}% {:>6} {:>8} {:>8} {:>14} {:>14} {:>12}",
            system.name(),
            f.devices,
            pct(f.finished),
            pct(f.livelocked),
            pct(f.violating_devices),
            f.recovered_devices,
            f.power_failures,
            f.checkpoints,
            fmt_bounds(f.reactive_us.percentile(50.0)),
            fmt_bounds(f.reactive_us.percentile(99.0)),
            fmt_bounds(f.overhead_permille.percentile(50.0)),
        );
    }
    println!();
    println!(
        "{} devices in {:.1}s wall = {:.0} devices/sec on {} thread(s)",
        total_devices, outcome.summary.wall_s, devices_per_sec, outcome.summary.threads
    );
    println!("{}", outcome.summary);

    let json = fleet_json(&fleets, total_devices, devices_per_sec);
    tics_bench::write_json("fleet", &json);

    let mut failed_checks = 0;
    if let Some(baseline) = &baseline {
        failed_checks = print_checks("fleet", &fleet_checks(baseline, &fleets));
    } else if !flags.no_write {
        if let Err(e) = std::fs::write(&flags.out_path, json.to_pretty()) {
            eprintln!("cannot write {}: {e}", flags.out_path);
            return ExitCode::FAILURE;
        }
        println!("baseline written to {}", flags.out_path);
    }

    if failed > 0 {
        eprintln!("{failed} shard(s) failed or were malformed");
        return ExitCode::FAILURE;
    }
    if failed_checks > 0 {
        eprintln!(
            "{failed_checks} check(s) diverged from the baseline (refresh with \
             `cargo run --release -p tics-bench --bin exp_fleet -- --devices N` if intended)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn fleet_json(
    fleets: &[(SystemUnderTest, ShardStats)],
    total_devices: u64,
    devices_per_sec: f64,
) -> Json {
    Json::obj()
        .field("version", 1i64)
        .field("app", FLEET_APP.name())
        .field("scale", u64::from(FLEET_SCALE))
        .field("clock", FLEET_CLOCK.label())
        .field("supply", FLEET_SUPPLY.label())
        .field("args", Json::obj().field("devices", total_devices).build())
        .field("total_devices", total_devices)
        .field("devices_per_sec", devices_per_sec)
        .field(
            "systems",
            Json::Arr(
                fleets
                    .iter()
                    .map(|(system, f)| {
                        let mut obj = Json::obj().field("system", system.name());
                        for (key, value) in f.to_extra() {
                            obj = obj.field(&key, value);
                        }
                        obj.field("reactive_p50_us", percentile_json(&f.reactive_us, 50.0))
                            .field("reactive_p99_us", percentile_json(&f.reactive_us, 99.0))
                            .field(
                                "overhead_p50_permille",
                                percentile_json(&f.overhead_permille, 50.0),
                            )
                            .field(
                                "overhead_p99_permille",
                                percentile_json(&f.overhead_permille, 99.0),
                            )
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
}

/// Exact-equality gate on the simulated, host-independent per-system
/// totals: one check per system and key — its device count, then its
/// instruction, violation and power-failure totals — each with the
/// threshold (exact), the measured and baseline values, and the device
/// count. A device-count mismatch means the baseline was generated at a
/// different `--devices`; any other mismatch means device behavior
/// changed.
fn fleet_checks(baseline: &Json, fleets: &[(SystemUnderTest, ShardStats)]) -> Vec<Check> {
    let Some(rows) = baseline.get("systems").and_then(Json::as_arr) else {
        let failure = vec!["baseline has no systems array".to_string()];
        return vec![Check::new(
            "baseline",
            "a systems array".into(),
            "none".into(),
            0,
            "all systems",
            failure,
        )];
    };
    let baseline_devices = baseline.get("total_devices").and_then(Json::as_u64);
    let mut checks = Vec::new();
    for (system, f) in fleets {
        let name = system.name();
        let Some(row) = rows
            .iter()
            .find(|r| r.get("system").and_then(Json::as_str) == Some(name))
        else {
            checks.push(Check::new(
                "devices",
                "exact".into(),
                format!("{} vs baseline none", f.devices),
                f.devices,
                name,
                vec![format!("system {name} not in baseline")],
            ));
            continue;
        };
        let same_devices = row.get("devices").and_then(Json::as_u64) == Some(f.devices);
        for (key, got) in [
            ("devices", f.devices),
            ("instructions", f.instructions),
            ("violations", f.violations),
            ("fleet_power_failures", f.power_failures),
        ] {
            let base = row.get(key).and_then(Json::as_u64);
            let failures = match base {
                Some(b) if b == got => Vec::new(),
                _ if key == "devices" => vec![format!(
                    "the baseline ran {n} devices in total: re-run with `--devices {n}` to \
                     compare against it",
                    n = baseline_devices.unwrap_or(0),
                )],
                _ if !same_devices => vec![format!("{key} not comparable: device count differs")],
                _ => vec![format!("{key} changed: per-device behavior diverged")],
            };
            let base = base.map_or_else(|| "none".to_string(), |b| b.to_string());
            checks.push(Check::new(
                key,
                "exact".into(),
                format!("{got} vs baseline {base}"),
                f.devices,
                name,
                failures,
            ));
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(devices: u64, instructions: u64) -> (SystemUnderTest, ShardStats) {
        let mut f = ShardStats::new(1);
        f.devices = devices;
        f.instructions = instructions;
        f.violations = 3;
        f.power_failures = 7;
        (SystemUnderTest::Tics, f)
    }

    fn baseline(devices: u64, instructions: u64) -> Json {
        let row = Json::obj()
            .field("system", SystemUnderTest::Tics.name())
            .field("devices", devices)
            .field("instructions", instructions)
            .field("violations", 3u64)
            .field("fleet_power_failures", 7u64)
            .build();
        Json::obj()
            .field("total_devices", devices)
            .field("systems", Json::Arr(vec![row]))
            .build()
    }

    #[test]
    fn matching_totals_pass_one_check_per_key() {
        let checks = fleet_checks(&baseline(200, 5_000), &[fleet(200, 5_000)]);
        assert_eq!(checks.len(), 4);
        assert!(checks.iter().all(|c| c.pass));
        assert!(checks[1].line.starts_with(
            "PASS instructions: exact | measured 5000 vs baseline 5000 | 200 trials | TICS"
        ));
    }

    #[test]
    fn device_count_and_divergence_fail_their_own_checks() {
        let checks = fleet_checks(&baseline(200, 5_000), &[fleet(100, 2_500)]);
        let failed: Vec<_> = checks.iter().filter(|c| !c.pass).collect();
        assert_eq!(failed.len(), 2);
        assert!(failed[0]
            .line
            .starts_with("FAIL devices: exact | measured 100 vs baseline 200"));
        assert!(failed[0].line.contains("--devices 200"));
        assert!(failed[1].line.starts_with("FAIL instructions:"));
        let missing = fleet_checks(&Json::obj().build(), &[fleet(200, 5_000)]);
        assert!(!missing[0].pass);
    }
}
