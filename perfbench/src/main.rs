//! `perfbench` — runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload fleet|oracle|ckpt --seed N --seconds S --trace 0|1
//! perfbench --workload W --seed N --print-fingerprint
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced mirror and prints the per-layer metrics, writing its span
//! records under `$CARGO_TARGET_DIR/perfbench-trace/` (default
//! `perfbench/target/`). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.
//! `--print-fingerprint` prints one pass's fingerprint, the form
//! committed under `fingerprints/` for the default seed.

use std::process::ExitCode;

use tics_perfbench::common::Report;
use tics_perfbench::harness::RunCfg;
use tics_perfbench::{ckpt, committed_fingerprint, fleet, oracle};

struct Args {
    workload: String,
    cfg: RunCfg,
    trace: bool,
    print_fingerprint: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut print_fingerprint = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--print-fingerprint" => print_fingerprint = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fleet", "oracle", "ckpt"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (fleet, oracle, ckpt)"
        ));
    }
    Ok(Args {
        workload,
        cfg: RunCfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: if print_fingerprint {
                0.0
            } else {
                seconds.ok_or("--seconds is required")?
            },
        },
        trace,
        print_fingerprint,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let committed = committed_fingerprint(&args.workload);
    match (args.workload.as_str(), args.trace) {
        ("fleet", false) => fleet::run(&args.cfg, committed),
        ("fleet", true) => fleet::run_traced(&args.cfg, committed),
        ("oracle", false) => oracle::run(&args.cfg, committed),
        ("oracle", true) => oracle::run_traced(&args.cfg, committed),
        ("ckpt", false) => ckpt::run(&args.cfg, committed),
        ("ckpt", true) => ckpt::run_traced(&args.cfg, committed),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn write_spans(workload: &str, seed: u64, tsv: &str) -> Result<String, String> {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_string());
    let dir = std::path::Path::new(&base).join("perfbench-trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    std::fs::write(&path, tsv).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    // One line per panic, without a backtrace: the fault oracle contains
    // VM panics on corrupted state and judges them, and symbolizing a
    // backtrace inside the timed window would distort the timing.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_fingerprint {
        let fp = match args.workload.as_str() {
            "fleet" => fleet::pass_fingerprint(
                args.cfg.seed,
                fleet::DEVICES_PER_SYSTEM,
                fleet::SHARD_DEVICES,
                fleet::THREADS,
            ),
            "oracle" => oracle::pass_fingerprint(args.cfg.seed),
            _ => ckpt::pass_fingerprint(args.cfg.seed),
        };
        return match fp {
            Ok(fp) => {
                print!("{}", fp.to_text());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(tsv) = &report.spans_tsv {
        match write_spans(&args.workload, args.cfg.seed, tsv) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut metrics = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not a number ({})", m.name, m.value);
            return ExitCode::FAILURE;
        }
        println!("{:<28} {:>18} {}", m.name, m.value, m.unit);
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
