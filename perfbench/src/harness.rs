//! The run loops every workload shares — an untimed warm-up, then
//! timed set-ups and complete timed passes until the time is up — the
//! fingerprint check and the end-to-end metrics.

use std::time::Instant;

use crate::common::Report;
use crate::fingerprint::Fingerprint;
use crate::host::{HostSpeed, NOMINAL_US};
use crate::stats::{median, nearest_rank, sort};

/// The seed whose fingerprints are committed under `fingerprints/`.
pub const DEFAULT_SEED: u64 = 1;

/// A run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
}

/// Set-up and pass wall times (s) of an untraced run.
#[derive(Debug, Default)]
pub struct Timings {
    /// Each timed set-up.
    pub setups: Vec<f64>,
    /// Each timed pass.
    pub pass_walls: Vec<f64>,
    /// The reference kernel, timed after each timed pass.
    pub host: HostSpeed,
}

/// The untraced run loop: one set-up and an untimed warm-up pass
/// (`pass(None, ..)`), then, until `seconds` have elapsed, a timed
/// set-up followed by a timed pass over what it built
/// (`pass(Some(k), ..)`) and a sample of the host's speed. Set-ups and
/// host samples are spread over the whole run, so they see the same
/// host as the passes do.
///
/// # Errors
///
/// The first set-up or pass error.
pub fn measure<T>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<T, String>,
    mut pass: impl FnMut(Option<u64>, &T) -> Result<(), String>,
) -> Result<Timings, String> {
    pass(None, &setup()?)?;
    let mut t = Timings::default();
    let start = Instant::now();
    loop {
        let clock = Instant::now();
        let state = setup()?;
        t.setups.push(clock.elapsed().as_secs_f64());
        let clock = Instant::now();
        pass(Some(t.pass_walls.len() as u64), &state)?;
        t.pass_walls.push(clock.elapsed().as_secs_f64());
        t.host.sample();
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(t);
        }
    }
}

/// The traced run loop: runs `pass(k)` for k = 0, 1, ... until
/// `seconds` have elapsed, always finishing the pass in progress, and
/// returns each pass's wall time (s).
///
/// # Errors
///
/// The first pass error.
pub fn timed_passes(
    seconds: f64,
    mut pass: impl FnMut(u64) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        pass(walls.len() as u64)?;
        walls.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(walls);
        }
    }
}

/// Peak resident set (MB) from the kernel's `VmHWM`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Names under which a workload also prints its throughput and latency.
pub struct Aliases {
    /// Throughput (`devices_per_s`, ...).
    pub rate: &'static str,
    /// Latency prefix (`trial_us`, `run_ms`, ...).
    pub latency: &'static str,
    /// Divisor from µs to the latency alias's unit.
    pub latency_div: f64,
    /// The tail percentile the alias reports, when it has the samples.
    pub tail: u32,
}

/// Inputs of the end-to-end metrics.
pub struct Measured<'a> {
    /// Set-up and pass wall times.
    pub timings: &'a Timings,
    /// Simulated instructions in one pass.
    pub pass_instructions: u64,
    /// Ops in one pass.
    pub pass_ops: u64,
    /// Per-op latencies (µs) of each timed pass, in pass order.
    pub latencies_us: &'a [Vec<f64>],
    /// Ops behind each latency sample: a sample is the mean latency of
    /// that many ops (fleet's shards), so it weighs that many times in
    /// a pass's time.
    pub sample_ops: u64,
}

/// Quiet rounds hold at least this many latency samples, so a p90 over
/// them has ten beyond it; a pass this large is timed per op.
pub const QUIET_MIN_SAMPLES: u64 = 100;

/// Quiet rounds number at least this many, so their medians are
/// medians.
pub const QUIET_MIN_PASSES: usize = 3;

/// The quiet rounds of a run: the indices of its fastest timed passes,
/// as few as hold [`QUIET_MIN_SAMPLES`] latency samples (`pass_samples` a
/// pass) and at least [`QUIET_MIN_PASSES`] passes (all passes when the
/// run has fewer).
///
/// Every pass runs the same ops, and load from outside a shared host
/// only ever slows a pass down — by up to 2x, in stretches from seconds
/// to minutes, on the two-core host these numbers come from. The median
/// over all passes moves with how much of a run such a stretch covered;
/// the fastest few passes (best-of-N timing) repeat about twice as well.
#[must_use]
pub fn quiet_rounds(pass_walls: &[f64], pass_samples: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pass_walls.len()).collect();
    order.sort_by(|&a, &b| pass_walls[a].total_cmp(&pass_walls[b]));
    let need = QUIET_MIN_SAMPLES.div_ceil(pass_samples.max(1));
    order.truncate(
        usize::try_from(need)
            .unwrap_or(usize::MAX)
            .max(QUIET_MIN_PASSES),
    );
    order
}

/// The fastest quarter (at least one) of `values`, sorted.
fn fastest_quarter(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    v.truncate((v.len() / 4).max(1));
    v
}

/// Best-of-N timing per op: each op's fastest latency over the timed
/// passes (ops sit at the same index in every pass).
fn best_per_op(latencies_us: &[Vec<f64>]) -> Vec<f64> {
    let n = latencies_us.first().map_or(0, Vec::len);
    assert!(
        latencies_us.iter().all(|p| p.len() == n),
        "every pass runs the same ops"
    );
    (0..n)
        .map(|i| {
            latencies_us
                .iter()
                .map(|p| p[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Appends the end-to-end metrics of `BENCHMARK.json` to `report`,
/// plus the workload's own names for them as text.
///
/// Timing is best-of-N, and every time is scaled to the reference host
/// speed ([`HostSpeed::time_scale`]). `setup_s` is the median of the
/// fastest quarter of the run's set-ups. A pass's time is the sum of
/// each op's fastest latency over the run, so a contended stretch
/// shorter than a pass still counts. When a pass holds at least
/// [`QUIET_MIN_SAMPLES`] latency samples, latency percentiles are over
/// those per-op bests; with fewer (too few for a p90), they are over
/// the ops of the run's quiet rounds.
///
/// # Errors
///
/// When a percentile lacks the samples to be reported.
pub fn end_to_end(report: &mut Report, m: Measured<'_>, aliases: &Aliases) -> Result<(), String> {
    let t = m.timings;
    // Latency samples per pass: fleet times shards of devices, not devices.
    let samples = m.latencies_us.first().map_or(0, Vec::len) as u64;
    let quiet = quiet_rounds(&t.pass_walls, samples);
    let per_op = samples >= QUIET_MIN_SAMPLES;
    let best = best_per_op(m.latencies_us);
    let pass_wall = best.iter().sum::<f64>() * m.sample_ops as f64 / 1e6;
    let mut latencies = if per_op {
        best
    } else {
        quiet
            .iter()
            .flat_map(|&k| m.latencies_us[k].iter().copied())
            .collect()
    };
    let scale = t.host.time_scale();
    let raw_ops_per_s = m.pass_ops as f64 / pass_wall;
    let pass_wall = pass_wall * scale;
    for l in &mut latencies {
        *l *= scale;
    }
    sort(&mut latencies);
    let p50 = nearest_rank(&latencies, 50)?;
    let p90 = nearest_rank(&latencies, 90)?;
    let ops_per_s = m.pass_ops as f64 / pass_wall;
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("setup_s", median(&fastest_quarter(&t.setups)) * scale, "s");
    report.metric(
        "sim_mips",
        m.pass_instructions as f64 / pass_wall / 1e6,
        "Minstr/s",
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("ops_per_s", ops_per_s, "1/s");
    report.metric("op_us_p50", p50.value, "us");
    report.metric("op_us_p90", p90.value, "us");

    let div = aliases.latency_div;
    report.lines.push(format!(
        "host speed: fastest of {} reference-kernel repetitions {:.2} us (nominal {NOMINAL_US} us); times below are scaled by {scale:.4} ({} = {raw_ops_per_s:.1} unscaled)",
        t.host.reps(),
        t.host.fastest_us(),
        aliases.rate,
    ));
    report.lines.push(format!(
        "{} = {ops_per_s:.1} ({} passes of {} ops; best-of-N per op: {pass_wall:.4} s a pass; median unscaled pass wall {:.4} s; latencies per {})",
        aliases.rate,
        t.pass_walls.len(),
        m.pass_ops,
        median(&t.pass_walls),
        if per_op { "op" } else { "quiet pass" },
    ));
    report.lines.push(format!(
        "failed_frac = {failed_frac} ({} of {})",
        report.failed, report.attempted
    ));
    report.lines.push(format!(
        "{}_p50 = {:.3} (n={}, {} beyond)",
        aliases.latency,
        p50.value / div,
        p50.n,
        p50.beyond
    ));
    match nearest_rank(&latencies, aliases.tail) {
        Ok(p) => report.lines.push(format!(
            "{}_p{} = {:.3} (n={}, {} beyond)",
            aliases.latency,
            aliases.tail,
            p.value / div,
            p.n,
            p.beyond
        )),
        Err(e) => report
            .lines
            .push(format!("{}_p{}: {e}", aliases.latency, aliases.tail)),
    }
    Ok(())
}

/// Checks each pass's fingerprint as it is made: against the committed
/// one for the default seed, otherwise against the run's first pass.
/// Only the first pass's fingerprint is kept.
pub struct PassCheck {
    expected: Option<(Fingerprint, &'static str)>,
    first: Option<Fingerprint>,
    passes: u64,
    failed: u64,
    lines: Vec<String>,
}

impl PassCheck {
    /// A checker for `seed`, given the committed default-seed text.
    ///
    /// # Errors
    ///
    /// When the committed fingerprint does not parse.
    pub fn new(seed: u64, committed: &str) -> Result<PassCheck, String> {
        let expected = if seed == DEFAULT_SEED {
            let fp = Fingerprint::parse(committed)
                .map_err(|e| format!("committed fingerprint unreadable: {e}"))?;
            Some((fp, "committed"))
        } else {
            None
        };
        Ok(PassCheck {
            expected,
            first: None,
            passes: 0,
            failed: 0,
            lines: Vec::new(),
        })
    }

    /// Checks the next pass's fingerprint.
    pub fn check(&mut self, fp: Fingerprint) {
        let (expected, what) = self
            .expected
            .get_or_insert_with(|| (fp.clone(), "first pass"));
        let m = fp.compare(expected, what);
        self.failed += m.failed_ops;
        let k = self.passes;
        self.lines
            .extend(m.lines.into_iter().map(|line| format!("pass {k}: {line}")));
        self.passes += 1;
        self.first.get_or_insert(fp);
    }

    /// The first pass's fingerprint.
    #[must_use]
    pub fn first(&self) -> Option<&Fingerprint> {
        self.first.as_ref()
    }

    /// Adds the failures to `report` and prints the first pass's digest.
    pub fn finish(self, report: &mut Report, workload: &str, seed: u64) {
        if let Some(first) = &self.first {
            report.lines.push(format!(
                "fingerprint {workload} seed={seed} ops={} digest={:#018x}",
                first.ops(),
                first.digest()
            ));
        }
        report.failed += self.failed;
        report.lines.extend(self.lines);
    }
}

#[cfg(test)]
mod tests {
    use super::{best_per_op, fastest_quarter, quiet_rounds};

    #[test]
    fn fastest_quarter_keeps_at_least_one() {
        assert_eq!(
            fastest_quarter(&[4.0, 1.0, 3.0, 2.0, 8.0, 7.0, 6.0, 5.0]),
            vec![1.0, 2.0]
        );
        assert_eq!(fastest_quarter(&[2.0, 1.0]), vec![1.0]);
    }

    #[test]
    fn best_per_op_takes_each_ops_fastest_repetition() {
        let passes = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 9.0, 4.0],
        ];
        assert_eq!(best_per_op(&passes), vec![2.0, 1.0, 4.0]);
    }

    #[test]
    fn quiet_rounds_are_the_fastest_passes_holding_enough_ops() {
        let walls = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0];
        // Large passes: the three fastest.
        assert_eq!(quiet_rounds(&walls, 2000), vec![1, 3, 4]);
        // 42-op passes: three already hold 126 >= 100 ops.
        assert_eq!(quiet_rounds(&walls, 42), vec![1, 3, 4]);
        // 20-op passes: five are needed for 100 ops.
        assert_eq!(quiet_rounds(&walls, 20), vec![1, 3, 4, 2, 0]);
        // Too few passes: all of them.
        assert_eq!(quiet_rounds(&[3.0, 2.0], 7), vec![1, 0]);
    }
}
