//! The detect-or-recover gate: how `exp_fault`, `exp_chaos` and
//! `exp_periph` — the executable form of Table 5's memory-consistency
//! column — run, report and judge their grids.
//!
//! Each binary declares its grid and a [`Gate`]: the journal key that
//! counts a cell's violations, and the un-hardened control systems.
//! Every cell goes through [`cell`]; [`Gate::report`] prints the table
//! and writes `results/<gate>.json` from the journal rows alone; and
//! [`Gate::verdict`] applies two rules, printing one `PASS`/`FAIL` line
//! per check with its threshold, measured value, trials and systems:
//!
//! - **claim**: the violation key is 0 on every row of every runtime
//!   that claims memory consistency;
//! - **control**: summed over each control's rows it is above 0 — a
//!   fault model that no longer breaks the un-hardened controls has
//!   gone soft, and the experiment is vacuous.

use std::process::ExitCode;

use tics_apps::SystemUnderTest;
use tics_minic::Program;

use crate::journal::JournalRow;
use crate::sweep::{CellOutput, SweepOutcome};
use crate::trial::Subject;
use crate::Json;

/// A robustness gate's declaration.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The experiment: the sweep's name and `results/<name>.json`.
    pub name: &'static str,
    /// The journal key counting a cell's violations.
    pub violation_key: &'static str,
    /// The un-hardened systems the fault model must demonstrably break.
    pub controls: &'static [SystemUnderTest],
}

/// Runs one gate cell. `built` is the cell's program (an `Err` journals
/// an `unsupported: …` row with `supported=false`); `run` turns the
/// loaded subject into the family's report ([`CellOutput`]: outcome
/// label, tallies, summed trial counters). The row's `extra` is
/// `supported`, `claims_consistency`, then the tallies.
///
/// # Errors
///
/// A program that does not load, or `run`'s error.
pub fn cell(
    built: Result<Program, String>,
    system: SystemUnderTest,
    run: impl FnOnce(&Subject) -> Result<CellOutput, String>,
) -> Result<CellOutput, String> {
    let prog = match built {
        Ok(p) => p,
        Err(reason) => {
            return Ok(CellOutput {
                outcome: format!("unsupported: {reason}"),
                ..CellOutput::default()
            }
            .with("supported", false));
        }
    };
    let subject = Subject::load(&prog, system).map_err(|e| e.to_string())?;
    let flags = CellOutput::default().with("supported", true).with(
        "claims_consistency",
        subject.capabilities().memory_consistency,
    );
    let report = run(&subject)?;
    Ok(CellOutput {
        text_bytes: prog.text_bytes(),
        data_bytes: prog.data_bytes(),
        extra: [flags.extra, report.extra].concat(),
        ..report
    })
}

/// Whether a journal row belongs to a consistency-claiming runtime.
#[must_use]
pub fn claims_consistency(row: &JournalRow) -> bool {
    row.metric("claims_consistency").and_then(Json::as_bool) == Some(true)
}

fn supported(row: &JournalRow) -> bool {
    row.metric("supported").and_then(Json::as_bool) == Some(true)
}

/// One `extra` entry of a journal row.
type Field = (String, Json);

/// A gate row's grid coordinates (its cell params, which lead `extra`,
/// then its system) and what [`cell`] recorded (`extra` from
/// `supported` on).
fn split(row: &JournalRow) -> (Vec<Field>, &[Field]) {
    let at = row
        .extra
        .iter()
        .position(|(k, _)| k == "supported")
        .unwrap_or(row.extra.len());
    let mut coords = row.extra[..at].to_vec();
    coords.push(("system".to_string(), Json::from(row.system.as_str())));
    (coords, &row.extra[at..])
}

fn text(v: &Json) -> String {
    match v {
        Json::Float(x) => format!("{x:.3}"),
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// `cell N (k=v, …, system=S)`: where a row sits in the grid.
fn coordinates(row: &JournalRow) -> String {
    let pairs: Vec<String> = split(row)
        .0
        .iter()
        .map(|(k, v)| format!("{k}={}", text(v)))
        .collect();
    format!("cell {} ({})", row.cell, pairs.join(", "))
}

impl Gate {
    /// Prints the table — each supported row's coordinates, then every
    /// numeric or boolean tally all supported rows carry — the
    /// unsupported cells and the sweep summary, and writes
    /// `results/<name>.json`: each supported row's coordinates and
    /// scalar extras, in journal order.
    pub fn report(&self, outcome: &SweepOutcome) {
        let (measured, unsupported): (Vec<&JournalRow>, Vec<&JournalRow>) =
            outcome.ok_rows().partition(|r| supported(r));
        if let Some(first) = measured.first() {
            let (coords, recorded) = split(first);
            let columns: Vec<&str> = recorded
                .iter()
                .filter(|(k, v)| {
                    matches!(v, Json::Bool(_) | Json::Int(_) | Json::Float(_))
                        && k != "supported"
                        && measured.iter().all(|r| r.metric(k).is_some())
                })
                .map(|(k, _)| k.as_str())
                .collect();
            let header = coords.into_iter().map(|(k, _)| k);
            let mut lines = vec![header
                .chain(columns.iter().map(ToString::to_string))
                .collect()];
            lines.extend(measured.iter().map(|row| {
                let coords = split(row).0.into_iter().map(|(_, v)| text(&v));
                let tallies = columns
                    .iter()
                    .map(|k| row.metric(k).map_or_else(String::new, text));
                coords.chain(tallies).collect::<Vec<_>>()
            }));
            let widths: Vec<usize> = (0..lines[0].len())
                .map(|i| lines.iter().map(|l| l[i].len()).max().unwrap_or(0))
                .collect();
            println!();
            for line in &lines {
                let cells: Vec<String> = line
                    .iter()
                    .zip(&widths)
                    .map(|(c, &w)| format!("{c:>w$}"))
                    .collect();
                println!("{}", cells.join("  "));
            }
        }
        for row in &unsupported {
            println!("{}: {}", coordinates(row), row.outcome);
        }
        println!("\n{}", outcome.summary);

        let projection = measured
            .iter()
            .map(|row| {
                let (mut fields, recorded) = split(row);
                fields.extend(
                    recorded
                        .iter()
                        .filter(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)))
                        .cloned(),
                );
                Json::Obj(fields)
            })
            .collect();
        crate::write_json(self.name, &Json::Arr(projection));
    }

    /// The claim check, then one control check per declared control,
    /// over the supported rows of `rows`.
    fn checks(&self, rows: &[JournalRow]) -> Vec<Check> {
        let key = self.violation_key;
        let count = |r: &&JournalRow| r.metric_u64(key).unwrap_or(0);
        let trials = |rs: &[&JournalRow]| rs.iter().filter_map(|r| r.metric_u64("trials")).sum();
        let gated = rows.iter().filter(|r| supported(r));

        let claiming: Vec<&JournalRow> = gated.clone().filter(|r| claims_consistency(r)).collect();
        let offenders: Vec<String> = claiming
            .iter()
            .filter(|r| count(r) > 0)
            .map(|r| {
                let details = split(r).1.iter().filter_map(|(k, v)| match v {
                    Json::Str(s) => Some(format!("{k}={s}")),
                    _ => None,
                });
                let details: Vec<String> = details.collect();
                format!(
                    "{}: {key} = {}; {}",
                    coordinates(r),
                    count(r),
                    details.join("; ")
                )
            })
            .collect();
        let mut systems: Vec<&str> = claiming.iter().map(|r| r.system.as_str()).collect();
        systems.sort_unstable();
        systems.dedup();
        let mut checks = vec![Check::new(
            "claim",
            format!("{key} == 0 on every row of a consistency-claiming runtime"),
            format!(
                "{key} = {} in {} of {} rows",
                claiming.iter().map(count).sum::<u64>(),
                offenders.len(),
                claiming.len()
            ),
            trials(&claiming),
            &format!("claiming: {}", systems.join(", ")),
            offenders,
        )];
        for control in self.controls {
            let own: Vec<&JournalRow> = gated
                .clone()
                .filter(|r| r.system == control.name())
                .collect();
            let total: u64 = own.iter().map(count).sum();
            let soft = (total == 0).then(|| "the fault model is not biting".to_string());
            checks.push(Check::new(
                "control",
                format!("sum of {key} > 0 over an un-hardened control's rows"),
                format!("{key} = {total} over {} rows", own.len()),
                trials(&own),
                &format!("control: {}", control.name()),
                soft.into_iter().collect(),
            ));
        }
        checks
    }

    /// Prints one line per check — the claim and control rules over
    /// `rows`, then `extra` (a family's own checks) — and returns the
    /// gate's exit status: success only if every check passes.
    pub fn verdict(&self, rows: &[JournalRow], extra: impl IntoIterator<Item = Check>) -> ExitCode {
        let checks: Vec<Check> = self.checks(rows).into_iter().chain(extra).collect();
        if print_checks(self.name, &checks) == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Prints each check's line, then `gate <name>: N of M checks passed`,
/// and returns how many checks failed.
pub fn print_checks(name: &str, checks: &[Check]) -> usize {
    println!();
    for check in checks {
        println!("{}", check.line);
    }
    let passed = checks.iter().filter(|c| c.pass).count();
    println!("\ngate {name}: {passed} of {} checks passed", checks.len());
    checks.len() - passed
}

/// One judged rule of a gate.
#[derive(Debug, Clone)]
pub struct Check {
    /// Whether the rule holds.
    pub pass: bool,
    /// `PASS|FAIL rule: threshold | measured … | N trials | systems`,
    /// then one indented line per reason it fails.
    pub line: String,
}

impl Check {
    /// A check of `rule`, which holds exactly when `failures` (offending
    /// cells by coordinates, or a diagnosis) is empty.
    #[must_use]
    pub fn new(
        rule: &str,
        threshold: String,
        measured: String,
        trials: u64,
        systems: &str,
        failures: Vec<String>,
    ) -> Check {
        let pass = failures.is_empty();
        let verdict = if pass { "PASS" } else { "FAIL" };
        let mut line = format!(
            "{verdict} {rule}: {threshold} | measured {measured} | {trials} trials | {systems}"
        );
        for f in failures {
            line.push_str(&format!("\n    {f}"));
        }
        Check { pass, line }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SystemUnderTest::{Mementos, PlainC, Ratchet, Tics};

    const GATE: Gate = Gate {
        name: "gate-test",
        violation_key: "violations",
        controls: &[Mementos],
    };

    /// A row as [`cell`] journals it: 10 trials of nv-accumulator.
    fn row(cell: u64, system: SystemUnderTest, claims: bool, violations: u64) -> JournalRow {
        let out = CellOutput::default()
            .with("program", "nv-accumulator")
            .with("supported", true)
            .with("claims_consistency", claims)
            .with("trials", 10u64)
            .with("violations", violations);
        JournalRow {
            cell,
            system: system.name().to_string(),
            extra: out.extra,
            ..JournalRow::default()
        }
    }

    fn grid(ratchet_violations: u64, naive_violations: u64) -> Vec<JournalRow> {
        vec![
            row(0, PlainC, false, 7),
            row(1, Tics, true, 0),
            row(2, Mementos, false, naive_violations),
            row(3, Ratchet, true, ratchet_violations),
        ]
    }

    #[test]
    fn a_clean_grid_passes_every_check() {
        let checks = GATE.checks(&grid(0, 3));
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
        assert_eq!(checks.len(), 2);
        assert!(checks[0]
            .line
            .contains("| 20 trials | claiming: Ratchet, TICS"));
        assert!(checks[1]
            .line
            .contains("violations = 3 over 1 rows | 10 trials"));
    }

    #[test]
    fn one_violation_on_a_claiming_runtime_fails_and_names_its_cell() {
        let claim = &GATE.checks(&grid(1, 3))[0];
        assert!(!claim.pass);
        assert!(claim.line.starts_with("FAIL claim:"), "{}", claim.line);
        let named = "cell 3 (program=nv-accumulator, system=Ratchet): violations = 1";
        assert!(claim.line.contains(named), "{}", claim.line);
    }

    #[test]
    fn a_control_without_violations_fails() {
        let checks = GATE.checks(&grid(0, 0));
        assert!(checks[0].pass);
        assert!(!checks[1].pass);
        assert!(checks[1].line.contains("not biting"), "{}", checks[1].line);
    }

    #[test]
    fn the_claim_rule_ignores_unsupported_rows_and_non_claiming_runtimes() {
        let mut rows = grid(0, 3);
        let mut unsupported = row(4, Tics, true, 5);
        unsupported.extra[1].1 = Json::from(false);
        rows.push(unsupported);
        let claim = &GATE.checks(&rows)[0];
        assert!(claim.pass, "{}", claim.line);
        assert!(claim.line.contains("| 20 trials |"), "{}", claim.line);
    }
}
