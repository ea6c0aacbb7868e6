//! Simulated-result fingerprints.
//!
//! The simulator is deterministic for a given seed, so every simulated
//! statistic is a correctness check: a fingerprint is one line per
//! group of ops (a fleet system, an oracle cell, a checkpoint cell)
//! holding the group's op count and simulated totals. The fingerprint
//! of the default seed is committed under `fingerprints/`; a group that
//! differs from it fails every op it covers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// 64-bit FNV-1a, for folding per-op results into a group line.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a number in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a string in (length-prefixed).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One group's line: how many ops it covers and its simulated fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Ops the group covers.
    pub ops: u64,
    /// `(field, value)` in a fixed order.
    pub fields: Vec<(String, u64)>,
}

impl Group {
    /// A group of `ops` ops with the given fields.
    #[must_use]
    pub fn new(ops: u64, fields: &[(&str, u64)]) -> Group {
        Group {
            ops,
            fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }
}

/// A workload's fingerprint: groups keyed by their coordinates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    groups: BTreeMap<String, Group>,
}

/// Groups whose content differs, with a description of each.
#[derive(Debug, Default)]
pub struct Mismatches {
    /// Ops covered by differing groups.
    pub failed_ops: u64,
    /// One line per differing group, naming its coordinates.
    pub lines: Vec<String>,
}

impl Fingerprint {
    /// Adds (or replaces) a group.
    pub fn insert(&mut self, coords: String, group: Group) {
        self.groups.insert(coords, group);
    }

    /// Looks a group up by coordinates.
    #[must_use]
    pub fn get(&self, coords: &str) -> Option<&Group> {
        self.groups.get(coords)
    }

    /// Ops over all groups.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.groups.values().map(|g| g.ops).sum()
    }

    /// The sum of one field over all groups.
    #[must_use]
    pub fn field_sum(&self, field: &str) -> u64 {
        self.groups
            .values()
            .flat_map(|g| &g.fields)
            .filter(|(k, _)| k == field)
            .map(|(_, v)| v)
            .sum()
    }

    /// The committed text form: `coords ops=N field=value ...` lines.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (coords, g) in &self.groups {
            let _ = write!(out, "{coords} ops={}", g.ops);
            for (k, v) in &g.fields {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text form; blank lines and `#` comments are skipped.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Fingerprint, String> {
        let mut fp = Fingerprint::default();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("fingerprint line {}: {line:?}", no + 1);
            let mut words = line.split_whitespace();
            let coords = words.next().ok_or_else(bad)?.to_string();
            let mut ops = None;
            let mut fields = Vec::new();
            for w in words {
                let (k, v) = w.split_once('=').ok_or_else(bad)?;
                let v: u64 = v.parse().map_err(|_| bad())?;
                if k == "ops" {
                    ops = Some(v);
                } else {
                    fields.push((k.to_string(), v));
                }
            }
            fp.insert(
                coords,
                Group {
                    ops: ops.ok_or_else(bad)?,
                    fields,
                },
            );
        }
        Ok(fp)
    }

    /// A digest of the whole fingerprint, printed with every run.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.str(&self.to_text());
        h.finish()
    }

    /// Compares against `expected`. Every group of `self` that differs
    /// from (or is absent in) `expected` fails its ops; every group of
    /// `expected` absent here fails the ops it would have covered.
    #[must_use]
    pub fn compare(&self, expected: &Fingerprint, what: &str) -> Mismatches {
        let mut m = Mismatches::default();
        for (coords, g) in &self.groups {
            match expected.groups.get(coords) {
                Some(e) if e == g => {}
                Some(e) => {
                    m.failed_ops += g.ops;
                    let diffs: Vec<String> = g
                        .fields
                        .iter()
                        .zip(&e.fields)
                        .filter(|(a, b)| a != b)
                        .map(|((k, v), (_, ev))| format!("{k}: {v} != {ev}"))
                        .collect();
                    let ops = if g.ops == e.ops {
                        String::new()
                    } else {
                        format!("ops: {} != {}; ", g.ops, e.ops)
                    };
                    m.lines.push(format!(
                        "FINGERPRINT MISMATCH vs {what} at {coords}: {ops}{}",
                        diffs.join(", ")
                    ));
                }
                None => {
                    m.failed_ops += g.ops;
                    m.lines.push(format!(
                        "FINGERPRINT MISMATCH vs {what} at {coords}: unexpected group"
                    ));
                }
            }
        }
        for (coords, e) in &expected.groups {
            if !self.groups.contains_key(coords) {
                m.failed_ops += e.ops;
                m.lines.push(format!(
                    "FINGERPRINT MISMATCH vs {what} at {coords}: group missing"
                ));
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        let mut fp = Fingerprint::default();
        fp.insert(
            "a/TICS".into(),
            Group::new(3, &[("cycles", 10), ("hash", u64::MAX)]),
        );
        fp.insert("b/Ratchet".into(), Group::new(2, &[("cycles", 7)]));
        fp
    }

    #[test]
    fn text_round_trips() {
        let fp = sample();
        assert_eq!(Fingerprint::parse(&fp.to_text()).unwrap(), fp);
        assert!(Fingerprint::parse("x ops=1 cycles").is_err());
        assert!(Fingerprint::parse("x cycles=1").is_err());
    }

    #[test]
    fn a_differing_group_fails_its_ops_and_names_its_coordinates() {
        let expected = sample();
        let mut got = sample();
        got.insert("b/Ratchet".into(), Group::new(2, &[("cycles", 8)]));
        let m = got.compare(&expected, "committed");
        assert_eq!(m.failed_ops, 2);
        assert_eq!(m.lines.len(), 1);
        assert!(m.lines[0].contains("b/Ratchet") && m.lines[0].contains("cycles: 8 != 7"));
        assert_eq!(expected.compare(&expected, "self").failed_ops, 0);
    }

    #[test]
    fn missing_groups_fail_too() {
        let expected = sample();
        let mut got = Fingerprint::default();
        got.insert("a/TICS".into(), expected.get("a/TICS").unwrap().clone());
        let m = got.compare(&expected, "committed");
        assert_eq!(m.failed_ops, 2);
        assert!(m.lines[0].contains("group missing"));
    }
}
