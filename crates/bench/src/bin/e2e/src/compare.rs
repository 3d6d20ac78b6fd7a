//! `e2e compare <dirA> <dirB>` and `e2e summarize <dir>...`.
//!
//! `compare` pairs the runs of a parent (A) and a change (B) and gives a
//! verdict per workload × end-to-end metric, applying the bounds in
//! `BENCHMARK.json`:
//!
//! * **improved** — B wins at least nine tenths of the pairs (ties count
//!   for neither) and the medians differ by more than A's own spread
//!   (the distance between its quartiles);
//! * **unresolved** — otherwise, when either side's spread is wider than
//!   the bound, unless every B run reads better than every A run;
//! * **worse** — B's median is worse than A's by more than the bound;
//! * **unchanged** — everything else.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use socbus_telemetry::Json;

use crate::record::{self, number, string, Record};
use crate::trace::quantile;

/// A regression bound from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub share: f64,
}

impl Bound {
    /// The tolerated worsening at median `m`: the share of it, but never
    /// less than 5 ms of set-up, below which differences are timer noise.
    #[must_use]
    pub fn tolerance(&self, m: f64) -> f64 {
        let floor = if self.name == "setup_s" { 0.005 } else { 0.0 };
        (self.share * m.abs()).max(floor)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles.
fn spread(v: &[f64]) -> (f64, f64, f64) {
    (quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75))
}

/// The verdict on runs `a` (parent) and `b` (change) of one metric, and
/// the share of index-paired runs B won.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> (Verdict, f64) {
    let better = |x: f64, y: f64| {
        if bound.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let pairs = a.len().min(b.len());
    let won = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let won = if pairs == 0 {
        0.0
    } else {
        won as f64 / pairs as f64
    };
    let (ma, q1a, q3a) = spread(a);
    let (mb, q1b, q3b) = spread(b);
    let tolerance = bound.tolerance(ma);
    let every_b_better = a.iter().all(|&x| b.iter().all(|&y| better(y, x)));
    let verdict = if won >= 0.9 && better(mb, ma) && (mb - ma).abs() > q3a - q1a {
        Verdict::Improved
    } else if (q3a - q1a).max(q3b - q1b) > tolerance && !every_b_better {
        Verdict::Unresolved
    } else if better(ma, mb) && (ma - mb).abs() > tolerance {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    (verdict, won)
}

/// The end-to-end bounds declared in `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message when the file is missing or malformed.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json =
        socbus_telemetry::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let share = m.get("bound").and_then(Json::as_num);
            match (name, better, share) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(share)) => Ok(Bound {
                    name: name.to_owned(),
                    higher_is_better: better == "higher",
                    share,
                }),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

/// `(workload, metric) -> (unit, values in run order)`.
type Series = BTreeMap<(String, String), (String, Vec<f64>)>;

fn series(records: &[Record]) -> Series {
    let mut out = Series::new();
    for r in records {
        for (name, unit, v) in r.metrics() {
            out.entry((r.text("workload"), name))
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(v);
        }
    }
    out
}

fn fmt_spread(v: &[f64]) -> String {
    let (m, q1, q3) = spread(v);
    format!("{m:.6e} [{q1:.4e}, {q3:.4e}] n={}", v.len())
}

/// Runs `compare`; the exit code is 1 when any metric got worse.
///
/// # Errors
///
/// Returns a message when a directory or `BENCHMARK.json` cannot be read.
pub fn compare(a_dir: &Path, b_dir: &Path, benchmark: &Path) -> Result<(String, i32), String> {
    let bounds = load_bounds(benchmark)?;
    let a = series(&record::load_dir(a_dir)?);
    let b = series(&record::load_dir(b_dir)?);
    let mut out = String::new();
    let mut worse = 0;
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for ((workload, metric), (unit, av)) in &a {
        let Some(bound) = bounds.iter().find(|b| &b.name == metric) else {
            continue;
        };
        let Some((_, bv)) = b.get(&(workload.clone(), metric.clone())) else {
            let _ = writeln!(out, "{workload:<13} {metric:<12} missing from B");
            continue;
        };
        let (v, won) = verdict(av, bv, bound);
        worse += usize::from(v == Verdict::Worse);
        *counts.entry(v.name()).or_default() += 1;
        let _ = writeln!(
            out,
            "{workload:<13} {metric:<12} {unit:<4} A {}  B {}  won {:>4.0}%  bound {:.0}%  {}",
            fmt_spread(av),
            fmt_spread(bv),
            won * 100.0,
            bound.share * 100.0,
            v.name()
        );
    }
    let tally: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    let _ = writeln!(out, "verdicts: {}", tally.join(", "));
    Ok((out, i32::from(worse > 0)))
}

/// Runs `summarize`: the median and quartiles of every metric per
/// workload over the runs under `dirs`, with the runs' metadata.
///
/// # Errors
///
/// Returns a message when a directory cannot be read or holds no runs.
pub fn summarize(dirs: &[&Path]) -> Result<String, String> {
    let mut records = Vec::new();
    for dir in dirs {
        records.extend(record::load_dir(dir)?);
    }
    if records.is_empty() {
        return Err("no run records found".to_owned());
    }
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"socbus-e2e-summary v1\",");
    for key in [
        "host_parallelism",
        "threads",
        "profile",
        "code_version",
        "seed",
        "seconds",
    ] {
        let mut values: Vec<String> = records.iter().map(|r| r.text(key)).collect();
        values.sort();
        values.dedup();
        let joined = values.join(", ");
        let _ = writeln!(json, "  {}: {},", string(key), string(&joined));
    }
    let untraced = records
        .iter()
        .filter(|r| r.text("trace") == "false")
        .count();
    let _ = writeln!(json, "  \"untraced_runs\": {untraced},");
    let _ = writeln!(json, "  \"traced_runs\": {},", records.len() - untraced);
    let _ = writeln!(json, "  \"workloads\": {{");
    let mut by_workload: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for ((workload, metric), (unit, v)) in series(&records) {
        let (m, q1, q3) = spread(&v);
        by_workload.entry(workload).or_default().push(format!(
            "      {}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": {}}}",
            string(&metric),
            number(m),
            number(q1),
            number(q3),
            v.len(),
            string(&unit)
        ));
    }
    let blocks: Vec<String> = by_workload
        .iter()
        .map(|(w, lines)| format!("    {}: {{\n{}\n    }}", string(w), lines.join(",\n")))
        .collect();
    let _ = writeln!(json, "{}", blocks.join(",\n"));
    let _ = write!(json, "  }}\n}}\n");
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, higher: bool, share: f64) -> Bound {
        Bound {
            name: name.to_owned(),
            higher_is_better: higher,
            share,
        }
    }

    fn runs(base: f64, scale: f64) -> Vec<f64> {
        [
            1.0, 1.004, 0.997, 1.002, 0.999, 1.003, 0.998, 1.001, 1.0, 0.996,
        ]
        .iter()
        .map(|x| x * base * scale)
        .collect()
    }

    #[test]
    fn flags_a_ten_percent_regression_and_passes_identical_runs() {
        let tput = bound("throughput", true, 0.05);
        let a = runs(1e6, 1.0);
        assert_eq!(verdict(&a, &a, &tput), (Verdict::Unchanged, 0.0));
        assert_eq!(verdict(&a, &runs(1e6, 0.9), &tput).0, Verdict::Worse);
        let (v, won) = verdict(&a, &runs(1e6, 1.1), &tput);
        assert_eq!((v, won), (Verdict::Improved, 1.0));
        // Lower-is-better metrics mirror it.
        let rss = bound("peak_heap_mb", false, 0.05);
        assert_eq!(
            verdict(&runs(100.0, 1.0), &runs(100.0, 1.1), &rss).0,
            Verdict::Worse
        );
        // A 3% slip is inside a 5% bound.
        assert_eq!(verdict(&a, &runs(1e6, 0.97), &tput).0, Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let tput = bound("throughput", true, 0.05);
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.7, 1.1];
        let same = [1.0, 1.1, 0.9, 1.0, 1.1, 0.9];
        assert_eq!(verdict(&same, &noisy, &tput).0, Verdict::Unresolved);
        let far = [2.0, 2.6, 1.6, 2.4, 1.4, 2.2];
        assert_eq!(verdict(&same, &far, &tput).0, Verdict::Improved);
    }

    #[test]
    fn absolute_floors_cover_tiny_setup_times() {
        let setup = bound("setup_s", false, 0.25);
        // 1 ms against 2 ms set-up is under the 5 ms floor.
        assert_eq!(
            verdict(&[0.001; 5], &[0.002; 5], &setup).0,
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[0.001; 5], &[0.009; 5], &setup).0, Verdict::Worse);
    }
}
