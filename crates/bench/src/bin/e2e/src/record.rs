//! The run record: one JSON file per `e2e run --out`, holding the run's
//! metadata, checks and metrics, and read back by `compare` and
//! `summarize`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use socbus_telemetry::Json;

use crate::metrics::Metric;

/// First member of every run record.
pub const SCHEMA: &str = "socbus-e2e-run v1";

/// `s` as a JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with all its digits (0 if not finite, which no
/// metric is by construction).
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`
#[must_use]
pub fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// `[v, ...]`
#[must_use]
pub fn numbers(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|&x| number(x)).collect();
    format!("[{}]", v.join(", "))
}

/// A run record read back from disk.
#[derive(Clone, Debug)]
pub struct Record {
    pub json: Json,
}

impl Record {
    /// The record's string member `key` (empty when absent).
    #[must_use]
    pub fn text(&self, key: &str) -> String {
        match self.json.get(key) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => number(*n),
            Some(Json::Bool(b)) => b.to_string(),
            _ => String::new(),
        }
    }

    /// Every metric in the record: `(name, unit, value)`, end-to-end
    /// first, then per-layer.
    #[must_use]
    pub fn metrics(&self) -> Vec<(String, String, f64)> {
        let mut out = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            if let Some(Json::Obj(members)) = self.json.get(section) {
                for (name, m) in members {
                    if let Some(v) = m.get("value").and_then(Json::as_num) {
                        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                        out.push((name.clone(), unit.to_owned(), v));
                    }
                }
            }
        }
        out
    }
}

/// Every run record under `dir` (recursively), in path order. Other
/// JSON files are skipped.
///
/// # Errors
///
/// Returns a message when `dir` cannot be read or a record is malformed.
pub fn load_dir(dir: &Path) -> Result<Vec<Record>, String> {
    let mut files = Vec::new();
    collect(dir, &mut files)?;
    files.sort();
    let mut records = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(json) = socbus_telemetry::json::parse(&text) else {
            continue;
        };
        if json.get("schema").and_then(Json::as_str) == Some(SCHEMA) {
            records.push(Record { json });
        }
    }
    Ok(records)
}

fn collect(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.is_dir() {
            collect(&path, files)?;
        } else if path.extension().is_some_and(|x| x == "json") {
            files.push(path);
        }
    }
    Ok(())
}
