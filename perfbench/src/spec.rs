//! `BENCHMARK.json`: the benchmark's declaration of its workloads and
//! metrics. The binary reads it at start-up and refuses to run when the
//! file is malformed, so the metrics it prints always match the file.

use crate::stats::{valid_name, valid_unit};
use db_trace::json::Value;
use std::collections::HashSet;

/// Largest share of the parent's median a metric may worsen by.
pub const MAX_BOUND: f64 = 0.25;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Only end-to-end metrics carry a bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn exact_keys(v: &Value, keys: &[&str], what: &str) -> Result<(), String> {
    let Value::Obj(fields) = v else {
        return Err(format!("{what}: expected an object"));
    };
    let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = keys.to_vec();
    let mut sorted = got.clone();
    want.sort_unstable();
    sorted.sort_unstable();
    if sorted != want {
        return Err(format!("{what}: keys {got:?}, expected exactly {keys:?}"));
    }
    Ok(())
}

fn string<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: '{key}' must be a string"))
}

fn array<'a>(v: &'a Value, key: &str, lo: usize, hi: usize) -> Result<&'a [Value], String> {
    let a = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("'{key}' must be an array"))?;
    if a.len() < lo || a.len() > hi {
        return Err(format!(
            "'{key}' needs {lo} to {hi} entries, has {}",
            a.len()
        ));
    }
    Ok(a)
}

fn safe_path(p: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/');
    !p.is_empty()
        && p.len() <= 200
        && p.chars().all(ok)
        && !p.starts_with('/')
        && !p.split('/').any(|seg| seg == "..")
}

fn metrics(v: &Value, key: &str, hi: usize, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    array(v, key, 1, hi)?
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let what = format!("{key}[{i}]");
            exact_keys(m, keys, &what)?;
            let name = string(m, "name", &what)?;
            let unit = string(m, "unit", &what)?;
            if !valid_name(name) {
                return Err(format!("{what}: bad name '{name}'"));
            }
            if !valid_unit(unit) {
                return Err(format!("{what}: bad unit '{unit}'"));
            }
            let higher_is_better = match string(m, "better", &what)? {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("{what}: better = '{other}'")),
            };
            let bound = if bounded {
                let b = m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN);
                if !(b > 0.0 && b <= MAX_BOUND) {
                    return Err(format!("{what}: bound must be in (0, {MAX_BOUND}]"));
                }
                Some(b)
            } else {
                None
            };
            Ok(MetricSpec {
                name: name.to_string(),
                unit: unit.to_string(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

impl Spec {
    /// Parses and validates the file's text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        if text.len() > 64 * 1024 {
            return Err("BENCHMARK.json is larger than 64 KiB".into());
        }
        let doc = Value::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        exact_keys(
            &doc,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "BENCHMARK.json",
        )?;
        let strings = |key: &str, hi: usize| -> Result<Vec<String>, String> {
            array(&doc, key, 1, hi)?
                .iter()
                .map(|s| {
                    s.as_str()
                        .filter(|s| s.len() <= 200)
                        .map(str::to_string)
                        .ok_or_else(|| format!("'{key}' entries must be strings of ≤ 200 bytes"))
                })
                .collect()
        };
        let command = strings("command", 32)?;
        let paths = strings("paths", 16)?;
        if let Some(p) = paths.iter().find(|p| !safe_path(p)) {
            return Err(format!("bad path '{p}'"));
        }
        if let Some(c) = command
            .iter()
            .find(|c| c.starts_with('/') || c.contains(".."))
        {
            return Err(format!("command argument '{c}' leaves the checkout"));
        }
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Value::as_u64)
            .filter(|s| (1..=60).contains(s))
            .ok_or("'run_seconds' must be a whole number from 1 to 60")?;
        let workloads = array(&doc, "workloads", 2, 8)?
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let what = format!("workloads[{i}]");
                exact_keys(w, &["name", "why"], &what)?;
                let name = string(w, "name", &what)?;
                let why = string(w, "why", &what)?;
                if !valid_name(name) {
                    return Err(format!("{what}: bad name '{name}'"));
                }
                if why.is_empty() || why.len() > 200 || why.contains('\n') {
                    return Err(format!("{what}: 'why' must be one line of ≤ 200 bytes"));
                }
                Ok((name.to_string(), why.to_string()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let end_to_end = metrics(&doc, "end_to_end", 16, true)?;
        let per_layer = metrics(&doc, "per_layer", 128, false)?;
        let mut seen = HashSet::new();
        let names = workloads
            .iter()
            .map(|(n, _)| n)
            .chain(end_to_end.iter().chain(&per_layer).map(|m| &m.name));
        for n in names {
            if !seen.insert(n.as_str()) {
                return Err(format!("name '{n}' is used twice"));
            }
        }
        let setup = end_to_end.iter().find(|m| m.name == "setup_s");
        if !setup.is_some_and(|m| m.unit == "s" && !m.higher_is_better) {
            return Err("end_to_end must include setup_s (unit s, lower is better)".into());
        }
        Ok(Spec {
            command,
            paths,
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// The metrics a run reports: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
      "command": ["cargo", "run", "--"],
      "paths": ["perfbench"],
      "run_seconds": 10,
      "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
      "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
      ],
      "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]
    }"#;

    #[test]
    fn parses_minimal_spec() {
        let s = Spec::parse(MINIMAL).unwrap();
        assert_eq!(s.run_seconds, 10);
        assert_eq!(s.workloads[1], ("b".to_string(), "y".to_string()));
        assert_eq!(s.end_to_end[0].bound, Some(0.1));
        assert!(s.per_layer[0].higher_is_better);
        assert_eq!(s.metrics(true)[0].name, "hits");
    }

    #[test]
    fn rejects_contract_violations() {
        let cases = [
            (r#""run_seconds": 10"#, r#""run_seconds": 61"#),
            (r#""bound": 0.1"#, r#""bound": 0.3"#),
            (r#""bound": 0.1"#, r#""bound": 0.1, "extra": 1"#),
            (r#""name": "a""#, r#""name": "_a""#),
            (r#""name": "b""#, r#""name": "a""#),
            (r#""name": "hits""#, r#""name": "lat_ms""#),
            (r#""unit": "count""#, r#""unit": "co unt""#),
            (r#""name": "setup_s""#, r#""name": "init_s""#),
            (r#""paths": ["perfbench"]"#, r#""paths": ["../x"]"#),
            (r#""paths": ["perfbench"]"#, r#""paths": ["/abs"]"#),
            (r#""why": "x""#, r#""why": "x\ny""#),
            (r#""better": "higher""#, r#""better": "up""#),
        ];
        for (from, to) in cases {
            let text = MINIMAL.replacen(from, to, 1);
            assert_ne!(text, MINIMAL, "case {to} did not apply");
            assert!(Spec::parse(&text).is_err(), "accepted: {to}");
        }
        assert!(Spec::parse("[]").is_err());
        assert!(Spec::parse("{").is_err());
    }

    #[test]
    fn committed_spec_is_valid_and_names_the_four_workloads() {
        let s = Spec::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names: Vec<&str> = s.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["small-tcp", "social-1m", "delta-rw", "sim-suite"]);
        assert_eq!(s.paths, ["perfbench"]);
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        let largest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }
}
