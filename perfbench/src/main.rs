//! The repository's benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small-tcp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric `BENCHMARK.json`
//! declares; with `--trace 1` every per-layer metric. Every answer the
//! program gives is checked, and the last line of standard output is
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every answer was correct. Run it from the repository root.

mod delta_rw;
mod layers;
mod runner;
mod serve;
mod sim_suite;
mod small_tcp;
mod social;
mod spec;
mod stats;

use db_fault::FaultPlan;
use db_trace::json::Value;
use spec::{MetricSpec, Spec};
use std::path::{Path, PathBuf};

/// The seed used when none is given, and the one held out from tuning:
/// a claim made on numbers from the default seed must also hold on it.
pub const DEFAULT_SEED: u64 = 1;
pub const HELDOUT_SEED: u64 = 7_919;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A fault plan for the serve workloads, for checking that the
    /// benchmark sees a planted regression. Never part of a real run.
    pub faults: Option<FaultPlan>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        faults: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{val}' for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad())?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--faults" => a.faults = Some(FaultPlan::parse(&val)?),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(a)
}

/// The metrics of one run, restricted to the names the spec declares.
pub struct Metrics {
    specs: Vec<MetricSpec>,
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// Per-layer metrics start at 0: a layer the workload bypasses does
    /// no work. End-to-end metrics must all be measured.
    fn new(specs: &[MetricSpec], zero: bool) -> Metrics {
        Metrics {
            specs: specs.to_vec(),
            values: vec![zero.then_some(0.0); specs.len()],
        }
    }

    pub fn set(&mut self, name: &str, v: f64) -> Result<(), String> {
        let i = self
            .specs
            .iter()
            .position(|m| m.name == name)
            .ok_or(format!("metric '{name}' is not declared in BENCHMARK.json"))?;
        if !v.is_finite() {
            return Err(format!("metric '{name}' measured {v}"));
        }
        self.values[i] = Some(v);
        Ok(())
    }

    fn to_value(&self) -> Value {
        let fields = self.specs.iter().zip(&self.values).filter_map(|(m, v)| {
            let v = (*v)?;
            let obj = Value::Obj(vec![
                ("value".into(), Value::Num(v)),
                ("unit".into(), Value::str(&m.unit)),
            ]);
            Some((m.name.clone(), obj))
        });
        Value::Obj(fields.collect())
    }

    fn missing(&self) -> Vec<&str> {
        let unset = self
            .specs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none());
        unset.map(|(m, _)| m.name.as_str()).collect()
    }
}

/// What a workload reports besides its metrics.
pub struct Outcome {
    pub attempted: u64,
    /// Requests (or runs) that did not complete `ok`.
    pub failed: u64,
    /// Incorrect answers; any makes the run fail.
    pub errors: Vec<String>,
    pub provenance: Vec<(String, Value)>,
}

/// FNV-1a over the program's sources, so results from a checkout that
/// is not a git repository still name the code they measured.
fn source_digest() -> String {
    fn walk(p: &Path, out: &mut Vec<PathBuf>) {
        if p.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(p)
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| e.path())
                .collect();
            entries.sort();
            for e in entries {
                walk(&e, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "src", "crates", "shims"] {
        walk(Path::new(root), &mut files);
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

/// HEAD of the checkout's own `.git`, read directly so nothing outside
/// the checkout is consulted.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        }),
        None => Some(head),
    };
    rev.map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "none (not a git checkout)".into())
}

fn run_workload(a: &Args, m: &mut Metrics, tmp: &Path) -> Result<Outcome, String> {
    let faults = a.faults.clone();
    match a.workload.as_str() {
        "small-tcp" => runner::run(&mut small_tcp::SmallTcp::new(a.seed, faults)?, a, m),
        "social-1m" => runner::run(&mut social::Social::new(a.seed, faults, tmp), a, m),
        "delta-rw" => runner::run(&mut delta_rw::DeltaRw::new(a.seed, faults, tmp)?, a, m),
        "sim-suite" => sim_suite::run(a, m),
        other => Err(format!("no workload named '{other}'")),
    }
}

fn main() {
    let fail = |msg: String| -> ! {
        eprintln!("perfbench: {msg}");
        std::process::exit(2);
    };
    let args = parse_args().unwrap_or_else(|e| fail(e));
    let text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_else(|e| {
        fail(format!(
            "BENCHMARK.json (run from the repository root): {e}"
        ))
    });
    let spec = Spec::parse(&text).unwrap_or_else(|e| fail(e));
    if !spec.workloads.iter().any(|(n, _)| *n == args.workload) {
        fail(format!(
            "'{}' is not a workload in BENCHMARK.json",
            args.workload
        ));
    }
    // Scratch files (packs, WAL directories) stay inside the checkout.
    let tmp = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&tmp).unwrap_or_else(|e| fail(format!("{}: {e}", tmp.display())));
    let mut metrics = Metrics::new(spec.metrics(args.trace), args.trace);
    let result = run_workload(&args, &mut metrics, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    let mut out = result.unwrap_or_else(|e| fail(e));
    let missing = metrics.missing();
    if !missing.is_empty() {
        out.errors
            .push(format!("metrics not measured: {missing:?}"));
    }

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut prov = vec![
        ("workload".into(), Value::str(&args.workload)),
        ("seed".into(), Value::u64(args.seed)),
        ("default_seed".into(), Value::u64(DEFAULT_SEED)),
        ("heldout_seed".into(), Value::u64(HELDOUT_SEED)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("host_cores".into(), Value::u64(cores as u64)),
        (
            "build_profile".into(),
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_revision".into(), Value::str(git_revision())),
        ("source_digest".into(), Value::str(source_digest())),
    ];
    if let Some(f) = &args.faults {
        prov.push(("faults".into(), Value::str(format!("{f:?}"))));
    }
    prov.extend(out.provenance);
    println!(
        "{}",
        Value::Obj(vec![("provenance".into(), Value::Obj(prov))]).to_json()
    );
    for e in &out.errors {
        eprintln!("perfbench: INCORRECT: {e}");
    }
    let correct = out.errors.is_empty();
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::u64(out.attempted.max(1))),
        ("failed".into(), Value::u64(out.failed)),
        ("metrics".into(), metrics.to_value()),
    ]);
    println!("{}", line.to_json());
    std::process::exit(if correct { 0 } else { 1 });
}
