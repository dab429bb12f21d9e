//! Direct timed calls into single layers, and the process counters the
//! traced runs report beside them.

use crate::stats::median;
use crate::Metrics;
use db_core::CancelToken;
use db_graph::CsrGraph;
use db_serve::{EngineKind, Request, Response, Workload};
use db_trace::json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Per-call time of `f` in µs: the median of `reps` single calls.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&xs)
}

/// Per-call time of `f` in µs for calls too short to time singly: the
/// median over `batches` batches of `per` calls each.
fn time_batched_us(batches: usize, per: usize, mut f: impl FnMut(usize)) -> f64 {
    let xs: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for i in 0..per {
                f(i);
            }
            t.elapsed().as_secs_f64() * 1e6 / per as f64
        })
        .collect();
    median(&xs)
}

/// `codec.parse_us` and `codec.encode_us`: the NDJSON codec on the
/// workload's own request lines and responses.
pub fn codec(m: &mut Metrics, reqs: &[Request], resps: &[Response]) -> Result<(), String> {
    let lines: Vec<String> = reqs.iter().map(|r| r.to_value().to_json()).collect();
    for l in &lines {
        Request::parse(l).map_err(|e| format!("codec rejects its own line {l}: {e}"))?;
    }
    let parse = time_batched_us(7, lines.len(), |i| {
        let v = Value::parse(&lines[i]).ok();
        std::hint::black_box(v.map(|v| Request::from_value(&v)));
    });
    let encode = time_batched_us(7, resps.len(), |i| {
        std::hint::black_box(resps[i].to_value().to_json());
    });
    m.set("codec.parse_us", parse)?;
    m.set("codec.encode_us", encode)
}

/// Engines the serve mix hints; their wire names are the metric stems.
const PROBED: [EngineKind; 4] = [
    EngineKind::Native,
    EngineKind::LockFree,
    EngineKind::Partitioned,
    EngineKind::Serial,
];

fn dfs(engine: EngineKind, root: u32) -> Request {
    Request {
        id: 0,
        tenant: "probe".into(),
        graph: "probe".into(),
        workload: Workload::Dfs { root },
        engine,
        deadline_ms: None,
    }
}

/// `engine.<e>.small_us.p50`: one timed `exec::execute` per engine,
/// graph and root, on the workload's small graphs. Also times
/// `validate_graph` on them.
pub fn engines_small(m: &mut Metrics, graphs: &[(&CsrGraph, Vec<u32>)]) -> Result<(), String> {
    for engine in PROBED {
        let name = engine.name();
        let mut xs = Vec::new();
        for (g, roots) in graphs {
            for &r in roots {
                let req = dfs(engine, r);
                xs.push(time_us(1, || {
                    std::hint::black_box(db_serve::exec::execute(&req, g, &CancelToken::new()));
                }));
            }
        }
        m.set(&format!("engine.{name}.small_us.p50"), median(&xs))?;
    }
    let v: Vec<f64> = graphs
        .iter()
        .map(|(g, _)| time_us(9, || drop(std::hint::black_box(db_core::validate_graph(g)))))
        .collect();
    m.set("validate.small_us", median(&v))
}

/// `engine.<e>.large_ms.p50` and `.large_mteps` on one large graph:
/// `edges` is the arc count a full traversal from each root scans.
pub fn engines_large(m: &mut Metrics, g: &CsrGraph, roots: &[(u32, u64)]) -> Result<(), String> {
    for engine in PROBED {
        let name = engine.name();
        let mut ms = Vec::new();
        let mut mteps = Vec::new();
        for &(r, edges) in roots {
            let req = dfs(engine, r);
            let us = time_us(1, || {
                std::hint::black_box(db_serve::exec::execute(&req, g, &CancelToken::new()));
            });
            ms.push(us / 1e3);
            mteps.push(edges as f64 / us);
        }
        m.set(&format!("engine.{name}.large_ms.p50"), median(&ms))?;
        m.set(&format!("engine.{name}.large_mteps"), median(&mteps))?;
    }
    let v = time_us(5, || drop(std::hint::black_box(db_core::validate_graph(g))));
    m.set("validate.large_ms", v / 1e3)
}

/// `store.partition_ms`: the edge-cut every partitioned request makes.
pub fn partition(m: &mut Metrics, g: &CsrGraph) -> Result<(), String> {
    let us = time_us(5, || {
        std::hint::black_box(db_store::partition_by_arcs(g, 4));
    });
    m.set("store.partition_ms", us / 1e3)
}

/// `apps.*`: the serial analytics the small mix sends.
pub fn apps(m: &mut Metrics, directed: &CsrGraph, undirected: &CsrGraph) -> Result<(), String> {
    let scc = time_us(9, || {
        drop(std::hint::black_box(db_apps::scc::scc(directed)))
    });
    let topo = time_us(9, || {
        std::hint::black_box(db_apps::topo::topo_sort(directed));
    });
    let art = time_us(9, || {
        std::hint::black_box(db_apps::articulation::articulation_points(undirected));
    });
    m.set("apps.scc_us", scc)?;
    m.set("apps.topo_us", topo)?;
    m.set("apps.articulation_us", art)
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Whole-process resource counters, threads that have exited included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut r = Rusage::default();
        // SAFETY: `r` is a valid, writable `struct rusage`, and
        // RUSAGE_SELF (0) is always a valid `who`.
        let rc = unsafe { getrusage(0, &mut r) };
        if rc != 0 {
            return Usage::default();
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Usage {
            user_s: secs(&r.utime),
            sys_s: secs(&r.stime),
            ctx_switches: (r.nvcsw + r.nivcsw) as f64,
        }
    }
}

/// A numeric field of `/proc/self/status`, without its unit.
fn status_field(name: &str) -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

fn threads_now() -> f64 {
    status_field("Threads").unwrap_or(0.0)
}

/// Peak resident memory of this process image, MB (`VmHWM`). Not
/// getrusage's maxrss: Linux carries that across `exec`, so under
/// `cargo run` it reports cargo's own peak whenever that is larger.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_field("VmHWM")
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Samples the process's thread count every millisecond while `f` runs
/// and returns `f`'s result with the highest count seen.
pub fn with_thread_peak<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak: f64 = 0.0;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(threads_now());
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        // The sampler itself is one of the threads it counted.
        (out, sampler.join().unwrap_or(0.0) - 1.0)
    })
}

/// `proc.*` over a traced phase of `requests` requests.
pub fn proc_metrics(
    m: &mut Metrics,
    before: Usage,
    after: Usage,
    requests: f64,
    threads_peak: f64,
) -> Result<(), String> {
    let user = after.user_s - before.user_s;
    let sys = after.sys_s - before.sys_s;
    let per = requests.max(1.0);
    m.set("proc.user_ms_per_req", user * 1e3 / per)?;
    m.set("proc.sys_ms_per_req", sys * 1e3 / per)?;
    m.set("proc.sys_frac", sys / (user + sys).max(1e-9))?;
    m.set(
        "proc.ctx_switches_per_req",
        (after.ctx_switches - before.ctx_switches) / per,
    )?;
    m.set("proc.threads_peak", threads_peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        assert!(threads_now() >= 1.0);
        // A process image holds at least a page, and far less than a TB.
        let mb = peak_rss_mb().unwrap();
        assert!(mb > 0.0 && mb < 1e6, "{mb}");
        assert_eq!(status_field("NoSuchField"), None);
    }
}
