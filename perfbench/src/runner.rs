//! The measurement protocol every serve workload shares: repeated
//! set-up, an untimed-checked closed-loop phase, and — in traced runs —
//! an untraced/traced pair of half-length phases plus layer probes.

use crate::layers::{peak_rss_mb, proc_metrics, with_thread_peak, Usage};
use crate::serve::{attribute, closed_loop, latencies, run_ops, scrape_sum, Env, Generator};
use crate::serve::{Op, Outcomes, Phase, Repeats};
use crate::stats::{median, Summary};
use crate::{Args, Metrics, Outcome};
use db_fault::{FaultPlan, Injector};
use db_serve::{Resilience, ServeConfig};
use db_trace::json::Value;
use std::sync::Arc;
use std::time::Instant;

/// First request id of a timed phase; warm-up and fence requests use
/// disjoint ranges so every request of one server has its own trace.
pub const FIRST_ID: u64 = 1;
pub const WARM_ID: u64 = 1 << 40;
pub const FENCE_ID: u64 = 1 << 41;

/// How a serve workload is driven.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Closed-loop clients (one connection each).
    pub clients: usize,
    /// Whether the clients go through the loopback NDJSON endpoint.
    pub tcp: bool,
    /// Phases end on a multiple of this many requests.
    pub round: usize,
    /// Percentile `read_tail_ms` is reported at while enough samples
    /// lie beyond it.
    pub tail_q: f64,
    /// Set-ups timed per untraced run (`setup_s` is their median).
    pub setups: usize,
}

/// A serve workload: its inputs, its set-up, and its checks.
pub trait ServeWorkload {
    fn shape(&self) -> Shape;
    /// Set-up work before the server starts (packing, for instance).
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Starts a server over the prepared inputs and warms its corpora.
    fn start(&mut self, traced: bool) -> Result<Env, String>;
    /// A fresh operation source for one phase.
    fn generator(&self) -> Box<dyn Generator + '_>;
    /// Requests sent after a phase has drained, with their expected
    /// answers (the delta workload's end-state fence).
    fn fence(&self, _phase: &Phase) -> Vec<Op> {
        Vec::new()
    }
    /// Direct timed calls into single layers, on this workload's inputs.
    fn probes(&mut self, m: &mut Metrics, phase: &Phase) -> Result<(), String>;
    /// Workload parameters for the provenance record.
    fn params(&self) -> Vec<(String, Value)>;
}

/// The serve config every workload starts from: `workers` workers,
/// admission never the bottleneck, and the `--faults` plan (if any)
/// under the same policy the program's chaos suite uses.
pub fn base_config(workers: usize, faults: Option<&FaultPlan>) -> ServeConfig {
    let resilience = match faults {
        Some(plan) => Resilience {
            faults: Some(Arc::new(Injector::new(plan.clone()))),
            breaker_threshold: 0,
            restart_budget: 1_000_000,
            ..Resilience::default()
        },
        None => Resilience::default(),
    };
    ServeConfig {
        workers,
        queue_capacity: 4096,
        resilience,
        ..ServeConfig::default()
    }
}

/// Sends the fence after a drained phase, stops the server, and folds
/// every incorrect answer into `errors`; returns the outcome counts.
fn finish(
    w: &dyn ServeWorkload,
    mut env: Env,
    phase: &Phase,
    repeats: &Repeats,
    errors: &mut Vec<String>,
) -> Result<Outcomes, String> {
    let fence = run_ops(&mut env, w.fence(phase), repeats)?;
    env.stop();
    errors.extend(phase.errors.iter().chain(&fence.errors).take(8).cloned());
    Ok(Outcomes::of(phase.samples.iter().chain(&fence.samples)))
}

pub fn run(w: &mut dyn ServeWorkload, args: &Args, m: &mut Metrics) -> Result<Outcome, String> {
    let shape = w.shape();
    let mut errors = Vec::new();
    let repeats = Repeats::default();
    let mut prov: Vec<(String, Value)> = w.params();
    prov.push(("clients".into(), Value::u64(shape.clients as u64)));
    prov.push((
        "transport".into(),
        Value::str(if shape.tcp { "tcp" } else { "in-process" }),
    ));

    if !args.trace {
        let mut setup_s = Vec::new();
        let mut env = None;
        for i in 0..shape.setups {
            let t = Instant::now();
            w.prepare()?;
            let e = w.start(false)?;
            setup_s.push(t.elapsed().as_secs_f64());
            if i + 1 < shape.setups {
                e.stop();
            } else {
                env = Some(e);
            }
        }
        let mut env = env.ok_or("no set-up ran")?;
        let phase = closed_loop(
            &mut env,
            w.generator().as_mut(),
            args.seconds,
            shape.round,
            FIRST_ID,
            &repeats,
        )?;
        let outcomes = finish(w, env, &phase, &repeats, &mut errors)?;
        let (reads, writes) = latencies(&phase.samples);
        let (q, tail) = reads.tail(shape.tail_q);
        m.set("throughput_rps", phase.samples.len() as f64 / phase.wall_s)?;
        m.set("read_p50_ms", reads.p50())?;
        m.set("read_tail_ms", tail)?;
        m.set("setup_s", median(&setup_s))?;
        m.set("rss_peak_mb", peak_rss_mb()?)?;
        prov.extend([
            ("outcomes".into(), outcomes.to_value()),
            ("read_samples".into(), Value::u64(reads.n() as u64)),
            ("write_samples".into(), Value::u64(writes.n() as u64)),
            ("read_tail_percentile".into(), Value::Num(q * 100.0)),
            ("setup_samples".into(), Value::u64(setup_s.len() as u64)),
            ("timed_s".into(), Value::Num(phase.wall_s)),
        ]);
        return Ok(Outcome {
            attempted: outcomes.attempted,
            failed: outcomes.not_ok(),
            errors,
            provenance: prov,
        });
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // traced half on a fresh server whose recorder keeps every span.
    let half = args.seconds / 2.0;
    w.prepare()?;
    let mut env = w.start(false)?;
    let plain = closed_loop(
        &mut env,
        w.generator().as_mut(),
        half,
        shape.round,
        FIRST_ID,
        &repeats,
    )?;
    let o1 = finish(w, env, &plain, &repeats, &mut errors)?;

    let mut env = w.start(true)?;
    let scrape0 = env.handle.prometheus();
    let u0 = Usage::now();
    let (phase, threads) = with_thread_peak(|| {
        closed_loop(
            &mut env,
            w.generator().as_mut(),
            half,
            shape.round,
            FIRST_ID,
            &repeats,
        )
    });
    let phase = phase?;
    let u1 = Usage::now();
    let scrape1 = env.handle.prometheus();
    let dump = env.handle.flight_dump();
    let o2 = finish(w, env, &phase, &repeats, &mut errors)?;

    let a = attribute(&dump, &phase.samples, shape.tcp);
    if a.dropped > 0 {
        errors.push(format!("flight recorder dropped {} spans", a.dropped));
    }
    let delta = |name: &str| -> Result<f64, String> {
        Ok(scrape_sum(&scrape1, name)? - scrape_sum(&scrape0, name)?)
    };
    let n = phase.samples.len() as f64;
    let plain_rate = plain.samples.len() as f64 / plain.wall_s;
    let traced_rate = n / phase.wall_s;
    m.set("obs.trace_overhead_frac", 1.0 - traced_rate / plain_rate)?;

    let net = Summary::new(a.net_us.clone());
    m.set("net.rtt_overhead_us.p50", net.p50())?;
    m.set("net.rtt_overhead_us.tail", net.tail(shape.tail_q).1)?;
    let queue = Summary::new(a.queue_us.clone());
    let attempt = Summary::new(a.attempt_us.clone());
    m.set("pool.queue_us.p50", queue.p50())?;
    m.set("pool.queue_us.tail", queue.tail(shape.tail_q).1)?;
    m.set("pool.attempt_us.p50", attempt.p50())?;
    m.set("pool.attempt_us.tail", attempt.tail(shape.tail_q).1)?;
    m.set("pool.unattributed_frac", median(&a.unattributed))?;
    m.set("pool.request_steals", a.steals as f64)?;
    m.set("pool.retries", a.retries as f64)?;
    m.set("pool.samples", a.unattributed.len() as f64)?;
    m.set("corpus.resolve_us.p50", median(&a.store_load_us))?;
    let (hits, misses) = (
        delta("db_serve_cache_hits_total")?,
        delta("db_serve_cache_misses_total")?,
    );
    if hits + misses > 0.0 {
        m.set("corpus.hit_rate", hits / (hits + misses))?;
    }
    let (steals, fails) = (
        delta("db_engine_steals_total")?,
        delta("db_engine_steal_failures_total")?,
    );
    if steals + fails > 0.0 {
        m.set("engine.steal_success_frac", steals / (steals + fails))?;
    }

    let writes: Vec<f64> = phase
        .samples
        .iter()
        .filter(|r| r.write && r.status == db_serve::Status::Ok)
        .map(|r| r.client_us / 1e3)
        .collect();
    if !writes.is_empty() {
        let acked = writes.len() as f64;
        let client = Summary::new(writes);
        let dw = Summary::new(a.delta_write_us.clone());
        m.set("delta.client_write_ms.p50", client.p50())?;
        m.set("delta.client_write_ms.tail", client.tail(shape.tail_q).1)?;
        m.set("delta.write_us.p50", dw.p50())?;
        m.set("delta.write_us.tail", dw.tail(shape.tail_q).1)?;
        m.set("delta.write_samples", acked)?;
        m.set("wal.append_us.p50", median(&a.wal_append_us))?;
        m.set(
            "wal.fsyncs_per_write",
            delta("db_wal_fsyncs_total")? / acked,
        )?;
        m.set(
            "wal.bytes_per_edge",
            delta("db_wal_appended_bytes_total")? / phase.written_edges.max(1) as f64,
        )?;
        m.set("wal.checkpoints", delta("db_wal_checkpoints_total")?)?;
    }
    m.set("delta.pin_us.p50", median(&a.epoch_pin_us))?;
    m.set("delta.epochs", delta("db_delta_epochs_published_total")?)?;
    m.set("delta.compactions", delta("db_delta_compactions_total")?)?;
    proc_metrics(m, u0, u1, n, threads)?;
    w.probes(m, &phase)?;

    prov.extend([
        ("outcomes_untraced".into(), o1.to_value()),
        ("outcomes_traced".into(), o2.to_value()),
        ("traced_samples".into(), Value::u64(n as u64)),
        ("spans".into(), Value::u64(dump.spans.len() as u64)),
    ]);
    Ok(Outcome {
        attempted: o1.attempted + o2.attempted,
        failed: o1.not_ok() + o2.not_ok(),
        errors,
        provenance: prov,
    })
}
