//! `sim-suite`: the DES model of the paper's GPU algorithm on five
//! Table-4 analogues of different shape, one seeded root each.

use crate::layers::{peak_rss_mb, proc_metrics, with_thread_peak, Usage};
use crate::serve::{reachable, rng, xorshift};
use crate::stats::{median, Summary};
use crate::{Args, Metrics, Outcome};
use db_core::{run_sim, run_sim_profiled, DiggerBeesConfig, SimResult};
use db_gpu_sim::{CycleProfiler, MachineModel, SimPhase};
use db_graph::CsrGraph;
use db_trace::json::Value;
use std::time::Instant;

/// Census mesh, FE mesh, citation, co-purchase and web graphs: Table-4
/// analogues of different shape that build in about a second together.
pub const GRAPHS: [&str; 5] = ["il2010", "auto", "citation", "amazon", "google"];

const SETUPS: usize = 3;

/// Percentile `read_tail_ms` is reported at.
const TAIL_Q: f64 = 0.9;

struct SimGraph {
    name: &'static str,
    g: CsrGraph,
    root: u32,
    /// Oracle reachability from `root`.
    visited: Vec<bool>,
}

/// Everything a simulation must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exact {
    cycles: u64,
    tree: u64,
}

fn exact(r: &SimResult) -> Exact {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in r.parent.iter().flat_map(|p| p.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    Exact {
        cycles: r.stats.cycles,
        tree: h,
    }
}

struct Sim {
    graphs: Vec<SimGraph>,
    model: MachineModel,
    cfg: DiggerBeesConfig,
    /// First result per graph; every later run must equal it.
    first: Vec<Option<Exact>>,
    errors: Vec<String>,
}

/// One run's host time, plus its exact outputs checked.
struct Run {
    graph: usize,
    host_s: f64,
    cycles: u64,
    steals: u64,
    steal_failures: u64,
    block_load_cov: f64,
}

impl Sim {
    fn check(&mut self, i: usize, r: &SimResult) {
        let sg = &self.graphs[i];
        let e = exact(r);
        let first = *self.first[i].get_or_insert(e);
        if first != e {
            self.errors.push(format!(
                "{}: {e:?} differs from first run {first:?}",
                sg.name
            ));
        }
        if r.visited != sg.visited {
            self.errors
                .push(format!("{}: visited set differs from the oracle", sg.name));
        }
    }

    /// Round-robin over the graphs until `seconds` of host time have
    /// passed, ending on a whole round.
    fn phase(&mut self, seconds: f64, profiled: Option<&mut Vec<CycleProfiler>>) -> Vec<Run> {
        let mut runs = Vec::new();
        let mut profs = profiled;
        let start = Instant::now();
        while runs.is_empty() || start.elapsed().as_secs_f64() < seconds {
            for i in 0..self.graphs.len() {
                let sg = &self.graphs[i];
                let t = Instant::now();
                let r = match profs.as_deref_mut() {
                    Some(ps) => {
                        let p = CycleProfiler::new(self.cfg.blocks as usize);
                        let r = run_sim_profiled(
                            &sg.g,
                            sg.root,
                            &self.cfg,
                            &self.model,
                            &db_trace::tracer::NullTracer,
                            &p,
                        );
                        ps.push(p);
                        r
                    }
                    None => run_sim(&sg.g, sg.root, &self.cfg, &self.model),
                };
                let host_s = t.elapsed().as_secs_f64();
                runs.push(Run {
                    graph: i,
                    host_s,
                    cycles: r.stats.cycles,
                    steals: r.stats.steals_intra + r.stats.steals_inter,
                    steal_failures: r.stats.steal_failures,
                    block_load_cov: r.stats.block_load_cv(),
                });
                self.check(i, &r);
            }
        }
        runs
    }
}

fn build_graphs(seed: u64) -> Result<Vec<SimGraph>, String> {
    GRAPHS
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let g = db_serve::corpus::build_graph(name)?;
            let mut s = rng(seed, 400 + i as u64);
            let root = (xorshift(&mut s) % g.num_vertices() as u64) as u32;
            Ok(SimGraph {
                name,
                root,
                visited: Vec::new(),
                g,
            })
        })
        .collect()
}

fn rate(runs: &[Run]) -> f64 {
    runs.len() as f64 / runs.iter().map(|r| r.host_s).sum::<f64>()
}

pub fn run(args: &Args, m: &mut Metrics) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        graphs = build_graphs(args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    for sg in &mut graphs {
        sg.visited = reachable(sg.g.num_vertices(), |u| sg.g.neighbors(u), sg.root);
    }
    let model = MachineModel::h100();
    let mut sim = Sim {
        cfg: DiggerBeesConfig::v4(model.sm_count),
        model,
        first: vec![None; graphs.len()],
        graphs,
        errors: Vec::new(),
    };
    let mut prov: Vec<(String, Value)> = vec![
        ("machine".into(), Value::str("h100")),
        ("config".into(), Value::str("v4")),
        (
            "graphs".into(),
            Value::Arr(
                sim.graphs
                    .iter()
                    .map(|sg| {
                        Value::Obj(vec![
                            ("name".into(), Value::str(sg.name)),
                            ("n".into(), Value::u64(sg.g.num_vertices() as u64)),
                            ("arcs".into(), Value::u64(sg.g.num_arcs() as u64)),
                            ("root".into(), Value::u64(sg.root as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];

    if !args.trace {
        let runs = sim.phase(args.seconds, None);
        let host_ms = Summary::new(runs.iter().map(|r| r.host_s * 1e3).collect());
        let (q, tail) = host_ms.tail(TAIL_Q);
        m.set("throughput_rps", rate(&runs))?;
        m.set("read_p50_ms", host_ms.p50())?;
        m.set("read_tail_ms", tail)?;
        m.set("setup_s", median(&setup_s))?;
        m.set("rss_peak_mb", peak_rss_mb()?)?;
        prov.extend([
            ("runs".into(), Value::u64(runs.len() as u64)),
            ("read_tail_percentile".into(), Value::Num(q * 100.0)),
            ("setup_samples".into(), Value::u64(setup_s.len() as u64)),
        ]);
        return Ok(Outcome {
            attempted: runs.len() as u64,
            failed: 0,
            errors: sim.errors,
            provenance: prov,
        });
    }

    let plain = sim.phase(args.seconds / 2.0, None);
    let mut profs = Vec::new();
    let u0 = Usage::now();
    let (traced, threads) = with_thread_peak(|| sim.phase(args.seconds / 2.0, Some(&mut profs)));
    let u1 = Usage::now();
    m.set(
        "obs.trace_overhead_frac",
        1.0 - rate(&traced) / rate(&plain),
    )?;
    proc_metrics(m, u0, u1, traced.len() as f64, threads)?;

    // Exact model outputs: one round (each graph once) of the traced half.
    let round = &profs[..sim.graphs.len()];
    for phase in SimPhase::ALL {
        let c: u64 = round.iter().map(|p| p.total_cycles(phase)).sum();
        m.set(
            &format!("sim.phase_cycles.{}", phase.name().replace('-', "_")),
            c as f64,
        )?;
    }
    let first = &traced[..sim.graphs.len()];
    let sum = |f: fn(&Run) -> u64| first.iter().map(f).sum::<u64>() as f64;
    m.set("sim.cycles", sum(|r| r.cycles))?;
    let (steals, fails) = (sum(|r| r.steals), sum(|r| r.steal_failures));
    m.set("sim.steal_success_frac", steals / (steals + fails).max(1.0))?;
    let cov: Vec<f64> = first.iter().map(|r| r.block_load_cov).collect();
    m.set(
        "sim.block_load_cov",
        cov.iter().sum::<f64>() / cov.len() as f64,
    )?;

    // Host speed, from the untraced half.
    let host: f64 = plain.iter().map(|r| r.host_s).sum();
    let cycles: u64 = plain.iter().map(|r| r.cycles).sum();
    m.set("sim.mcycles_per_s", cycles as f64 / host / 1e6)?;
    for (i, sg) in sim.graphs.iter().enumerate() {
        let ns: Vec<f64> = plain
            .iter()
            .filter(|r| r.graph == i)
            .map(|r| r.host_s * 1e9 / (r.cycles as f64 / 1e3))
            .collect();
        m.set(&format!("sim.host_ns_per_kcycle.{}", sg.name), median(&ns))?;
    }
    prov.push((
        "runs".into(),
        Value::u64((plain.len() + traced.len()) as u64),
    ));
    Ok(Outcome {
        attempted: (plain.len() + traced.len()) as u64,
        failed: 0,
        errors: sim.errors,
        provenance: prov,
    })
}
