//! `small-tcp`: the default serve mix over small graphs, sent by two
//! closed-loop clients through the loopback NDJSON endpoint.

use crate::layers;
use crate::runner::{base_config, ServeWorkload, Shape, WARM_ID};
use crate::serve::{reachable, rng, xorshift, Env, Expect, Generator, Op, Phase, ENGINES};
use crate::Metrics;
use db_fault::FaultPlan;
use db_graph::CsrGraph;
use db_serve::{EngineKind, Request, Workload};
use db_trace::json::Value;

/// The small corpora every small-graph workload serves.
pub const SMALL_KEYS: [&str; 3] = ["grid:60:60", "path:5000", "dag:4000"];

/// Roots per small graph that requests draw from (each has an oracle).
const ROOTS: usize = 16;

/// Distinct requests; the clients cycle through them, so every answer
/// is also compared with the same request's earlier answers.
const TEMPLATES: usize = 200;

/// A small corpus with oracle answers for a fixed set of roots.
pub struct Corpus {
    pub key: &'static str,
    pub g: CsrGraph,
    pub roots: Vec<u32>,
    /// `refs[i][v]`: `v` is reachable from `roots[i]`.
    pub refs: Vec<Vec<bool>>,
}

impl Corpus {
    pub fn build(key: &'static str, seed: u64, tag: u64) -> Result<Corpus, String> {
        let g = db_serve::corpus::build_graph(key)?;
        let n = g.num_vertices() as u64;
        // One seeded root in each of ROOTS equal id ranges: on a dag the
        // reachable set shrinks with the root id, so stratifying keeps
        // the average traversal cost the same for every seed.
        let mut s = rng(seed, tag);
        let roots: Vec<u32> = (0..ROOTS as u64)
            .map(|i| ((i * n + xorshift(&mut s) % n) / ROOTS as u64) as u32)
            .collect();
        let refs = roots
            .iter()
            .map(|&r| reachable(n as usize, |u| g.neighbors(u), r))
            .collect();
        Ok(Corpus {
            key,
            g,
            roots,
            refs,
        })
    }

    pub fn n(&self) -> u32 {
        self.g.num_vertices() as u32
    }

    /// A seeded dfs or reach request from one of the oracle roots, with
    /// its exact expected answer.
    pub fn traversal(&self, s: &mut u64, graph: String, engine: EngineKind) -> Op {
        let i = (xorshift(s) % ROOTS as u64) as usize;
        let (root, target) = (self.roots[i], (xorshift(s) % self.n() as u64) as u32);
        let (workload, expect) = if xorshift(s) % 4 < 3 {
            let count = self.refs[i].iter().filter(|&&b| b).count() as u64;
            (Workload::Dfs { root }, Expect::Visited(count))
        } else {
            let hit = self.refs[i][target as usize];
            (Workload::Reach { root, target }, Expect::Reachable(hit))
        };
        Op {
            req: Request {
                id: 0,
                tenant: format!("tenant{}", xorshift(s) % 4),
                graph,
                workload,
                engine,
                deadline_ms: None,
            },
            expect,
        }
    }

    /// One serial dfs, to make the corpus resident.
    pub fn warm_request(&self, id: u64, graph: String) -> Request {
        Request {
            id,
            tenant: "warm".into(),
            graph,
            workload: Workload::Dfs { root: 0 },
            engine: EngineKind::Serial,
            deadline_ms: None,
        }
    }
}

pub fn small_corpora(seed: u64) -> Result<Vec<Corpus>, String> {
    SMALL_KEYS
        .iter()
        .enumerate()
        .map(|(i, k)| Corpus::build(k, seed, i as u64 + 1))
        .collect()
}

pub struct SmallTcp {
    faults: Option<FaultPlan>,
    corpora: Vec<Corpus>,
    templates: Vec<Op>,
}

impl SmallTcp {
    pub fn new(seed: u64, faults: Option<FaultPlan>) -> Result<SmallTcp, String> {
        let corpora = small_corpora(seed)?;
        let mut s = rng(seed, 100);
        // The serve_load default mix: 80% traversals, 20% analytics
        // (scc or topo on the directed dag, articulation points on the
        // undirected graphs).
        let templates = (0..TEMPLATES)
            .map(|t| {
                let c = &corpora[(xorshift(&mut s) % corpora.len() as u64) as usize];
                let engine = ENGINES[t % ENGINES.len()];
                let analytics = match xorshift(&mut s) % 10 {
                    8 if c.g.is_directed() => Some(Workload::Scc),
                    8 => Some(Workload::Articulation),
                    9 if c.g.is_directed() => Some(Workload::Topo),
                    _ => None,
                };
                match analytics {
                    Some(workload) => Op {
                        req: Request {
                            id: 0,
                            tenant: format!("tenant{}", xorshift(&mut s) % 4),
                            graph: c.key.to_string(),
                            workload,
                            engine,
                            deadline_ms: None,
                        },
                        expect: Expect::Repeat(t),
                    },
                    None => c.traversal(&mut s, c.key.to_string(), engine),
                }
            })
            .collect();
        Ok(SmallTcp {
            faults,
            corpora,
            templates,
        })
    }
}

struct Cycle<'a> {
    templates: &'a [Op],
    next: usize,
}

impl Generator for Cycle<'_> {
    fn next(&mut self, id: u64) -> Op {
        let mut op = self.templates[self.next % self.templates.len()].clone();
        self.next += 1;
        op.req.id = id;
        op
    }
}

impl ServeWorkload for SmallTcp {
    fn shape(&self) -> Shape {
        Shape {
            clients: 2,
            tcp: true,
            round: ENGINES.len(),
            tail_q: 0.95,
            setups: 5,
        }
    }

    fn start(&mut self, traced: bool) -> Result<Env, String> {
        let mut env = Env::start(base_config(2, self.faults.as_ref()), 2, true, traced)?;
        let warm: Vec<Request> = self
            .corpora
            .iter()
            .enumerate()
            .map(|(i, c)| c.warm_request(WARM_ID + i as u64, c.key.to_string()))
            .collect();
        env.warm(&warm)?;
        Ok(env)
    }

    fn generator(&self) -> Box<dyn Generator + '_> {
        Box::new(Cycle {
            templates: &self.templates,
            next: 0,
        })
    }

    fn probes(&mut self, m: &mut Metrics, phase: &Phase) -> Result<(), String> {
        let reqs: Vec<Request> = self.templates.iter().map(|o| o.req.clone()).collect();
        layers::codec(m, &reqs, &phase.responses)?;
        small_probes(m, &self.corpora)?;
        let dag = self.corpora.iter().find(|c| c.g.is_directed());
        let grid = self.corpora.iter().find(|c| !c.g.is_directed());
        if let (Some(d), Some(u)) = (dag, grid) {
            layers::apps(m, &d.g, &u.g)?;
        }
        Ok(())
    }

    fn params(&self) -> Vec<(String, Value)> {
        small_params(&self.corpora, "dfs/reach/scc/topo/articulation")
    }
}

/// Engine, validation, partition and cold-resolve probes on the small
/// corpora (shared with `delta-rw`, which serves the same graphs).
pub fn small_probes(m: &mut Metrics, corpora: &[Corpus]) -> Result<(), String> {
    let graphs: Vec<(&CsrGraph, Vec<u32>)> = corpora
        .iter()
        .map(|c| (&c.g, c.roots.iter().step_by(4).copied().collect()))
        .collect();
    layers::engines_small(m, &graphs)?;
    if let Some(big) = corpora.iter().max_by_key(|c| c.g.num_arcs()) {
        layers::partition(m, &big.g)?;
    }
    let miss: Vec<f64> = corpora
        .iter()
        .map(|c| {
            let cache = db_serve::CorpusCache::new(256 << 20);
            layers::time_us(1, || drop(cache.resolve(c.key))) / 1e3
        })
        .collect();
    m.set("corpus.miss_ms", crate::stats::median(&miss))
}

pub fn small_params(corpora: &[Corpus], mix: &str) -> Vec<(String, Value)> {
    let graphs = corpora
        .iter()
        .map(|c| {
            Value::Obj(vec![
                ("key".into(), Value::str(c.key)),
                ("n".into(), Value::u64(c.g.num_vertices() as u64)),
                ("arcs".into(), Value::u64(c.g.num_arcs() as u64)),
            ])
        })
        .collect();
    vec![
        ("graphs".into(), Value::Arr(graphs)),
        ("mix".into(), Value::str(mix)),
        ("workers".into(), Value::u64(2)),
        (
            "engine_rotation".into(),
            Value::Arr(ENGINES.iter().map(|e| Value::str(e.name())).collect()),
        ),
    ]
}
