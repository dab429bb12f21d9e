//! `social-1m`: dfs and reach over a packed one-million-user social
//! graph, one in-process client, two workers.

use crate::layers;
use crate::runner::{base_config, ServeWorkload, Shape, WARM_ID};
use crate::serve::{reachable, rng, xorshift, Env, Expect, Generator, Op, Phase, ENGINES};
use crate::Metrics;
use db_fault::FaultPlan;
use db_gen::{SocialGraph, SocialParams};
use db_serve::{EngineKind, Request, Workload};
use db_store::{PackOptions, PackWriter};
use db_trace::json::Value;
use std::path::PathBuf;
use std::time::Instant;

const USERS: u32 = 1_000_000;

/// Oracle roots; requests rotate through them.
const ROOTS: usize = 3;

struct Root {
    root: u32,
    visited: Vec<bool>,
    count: u64,
    /// Arcs a full traversal from this root scans.
    arcs: u64,
}

pub struct Social {
    seed: u64,
    faults: Option<FaultPlan>,
    pack: PathBuf,
    key: String,
    pack_s: Vec<f64>,
    roots: Vec<Root>,
}

impl Social {
    /// Builds the workload and its oracle (untimed).
    pub fn new(seed: u64, faults: Option<FaultPlan>, tmp: &std::path::Path) -> Social {
        let pack = tmp.join("social-1m.dbsg");
        let mut w = Social {
            seed,
            faults,
            key: format!("store:{}", pack.display()),
            pack,
            pack_s: Vec::new(),
            roots: Vec::new(),
        };
        w.oracle();
        w
    }

    fn graph(&self) -> SocialGraph {
        SocialGraph::new(USERS, self.seed, SocialParams::default())
    }

    /// Oracle answers, from the generator's rows rather than the pack,
    /// so they do not depend on the store. The graph is dropped before
    /// any set-up runs.
    fn oracle(&mut self) {
        let g = self.graph().build();
        let mut s = rng(self.seed, 200);
        self.roots = (0..ROOTS)
            .map(|_| {
                let root = (xorshift(&mut s) % USERS as u64) as u32;
                let visited = reachable(USERS as usize, |u| g.neighbors(u), root);
                let reached = (0..USERS).filter(|&u| visited[u as usize]);
                Root {
                    root,
                    count: reached.clone().count() as u64,
                    arcs: reached.map(|u| g.neighbors(u).len() as u64).sum(),
                    visited,
                }
            })
            .collect();
    }
}

struct Rotation<'a> {
    w: &'a Social,
    s: u64,
    seq: usize,
}

impl Generator for Rotation<'_> {
    fn next(&mut self, id: u64) -> Op {
        let engine = ENGINES[self.seq % ENGINES.len()];
        let r = &self.w.roots[(self.seq / ENGINES.len()) % ROOTS];
        self.seq += 1;
        let (workload, expect) = if xorshift(&mut self.s) % 4 < 3 {
            (Workload::Dfs { root: r.root }, Expect::Visited(r.count))
        } else {
            let target = (xorshift(&mut self.s) % USERS as u64) as u32;
            (
                Workload::Reach {
                    root: r.root,
                    target,
                },
                Expect::Reachable(r.visited[target as usize]),
            )
        };
        Op {
            req: Request {
                id,
                tenant: "social".into(),
                graph: self.w.key.clone(),
                workload,
                engine,
                deadline_ms: None,
            },
            expect,
        }
    }
}

impl ServeWorkload for Social {
    fn shape(&self) -> Shape {
        Shape {
            clients: 1,
            tcp: false,
            round: ENGINES.len(),
            tail_q: 0.75,
            setups: 3,
        }
    }

    /// Streams the seeded graph into a fresh pack.
    fn prepare(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let mut w = PackWriter::create(&self.pack, USERS, true, PackOptions::default())
            .map_err(|e| format!("pack: {e}"))?;
        let mut err = None;
        self.graph().for_each_row(|_, row| {
            if err.is_none() {
                err = w.push_row(row).err();
            }
        });
        if let Some(e) = err {
            return Err(format!("pack: {e}"));
        }
        w.finish().map_err(|e| format!("pack: {e}"))?;
        self.pack_s.push(t.elapsed().as_secs_f64());
        Ok(())
    }

    fn start(&mut self, traced: bool) -> Result<Env, String> {
        let mut env = Env::start(base_config(2, self.faults.as_ref()), 1, false, traced)?;
        env.warm(&[Request {
            id: WARM_ID,
            tenant: "warm".into(),
            graph: self.key.clone(),
            workload: Workload::Dfs {
                root: self.roots[0].root,
            },
            engine: EngineKind::Serial,
            deadline_ms: None,
        }])?;
        Ok(env)
    }

    fn generator(&self) -> Box<dyn Generator + '_> {
        Box::new(Rotation {
            w: self,
            s: rng(self.seed, 201),
            seq: 0,
        })
    }

    fn probes(&mut self, m: &mut Metrics, _phase: &Phase) -> Result<(), String> {
        m.set("store.pack_s", crate::stats::median(&self.pack_s))?;
        let mut store = None;
        let load_us = layers::time_us(5, || store = db_store::load(&self.pack).ok());
        let store = store.ok_or("pack failed to load")?;
        m.set("store.load_ms", load_us / 1e3)?;
        m.set("store.mapped_mb", store.file_bytes() as f64 / 1e6)?;
        let g = db_graph::GraphStore::graph(&store);
        let roots: Vec<(u32, u64)> = self.roots[..2].iter().map(|r| (r.root, r.arcs)).collect();
        layers::engines_large(m, g, &roots)?;
        layers::partition(m, g)?;
        let cache = db_serve::CorpusCache::new(256 << 20);
        let miss = layers::time_us(1, || drop(cache.resolve(&self.key)));
        m.set("corpus.miss_ms", miss / 1e3)
    }

    fn params(&self) -> Vec<(String, Value)> {
        vec![
            ("graph".into(), Value::str(format!("social:{USERS}"))),
            ("pack".into(), Value::str("compressed, mmap")),
            ("mix".into(), Value::str("dfs/reach")),
            ("workers".into(), Value::u64(2)),
            (
                "engine_rotation".into(),
                Value::Arr(ENGINES.iter().map(|e| Value::str(e.name())).collect()),
            ),
            (
                "roots".into(),
                Value::Arr(
                    self.roots
                        .iter()
                        .map(|r| {
                            Value::Obj(vec![
                                ("root".into(), Value::u64(r.root as u64)),
                                ("reachable".into(), Value::u64(r.count)),
                                ("arcs".into(), Value::u64(r.arcs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]
    }
}
