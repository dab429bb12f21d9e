//! `delta-rw`: reads and commuting edge writes on the `delta:` views of
//! the small corpora, with the write-ahead log on.

use crate::runner::{base_config, ServeWorkload, Shape, FENCE_ID, WARM_ID};
use crate::serve::{reachable, rng, xorshift, Env, Expect, Generator, Op, Phase, ENGINES};
use crate::small_tcp::{small_corpora, small_params, small_probes, Corpus};
use crate::Metrics;
use db_fault::FaultPlan;
use db_serve::{Durability, EngineKind, Request, Workload};
use db_trace::json::Value;
use db_wal::FsyncPolicy;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Share of requests that are edge writes.
const WRITE_FRAC: f64 = 0.3;

/// The WAL's fsync policy: one fsync per eight appended records.
pub const FSYNC: &str = "group=8";

/// Roots each delta corpus's end state is checked from.
const FENCE_ROOTS: usize = 4;

/// Edge batches per corpus that writes draw from. A bounded pool bounds
/// how far a delta graph drifts from its base, so late reads cost what
/// early ones did, and the end state follows from which batches were
/// acknowledged at least once.
const WRITE_POOL: usize = 1024;

/// Writes commute: adds only join two even vertices and deletes only cut
/// arcs with an odd end, so no add re-creates a deleted arc and any
/// interleaving ends at base ∪ adds ∖ dels.
struct Batch {
    del: bool,
    edges: Vec<(u32, u32)>,
}

pub struct DeltaRw {
    seed: u64,
    faults: Option<FaultPlan>,
    corpora: Vec<Corpus>,
    /// `pool[c][b]`; a write's tag is `c * WRITE_POOL + b`.
    pool: Vec<Vec<Batch>>,
    tmp: PathBuf,
    starts: u64,
}

impl DeltaRw {
    pub fn new(
        seed: u64,
        faults: Option<FaultPlan>,
        tmp: &std::path::Path,
    ) -> Result<DeltaRw, String> {
        let corpora = small_corpora(seed)?;
        let mut s = rng(seed, 302);
        let pool = corpora
            .iter()
            .map(|c| {
                let half = (c.n() / 2) as u64;
                (0..WRITE_POOL)
                    .map(|_| {
                        let del = xorshift(&mut s).is_multiple_of(4);
                        let parity = u32::from(del);
                        let k = 1 + xorshift(&mut s) % 3;
                        let edges = (0..k)
                            .map(|_| {
                                let mut end = || (xorshift(&mut s) % half) as u32 * 2 + parity;
                                let u = end();
                                // Deletes cut one of u's base arcs, so
                                // they change answers.
                                let nbrs = c.g.neighbors(u);
                                match nbrs.len() as u64 {
                                    n if del && n > 0 => (u, nbrs[(xorshift(&mut s) % n) as usize]),
                                    _ => (u, end()),
                                }
                            })
                            .collect();
                        Batch { del, edges }
                    })
                    .collect()
            })
            .collect();
        Ok(DeltaRw {
            seed,
            faults,
            corpora,
            pool,
            tmp: tmp.to_path_buf(),
            starts: 0,
        })
    }

    fn batch(&self, tag: u32) -> &Batch {
        let t = tag as usize;
        &self.pool[t / WRITE_POOL][t % WRITE_POOL]
    }
}

fn delta_key(c: &Corpus) -> String {
    format!("delta:{}", c.key)
}

struct Mix<'a> {
    w: &'a DeltaRw,
    s: u64,
    seq: usize,
}

impl Generator for Mix<'_> {
    /// Reads split between the frozen graph (exact answers) and its
    /// `delta:` view (answers depend on the interleaving; checked for
    /// shape).
    fn next(&mut self, id: u64) -> Op {
        let s = &mut self.s;
        let ci = (xorshift(s) % self.w.corpora.len() as u64) as usize;
        let c = &self.w.corpora[ci];
        let engine = ENGINES[self.seq % ENGINES.len()];
        self.seq += 1;
        if (xorshift(s) % 1_000) as f64 / 1_000.0 < WRITE_FRAC {
            let tag = (ci * WRITE_POOL) as u32 + (xorshift(s) % WRITE_POOL as u64) as u32;
            let b = self.w.batch(tag);
            let edges = b.edges.clone();
            return Op {
                req: Request {
                    id,
                    tenant: format!("tenant{}", xorshift(s) % 4),
                    graph: delta_key(c),
                    workload: if b.del {
                        Workload::DelEdges { edges }
                    } else {
                        Workload::AddEdges { edges }
                    },
                    engine: EngineKind::Serial,
                    deadline_ms: None,
                },
                expect: Expect::Write {
                    edges: b.edges.len() as u64,
                    tag,
                },
            };
        }
        let frozen = xorshift(s).is_multiple_of(2);
        let graph = if frozen {
            c.key.to_string()
        } else {
            delta_key(c)
        };
        let mut op = c.traversal(s, graph, engine);
        op.req.id = id;
        if !frozen {
            op.expect = Expect::DeltaRead(c.n() as u64);
        }
        op
    }
}

/// The end state every schedule must reach: base ∪ adds ∖ dels over the
/// batches acknowledged at least once, as adjacency lists.
fn rebuild(c: &Corpus, acked: &[&Batch]) -> Vec<Vec<u32>> {
    let mut arcs: BTreeSet<(u32, u32)> = (0..c.n())
        .flat_map(|u| c.g.neighbors(u).iter().map(move |&v| (u, v)))
        .collect();
    let directed = c.g.is_directed();
    for b in acked {
        for &(u, v) in &b.edges {
            let mut apply = |arc| {
                if b.del {
                    arcs.remove(&arc);
                } else {
                    arcs.insert(arc);
                }
            };
            apply((u, v));
            if !directed {
                apply((v, u));
            }
        }
    }
    let mut adj = vec![Vec::new(); c.n() as usize];
    for (u, v) in arcs {
        adj[u as usize].push(v);
    }
    adj
}

impl ServeWorkload for DeltaRw {
    fn shape(&self) -> Shape {
        Shape {
            clients: 2,
            tcp: false,
            round: ENGINES.len(),
            // p99 rests on a few hundred samples set by rare host stalls and
            // spread past 25% between runs of one build; p95 holds steady.
            tail_q: 0.95,
            // A set-up takes milliseconds: take the median of many.
            setups: 15,
        }
    }

    fn start(&mut self, traced: bool) -> Result<Env, String> {
        self.starts += 1;
        let dir = self.tmp.join(format!("wal-{}", self.starts));
        let mut cfg = base_config(2, self.faults.as_ref());
        cfg.durability = Durability {
            wal_dir: Some(dir),
            fsync: FsyncPolicy::parse(FSYNC)?,
        };
        let mut env = Env::start(cfg, 2, false, traced)?;
        let mut warm = Vec::new();
        for (i, c) in self.corpora.iter().enumerate() {
            let id = WARM_ID + 2 * i as u64;
            warm.push(c.warm_request(id, c.key.to_string()));
            let mut epoch = c.warm_request(id + 1, delta_key(c));
            epoch.workload = Workload::Epoch;
            warm.push(epoch);
        }
        env.warm(&warm)?;
        Ok(env)
    }

    fn generator(&self) -> Box<dyn Generator + '_> {
        Box::new(Mix {
            w: self,
            s: rng(self.seed, 300),
            seq: 0,
        })
    }

    /// After the drain: each delta corpus's epoch equals its acked
    /// writes, and serial traversals of its final state match a
    /// from-scratch rebuild.
    fn fence(&self, phase: &Phase) -> Vec<Op> {
        let mut s = rng(self.seed, 301);
        let mut ops = Vec::new();
        let mut tags = phase.writes.clone();
        tags.sort_unstable();
        for (ci, c) in self.corpora.iter().enumerate() {
            let range = (ci * WRITE_POOL) as u32..((ci + 1) * WRITE_POOL) as u32;
            let mine: Vec<u32> = tags.iter().copied().filter(|t| range.contains(t)).collect();
            let base = c.warm_request(0, delta_key(c));
            ops.push(Op {
                req: Request {
                    workload: Workload::Epoch,
                    ..base.clone()
                },
                expect: Expect::Epoch(mine.len() as u64),
            });
            let mut distinct = mine;
            distinct.dedup();
            let acked: Vec<&Batch> = distinct.iter().map(|&t| self.batch(t)).collect();
            let adj = rebuild(c, &acked);
            for _ in 0..FENCE_ROOTS {
                let root = (xorshift(&mut s) % c.n() as u64) as u32;
                let target = (xorshift(&mut s) % c.n() as u64) as u32;
                let seen = reachable(adj.len(), |u| adj[u as usize].as_slice(), root);
                let count = seen.iter().filter(|&&b| b).count() as u64;
                ops.push(Op {
                    req: Request {
                        workload: Workload::Dfs { root },
                        ..base.clone()
                    },
                    expect: Expect::Visited(count),
                });
                ops.push(Op {
                    req: Request {
                        workload: Workload::Reach { root, target },
                        ..base.clone()
                    },
                    expect: Expect::Reachable(seen[target as usize]),
                });
            }
        }
        for (i, op) in ops.iter_mut().enumerate() {
            op.req.id = FENCE_ID + i as u64;
        }
        ops
    }

    fn probes(&mut self, m: &mut Metrics, _phase: &Phase) -> Result<(), String> {
        small_probes(m, &self.corpora)
    }

    fn params(&self) -> Vec<(String, Value)> {
        let mut p = small_params(&self.corpora, "dfs/reach + add/del-edge writes");
        p.push(("write_frac".into(), Value::Num(WRITE_FRAC)));
        p.push(("write_pool".into(), Value::u64(WRITE_POOL as u64)));
        p.push(("wal_fsync".into(), Value::str(FSYNC)));
        p
    }
}
