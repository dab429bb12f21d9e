//! Lock-free variant of the native engine.
//!
//! Same algorithm as [`crate::native`] — two-level stacks, intra-block
//! and inter-block stealing — but the HotRing uses the GPU-faithful
//! lock-free CAS protocol ([`crate::lockfree::StampedRing`]) instead of
//! a mutex: victim scans read the packed control word, intra-block
//! thieves reserve batches with a CAS at `tail`, and the owner claims
//! entries at `head`. The ColdSeg stays behind a mutex (inter-block
//! steals are rare by design — that is what `cold_cutoff` is for).
//!
//! The owner uses pop-process-push instead of in-place `updateTop`
//! (see the protocol note in [`crate::lockfree`]). Termination uses the
//! same credits as the locked engine (`crate::ledger`): `live` counts
//! every entry, including the one in the owner's hand, plus the credits
//! warps hold privately; a warp takes credits in batches, retiring an
//! entry refunds its credit to the warp's reserve, an idle warp returns
//! its reserve, and the return that drains `live` terminates.

use crate::cancel::CancelToken;
use crate::config::DiggerBeesConfig;
use crate::ledger::{Ledger, Line, Tally};
use crate::lockfree::StampedRing;
use crate::native::{NativeResult, TraceCtx};
use crate::stack::{ColdSeg, Entry};
use db_graph::{CsrGraph, VertexId, NO_PARENT};
use db_trace::{EventKind, NullTracer, PhaseKind, Tracer};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

struct WarpShared {
    hot: StampedRing,
    cold: Mutex<ColdSeg>,
    cold_len: AtomicU64,
}

struct Shared<'g> {
    g: &'g CsrGraph,
    cfg: DiggerBeesConfig,
    visited: Vec<AtomicU8>,
    parent: Vec<AtomicU32>,
    /// One line per warp, so an owner's ring traffic stays off its
    /// neighbours' lines.
    warps: Vec<Line<WarpShared>>,
    ledger: Ledger,
}

/// Lock-free-HotRing DiggerBees engine (same API as
/// [`crate::native::NativeEngine`]).
#[derive(Debug, Clone, Default)]
pub struct LockFreeEngine {
    cfg: crate::native::NativeConfig,
}

impl LockFreeEngine {
    /// Creates an engine.
    pub fn new(cfg: crate::native::NativeConfig) -> Self {
        Self { cfg }
    }

    /// Runs parallel DFS on `g` from `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range or the configuration is invalid.
    pub fn run(&self, g: &CsrGraph, root: VertexId) -> NativeResult {
        self.run_traced(g, root, &NullTracer)
    }

    /// Runs on any [`db_graph::GraphStore`]-backed graph (same contract
    /// as [`crate::native::NativeEngine::run_store`]).
    pub fn run_store(&self, store: &dyn db_graph::GraphStore, root: VertexId) -> NativeResult {
        self.run(store.graph(), root)
    }

    /// [`LockFreeEngine::run_cancellable`] over a stored graph.
    pub fn run_store_cancellable(
        &self,
        store: &dyn db_graph::GraphStore,
        root: VertexId,
        token: &CancelToken,
    ) -> NativeResult {
        self.run_cancellable(store.graph(), root, token)
    }

    /// Like [`LockFreeEngine::run`], polling `token` at every worker
    /// step (same contract as
    /// [`crate::native::NativeEngine::run_cancellable`]).
    pub fn run_cancellable(
        &self,
        g: &CsrGraph,
        root: VertexId,
        token: &CancelToken,
    ) -> NativeResult {
        self.run_inner(g, root, &NullTracer, Some(token))
    }

    /// Like [`LockFreeEngine::run`], recording events into `tracer`
    /// (same provenance scheme as
    /// [`crate::native::NativeEngine::run_traced`]).
    pub fn run_traced<T: Tracer>(&self, g: &CsrGraph, root: VertexId, tracer: &T) -> NativeResult {
        self.run_inner(g, root, tracer, None)
    }

    pub(crate) fn run_inner<T: Tracer>(
        &self,
        g: &CsrGraph,
        root: VertexId,
        tracer: &T,
        cancel: Option<&CancelToken>,
    ) -> NativeResult {
        let cfg = self.cfg.algo;
        cfg.validate();
        crate::graph_check::assert_valid_input(g, root);
        let n = g.num_vertices();
        let nw = cfg.total_warps();
        let cold_cap = ((n as u32) / nw.max(1)).max(4 * cfg.cold_cutoff);

        let shared = Shared {
            g,
            cfg,
            visited: (0..n).map(|_| AtomicU8::new(0)).collect(),
            parent: (0..n).map(|_| AtomicU32::new(NO_PARENT)).collect(),
            warps: (0..nw)
                .map(|_| {
                    Line(WarpShared {
                        hot: StampedRing::new(cfg.hot_size),
                        cold: Mutex::new(ColdSeg::new(cold_cap)),
                        cold_len: AtomicU64::new(0),
                    })
                })
                .collect(),
            ledger: Ledger::seeded(cfg.blocks),
        };

        // Seed the root into warp 0 (the ledger already counts it).
        shared.visited[root as usize].store(1, Ordering::Release);
        shared.warps[0].hot.push((root, 0)).expect("fresh ring");

        let start = Instant::now();
        let tc = TraceCtx { tracer, t0: start };
        tc.emit(
            0,
            0,
            EventKind::KernelPhase {
                phase: PhaseKind::Start,
            },
        );
        tc.emit(0, 0, EventKind::Push { vertex: root });
        crate::gang::run(nw as usize, &|w| {
            worker(
                &shared,
                w as u32,
                w == 0,
                &tc,
                cancel.map(CancelToken::poller),
            )
        });
        let wall = start.elapsed();
        tc.emit(
            0,
            0,
            EventKind::KernelPhase {
                phase: PhaseKind::Finish,
            },
        );

        let (stats, completed) = shared.ledger.finish();
        stats.record_to(db_metrics::global(), "lockfree");
        NativeResult {
            visited: shared
                .visited
                .iter()
                .map(|a| a.load(Ordering::Acquire) != 0)
                .collect(),
            parent: shared
                .parent
                .iter()
                .map(|a| a.load(Ordering::Acquire))
                .collect(),
            stats,
            wall,
            completed,
        }
    }
}

fn worker<T: Tracer>(
    s: &Shared<'_>,
    w: u32,
    initially_active: bool,
    tc: &TraceCtx<'_, T>,
    mut poller: Option<crate::cancel::CancelPoller>,
) {
    let cfg = s.cfg;
    let b = (w / cfg.warps_per_block) as usize;
    let lane = w % cfg.warps_per_block;
    let mut rng =
        SmallRng::seed_from_u64(cfg.seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut active = initially_active;
    let mut backoff = 0u32;
    let mut tally = Tally::new(b);

    loop {
        if s.ledger.is_done() {
            break;
        }
        // Cooperative cancellation poll point: one poll per step.
        if let Some(p) = poller.as_mut() {
            if p.poll() {
                s.ledger.cancel();
                break;
            }
        }
        if active {
            if work_step(s, w, b, &mut tally, tc) {
                backoff = 0;
                continue;
            }
            active = false;
            tally.go_idle(&s.ledger);
            tc.emit(b as u32, lane, EventKind::WarpIdle);
            continue;
        }
        if steal_step(s, w, b, &mut rng, &mut tally, tc) {
            active = true;
            backoff = 0;
            tally.wake(&s.ledger);
            continue;
        }
        backoff = (backoff + 1).min(16);
        if backoff < 4 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    tally.exit(&s.ledger);
}

/// One pop-process-push step. Returns false when out of local work.
fn work_step<T: Tracer>(
    s: &Shared<'_>,
    w: u32,
    b: usize,
    tally: &mut Tally,
    tc: &TraceCtx<'_, T>,
) -> bool {
    let lane = w % s.cfg.warps_per_block;
    let ws = &s.warps[w as usize];
    let Some((u, off)) = ws.hot.pop() else {
        // Refill from own ColdSeg.
        let mut cold = ws.cold.lock();
        if cold.is_empty() {
            return false;
        }
        let batch = cold.take_from_top(ws.hot.capacity() as u64 / 2);
        ws.cold_len.store(cold.len(), Ordering::Release);
        drop(cold);
        let entries = batch.len() as u32;
        for e in batch {
            ws.hot.push(e).expect("refill fits an empty ring");
        }
        tally.hot_hw = tally.hot_hw.max(ws.hot.len() as u64);
        tally.refills += 1;
        tc.emit(b as u32, lane, EventKind::Refill { entries });
        return true;
    };

    let row = s.g.neighbors(u);
    let deg = row.len() as u32;
    let mut i = off;
    let mut child: Option<Entry> = None;
    while i < deg {
        let v = row[i as usize];
        i += 1;
        // relaxed-ok: optimistic pre-check; the CAS below decides
        if s.visited[v as usize].load(Ordering::Relaxed) != 0 {
            continue;
        }
        // relaxed-ok: CAS failure means another worker won the claim; we
        // read nothing it published, so no acquire is needed
        if s.visited[v as usize]
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            s.parent[v as usize].store(u, Ordering::Release);
            child = Some((v, 0));
            break;
        }
        tally.cas_failures += 1;
    }
    tally.edges += (i - off) as u64;
    match child {
        Some((v, _)) => {
            // Credit the new entry BEFORE publishing it.
            tally.push_child(&s.ledger);
            // Push the continuation then the child (child on top).
            push_with_flush(s, w, (u, i), tally, tc);
            push_with_flush(s, w, (v, 0), tally, tc);
            tc.emit(b as u32, lane, EventKind::Push { vertex: v });
        }
        None => {
            tally.retire(&s.ledger);
            tc.emit(b as u32, lane, EventKind::Pop { vertex: u });
        }
    }
    true
}

/// Push, flushing the oldest entries to the ColdSeg when the ring is
/// full (the flush consumes from `tail` through the same steal path a
/// thief uses, so it composes with concurrent steals).
fn push_with_flush<T: Tracer>(
    s: &Shared<'_>,
    w: u32,
    e: Entry,
    tally: &mut Tally,
    tc: &TraceCtx<'_, T>,
) {
    let ws = &s.warps[w as usize];
    loop {
        match ws.hot.push(e) {
            Ok(()) => {
                tally.hot_hw = tally.hot_hw.max(ws.hot.len() as u64);
                return;
            }
            Err(_) => {
                let batch = ws.hot.take_from_tail(s.cfg.flush_batch, 1, 4);
                if batch.is_empty() {
                    // Thieves are draining the ring; retry the push.
                    std::hint::spin_loop();
                    continue;
                }
                let mut cold = ws.cold.lock();
                cold.push_top(&batch);
                ws.cold_len.store(cold.len(), Ordering::Release);
                tally.cold_hw = tally.cold_hw.max(cold.len());
                drop(cold);
                tally.flushes += 1;
                tc.emit(
                    w / s.cfg.warps_per_block,
                    w % s.cfg.warps_per_block,
                    EventKind::Flush {
                        entries: batch.len() as u32,
                    },
                );
            }
        }
    }
}

fn steal_step<T: Tracer>(
    s: &Shared<'_>,
    w: u32,
    b: usize,
    rng: &mut SmallRng,
    tally: &mut Tally,
    tc: &TraceCtx<'_, T>,
) -> bool {
    let cfg = s.cfg;
    let wpb = cfg.warps_per_block;
    let first = b as u32 * wpb;
    let lane = w % wpb;

    // Intra-block: CAS reservation straight on the victim's ring.
    let mut max_rest = 0u32;
    let mut victim = None;
    for peer in first..first + wpb {
        if peer == w {
            continue;
        }
        let rest = s.warps[peer as usize].hot.len();
        if rest > max_rest {
            max_rest = rest;
            victim = Some(peer);
        }
    }
    if let Some(v) = victim {
        if max_rest >= cfg.hot_cutoff {
            let batch =
                s.warps[v as usize]
                    .hot
                    .take_from_tail(cfg.hot_steal_batch(), cfg.hot_cutoff, 2);
            if batch.is_empty() {
                tally.steal_failures += 1;
                tc.emit(b as u32, lane, EventKind::StealFail { victim: v % wpb });
            } else {
                let entries = batch.len() as u32;
                for e in batch {
                    push_with_flush(s, w, e, tally, tc);
                }
                tally.steals_intra += 1;
                tc.emit(
                    b as u32,
                    lane,
                    EventKind::StealIntra {
                        victim_warp: v % wpb,
                        entries,
                    },
                );
                return true;
            }
        }
    }

    // Inter-block: leader warp of an idle block; ColdSeg under its lock.
    if !cfg.inter_block || cfg.blocks <= 1 || w != first {
        return false;
    }
    if !s.ledger.block_idle(b) {
        return false;
    }
    let vb = match cfg.victim_policy {
        crate::config::VictimPolicy::Random => {
            let c = rng.gen_range(0..cfg.blocks);
            if c == b as u32 {
                return false;
            }
            c
        }
        crate::config::VictimPolicy::TwoChoice => {
            let mut best: Option<(i64, u32)> = None;
            let mut found = 0;
            for _ in 0..8 {
                let c = rng.gen_range(0..cfg.blocks);
                if c == b as u32 || s.ledger.block_idle(c as usize) {
                    continue;
                }
                let load = s.ledger.pending(c as usize);
                if best.is_none_or(|(bl, _)| load > bl) {
                    best = Some((load, c));
                }
                found += 1;
                if found == 2 {
                    break;
                }
            }
            match best {
                Some((_, c)) => c,
                None => return false,
            }
        }
    };
    let vfirst = vb * wpb;
    let mut best: Option<(u64, u32)> = None;
    for peer in vfirst..vfirst + wpb {
        let rest = s.warps[peer as usize].cold_len.load(Ordering::Acquire);
        if rest > 0 && best.is_none_or(|(br, _)| rest > br) {
            best = Some((rest, peer));
        }
    }
    let Some((rest, vw)) = best else { return false };
    if rest < cfg.cold_cutoff as u64 {
        return false;
    }
    let vs = &s.warps[vw as usize];
    let mut vcold = vs.cold.lock();
    if vcold.len() < cfg.cold_cutoff as u64 {
        drop(vcold);
        tally.steal_failures += 1;
        tc.emit(b as u32, lane, EventKind::StealFail { victim: vb });
        return false;
    }
    let batch = vcold.take_from_bottom(cfg.cold_steal_batch() as u64);
    vs.cold_len.store(vcold.len(), Ordering::Release);
    drop(vcold);
    tally.took_from_block(&s.ledger, vb as usize, batch.len() as i64);
    let entries = batch.len() as u32;
    for e in batch {
        push_with_flush(s, w, e, tally, tc);
    }
    tally.steals_inter += 1;
    tc.emit(
        b as u32,
        lane,
        EventKind::StealInter {
            victim_block: vb,
            entries,
        },
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::NativeConfig;
    use db_graph::validate::{check_reachability, check_spanning_tree};
    use db_graph::GraphBuilder;

    fn grid(w: u32, h: u32) -> CsrGraph {
        let mut b = GraphBuilder::undirected(w * h);
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    b.edge(y * w + x, y * w + x + 1);
                }
                if y + 1 < h {
                    b.edge(y * w + x, (y + 1) * w + x);
                }
            }
        }
        b.build()
    }

    fn small_cfg() -> NativeConfig {
        NativeConfig {
            algo: DiggerBeesConfig {
                blocks: 2,
                warps_per_block: 2,
                hot_size: 16,
                hot_cutoff: 4,
                cold_cutoff: 8,
                flush_batch: 8,
                ..Default::default()
            },
        }
    }

    #[test]
    fn lockfree_traverses_grid() {
        let g = grid(40, 40);
        let out = LockFreeEngine::new(small_cfg()).run(&g, 0);
        check_reachability(&g, 0, &out.visited).unwrap();
        check_spanning_tree(&g, 0, &out.visited, &out.parent).unwrap();
        assert_eq!(out.stats.edges_traversed, g.num_arcs() as u64);
    }

    #[test]
    fn lockfree_deep_path_flushes() {
        let n = 5000u32;
        let g = GraphBuilder::undirected(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .build();
        let cfg = NativeConfig {
            algo: DiggerBeesConfig {
                blocks: 1,
                warps_per_block: 1,
                inter_block: false,
                ..small_cfg().algo
            },
        };
        let out = LockFreeEngine::new(cfg).run(&g, 0);
        check_reachability(&g, 0, &out.visited).unwrap();
        assert!(out.stats.flushes > 0);
    }

    #[test]
    fn lockfree_repeat_stress() {
        let g = grid(30, 30);
        for _ in 0..8 {
            let out = LockFreeEngine::new(small_cfg()).run(&g, 0);
            check_reachability(&g, 0, &out.visited).unwrap();
            check_spanning_tree(&g, 0, &out.visited, &out.parent).unwrap();
        }
    }

    #[test]
    fn lockfree_matches_locked_engine() {
        let g = grid(35, 35);
        let locked = crate::native::NativeEngine::new(small_cfg()).run(&g, 3);
        let lockfree = LockFreeEngine::new(small_cfg()).run(&g, 3);
        assert_eq!(locked.visited, lockfree.visited);
        assert_eq!(
            locked.stats.vertices_visited,
            lockfree.stats.vertices_visited
        );
    }

    #[test]
    fn lockfree_disconnected() {
        let mut b = GraphBuilder::undirected(10);
        b.edge(0, 1);
        b.edge(5, 6);
        let g = b.build();
        let out = LockFreeEngine::new(small_cfg()).run(&g, 0);
        assert!(out.visited[1] && !out.visited[5]);
    }
}
