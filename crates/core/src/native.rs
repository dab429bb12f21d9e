//! The native multithreaded DiggerBees engine.
//!
//! This is the *library* form of the algorithm: the same two-level
//! stacks and hierarchical stealing as [`crate::sim`], on CPU cores.
//! Each "warp" is a logical worker with its own HotRing and ColdSeg;
//! warps are grouped into "blocks" that share the intra-block stealing
//! domain, and blocks steal from each other exactly as in Algorithm 4.
//! The warps are the slots of one [`crate::gang`] job: the calling
//! thread runs warp 0 and idle helper threads run further warps, so at
//! most as many warps execute as the host has cores. A warp nobody runs
//! keeps empty stacks — work enters a ring only through its own warp —
//! so warp 0 alone can finish any traversal.
//!
//! Concurrency design (DESIGN.md §1): the GPU kernel coordinates ring
//! ends with `atomicCAS` on `tail`/`bottom`; here each HotRing and
//! ColdSeg is guarded by its own `parking_lot::Mutex` with tiny critical
//! sections — an uncontended acquisition is a single CAS, the same cost
//! class, and the protocol (cutoffs, batch sizes, victim selection,
//! flush-from-`tail`) is preserved verbatim. The owner runs up to 32
//! expansion steps (`STEPS_PER_LOCK`) per acquisition of its HotRing and
//! publishes the ring's length once per acquisition, so victim scans
//! never take locks. An intra-block thief only `try_lock`s its victim's
//! ring and counts a miss as a failed steal — the analogue of Alg. 3's
//! failed `atomicCAS` — instead of parking behind the owner.
//!
//! Termination uses credits (`crate::ledger`): a global `live` counter
//! covers every entry anywhere plus the credits warps hold privately. A
//! warp takes credits in batches when it publishes children, retiring
//! an entry returns its credit to the warp's own reserve, and a warp
//! that runs out of local work returns its whole reserve; the return
//! that drains `live` raises the `done` flag. (Entries being copied
//! during a steal stay counted — they are live, merely in transit.)

use crate::cancel::CancelToken;
use crate::config::DiggerBeesConfig;
use crate::ledger::{Ledger, Line, Tally};
use crate::stack::{ColdSeg, Entry, HotRing};
use db_gpu_sim::SimStats;
use db_graph::{CsrGraph, VertexId, NO_PARENT};
use db_trace::{EventKind, NullTracer, PhaseKind, TraceEvent, Tracer};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Tracer plus the engine start time; native engines stamp events with
/// nanoseconds since kernel start (monotone per warp, which is all the
/// exporters require).
pub(crate) struct TraceCtx<'t, T: Tracer> {
    pub(crate) tracer: &'t T,
    pub(crate) t0: Instant,
}

impl<T: Tracer> TraceCtx<'_, T> {
    /// `T::ENABLED` is a compile-time constant: with [`NullTracer`] the
    /// timestamp read, event construction, and call all fold away.
    #[inline(always)]
    pub(crate) fn emit(&self, block: u32, lane: u32, kind: EventKind) {
        if T::ENABLED {
            self.tracer.record(TraceEvent {
                cycle: self.t0.elapsed().as_nanos() as u64,
                block,
                warp: lane,
                kind,
            });
        }
    }
}

/// Configuration for the native engine: the algorithm parameters plus
/// nothing else. `blocks × warps_per_block` is the number of logical
/// warps — the stealing topology — not a thread count: the warps run on
/// the caller plus whichever [`crate::gang`] helpers are idle.
#[derive(Debug, Clone, Copy)]
pub struct NativeConfig {
    /// Algorithm parameters. Defaults scale the block geometry down to
    /// CPU-appropriate sizes (4 blocks × 2 warps = 8 logical warps).
    pub algo: DiggerBeesConfig,
}

impl Default for NativeConfig {
    fn default() -> Self {
        Self {
            algo: DiggerBeesConfig {
                blocks: 4,
                warps_per_block: 2,
                ..DiggerBeesConfig::default()
            },
        }
    }
}

/// Output of a native traversal.
#[derive(Debug, Clone)]
pub struct NativeResult {
    /// Reachability flags.
    pub visited: Vec<bool>,
    /// DFS-tree parents ([`NO_PARENT`] for the root / unvisited).
    pub parent: Vec<u32>,
    /// Steal/flush counters and per-block task counts (`cycles` is 0 —
    /// wall time is in [`NativeResult::wall`]).
    pub stats: SimStats,
    /// Wall-clock duration of the traversal (excluding setup).
    pub wall: Duration,
    /// `false` when the run was stopped early by a [`CancelToken`]; the
    /// output arrays then describe a consistent partial traversal.
    pub completed: bool,
}

impl NativeResult {
    /// Million traversed edges per second by wall clock.
    pub fn mteps(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s == 0.0 {
            return 0.0;
        }
        self.stats.edges_traversed as f64 / s / 1e6
    }
}

/// Owner expansion steps per acquisition of its HotRing.
const STEPS_PER_LOCK: u32 = 32;

struct WarpShared {
    hot: Mutex<HotRing>,
    cold: Mutex<ColdSeg>,
    /// Published `hot_rest` for lock-free victim scans.
    hot_len: AtomicU64,
    /// Published `cold_rest` for lock-free victim scans.
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

impl<'g> Shared<'g> {
    fn block_of(&self, w: u32) -> u32 {
        w / self.cfg.warps_per_block
    }

    /// Try to claim vertex `v`; true if this thread won the CAS.
    fn claim(&self, v: u32) -> bool {
        self.visited[v as usize]
            // relaxed-ok: failure means another worker won the claim; we
            // read nothing it published, so no acquire is needed
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }
}

/// The DiggerBees native engine.
#[derive(Debug, Clone, Default)]
pub struct NativeEngine {
    cfg: NativeConfig,
}

impl NativeEngine {
    /// Creates an engine; `cfg.algo.validate()` is checked at run time.
    pub fn new(cfg: NativeConfig) -> Self {
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

    /// Runs on any [`db_graph::GraphStore`]-backed graph — packed,
    /// mmap-loaded, or in-RAM — without copying: the engine traverses
    /// the store's CSR view in place.
    pub fn run_store(&self, store: &dyn db_graph::GraphStore, root: VertexId) -> NativeResult {
        self.run(store.graph(), root)
    }

    /// [`NativeEngine::run_cancellable`] over a stored graph.
    pub fn run_store_cancellable(
        &self,
        store: &dyn db_graph::GraphStore,
        root: VertexId,
        token: &CancelToken,
    ) -> NativeResult {
        self.run_cancellable(store.graph(), root, token)
    }

    /// Like [`NativeEngine::run`], but every worker polls `token` at the
    /// top of its loop (one poll per work step of up to 32 expansions).
    /// When the token cancels — by hand or by deadline — all workers stop
    /// within one work step and the result comes back with
    /// `completed == false`.
    pub fn run_cancellable(
        &self,
        g: &CsrGraph,
        root: VertexId,
        token: &CancelToken,
    ) -> NativeResult {
        self.run_inner(g, root, &NullTracer, Some(token))
    }

    /// Like [`NativeEngine::run`], recording events into `tracer`.
    ///
    /// Event timestamps are nanoseconds since kernel start; block/warp
    /// provenance maps logical warp `w` to block `w / warps_per_block`,
    /// lane `w % warps_per_block`. With [`NullTracer`] this compiles to
    /// exactly [`NativeEngine::run`].
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
                        hot: Mutex::new(HotRing::new(cfg.hot_size)),
                        cold: Mutex::new(ColdSeg::new(cold_cap)),
                        hot_len: AtomicU64::new(0),
                        cold_len: AtomicU64::new(0),
                    })
                })
                .collect(),
            ledger: Ledger::seeded(cfg.blocks),
        };

        // Seed the root into warp 0 (the ledger already counts it).
        shared.visited[root as usize].store(1, Ordering::Release);
        shared.warps[0]
            .hot
            .lock()
            .push((root, 0))
            .expect("fresh ring");
        shared.warps[0].hot_len.store(1, Ordering::Release);

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
        stats.record_to(db_metrics::global(), "native");
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
    let b = s.block_of(w) as usize;
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
        // Cooperative cancellation poll point: one poll per work step.
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
            // Out of local work: flip to idle and hand back credits.
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

/// Up to [`STEPS_PER_LOCK`] units of DFS progress under one acquisition
/// of the warp's HotRing. Returns false when the warp had no local work
/// left (hot and cold both empty).
fn work_step<T: Tracer>(
    s: &Shared<'_>,
    w: u32,
    b: usize,
    tally: &mut Tally,
    tc: &TraceCtx<'_, T>,
) -> bool {
    let ws = &s.warps[w as usize];
    let mut hot = ws.hot.lock();
    let mut progressed = false;
    for _ in 0..STEPS_PER_LOCK {
        if !owner_step(s, ws, &mut hot, w, b, tally, tc) {
            break;
        }
        progressed = true;
    }
    ws.hot_len.store(hot.len(), Ordering::Release);
    progressed
}

/// One owner step on the locked HotRing: refill, retire or expand.
/// Returns false when hot and cold are both empty.
fn owner_step<T: Tracer>(
    s: &Shared<'_>,
    ws: &WarpShared,
    hot: &mut HotRing,
    w: u32,
    b: usize,
    tally: &mut Tally,
    tc: &TraceCtx<'_, T>,
) -> bool {
    let lane = w % s.cfg.warps_per_block;
    if hot.is_empty() {
        // Refill from own ColdSeg (Figure 2(f)).
        let mut cold = ws.cold.lock();
        if cold.is_empty() {
            return false;
        }
        let batch = cold.take_from_top(hot.capacity() / 2);
        ws.cold_len.store(cold.len(), Ordering::Release);
        drop(cold);
        hot.push_batch(&batch);
        tally.hot_hw = tally.hot_hw.max(hot.len());
        tally.refills += 1;
        tc.emit(
            b as u32,
            lane,
            EventKind::Refill {
                entries: batch.len() as u32,
            },
        );
        return true;
    }

    let (u, off) = hot.top().expect("nonempty");
    let row = s.g.neighbors(u);
    let deg = row.len() as u32;

    // Scan u's remaining neighbors for a vertex we can claim.
    let mut i = off;
    let mut child: Option<Entry> = None;
    while i < deg {
        let v = row[i as usize];
        i += 1;
        // relaxed-ok: optimistic pre-check; claim()'s CAS decides
        if s.visited[v as usize].load(Ordering::Relaxed) != 0 {
            continue;
        }
        if s.claim(v) {
            s.parent[v as usize].store(u, Ordering::Release);
            child = Some((v, 0));
            break;
        }
        tally.cas_failures += 1;
    }
    tally.edges += (i - off) as u64;
    let Some((v, _)) = child else {
        // Row exhausted without a claim: the entry dies.
        hot.pop();
        tally.retire(&s.ledger);
        tc.emit(b as u32, lane, EventKind::Pop { vertex: u });
        return true;
    };
    // Credit the new entry before any thief can see it.
    tally.push_child(&s.ledger);
    hot.update_top((u, i));
    if hot.is_full() {
        // Flush the oldest entries to the ColdSeg (Figure 2(e)).
        let batch = hot.take_from_tail(s.cfg.flush_batch as u64);
        let mut cold = ws.cold.lock();
        cold.push_top(&batch);
        ws.cold_len.store(cold.len(), Ordering::Release);
        tally.cold_hw = tally.cold_hw.max(cold.len());
        drop(cold);
        tally.flushes += 1;
        tc.emit(
            b as u32,
            lane,
            EventKind::Flush {
                entries: batch.len() as u32,
            },
        );
    }
    hot.push((v, 0)).expect("flush guarantees space");
    tally.hot_hw = tally.hot_hw.max(hot.len());
    tc.emit(b as u32, lane, EventKind::Push { vertex: v });
    true
}

/// One steal attempt for an idle warp. Returns true if work was acquired.
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

    // --- Intra-block (Algorithm 3) ---
    let mut max_rest = 0u64;
    let mut victim = None;
    for peer in first..first + wpb {
        if peer == w {
            continue;
        }
        let rest = s.warps[peer as usize].hot_len.load(Ordering::Acquire);
        if rest > max_rest {
            max_rest = rest;
            victim = Some(peer);
        }
    }
    if let Some(v) = victim {
        if max_rest >= cfg.hot_cutoff as u64 {
            let vs = &s.warps[v as usize];
            // A held lock is a lost race, as a failed atomicCAS is in
            // Alg. 3; re-validate the length under the lock.
            if let Some(mut vhot) = vs.hot.try_lock() {
                if vhot.len() >= cfg.hot_cutoff as u64 {
                    let batch = vhot.take_from_tail(cfg.hot_steal_batch() as u64);
                    vs.hot_len.store(vhot.len(), Ordering::Release);
                    drop(vhot);
                    deposit(s, w, &batch, tally);
                    tally.steals_intra += 1;
                    tc.emit(
                        b as u32,
                        lane,
                        EventKind::StealIntra {
                            victim_warp: v % wpb,
                            entries: batch.len() as u32,
                        },
                    );
                    return true;
                }
            }
            tally.steal_failures += 1;
            tc.emit(b as u32, lane, EventKind::StealFail { victim: v % wpb });
        }
    }

    // --- Inter-block (Algorithm 4): leader warp of an idle block ---
    if !cfg.inter_block || cfg.blocks <= 1 || w != first {
        return false;
    }
    if !s.ledger.block_idle(b) {
        return false;
    }
    let candidate = select_victim_block(s, b as u32, rng);
    let Some(vb) = candidate else { return false };
    // Victim warp: max published cold_rest in the victim block.
    let vfirst = vb * wpb;
    let mut best: Option<(u64, u32)> = None;
    for peer in vfirst..vfirst + wpb {
        let rest = s.warps[peer as usize].cold_len.load(Ordering::Acquire);
        if best.is_none_or(|(br, _)| rest > br) && rest > 0 {
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
    deposit(s, w, &batch, tally);
    tally.steals_inter += 1;
    tc.emit(
        b as u32,
        lane,
        EventKind::StealInter {
            victim_block: vb,
            entries: batch.len() as u32,
        },
    );
    true
}

/// Power-of-two-choices (or uniform random) victim-block selection.
fn select_victim_block(s: &Shared<'_>, my_block: u32, rng: &mut SmallRng) -> Option<u32> {
    let nb = s.cfg.blocks;
    match s.cfg.victim_policy {
        crate::config::VictimPolicy::Random => {
            // Blind single sample — the Fig. 9 baseline has no load info.
            let c = rng.gen_range(0..nb);
            if c == my_block {
                None
            } else {
                Some(c)
            }
        }
        crate::config::VictimPolicy::TwoChoice => {
            let mut best: Option<(i64, u32)> = None;
            let mut found = 0;
            for _ in 0..8 {
                let c = rng.gen_range(0..nb);
                if c == my_block || s.ledger.block_idle(c as usize) {
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
            best.map(|(_, c)| c)
        }
    }
}

/// Places stolen entries into the thief's (empty) HotRing.
fn deposit(s: &Shared<'_>, w: u32, batch: &[Entry], tally: &mut Tally) {
    let ws = &s.warps[w as usize];
    let mut hot = ws.hot.lock();
    hot.push_batch(batch);
    ws.hot_len.store(hot.len(), Ordering::Release);
    tally.hot_hw = tally.hot_hw.max(hot.len());
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn traverses_figure1() {
        let g = GraphBuilder::undirected(6)
            .edges([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (2, 5)])
            .build();
        let out = NativeEngine::new(small_cfg()).run(&g, 0);
        check_reachability(&g, 0, &out.visited).unwrap();
        check_spanning_tree(&g, 0, &out.visited, &out.parent).unwrap();
        assert_eq!(out.stats.vertices_visited, 6);
    }

    #[test]
    fn grid_traversal_valid() {
        let g = grid(50, 50);
        let out = NativeEngine::new(small_cfg()).run(&g, 17);
        check_reachability(&g, 17, &out.visited).unwrap();
        check_spanning_tree(&g, 17, &out.visited, &out.parent).unwrap();
        assert_eq!(out.stats.edges_traversed, g.num_arcs() as u64);
    }

    #[test]
    fn deep_path_exercises_flush_refill() {
        // Single warp so thieves cannot drain the ring before it fills.
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
        let out = NativeEngine::new(cfg).run(&g, 0);
        check_reachability(&g, 0, &out.visited).unwrap();
        assert!(out.stats.flushes > 0);
        assert!(out.stats.refills > 0);
    }

    #[test]
    fn disconnected_graph_partial_visit() {
        let mut b = GraphBuilder::undirected(10);
        b.edge(0, 1);
        b.edge(5, 6);
        let g = b.build();
        let out = NativeEngine::new(small_cfg()).run(&g, 0);
        assert!(out.visited[0] && out.visited[1]);
        assert!(!out.visited[5] && !out.visited[6]);
    }

    #[test]
    fn default_config_runs() {
        // Defaults use 8 logical warps; make sure they terminate on a small graph.
        let g = grid(20, 20);
        let out = NativeEngine::new(NativeConfig::default()).run(&g, 0);
        check_reachability(&g, 0, &out.visited).unwrap();
    }

    #[test]
    fn stress_repeat_runs_agree_on_reachability() {
        let g = grid(30, 30);
        for _ in 0..5 {
            let out = NativeEngine::new(small_cfg()).run(&g, 0);
            check_reachability(&g, 0, &out.visited).unwrap();
            check_spanning_tree(&g, 0, &out.visited, &out.parent).unwrap();
        }
    }

    #[test]
    fn mteps_is_positive() {
        let g = grid(40, 40);
        let out = NativeEngine::new(small_cfg()).run(&g, 0);
        assert!(out.mteps() > 0.0);
        assert!(out.wall > Duration::ZERO);
    }

    #[test]
    fn precancelled_token_stops_immediately() {
        let g = grid(60, 60);
        let token = CancelToken::new();
        token.cancel();
        let out = NativeEngine::new(small_cfg()).run_cancellable(&g, 0, &token);
        assert!(!out.completed);
        // Workers poll before their first step, so (at most) the
        // pre-seeded root is marked.
        assert!(out.visited.iter().filter(|&&v| v).count() < g.num_vertices());
    }

    #[test]
    fn uncancelled_token_runs_to_completion() {
        let g = grid(30, 30);
        let token = CancelToken::new();
        let out = NativeEngine::new(small_cfg()).run_cancellable(&g, 0, &token);
        assert!(out.completed);
        check_reachability(&g, 0, &out.visited).unwrap();
        check_spanning_tree(&g, 0, &out.visited, &out.parent).unwrap();
    }

    #[test]
    fn expired_deadline_yields_partial_but_consistent_prefix() {
        // A long path forces a serial frontier, so the traversal cannot
        // finish before the (already expired) deadline is observed at
        // the first poll point.
        let n = 200_000u32;
        let g = GraphBuilder::undirected(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .build();
        let token = CancelToken::with_deadline(std::time::Instant::now());
        let out = NativeEngine::new(small_cfg()).run_cancellable(&g, 0, &token);
        assert!(!out.completed);
        // The visited prefix must still be parent-consistent: every
        // visited non-root vertex has a visited parent.
        for v in 1..n as usize {
            if out.visited[v] {
                let p = out.parent[v];
                assert!(p != NO_PARENT && out.visited[p as usize]);
            }
        }
    }

    #[test]
    fn run_records_into_global_registry() {
        let runs = db_metrics::global().counter(
            "db_engine_runs_total",
            "Completed traversal runs per engine",
            &[("engine", "native")],
        );
        let before = runs.get();
        let out = NativeEngine::new(small_cfg()).run(&grid(20, 20), 0);
        assert!(out.stats.hot_high_water >= 1);
        assert!(runs.get() > before, "run must bump the global run counter");
    }

    #[test]
    fn run_store_matches_run() {
        let g = grid(12, 12);
        let store: &dyn db_graph::GraphStore = &g;
        let direct = NativeEngine::new(small_cfg()).run(&g, 0);
        let stored = NativeEngine::new(small_cfg()).run_store(store, 0);
        assert_eq!(stored.visited, direct.visited);
        let token = CancelToken::new();
        let cancellable = NativeEngine::new(small_cfg()).run_store_cancellable(store, 0, &token);
        assert!(cancellable.completed);
        assert_eq!(cancellable.visited, direct.visited);
    }

    #[test]
    fn single_thread_config() {
        let g = grid(15, 15);
        let cfg = NativeConfig {
            algo: DiggerBeesConfig {
                blocks: 1,
                warps_per_block: 1,
                inter_block: false,
                ..small_cfg().algo
            },
        };
        let out = NativeEngine::new(cfg).run(&g, 0);
        check_spanning_tree(&g, 0, &out.visited, &out.parent).unwrap();
        assert_eq!(out.stats.steals_intra + out.stats.steals_inter, 0);
    }
}
