//! Per-run accounting shared by the native engines ([`crate::native`]
//! and [`crate::native_lockfree`]): termination, the advisory per-block
//! load signal, and the statistics each warp keeps to itself.
//!
//! In the paper the owner warp works at its HotRing's head without
//! contention; only thieves touch shared state. The ledger keeps the
//! CPU engines' per-vertex path equally local, so a warp writes a
//! shared cache line only when work moves between warps:
//!
//! * **Termination credits.** `live` counts the entries that exist
//!   anywhere (rings, segments, a warp's hand, in transit during a
//!   steal) *plus* the credits warps hold in private reserves. A warp
//!   that publishes a child spends one credit from its reserve; when
//!   the reserve is empty it first takes [`CREDIT_BATCH`] credits with
//!   one `fetch_add`. Retiring an entry puts its credit back into the
//!   retiring warp's reserve, with no global operation. A warp that
//!   runs out of local work, and every warp at exit, returns its whole
//!   reserve with one `fetch_sub`; the return that brings `live` to
//!   zero raises `done`. So `live == 0` still means that no entry
//!   exists and no warp holds credits: every warp is idle and none can
//!   obtain work again. The protocol is model-checked as
//!   `db_check::proto_model`.
//! * **Batched load signal.** `pending[b]`, the Alg. 4 load estimate,
//!   is read only by two-choice victim selection. Each warp accumulates
//!   its changes as a private delta and publishes it once the delta
//!   reaches [`PENDING_BATCH`] entries and whenever the warp goes idle;
//!   an inter-block steal moves the stolen count between the blocks
//!   directly.
//! * **Isolated lines.** `live`, `done`, each block's load line and
//!   (in the engines) each warp's ring state sit on separate 128-byte
//!   lines ([`Line`]), so one warp's writes never invalidate the line
//!   another warp polls.
//!
//! Statistics ([`Tally`]) stay warp-private and are merged once when
//! the warp exits.

use db_gpu_sim::SimStats;
use parking_lot::Mutex;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, Ordering};

/// Credits a warp takes from `live` at a time.
const CREDIT_BATCH: i64 = 64;

/// Size of a warp's private `pending` delta that forces a publish.
const PENDING_BATCH: i64 = 16;

/// A value alone on a 128-byte line: two 64-byte lines, because the
/// adjacent-line prefetcher moves them in pairs.
#[repr(align(128))]
pub(crate) struct Line<T>(pub(crate) T);

impl<T> Deref for Line<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// One block's shared load state.
struct BlockLoad {
    /// Pending entries in the block — the Alg. 4 load signal. Advisory:
    /// warps publish it in batches, so it lags by a few entries.
    pending: AtomicI64,
    /// Active warps in the block — the §3.4 mask, as a counter.
    active: AtomicU32,
}

/// The shared half of the accounting: one per run.
pub(crate) struct Ledger {
    /// Entries alive anywhere plus credits held in warps' reserves.
    live: Line<AtomicI64>,
    done: Line<AtomicBool>,
    /// Set when a worker observed a cancelled token and raised `done`.
    cancelled: AtomicBool,
    blocks: Vec<Line<BlockLoad>>,
    /// Every exited warp's [`Tally`], plus tasks per block.
    totals: Mutex<(Tally, Vec<u64>)>,
}

impl Ledger {
    /// A ledger for `blocks` blocks with the root already seeded into
    /// warp 0: one live entry, pending and active in block 0.
    pub(crate) fn seeded(blocks: u32) -> Self {
        let blocks: Vec<Line<BlockLoad>> = (0..blocks)
            .map(|b| {
                let root = i64::from(b == 0);
                Line(BlockLoad {
                    pending: AtomicI64::new(root),
                    active: AtomicU32::new(root as u32),
                })
            })
            .collect();
        let mut tasks = vec![0; blocks.len()];
        tasks[0] = 1;
        let root = Tally {
            vertices: 1,
            hot_hw: 1,
            ..Tally::default()
        };
        Ledger {
            live: Line(AtomicI64::new(1)),
            done: Line(AtomicBool::new(false)),
            cancelled: AtomicBool::new(false),
            blocks,
            totals: Mutex::new((root, tasks)),
        }
    }

    /// Whether the traversal is over (drained or cancelled).
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Stops every warp after a cancelled poll.
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        self.done.store(true, Ordering::Release);
    }

    /// Whether block `b` has no active warp.
    pub(crate) fn block_idle(&self, b: usize) -> bool {
        self.blocks[b].active.load(Ordering::Acquire) == 0
    }

    /// Block `b`'s published load estimate.
    pub(crate) fn pending(&self, b: usize) -> i64 {
        // relaxed-ok: advisory estimate; staleness is tolerated
        self.blocks[b].pending.load(Ordering::Relaxed)
    }

    /// Returns `credits` to `live`; the return that drains it raises
    /// `done`.
    fn give_back(&self, credits: i64) {
        if credits > 0 && self.live.fetch_sub(credits, Ordering::AcqRel) == credits {
            self.done.store(true, Ordering::Release);
        }
    }

    fn publish_pending(&self, b: usize, delta: i64) {
        if delta != 0 {
            // relaxed-ok: pending is an advisory load estimate read only
            // by two-choice victim selection; nothing is published under it
            self.blocks[b].pending.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The run's statistics and whether it completed. Call after the
    /// gang job has returned.
    pub(crate) fn finish(&self) -> (SimStats, bool) {
        let completed = !self.cancelled.load(Ordering::Acquire);
        debug_assert!(!completed || self.live.load(Ordering::SeqCst) == 0);
        let totals = self.totals.lock();
        let (t, tasks) = &*totals;
        let mut stats = SimStats::new(tasks.len());
        stats.vertices_visited = t.vertices;
        stats.edges_traversed = t.edges;
        stats.steals_intra = t.steals_intra;
        stats.steals_inter = t.steals_inter;
        stats.steal_failures = t.steal_failures;
        stats.flushes = t.flushes;
        stats.refills = t.refills;
        stats.visited_cas_failures = t.cas_failures;
        stats.hot_high_water = t.hot_hw;
        stats.cold_high_water = t.cold_hw;
        stats.tasks_per_block = tasks.clone();
        (stats, completed)
    }
}

/// The private half of the accounting: one per warp, touched without
/// atomics on the per-vertex path. Statistics are plain counters the
/// engines bump directly; credits and the pending delta go through the
/// methods, which reach the [`Ledger`] only in batches.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) edges: u64,
    pub(crate) hot_hw: u64,
    pub(crate) cold_hw: u64,
    pub(crate) flushes: u64,
    pub(crate) refills: u64,
    pub(crate) cas_failures: u64,
    pub(crate) steals_intra: u64,
    pub(crate) steals_inter: u64,
    pub(crate) steal_failures: u64,
    /// Vertices this warp claimed; each is one task of its block.
    vertices: u64,
    block: usize,
    /// Credits taken from `live` and not yet spent or returned.
    reserve: i64,
    /// Change to the block's `pending` not yet published.
    pending: i64,
}

impl Tally {
    /// A warp's tally in block `block`.
    pub(crate) fn new(block: usize) -> Self {
        Tally {
            block,
            ..Tally::default()
        }
    }

    /// Accounts for a freshly claimed vertex whose entry is about to be
    /// published. Must run BEFORE the entry becomes visible: a thief
    /// may consume it at once, and `live` must never under-count while
    /// the parent continuation exists.
    pub(crate) fn push_child(&mut self, l: &Ledger) {
        self.vertices += 1;
        if self.reserve == 0 {
            l.live.fetch_add(CREDIT_BATCH, Ordering::AcqRel);
            self.reserve = CREDIT_BATCH;
        }
        self.reserve -= 1;
        self.note_pending(l, 1);
    }

    /// Accounts for an exhausted entry leaving the warp's hand: its
    /// credit goes back into the reserve.
    pub(crate) fn retire(&mut self, l: &Ledger) {
        self.reserve += 1;
        self.note_pending(l, -1);
    }

    fn note_pending(&mut self, l: &Ledger, d: i64) {
        self.pending += d;
        if self.pending.abs() >= PENDING_BATCH {
            l.publish_pending(self.block, std::mem::take(&mut self.pending));
        }
    }

    /// The warp ran out of local work: publish its pending delta, leave
    /// the block's active mask and return every credit it holds.
    pub(crate) fn go_idle(&mut self, l: &Ledger) {
        l.publish_pending(self.block, std::mem::take(&mut self.pending));
        l.blocks[self.block].active.fetch_sub(1, Ordering::AcqRel);
        l.give_back(std::mem::take(&mut self.reserve));
    }

    /// The warp stole work and is active again.
    pub(crate) fn wake(&self, l: &Ledger) {
        l.blocks[self.block].active.fetch_add(1, Ordering::AcqRel);
    }

    /// An inter-block steal moved `k` entries from block `victim` into
    /// this (idle, so already published) warp's block.
    pub(crate) fn took_from_block(&self, l: &Ledger, victim: usize, k: i64) {
        l.publish_pending(victim, -k);
        l.publish_pending(self.block, k);
    }

    /// The warp exits: return any credits left (only a cancelled run
    /// leaves some) and merge the statistics once.
    pub(crate) fn exit(mut self, l: &Ledger) {
        l.give_back(std::mem::take(&mut self.reserve));
        let mut totals = l.totals.lock();
        let (t, tasks) = &mut *totals;
        t.edges += self.edges;
        t.vertices += self.vertices;
        t.flushes += self.flushes;
        t.refills += self.refills;
        t.cas_failures += self.cas_failures;
        t.steals_intra += self.steals_intra;
        t.steals_inter += self.steals_inter;
        t.steal_failures += self.steal_failures;
        t.hot_hw = t.hot_hw.max(self.hot_hw);
        t.cold_hw = t.cold_hw.max(self.cold_hw);
        tasks[self.block] += self.vertices;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_isolated() {
        assert_eq!(std::mem::align_of::<Line<AtomicI64>>(), 128);
        assert_eq!(std::mem::size_of::<Line<AtomicBool>>(), 128);
        let l = Ledger::seeded(4);
        let a = &*l.blocks[0] as *const BlockLoad as usize;
        let b = &*l.blocks[1] as *const BlockLoad as usize;
        assert_eq!(b - a, 128);
        assert_eq!(a % 128, 0);
    }

    #[test]
    fn credits_drain_to_zero_and_raise_done() {
        let l = Ledger::seeded(2);
        let mut t = Tally::new(0);
        // Root expands into three children, each retired, then the root.
        for _ in 0..3 {
            t.push_child(&l);
        }
        assert_eq!(l.live.load(Ordering::SeqCst), 1 + CREDIT_BATCH);
        for _ in 0..4 {
            t.retire(&l);
        }
        assert!(!l.is_done(), "retiring touches no shared state");
        t.go_idle(&l);
        assert!(l.is_done());
        assert_eq!(l.live.load(Ordering::SeqCst), 0);
        t.exit(&l);
        let (stats, completed) = l.finish();
        assert!(completed);
        assert_eq!(stats.vertices_visited, 4);
        assert_eq!(stats.tasks_per_block, vec![4, 0]);
    }

    #[test]
    fn idle_warp_with_no_credits_does_not_finish_the_run() {
        let l = Ledger::seeded(1);
        let mut helper = Tally::new(0);
        helper.wake(&l);
        helper.go_idle(&l);
        assert!(!l.is_done(), "the root is still live");
        let mut owner = Tally::new(0);
        owner.retire(&l);
        owner.go_idle(&l);
        assert!(l.is_done());
    }

    #[test]
    fn pending_publishes_in_batches() {
        let l = Ledger::seeded(2);
        let mut t = Tally::new(1);
        t.wake(&l);
        for _ in 0..PENDING_BATCH - 1 {
            t.push_child(&l);
        }
        assert_eq!(l.pending(1), 0, "below the batch nothing is shared");
        t.push_child(&l);
        assert_eq!(l.pending(1), PENDING_BATCH);
        t.retire(&l);
        assert_eq!(l.pending(1), PENDING_BATCH);
        t.go_idle(&l);
        assert_eq!(l.pending(1), PENDING_BATCH - 1, "idle publishes the rest");
        t.took_from_block(&l, 0, 1);
        assert_eq!((l.pending(0), l.pending(1)), (0, PENDING_BATCH));
    }
}

/// Both engines end to end on the shapes the credit protocol finds
/// hardest: graphs smaller than one credit batch, a path deep enough to
/// flush and refill, and a run cancelled after credits were taken —
/// each on the caller alone and with whatever helpers are idle.
#[cfg(test)]
mod engine_edges {
    use super::CREDIT_BATCH;
    use crate::cancel::CancelToken;
    use crate::config::DiggerBeesConfig;
    use crate::gang;
    use crate::native::{NativeConfig, NativeEngine, NativeResult};
    use crate::native_lockfree::LockFreeEngine;
    use db_graph::validate::check_spanning_tree;
    use db_graph::{serial_dfs, CsrGraph, GraphBuilder, NO_PARENT};
    use db_trace::{EventKind, NullTracer, TraceEvent, Tracer};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Runs the engine selected by `lockfree` with an optional tracer
    /// and token.
    fn run<T: Tracer>(
        lockfree: bool,
        cfg: NativeConfig,
        g: &CsrGraph,
        tracer: &T,
        token: Option<&CancelToken>,
    ) -> NativeResult {
        if lockfree {
            LockFreeEngine::new(cfg).run_inner(g, 0, tracer, token)
        } else {
            NativeEngine::new(cfg).run_inner(g, 0, tracer, token)
        }
    }

    fn path(n: u32) -> CsrGraph {
        GraphBuilder::undirected(n)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .build()
    }

    /// One warp with a 16-entry ring (so a deep path must flush and
    /// refill), two blocks of two, and the default eight warps.
    fn configs() -> [NativeConfig; 3] {
        let small = DiggerBeesConfig {
            blocks: 2,
            warps_per_block: 2,
            hot_size: 16,
            hot_cutoff: 4,
            cold_cutoff: 8,
            flush_batch: 8,
            ..Default::default()
        };
        let one_warp = DiggerBeesConfig {
            blocks: 1,
            warps_per_block: 1,
            inter_block: false,
            ..small
        };
        [
            NativeConfig { algo: one_warp },
            NativeConfig { algo: small },
            NativeConfig::default(),
        ]
    }

    /// Visited set, vertex and edge counts all equal serial DFS's.
    fn assert_matches_serial(g: &CsrGraph, out: &NativeResult, what: &str) {
        let truth = serial_dfs(g, 0).visited;
        assert!(out.completed, "{what}: did not complete");
        assert_eq!(out.visited, truth, "{what}: visited set");
        let reached: Vec<u32> = (0..g.num_vertices() as u32)
            .filter(|&v| truth[v as usize])
            .collect();
        assert_eq!(
            out.stats.vertices_visited,
            reached.len() as u64,
            "{what}: vertices"
        );
        let arcs: usize = reached.iter().map(|&v| g.degree(v)).sum();
        assert_eq!(out.stats.edges_traversed, arcs as u64, "{what}: edges");
        check_spanning_tree(g, 0, &out.visited, &out.parent).unwrap();
    }

    fn on_both_schedules(f: impl Fn(&str)) {
        gang::caller_only(|| f("caller only"));
        f("with helpers");
    }

    #[test]
    fn graphs_smaller_than_one_credit_batch() {
        let star = GraphBuilder::undirected(9)
            .edges((1..9).map(|i| (0, i)))
            .build();
        let graphs = [
            ("one vertex", GraphBuilder::undirected(1).build()),
            ("two-vertex path", path(2)),
            ("star", star),
        ];
        on_both_schedules(|schedule| {
            for (name, g) in &graphs {
                assert!((g.num_vertices() as i64) < CREDIT_BATCH);
                for cfg in configs() {
                    for lockfree in [false, true] {
                        let out = run(lockfree, cfg, g, &NullTracer, None);
                        let what = format!("{name}, lockfree={lockfree}, {schedule}");
                        assert_matches_serial(g, &out, &what);
                    }
                }
            }
        });
    }

    #[test]
    fn deep_path_flushes_refills_and_takes_many_batches() {
        let g = path(3000);
        on_both_schedules(|schedule| {
            for (k, cfg) in configs().into_iter().enumerate() {
                for lockfree in [false, true] {
                    let out = run(lockfree, cfg, &g, &NullTracer, None);
                    let what = format!("path, config {k}, lockfree={lockfree}, {schedule}");
                    assert_matches_serial(&g, &out, &what);
                    if k == 0 {
                        // One warp and a 16-entry ring: nobody can steal
                        // the path away, so it must spill and come back.
                        assert!(out.stats.flushes > 0, "{what}: no flush");
                        assert!(lockfree || out.stats.refills > 0, "{what}: no refill");
                    }
                }
            }
        });
    }

    /// Cancels its token once `after` children have been pushed.
    struct CancelAfterPushes {
        token: CancelToken,
        pushes: AtomicU64,
        after: u64,
    }

    impl Tracer for CancelAfterPushes {
        const ENABLED: bool = true;
        fn record(&self, ev: TraceEvent) {
            if matches!(ev.kind, EventKind::Push { .. })
                && self.pushes.fetch_add(1, Ordering::SeqCst) + 1 == self.after
            {
                self.token.cancel();
            }
        }
    }

    #[test]
    fn cancelled_after_credits_were_taken_leaves_a_consistent_prefix() {
        let n = 5000u32;
        let g = path(n);
        on_both_schedules(|schedule| {
            for (k, cfg) in configs().into_iter().enumerate() {
                for lockfree in [false, true] {
                    let what = format!("config {k}, lockfree={lockfree}, {schedule}");
                    // Past the first batch, so a warp holds part-spent credits.
                    let tracer = CancelAfterPushes {
                        token: CancelToken::new(),
                        pushes: AtomicU64::new(0),
                        after: 2 * CREDIT_BATCH as u64 + 5,
                    };
                    let out = run(lockfree, cfg, &g, &tracer, Some(&tracer.token));
                    assert!(!out.completed, "{what}: ran to completion");
                    let seen = out.visited.iter().filter(|&&v| v).count();
                    assert!(seen < n as usize, "{what}: visited everything");
                    assert!(seen as u64 >= tracer.after, "{what}: lost claimed vertices");
                    assert_eq!(out.stats.vertices_visited, seen as u64, "{what}");
                    for v in 1..n as usize {
                        if out.visited[v] {
                            let p = out.parent[v];
                            assert!(p != NO_PARENT && out.visited[p as usize], "{what}: {v}");
                            assert!(g.neighbors(p).contains(&(v as u32)), "{what}: {v}");
                        }
                    }
                }
            }
        });
    }
}
