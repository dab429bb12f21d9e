//! The native engines' accounting, seen from outside: whatever the
//! graph's shape, the root, the block layout or how many requests run
//! at once, a completed run reports exactly the vertices and arcs
//! serial DFS reaches, its per-block task counts add up to the vertex
//! count, and a cancelled run returns a consistent prefix.

use diggerbees::core::cancel::CancelToken;
use diggerbees::core::native::{NativeConfig, NativeEngine, NativeResult};
use diggerbees::core::native_lockfree::LockFreeEngine;
use diggerbees::core::DiggerBeesConfig;
use diggerbees::gen::{grid, rmat};
use diggerbees::graph::validate::check_spanning_tree;
use diggerbees::graph::{serial_dfs, CsrGraph, GraphBuilder, NO_PARENT};
use diggerbees::trace::{EventKind, TraceEvent, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Two blocks of two warps with small rings, so flushes, refills and
/// both steal levels happen on graphs of a few thousand vertices.
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

fn run(lockfree: bool, cfg: NativeConfig, g: &CsrGraph, root: u32) -> NativeResult {
    if lockfree {
        LockFreeEngine::new(cfg).run(g, root)
    } else {
        NativeEngine::new(cfg).run(g, root)
    }
}

/// Visited set, vertex and arc counts equal serial DFS's from `root`,
/// and `parent` is a spanning tree of the visited set.
fn assert_matches_serial(g: &CsrGraph, root: u32, out: &NativeResult, what: &str) {
    let truth = serial_dfs(g, root).visited;
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
    assert_eq!(out.stats.edges_traversed, arcs as u64, "{what}: arcs");
    check_spanning_tree(g, root, &out.visited, &out.parent).unwrap();
}

fn star(leaves: u32) -> CsrGraph {
    GraphBuilder::undirected(leaves + 1)
        .edges((1..=leaves).map(|i| (0, i)))
        .build()
}

#[test]
fn wide_fan_out_matches_serial() {
    // One expansion publishes far more children than a warp reserves
    // termination credits for at once.
    let g = star(2000);
    for cfg in [small_cfg(), NativeConfig::default()] {
        for lockfree in [false, true] {
            for root in [0, 1, 2000] {
                let out = run(lockfree, cfg, &g, root);
                let what = format!("star, lockfree={lockfree}, root {root}");
                assert_matches_serial(&g, root, &out, &what);
            }
        }
    }
}

#[test]
fn root_in_one_component_leaves_the_others_untouched() {
    // Three disjoint paths of 300 vertices; start in the middle one.
    let g = GraphBuilder::undirected(900)
        .edges((0..900u32).filter(|i| i % 300 != 299).map(|i| (i, i + 1)))
        .build();
    for lockfree in [false, true] {
        for root in [300, 450, 599] {
            let out = run(lockfree, small_cfg(), &g, root);
            let what = format!("paths, lockfree={lockfree}, root {root}");
            assert_matches_serial(&g, root, &out, &what);
            for v in (0..300).chain(600..900) {
                assert!(!out.visited[v], "{what}: reached {v}");
                assert_eq!(out.parent[v], NO_PARENT, "{what}: parent of {v}");
            }
        }
    }
}

#[test]
fn every_root_of_a_small_tree_matches_serial() {
    let g = grid::kary_tree(3, 4);
    for lockfree in [false, true] {
        for root in 0..g.num_vertices() as u32 {
            let out = run(lockfree, small_cfg(), &g, root);
            let what = format!("tree, lockfree={lockfree}, root {root}");
            assert_matches_serial(&g, root, &out, &what);
        }
    }
}

#[test]
fn per_block_tasks_add_up_to_vertices_visited() {
    let g = rmat::rmat(11, 8, rmat::RmatParams::default(), 5);
    for blocks in [1, 2, 4] {
        let cfg = NativeConfig {
            algo: DiggerBeesConfig {
                blocks,
                inter_block: blocks > 1,
                ..small_cfg().algo
            },
        };
        for lockfree in [false, true] {
            let out = run(lockfree, cfg, &g, 0);
            let what = format!("rmat, {blocks} blocks, lockfree={lockfree}");
            assert_matches_serial(&g, 0, &out, &what);
            assert_eq!(out.stats.tasks_per_block.len(), blocks as usize, "{what}");
            let tasks: u64 = out.stats.tasks_per_block.iter().sum();
            assert_eq!(tasks, out.stats.vertices_visited, "{what}: task sum");
        }
    }
}

#[test]
fn back_to_back_runs_on_one_engine_all_complete() {
    // Credits a run leaves behind would either end the next run early
    // or keep it from ever finishing.
    let g = grid::grid_road(30, 30, 0.9, 2, 4);
    let native = NativeEngine::new(small_cfg());
    let lockfree = LockFreeEngine::new(small_cfg());
    for i in 0..25 {
        let root = (i * 37) % g.num_vertices() as u32;
        let a = native.run(&g, root);
        assert_matches_serial(&g, root, &a, &format!("native run {i}"));
        let b = lockfree.run(&g, root);
        assert_matches_serial(&g, root, &b, &format!("lockfree run {i}"));
    }
}

#[test]
fn concurrent_requests_each_match_serial() {
    let graphs = [
        grid::grid_road(40, 40, 0.85, 3, 11),
        grid::comb(80, 6),
        grid::long_path(2500),
        rmat::rmat(10, 8, rmat::RmatParams::default(), 3),
    ];
    std::thread::scope(|s| {
        for (k, g) in graphs.iter().enumerate() {
            s.spawn(move || {
                for i in 0..6 {
                    let lockfree = (i + k) % 2 == 1;
                    let out = run(lockfree, small_cfg(), g, 0);
                    let what = format!("graph {k}, run {i}, lockfree={lockfree}");
                    assert_matches_serial(g, 0, &out, &what);
                }
            });
        }
    });
}

/// Counts every event and every popped vertex.
#[derive(Default)]
struct Counting {
    events: AtomicU64,
    pops: AtomicU64,
}

impl Tracer for Counting {
    const ENABLED: bool = true;
    fn record(&self, ev: TraceEvent) {
        self.events.fetch_add(1, Ordering::SeqCst);
        if matches!(ev.kind, EventKind::Pop { .. }) {
            self.pops.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[test]
fn tracing_does_not_change_the_result() {
    let g = grid::comb(60, 8);
    for lockfree in [false, true] {
        let tracer = Counting::default();
        let traced = if lockfree {
            LockFreeEngine::new(small_cfg()).run_traced(&g, 0, &tracer)
        } else {
            NativeEngine::new(small_cfg()).run_traced(&g, 0, &tracer)
        };
        let what = format!("traced comb, lockfree={lockfree}");
        assert_matches_serial(&g, 0, &traced, &what);
        let plain = run(lockfree, small_cfg(), &g, 0);
        assert_eq!(traced.visited, plain.visited, "{what}");
        assert_eq!(
            traced.stats.vertices_visited, plain.stats.vertices_visited,
            "{what}"
        );
        assert!(tracer.pops.load(Ordering::SeqCst) > 0, "{what}: no pops");
        assert!(
            tracer.events.load(Ordering::SeqCst) >= tracer.pops.load(Ordering::SeqCst),
            "{what}"
        );
    }
}

#[test]
fn cancelled_runs_keep_a_consistent_prefix_and_leave_the_engine_reusable() {
    // Workers poll before their first step, so a token cancelled by hand
    // or by an expired deadline stops a run that has work left to do.
    let g = grid::comb(400, 20);
    let n = g.num_vertices();
    let native = NativeEngine::new(small_cfg());
    let lockfree = LockFreeEngine::new(small_cfg());
    for expired in [false, true] {
        for is_lockfree in [false, true] {
            let token = if expired {
                CancelToken::with_deadline(Instant::now())
            } else {
                let t = CancelToken::new();
                t.cancel();
                t
            };
            let out = if is_lockfree {
                lockfree.run_cancellable(&g, 0, &token)
            } else {
                native.run_cancellable(&g, 0, &token)
            };
            let what = format!("expired={expired}, lockfree={is_lockfree}");
            assert!(!out.completed, "{what}: ran to completion");
            let seen = out.visited.iter().filter(|&&v| v).count();
            assert!(seen < n, "{what}: visited everything");
            assert_eq!(out.stats.vertices_visited, seen as u64, "{what}");
            for v in 1..n {
                if out.visited[v] {
                    let p = out.parent[v];
                    assert!(p != NO_PARENT && out.visited[p as usize], "{what}: {v}");
                    assert!(g.neighbors(p).contains(&(v as u32)), "{what}: {v}");
                }
            }
            // The next run on the same engine starts from clean state.
            let fresh = CancelToken::new();
            let again = if is_lockfree {
                lockfree.run_cancellable(&g, 0, &fresh)
            } else {
                native.run_cancellable(&g, 0, &fresh)
            };
            assert_matches_serial(&g, 0, &again, &format!("{what}, rerun"));
        }
    }
}
