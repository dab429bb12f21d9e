//! The parallel engines on the gang runtime: `native`, `lockfree` and
//! `partitioned` must finish both when only the calling thread runs
//! (slot 0 alone — every helper busy) and when idle helpers join, and
//! in both schedules their visited sets must equal serial DFS on the
//! cross-engine differential graphs.

use db_core::gang;
use db_core::native::{NativeConfig, NativeEngine};
use db_core::native_lockfree::LockFreeEngine;
use db_core::DiggerBeesConfig;
use db_gen::{grid, mesh, pref, rmat};
use db_graph::{serial_dfs, CsrGraph};
use db_store::{partition_by_arcs, run_partitioned};
use db_trace::NullTracer;

/// The graph families of the workspace's cross-engine equivalence test.
fn differential_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("grid", grid::grid_road(40, 40, 0.85, 3, 11)),
        ("mesh", mesh::delaunay_mesh(30, 30, 5)),
        ("bubbles", mesh::bubbles(30, 10, 15, 9)),
        ("rmat", rmat::rmat(10, 8, rmat::RmatParams::default(), 3)),
        ("pref", pref::pref_attach(900, 3, 0.5, 7)),
        ("comb", grid::comb(80, 4)),
        ("tree", grid::kary_tree(3, 7)),
    ]
}

/// Small rings so flushes, refills and both steal tiers all fire.
fn small_cfg() -> NativeConfig {
    NativeConfig {
        algo: DiggerBeesConfig {
            blocks: 4,
            warps_per_block: 2,
            hot_size: 16,
            hot_cutoff: 4,
            cold_cutoff: 8,
            flush_batch: 8,
            ..Default::default()
        },
    }
}

fn check_all_engines(schedule: &str) {
    for (name, g) in differential_graphs() {
        for root in [0, g.num_vertices() as u32 / 2] {
            let truth = serial_dfs(&g, root).visited;
            for cfg in [small_cfg(), NativeConfig::default()] {
                let native = NativeEngine::new(cfg).run(&g, root);
                assert!(native.completed);
                assert_eq!(
                    native.visited, truth,
                    "native, {schedule}, {name} from {root}"
                );
                let lockfree = LockFreeEngine::new(cfg).run(&g, root);
                assert!(lockfree.completed);
                assert_eq!(
                    lockfree.visited, truth,
                    "lockfree, {schedule}, {name} from {root}"
                );
            }
            for parts in [4, 16] {
                let spec = partition_by_arcs(&g, parts);
                let (visited, completed, stats) =
                    run_partitioned(&g, &spec, root, &NullTracer, &|| false);
                assert!(completed);
                assert_eq!(
                    visited, truth,
                    "partitioned/{parts}, {schedule}, {name} from {root}"
                );
                let reached = truth.iter().filter(|&&v| v).count() as u64;
                assert_eq!(stats.expanded, reached);
            }
        }
    }
}

#[test]
fn engines_finish_on_the_caller_alone() {
    gang::caller_only(|| check_all_engines("caller only"));
}

#[test]
fn engines_finish_with_helpers() {
    // On a one-core host the gang has no helpers and this repeats the
    // caller-only schedule, which is still a valid run.
    check_all_engines(&format!("{} helper(s)", gang::helpers()));
}
