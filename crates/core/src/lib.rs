//! # db-core — the DiggerBees algorithm
//!
//! Implements the paper's contribution (§3): parallel unordered DFS with
//! a **two-level stack** (shared-memory HotRing + global-memory ColdSeg)
//! and **hierarchical block-level work stealing** (warp-level DFS,
//! intra-block stealing via `tail` reservation, inter-block stealing via
//! power-of-two-choices victim blocks and `bottom` reservation).
//!
//! Two engines execute the same algorithm:
//!
//! * [`sim`] — the deterministic GPU-simulated engine used for every
//!   figure in the paper's evaluation (the hardware substitute; see
//!   DESIGN.md §1). Warps are state machines scheduled by the
//!   discrete-event core of `db-gpu-sim`, and performance is reported in
//!   simulated cycles / MTEPS under a machine model (A100/H100 presets).
//! * [`native`] — a real multithreaded engine for library users: the
//!   same two-level structure and stealing hierarchy over logical
//!   "warps" grouped into "blocks", with per-ring locks standing in for
//!   the GPU's `atomicCAS` ring protocol. The warps are run by at most
//!   as many participants as the host has cores (see [`gang`]).
//! * [`native_lockfree`] — the same engine on the GPU-faithful lock-free
//!   ring protocol ([`lockfree::StampedRing`]): packed head/tail CAS
//!   claims plus per-slot stamps for safe payload transfer.
//!
//! Shared pieces:
//!
//! * [`config`] — `hot_size` / `hot_cutoff` / `cold_cutoff`, block
//!   geometry, victim policy, and the §4.5 breakdown presets
//!   ([`config::DiggerBeesConfig::v1`] … `v4`).
//! * [`stack`] — the HotRing / ColdSeg data structures of §3.2 with the
//!   four core operations (fast push, fast pop, flush, refill).
//! * [`cancel`] — cooperative cancellation tokens polled by the native
//!   engines' worker loops, so a service layer can enforce per-request
//!   deadlines without killing threads.
//! * [`gang`] — the process-wide helper threads that run the parallel
//!   engines' logical warps and partitions: the caller runs slot 0 and
//!   idle helpers claim the rest, so no request spawns a thread.

#![warn(missing_docs)]

pub mod cancel;
pub mod config;
pub mod gang;
pub mod graph_check;
mod ledger;
pub mod lockfree;
pub mod native;
pub mod native_lockfree;
pub mod sim;
pub mod stack;

pub use cancel::CancelToken;
pub use config::{DiggerBeesConfig, StackLevels, VictimPolicy};
pub use graph_check::{validate_graph, validate_input, GraphError};
pub use sim::{
    run_sim, run_sim_faulted, run_sim_profiled, run_sim_store, run_sim_traced, SimResult,
};
