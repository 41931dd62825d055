//! `cu` — Computational Units (dissertation Ch. 3).
//!
//! A *computational unit* (CU) is a collection of instructions following the
//! read-compute-write pattern: a set of variables global to a code section
//! is read, computation happens on locals, and results are written back.
//! CUs are the smallest units mapped onto threads; unlike loops or
//! functions, they are not required to align with language constructs, so
//! parallelism that crosses construct boundaries becomes visible.
//!
//! This crate implements:
//! - global/local variable analysis per control region (§3.2.1),
//! - the **top-down CU construction** algorithm (Algorithm 3, §3.2.3) that
//!   checks each region against the read-compute-write condition
//!   `∀v ∈ GV: I_v → O_v` using profiled dependences, splitting regions at
//!   violating reads,
//! - the **dependence index** ([`DepIndex`]): the merged set unpacked once
//!   into the lookups construction and discovery need, so neither rescans
//!   it per function, loop or call-site pair,
//! - the **CU graph** (§3.4) with the edge rules of Table 3.1, SCC and
//!   chain condensation (§4.2.2 / Fig. 4.5), and DOT export (Figs. 3.6/3.7).
//!
//! One graph serves all of discovery: function bodies are always
//! decomposed into their child regions and plain-line fragments, so the
//! same CUs give a DOACROSS loop its pipeline stages and a function its
//! MPMD tasks (§4.1.2, §4.2.2).

// CU construction runs inside every analysis job, the daemon's included:
// library code returns or skips instead of panicking (tests may unwrap).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod build;
pub mod graph;
pub mod index;
pub mod vars;

pub use build::{build_cu_graph_fine, build_from_index, Cu, CuBuildInput, CuKind};
pub use graph::{Condensation, CuEdge, CuGraph, CuId, Partition};
pub use index::DepIndex;
pub use vars::{region_of_line, RegionVars, VarClass};
