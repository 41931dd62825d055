//! `profiler` — the DiscoPoP data-dependence profiler (dissertation Ch. 2).
//!
//! A generic, efficient dependence profiler for sequential and parallel
//! target programs:
//!
//! - **Signature-based memory tracking** ([`maps::SignatureMap`]): memory
//!   accesses are recorded in fixed-size hash arrays rather than full shadow
//!   memory, trading a small, measurable false-positive/negative rate for
//!   bounded memory (§2.3.2). A [`maps::PerfectMap`] provides the exact
//!   shadow-memory baseline used to quantify accuracy (Table 2.6).
//! - **One engine, serial to parallel** ([`pipeline::Profiler`]): serial
//!   profiling is one partition, the parallel setting deals addresses out
//!   over several; past 2^20 accesses the partitions move into worker
//!   threads fed through lock-free SPSC queues (producer/consumer, §2.3.3)
//!   — for a serial engine, one worker tracks while the producer
//!   interprets. Multi-threaded targets take the same engine: the
//!   interpreter delivers each thread's accesses as real threads would
//!   ([`interp::RunConfig::racy_delivery`], §2.3.4), so the thread that
//!   interprets stays the one producer.
//! - **Skipping repeatedly-executed memory operations in loops** (§2.4):
//!   each memory operation remembers the last dependence it built, so a
//!   loop's once-per-iteration rebuild is a compare and an increment; plan
//!   runs repeat it in closed form ([`DepBuilder::process_run`]).
//! - **Variable-lifetime analysis** (§2.3.5): dead address ranges are
//!   evicted from the signatures so reused stack slots do not create false
//!   dependences.
//! - **Runtime dependence merging** (§2.3.5): identical dependences are
//!   merged on the fly, shrinking output by orders of magnitude.
//! - **Throughput-oriented memory state and transport** (this
//!   reproduction's shadow-memory overhaul): the exact map is a two-level
//!   page-table shadow memory ([`maps::PerfectMap`], O(1) per access, no
//!   hashing on the page-hit path); every hot map is keyed with the in-repo
//!   [`fxhash`] hasher; the interpreter delivers events to profilers in
//!   reusable batches ([`interp::Sink::events`]); and each worker hands its
//!   spent chunk buffers back to the producer over a queue of their own, so
//!   steady-state profiling allocates nothing per chunk. The repo's
//!   benchmark (`benchmark/`, `BENCHMARK.json`) is the yardstick. Two
//!   oracles hold the engine to exact dependences in the equivalence
//!   tests, each catching what the other cannot: the reconstructed
//!   pre-overhaul engine (`bench::seed_baseline`, which shares no code
//!   with this crate's pipeline) and `bench::HashShadowOracle` (this
//!   crate's builder over [`HashShadowMap`], with a PET fed apart from the
//!   pipeline's).
//! - **Explicit engine selection** ([`EngineKind`]): the exact shadow, the
//!   signature algorithm, and the parallel pipeline are settings of the one
//!   engine, spelled by one enum, resolved in one place
//!   ([`EngineKind::dials`]) to a map and a partition count, configured by
//!   one [`ProfileConfig`] and run by one entry point
//!   ([`profile_program_with`]), all returning the same [`ProfileOutput`],
//!   so callers (the `discopop` facade, its CLI, the benchmarks) swap
//!   engines without changing shape. See [`run`].
//! - **Program Execution Tree** ([`pet::Pet`], §2.3.6) for pattern detection
//!   and ranking.
//! - **Race hints** for multi-threaded targets under racy delivery:
//!   timestamp inversions on the same address expose unsynchronized access
//!   pairs (§2.3.4).
//! - **Resource governance** ([`budget`]): hard memory/time budgets with a
//!   degradation ladder (perfect → signature → halved signature), enforced
//!   by the producer alone — a memory ceiling keeps every partition on it —
//!   worker supervision with panic recovery, and a [`fault`] injection
//!   facility that the fault-tolerance suite uses to kill workers on demand.

// Library code must not panic on malformed state — budgeted and supervised
// runs recover instead. Tests assert freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod access;
pub mod budget;
pub mod dep;
pub mod engine;
pub mod fault;
pub mod maps;
pub mod parallel;
pub mod pet;
pub mod pipeline;
pub mod queue;
pub mod run;
mod shadow;

pub use budget::{
    Budget, DegradationStep, ProfileError, ResourceStats, ShadowTier, LADDER_MIN_SLOTS,
};

pub use access::{
    Access, Instance, InstanceTable, LoopContext, LoopKey, PackedAccess, NO_INSTANCE,
};
pub use dep::{control_spans, render_text, ControlSpan, Dep, DepSet, DepType, SrcLoc};
pub use engine::{DepBuilder, RunStats, SkipStats};
pub use maps::{estimated_fp_rate, AccessMap, Cell, HashShadowMap, PerfectMap, SignatureMap, Slot};
pub use pet::{Pet, PetBuilder, PetNode, PetNodeKind};
pub use pipeline::Profiler;
pub use queue::SpscQueue;
pub use run::{
    profile_program, profile_program_with, ActorSummary, Dials, EngineKind, InlineReason,
    ParallelStats, ProfileConfig, ProfileOutput, SynthSummary, Tracking,
};
