//! `apps` — further applications of the framework (dissertation Ch. 5).
//!
//! Three use cases beyond parallelism discovery demonstrate the profiler's
//! generality:
//!
//! - [`ml`]: characterizing DOALL loops with machine learning (§5.1,
//!   Tables 5.1–5.3) — dynamic features from the profiler feed an AdaBoost
//!   ensemble of decision stumps.
//! - [`stm`]: determining parameters for software transactional memory
//!   (§5.2, Table 5.4) — transaction candidates counted from the
//!   dependence output.
//! - [`comm`]: detecting communication patterns on multicore systems
//!   (§5.3, Fig. 5.1) — thread-to-thread communication matrices from
//!   cross-thread dependences.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod comm;
pub mod ml;
pub mod stm;

pub use comm::{actor_comm, comm_matrix, render_matrix, ActorComm, CommMatrix};
pub use ml::{AdaBoost, Dataset, Features, Sample, Scores};
pub use stm::{transactions_for, Transaction};
