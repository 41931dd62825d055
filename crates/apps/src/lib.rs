//! `apps` — a further application of the framework (dissertation Ch. 5).
//!
//! [`comm`]: detecting communication patterns on multicore systems (§5.3,
//! Fig. 5.1) — thread-to-thread communication matrices from cross-thread
//! dependences, and the actor view of the same from the interpreter's
//! message counts.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod comm;

pub use comm::{actor_comm, comm_matrix, render_matrix, ActorComm, CommMatrix};
