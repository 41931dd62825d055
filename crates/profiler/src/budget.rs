//! Resource governance: hard memory/time budgets and the degradation
//! ladder.
//!
//! The signature engine (§2.3.2) bounds memory only implicitly — pick small
//! slots, get collisions — and the exact shadow grows with the touched
//! address space. A [`Budget`] makes the trade explicit: at checkpoint
//! cadence the producer — the one thread that governs, and under a memory
//! ceiling the one that owns every partition — samples its tracked bytes,
//! and crossing `max_memory_bytes` triggers the **degradation ladder**
//!
//! ```text
//! perfect shadow  →  signature shadow  →  halved signature slots  →  …
//! ```
//!
//! instead of unbounded growth. Workers never govern: a run under a ceiling
//! keeps its partitions home, and a run that moved under a deadline alone
//! counts its workers' partitions once, at their final size, when they are
//! joined. Every rung is recorded as a
//! [`DegradationStep`] in the run's [`ResourceStats`], together with the
//! peak tracked bytes and — for signature-mode runs — the estimated
//! false-positive rate (dissertation Eq. 2.2), so the report says exactly
//! what accuracy was sacrificed. A wall-clock `deadline` rides on the
//! interpreter's slice machinery ([`interp::RunConfig::stop`]) and turns
//! into a typed [`ProfileError::DeadlineExceeded`] carrying the partial
//! output.
//!
//! Signature halving is *exact at the slot level*: for an even slot count
//! `m`, `hash % (m/2) == (hash % m) % (m/2)`, so merging slot `i` with slot
//! `i + m/2` re-keys every address to exactly the slot the smaller
//! signature would have used — no rehash of (unknowable) addresses needed.
//! The ladder therefore only halves even slot counts and stops at
//! [`LADDER_MIN_SLOTS`].

use crate::run::ProfileOutput;
use interp::RuntimeError;
use std::time::Duration;

/// Smallest signature the degradation ladder will shrink to. Below this the
/// false-positive rate is so high the profile is noise; the governor stops
/// degrading and accepts the floor footprint.
pub const LADDER_MIN_SLOTS: usize = 64;

/// Resource limits for one profiling run. `Default` is unlimited; a run
/// with an inactive budget pays no governance overhead at all (the
/// ungoverned fast path is taken).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Hard ceiling on tracked profiler bytes (shadow maps + dependence
    /// set + instance table). Crossing it triggers the degradation ladder.
    pub max_memory_bytes: Option<usize>,
    /// Wall-clock deadline for the whole run, checked at chunk/slice
    /// boundaries. Exceeding it aborts the target with
    /// [`ProfileError::DeadlineExceeded`] carrying the partial output.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// True when any limit is set — the governed profiling path is only
    /// taken for active budgets.
    pub fn is_active(&self) -> bool {
        self.max_memory_bytes.is_some() || self.deadline.is_some()
    }
}

/// The shadow-memory tiers the ladder moves through, most accurate first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowTier {
    /// Exact two-level page-table shadow memory.
    Perfect,
    /// Fixed-size signature with the given slot count.
    Signature {
        /// Slots, each a read/write status pair.
        slots: usize,
    },
}

impl std::fmt::Display for ShadowTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShadowTier::Perfect => write!(f, "perfect"),
            ShadowTier::Signature { slots } => write!(f, "signature:{slots}"),
        }
    }
}

/// One rung taken on the degradation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationStep {
    /// Tier before the step.
    pub from: ShadowTier,
    /// Tier after the step.
    pub to: ShadowTier,
    /// Tracked bytes that triggered the step.
    pub bytes_before: u64,
    /// Tracked bytes immediately after the step.
    pub bytes_after: u64,
    /// Word-address range whose tracking became (more) approximate:
    /// `[lo, hi]` over the addresses resident in the shadow at step time.
    /// `None` when the resident set was empty or unenumerable (signature
    /// halving re-keys *all* addresses).
    pub affected: Option<(u64, u64)>,
    /// Recorded cells a halving step merged with another — slot `i` with
    /// slot `i + m/2`, read and write half each (0 for perfect → signature).
    pub merged_slots: u64,
}

/// Resource accounting of one governed run, carried in
/// [`ProfileOutput::resource`] and serialized as the schema-v3 `resource`
/// block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceStats {
    /// The configured memory ceiling, if any.
    pub budget_bytes: Option<u64>,
    /// The configured deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// High-water mark of tracked bytes, sampled at governor checkpoints
    /// (after any degradation the checkpoint performed) and, for a run
    /// whose partitions moved to workers, once more at the end with every
    /// moved partition at its final size.
    pub peak_tracked_bytes: u64,
    /// Ladder rungs taken, in order.
    pub degradation_steps: Vec<DegradationStep>,
    /// Estimated false-positive probability per probe for signature-mode
    /// regions (Eq. 2.2, with the occupied-slot count as the address-set
    /// proxy); `0.0` while the run stayed exact.
    pub fp_rate_estimate: f64,
    /// `true` when the run hit its deadline and the output is partial.
    pub deadline_hit: bool,
}

impl ResourceStats {
    /// Stats for a budget before any event is processed.
    pub fn for_budget(budget: &Budget) -> Self {
        ResourceStats {
            budget_bytes: budget.max_memory_bytes.map(|b| b as u64),
            deadline_ms: budget.deadline.map(|d| d.as_millis() as u64),
            ..Default::default()
        }
    }
}

/// Typed failure of a profiling run.
#[derive(Debug)]
pub enum ProfileError {
    /// The target itself failed (compile-free runtime faults, step limit,
    /// deadlock, …).
    Runtime(RuntimeError),
    /// The wall-clock deadline expired. The partial output covers the
    /// complete event prefix delivered before the interrupt; its
    /// [`ResourceStats::deadline_hit`] is set.
    DeadlineExceeded {
        /// Everything profiled before the deadline.
        partial: Box<ProfileOutput>,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Runtime(e) => write!(f, "{e}"),
            ProfileError::DeadlineExceeded { partial } => write!(
                f,
                "deadline exceeded after {} steps ({} dependences profiled)",
                partial.steps,
                partial.deps.len()
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<RuntimeError> for ProfileError {
    fn from(e: RuntimeError) -> Self {
        ProfileError::Runtime(e)
    }
}

/// Signature slot count the ladder drops to when leaving the perfect tier:
/// the largest power of two whose *worst-case* footprint — every page of
/// [`crate::maps::Slot`]s allocated — fits in half the budget, clamped to
/// `[LADDER_MIN_SLOTS, AUTO_SIGNATURE_SLOTS]`. Powers of two stay even all
/// the way down, so every later halving rung remains available.
pub(crate) fn signature_slots_for_budget(max_memory_bytes: usize) -> usize {
    let want = (max_memory_bytes / 2) / std::mem::size_of::<crate::maps::Slot>();
    let cap = crate::run::EngineKind::AUTO_SIGNATURE_SLOTS;
    let mut slots = LADDER_MIN_SLOTS;
    while slots * 2 <= want && slots * 2 <= cap {
        slots *= 2;
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_activity() {
        assert!(!Budget::unlimited().is_active());
        assert!(Budget {
            max_memory_bytes: Some(1),
            deadline: None
        }
        .is_active());
        assert!(Budget {
            max_memory_bytes: None,
            deadline: Some(Duration::from_secs(1))
        }
        .is_active());
    }

    #[test]
    fn slots_for_budget_are_pow2_and_clamped() {
        let s = signature_slots_for_budget(1 << 20);
        assert!(s.is_power_of_two());
        assert!(s >= LADDER_MIN_SLOTS);
        // 48-byte slots: 512 KiB of a 1 MiB budget holds 10,922 of them,
        // and the largest power of two below is 2^13.
        assert_eq!(std::mem::size_of::<crate::maps::Slot>(), 48);
        assert_eq!(s, 1 << 13);
        assert!(s * std::mem::size_of::<crate::maps::Slot>() <= (1 << 20) / 2);
        assert_eq!(signature_slots_for_budget(0), LADDER_MIN_SLOTS);
        assert!(
            signature_slots_for_budget(usize::MAX / 4)
                <= crate::run::EngineKind::AUTO_SIGNATURE_SLOTS
        );
    }
}
