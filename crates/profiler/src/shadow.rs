//! One partition of the profiling engine: a dependence builder at one of the
//! degradation ladder's accuracy tiers, and the ladder itself.
//!
//! Every configuration of the engine — serial or parallel, inline or in a
//! worker thread, governed or not — tracks memory through [`Shadow`]s, so
//! the ladder (`exact → signature → halved signature`, see
//! [`crate::budget`]) is written once, here.

use crate::access::{Access, InstanceTable, PackedAccess};
use crate::budget::{DegradationStep, ShadowTier, LADDER_MIN_SLOTS};
use crate::dep::DepSet;
use crate::engine::{DepBuilder, RunStats, SkipStats};
use crate::maps::{PerfectMap, SignatureMap};
use crate::parallel::OwnedRun;
use interp::MemOpMeta;
use std::sync::Arc;

/// A partition's dependence builder over either shadow-map backend.
// The exact builder carries two inline page caches. A partition is moved
// only at tier transitions and hand-offs; boxing it would put a pointer
// chase on the per-access path instead.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Shadow {
    /// Exact page-table shadow: collision-free, resolves plan runs.
    Perfect(DepBuilder<PerfectMap>),
    /// Bounded signature: fixed memory for huge footprints.
    Sig(DepBuilder<SignatureMap>),
}

/// Evaluate `$body` with `$b` bound to the builder of whichever tier.
macro_rules! either {
    ($shadow:expr, $b:ident => $body:expr) => {
        match $shadow {
            Shadow::Perfect($b) => $body,
            Shadow::Sig($b) => $body,
        }
    };
}

/// What a partition leaves behind ([`Shadow::finish`]).
pub(crate) struct Finished {
    pub(crate) deps: DepSet,
    pub(crate) stats: SkipStats,
    pub(crate) runs: RunStats,
    /// Tracked bytes as of the end ([`DepBuilder::finish`]).
    pub(crate) bytes: usize,
    /// Signature fill `(recorded cells, total cells)` — two cells per slot
    /// — for the governed run's false-positive-rate estimate; `None` for an
    /// exact partition.
    pub(crate) fill: Option<(usize, usize)>,
}

impl Shadow {
    pub(crate) fn new(tier: ShadowTier, meta: &Arc<[MemOpMeta]>) -> Self {
        match tier {
            ShadowTier::Perfect => {
                Shadow::Perfect(DepBuilder::new(PerfectMap::new(), Arc::clone(meta)))
            }
            ShadowTier::Signature { slots } => {
                Shadow::Sig(DepBuilder::new(SignatureMap::new(slots), Arc::clone(meta)))
            }
        }
    }

    #[inline]
    pub(crate) fn process(&mut self, a: &Access, table: &InstanceTable) {
        either!(self, b => b.process(a, table))
    }

    /// A worker's unit of work: unpack each record and process it. The tier
    /// is matched once per chunk.
    pub(crate) fn process_chunk(&mut self, items: &[PackedAccess], table: &InstanceTable) {
        either!(self, b => for it in items {
            let a = it.unpack(&b.meta()[it.op as usize]);
            b.process(&a, table);
        })
    }

    /// A plan run sent to a moved partition: resolved in closed form
    /// against `table`, which holds the run's instance. Only an exact
    /// partition is sent runs, and a moved one never degrades (workers do
    /// not govern, and a ceiling keeps partitions home).
    pub(crate) fn process_run(&mut self, r: &OwnedRun, table: &InstanceTable) {
        match self {
            Shadow::Perfect(b) => b.process_run(&r.run(), r.instance, r.iter, table),
            Shadow::Sig(_) => unreachable!("plan runs are sent to exact partitions only"),
        }
    }

    pub(crate) fn clear_range(&mut self, addr: u64, words: u64) {
        either!(self, b => b.clear_range(addr, words))
    }

    pub(crate) fn bytes(&self) -> usize {
        either!(self, b => b.bytes())
    }

    /// Accesses processed so far.
    pub(crate) fn accesses(&self) -> u64 {
        either!(self, b => b.stats.total_accesses)
    }

    pub(crate) fn finish(self) -> Finished {
        let fill = match &self {
            Shadow::Perfect(_) => None,
            Shadow::Sig(b) => Some((b.signature_occupied(), 2 * b.signature_slots())),
        };
        let runs = either!(&self, b => b.run_stats());
        let (deps, stats, bytes) = either!(self, b => b.finish());
        Finished {
            deps,
            stats,
            runs,
            bytes,
            fill,
        }
    }

    fn tier(&self) -> ShadowTier {
        match self {
            Shadow::Perfect(_) => ShadowTier::Perfect,
            Shadow::Sig(b) => ShadowTier::Signature {
                slots: b.signature_slots(),
            },
        }
    }

    /// Take one rung down the degradation ladder: an exact partition
    /// re-keys into a signature of `sig_slots` (keeping every dependence
    /// found so far), a signature halves its slots. Returns the step with
    /// `bytes_before`/`bytes_after` zeroed (the governor fills in the
    /// producer's totals), or `None` at the floor.
    pub(crate) fn degrade(&mut self, sig_slots: usize) -> Option<DegradationStep> {
        let from = self.tier();
        let (affected, merged_slots) = match self {
            Shadow::Perfect(_) => {
                let placeholder = Shadow::Sig(DepBuilder::new(SignatureMap::new(1), Vec::new()));
                let Shadow::Perfect(b) = std::mem::replace(self, placeholder) else {
                    unreachable!("matched Perfect above");
                };
                // The `[lo, hi]` word-address range resident in the exact
                // shadow: the addresses whose tracking becomes approximate.
                let mut affected = None;
                *self = Shadow::Sig(b.map_shadow(|exact| {
                    for (addr, _) in exact.entries() {
                        affected = Some(match affected {
                            None => (addr, addr),
                            Some((lo, hi)) => (addr.min(lo), addr.max(hi)),
                        });
                    }
                    SignatureMap::from_perfect(&exact, sig_slots)
                }));
                (affected, 0)
            }
            Shadow::Sig(b) => {
                let slots = b.signature_slots();
                if slots <= LADDER_MIN_SLOTS || slots % 2 != 0 {
                    return None;
                }
                (None, b.halve_signature())
            }
        };
        Some(DegradationStep {
            from,
            to: self.tier(),
            bytes_before: 0,
            bytes_after: 0,
            affected,
            merged_slots,
        })
    }
}
