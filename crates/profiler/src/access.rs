//! Access records and dynamic loop context.
//!
//! The producer side of the profiler (the thread executing the target
//! program, §2.3.3) annotates every raw memory event with its dynamic loop
//! context — which loop *instance* it executed in and at which iteration —
//! before dependence construction. The [`InstanceTable`] keeps the
//! parent-chain of loop instances so that, for any two accesses to the same
//! address, the profiler can find the innermost loop that both share and
//! decide whether the dependence is **loop-carried** there (the
//! inter-iteration tag of §2.3.5), exactly the information the discovery
//! algorithms of Ch. 4 need.

use interp::{Event, MemEvent, MemOpMeta};

/// Identifies a static loop: `(function index, region index)`.
pub type LoopKey = (u32, u32);

/// Sentinel: access occurred outside any loop.
pub const NO_INSTANCE: u32 = u32::MAX;

/// The compact in-transit form of an [`Access`]: 32 bytes against the
/// 48-byte annotated record, so a 256-access chunk moves a third fewer cache
/// lines through the worker queues. Lossless: `line`, `var`, and the access
/// direction are fully determined by the static op id, so they travel once
/// per program in the shared [`interp::MemOpMeta`] table instead of once
/// per access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedAccess {
    /// Accessed address (word-aligned).
    pub addr: u64,
    /// Global timestamp of the access.
    pub ts: u64,
    /// Static memory-operation id — resolves line/var/direction via
    /// [`interp::MemOpMeta`].
    pub op: u32,
    /// Innermost enclosing loop instance ([`NO_INSTANCE`] if none).
    pub instance: u32,
    /// Iteration number within that instance.
    pub iter: u32,
    /// Executing thread. Full width: the record pads to 32 bytes either
    /// way, and a serial run that moves to a worker must take any thread
    /// count its inline path takes.
    pub thread: u32,
}

impl PackedAccess {
    /// Pack an annotated access (drops the op-determined fields).
    pub fn pack(a: &Access) -> Self {
        PackedAccess {
            addr: a.addr,
            ts: a.ts,
            op: a.op,
            instance: a.instance,
            iter: a.iter,
            thread: a.thread,
        }
    }

    /// Reconstruct the full access record using the op's static metadata.
    pub fn unpack(&self, meta: &MemOpMeta) -> Access {
        Access {
            addr: self.addr,
            op: self.op,
            line: meta.line,
            var: meta.var,
            thread: self.thread,
            ts: self.ts,
            is_write: meta.is_write,
            instance: self.instance,
            iter: self.iter,
        }
    }
}

/// A fully annotated memory access — the unit consumed by dependence
/// engines and shipped through the parallel profiler's queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Accessed address.
    pub addr: u64,
    /// Static memory-operation id.
    pub op: u32,
    /// Source line.
    pub line: u32,
    /// Variable symbol.
    pub var: u32,
    /// Executing thread.
    pub thread: u32,
    /// Global timestamp at access time.
    pub ts: u64,
    /// Store or load.
    pub is_write: bool,
    /// Innermost enclosing loop instance ([`NO_INSTANCE`] if none).
    pub instance: u32,
    /// Iteration number within that instance (1-based; 0 before the first
    /// `LoopIter`).
    pub iter: u32,
}

impl Access {
    /// A memory event in the loop context `(instance, iter)`.
    #[inline]
    pub fn in_context(m: &MemEvent, instance: u32, iter: u32) -> Access {
        Access {
            addr: m.addr,
            op: m.op,
            line: m.line,
            var: m.var,
            thread: m.thread,
            ts: m.ts,
            is_write: m.is_write,
            instance,
            iter,
        }
    }
}

/// One dynamic loop instance. Public so a table's records can be read
/// ([`InstanceTable::as_slice`]); a moved partition's worker receives them
/// over its queue and keeps a table of its own.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// The static loop this is an instance of.
    pub loop_key: LoopKey,
    /// Enclosing instance ([`NO_INSTANCE`] at top level).
    pub parent: u32,
    /// Iteration of the parent instance when this instance was entered.
    pub iter_in_parent: u32,
}

/// Table of loop instances, grown as loops are entered: the producer's,
/// and one copy per worker that the producer's instance updates extend.
#[derive(Debug, Default)]
pub struct InstanceTable {
    instances: Vec<Instance>,
}

impl InstanceTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new instance of `loop_key` entered from `parent` (which
    /// was at iteration `iter_in_parent`).
    pub fn enter(&mut self, loop_key: LoopKey, parent: u32, iter_in_parent: u32) -> u32 {
        let id = self.instances.len() as u32;
        debug_assert!(
            parent == NO_INSTANCE || parent < id,
            "a parent instance is registered before its child"
        );
        self.instances.push(Instance {
            loop_key,
            parent,
            iter_in_parent,
        });
        id
    }

    /// The static loop of an instance.
    pub fn loop_of(&self, instance: u32) -> LoopKey {
        self.instances[instance as usize].loop_key
    }

    /// Number of instances registered so far.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True if no instance has been registered.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Estimated bytes held.
    pub fn bytes(&self) -> usize {
        self.instances.capacity() * std::mem::size_of::<Instance>()
    }

    /// Raw view of the instance records (grow-only; indices are stable).
    pub fn as_slice(&self) -> &[Instance] {
        &self.instances
    }

    /// Append records registered in another table, in id order — how a
    /// worker's copy follows the producer's.
    pub(crate) fn extend(&mut self, records: Vec<Instance>) {
        self.instances.extend(records);
    }

    /// Find the loop (if any) that *carries* a dependence between two
    /// accesses: the innermost loop instance common to both whose iteration
    /// numbers differ. Returns `None` when the accesses share no loop or
    /// happen in the same iteration at every shared level (an
    /// iteration-local dependence).
    ///
    /// Allocation-free: runs once per dependence-building access, so it
    /// steps up the two ancestor chains by instance id (a parent's id is
    /// smaller than its child's) until they meet, instead of materializing
    /// the paths.
    ///
    /// Always inlined, chain walk included: its callers build dependences
    /// and compare reduced shadow states from the answer, and returned
    /// through a call it was read back from memory. Keeping only the
    /// same-instance answer inline and the walk out of line read 81 ms
    /// against 79 on `hot_loop` (whose nested instances always walk) and
    /// 58.7 against 56.2 on `suite_sweep`.
    #[inline(always)]
    pub fn carried_by(
        &self,
        a_instance: u32,
        a_iter: u32,
        b_instance: u32,
        b_iter: u32,
    ) -> Option<LoopKey> {
        let instances = &self.instances;
        if a_instance == b_instance {
            if a_instance == NO_INSTANCE || a_iter == b_iter {
                return None;
            }
            return Some(instances[a_instance as usize].loop_key);
        }
        // A parent is registered before its children, so its id is the
        // smaller; the root, `NO_INSTANCE`, ranks below every id. The side
        // with the larger rank cannot be an ancestor of the other, so step
        // it up until the two meet. The iteration carried along is the one
        // observed *at* the current level: the access's own iteration while
        // at the original instance, the child's `iter_in_parent` after each
        // step up.
        let rank = |i: u32| i.wrapping_add(1);
        let (mut a, mut a_it) = (a_instance, a_iter);
        let (mut b, mut b_it) = (b_instance, b_iter);
        while a != b {
            if rank(a) > rank(b) {
                let info = &instances[a as usize];
                a_it = info.iter_in_parent;
                a = info.parent;
            } else {
                let info = &instances[b as usize];
                b_it = info.iter_in_parent;
                b = info.parent;
            }
        }
        if a == NO_INSTANCE {
            return None;
        }
        if a_it != b_it {
            Some(instances[a as usize].loop_key)
        } else {
            None
        }
    }
}

/// Per-thread dynamic loop bookkeeping, fed from the event stream.
///
/// The producer calls [`LoopContext::handle`] on every event; memory events
/// come back annotated as [`Access`] records.
#[derive(Debug, Default)]
pub struct LoopContext {
    /// Per-thread stacks of `(instance id, current iteration)`, indexed by
    /// thread id — the interpreter hands out dense ids starting at 0, and
    /// this is probed on every memory event, so plain indexing beats any
    /// hash map.
    stacks: Vec<Vec<(u32, u32)>>,
}

impl LoopContext {
    /// Create an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current innermost `(instance, iter)` of a thread.
    pub fn current(&self, thread: u32) -> (u32, u32) {
        self.stacks
            .get(thread as usize)
            .and_then(|s| s.last().copied())
            .unwrap_or((NO_INSTANCE, 0))
    }

    /// The (grown-on-demand) stack of a thread.
    fn stack_mut(&mut self, thread: u32) -> &mut Vec<(u32, u32)> {
        let t = thread as usize;
        if t >= self.stacks.len() {
            self.stacks.resize_with(t + 1, Vec::new);
        }
        &mut self.stacks[t]
    }

    /// Process one event; returns the annotated access for memory events.
    pub fn handle(&mut self, ev: &Event, table: &mut InstanceTable) -> Option<Access> {
        match ev {
            Event::Mem(m) => Some(self.annotate(m)),
            Event::RegionEnter {
                func,
                region,
                kind: mir::RegionKind::Loop,
                thread,
                ..
            } => {
                let (parent, parent_iter) = self.current(*thread);
                let inst = table.enter((*func, *region), parent, parent_iter);
                self.stack_mut(*thread).push((inst, 0));
                None
            }
            Event::LoopIter { thread, .. } => {
                if let Some(top) = self.stack_mut(*thread).last_mut() {
                    top.1 += 1;
                }
                None
            }
            Event::RegionExit(x) if x.kind == mir::RegionKind::Loop => {
                self.stack_mut(x.thread).pop();
                None
            }
            Event::ThreadEnd { thread } => {
                self.stack_mut(*thread).clear();
                None
            }
            _ => None,
        }
    }

    /// Attach the current loop context to a memory event. The dominant
    /// event kind — exposed so sinks can route `Event::Mem` here directly
    /// without paying [`LoopContext::handle`]'s full match.
    pub fn annotate(&self, m: &MemEvent) -> Access {
        let (instance, iter) = self.current(m.thread);
        Access::in_context(m, instance, iter)
    }

    /// `n` `LoopIter` events of `thread`'s innermost loop at once — how a
    /// plan run ([`interp::PlanRun`]) advances the context.
    pub fn advance(&mut self, thread: u32, n: u64) {
        if let Some(top) = self.stack_mut(thread).last_mut() {
            top.1 += n as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carried_same_instance_different_iter() {
        let mut t = InstanceTable::new();
        let l = t.enter((0, 1), NO_INSTANCE, 0);
        assert_eq!(t.carried_by(l, 1, l, 2), Some((0, 1)));
        assert_eq!(t.carried_by(l, 2, l, 2), None);
    }

    #[test]
    fn carried_by_outer_loop() {
        let mut t = InstanceTable::new();
        let outer = t.enter((0, 1), NO_INSTANCE, 0);
        // Two inner-loop instances, created in iterations 1 and 2 of outer.
        let inner1 = t.enter((0, 2), outer, 1);
        let inner2 = t.enter((0, 2), outer, 2);
        // Accesses in different inner instances at different outer
        // iterations: carried by the outer loop.
        assert_eq!(t.carried_by(inner1, 3, inner2, 3), Some((0, 1)));
        // Same outer iteration, different inner instances (e.g. two inner
        // loops in the same body): not carried.
        let inner3 = t.enter((0, 3), outer, 2);
        assert_eq!(t.carried_by(inner2, 1, inner3, 1), None);
    }

    #[test]
    fn no_loop_not_carried() {
        let t = InstanceTable::new();
        assert_eq!(t.carried_by(NO_INSTANCE, 0, NO_INSTANCE, 0), None);
    }

    #[test]
    fn loop_context_tracks_iterations() {
        let mut ctx = LoopContext::new();
        let mut table = InstanceTable::new();
        let enter = Event::RegionEnter {
            func: 0,
            region: 1,
            kind: mir::RegionKind::Loop,
            start_line: 2,
            end_line: 5,
            thread: 0,
        };
        ctx.handle(&enter, &mut table);
        ctx.handle(
            &Event::LoopIter {
                func: 0,
                region: 1,
                thread: 0,
            },
            &mut table,
        );
        assert_eq!(ctx.current(0), (0, 1));
        ctx.handle(
            &Event::LoopIter {
                func: 0,
                region: 1,
                thread: 0,
            },
            &mut table,
        );
        assert_eq!(ctx.current(0), (0, 2));
        let m = MemEvent {
            is_write: true,
            addr: 64,
            op: 0,
            line: 3,
            var: 0,
            thread: 0,
            ts: 10,
        };
        let a = ctx.handle(&Event::Mem(m), &mut table).unwrap();
        assert_eq!(a.instance, 0);
        assert_eq!(a.iter, 2);
    }

    #[test]
    fn branch_regions_do_not_affect_loop_stack() {
        let mut ctx = LoopContext::new();
        let mut table = InstanceTable::new();
        let enter = Event::RegionEnter {
            func: 0,
            region: 1,
            kind: mir::RegionKind::Branch,
            start_line: 2,
            end_line: 3,
            thread: 0,
        };
        ctx.handle(&enter, &mut table);
        assert_eq!(ctx.current(0), (NO_INSTANCE, 0));
        assert!(table.is_empty());
    }
}
