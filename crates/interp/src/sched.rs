//! The run-queue scheduler: deterministic cooperative scheduling for
//! actors (green threads), shared by [`crate::machine`] and
//! [`crate::reference`].
//!
//! Scheduling used to live inside the interpreters as an ad-hoc
//! `Vec<Thread>` round-robin with a linear wake scan over every blocked
//! thread per slice — O(threads) per scheduling decision, and unable to
//! express blocking message-passing. This module extracts the policy into
//! one component both interpreters share:
//!
//! - a FIFO **ready queue** ([`Scheduler::pick`]/[`Scheduler::yield_back`])
//!   giving fair round-robin slices;
//! - typed **wait reasons** ([`WaitReason`]) with per-resource wait lists,
//!   so parking and waking are O(1) in the number of actors — a `join`
//!   wake touches only the join's waiters, an `unlock` only that lock's
//!   queue, a `send` only the receiver;
//! - `running`/`sleeping`/`dead` accounting (`live`, `peak_live`,
//!   [`Scheduler::blocked_actors`]) that makes deadlocks reportable with
//!   *who waits on what* instead of a bare error;
//! - the seeded slice-length jitter ([`Scheduler::next_quantum`]), moved
//!   here so both interpreters draw from the identical sequence.
//!
//! Determinism contract: every method is a pure function of the call
//! sequence and the seed. Wait lists wake in park order, the ready queue
//! is FIFO, and the jitter RNG is the same xorshift the old scheduler
//! used — so the machine and the reference interpreter, driving one
//! `Scheduler` each through identical call sequences, make identical
//! scheduling decisions and their event streams stay byte-comparable.

use fxhash::FxHashMap;
use std::collections::VecDeque;
use std::fmt;

/// Opaque actor (green thread) identifier: the index into the
/// interpreter's actor table. Thread ids and actor ids are the same
/// namespace — every thread is an actor with a mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u32);

impl ActorId {
    /// The actor's index into per-actor tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Why a sleeping actor is parked — the typed wake reasons that replace
/// the old linear `BlockedJoin`/`BlockedLock` scans. Each variant has a
/// dedicated wait list keyed by the awaited resource, so the wake on the
/// resource's state change is O(waiters), not O(actors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// `join(target)`: waiting for `target` to finish.
    Join(ActorId),
    /// `lock(id)`: waiting for the lock to be released.
    Lock(i64),
    /// `receive()`: waiting for a message in the actor's own mailbox.
    Receive,
    /// `send(target, …)`: waiting for capacity in `target`'s bounded
    /// mailbox.
    SendCap(ActorId),
}

impl fmt::Display for WaitReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitReason::Join(t) => write!(f, "join({t})"),
            WaitReason::Lock(l) => write!(f, "lock({l})"),
            WaitReason::Receive => write!(f, "receive()"),
            WaitReason::SendCap(t) => write!(f, "send to full mailbox of actor {t}"),
        }
    }
}

/// Lifecycle state of one actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActorState {
    /// Runnable: in the ready queue, or currently holding the slice.
    Ready,
    /// Parked on the contained reason; registered in that resource's wait
    /// list (except [`WaitReason::Receive`], whose wake target is the
    /// actor itself).
    Sleeping(WaitReason),
    /// Returned from its root frame. Terminal.
    Dead,
}

/// The deterministic run queue. See the module docs for the contract.
#[derive(Debug)]
pub struct Scheduler {
    /// Runnable actors in dispatch order. The actor holding the current
    /// slice is *not* in the queue (popped by [`Scheduler::pick`], pushed
    /// back by [`Scheduler::yield_back`] if still runnable).
    ready: VecDeque<ActorId>,
    state: Vec<ActorState>,
    /// Actors parked on `join` of the key, in park order.
    join_waiters: FxHashMap<u32, Vec<ActorId>>,
    /// Actors parked on `lock` of the key, in park order.
    lock_waiters: FxHashMap<i64, Vec<ActorId>>,
    /// Actors parked on `send` to the key's full mailbox, in park order.
    send_waiters: FxHashMap<u32, Vec<ActorId>>,
    /// Actors not yet dead (ready or sleeping).
    live: usize,
    /// High-water mark of `live`.
    peak_live: usize,
    /// Slice-length jitter RNG (xorshift, seeded).
    rng: u64,
}

impl Scheduler {
    /// A scheduler with no actors. `seed` drives only the slice-length
    /// jitter; the queue and wake orders are fully deterministic.
    pub fn new(seed: u64) -> Self {
        Scheduler {
            ready: VecDeque::new(),
            state: Vec::new(),
            join_waiters: FxHashMap::default(),
            lock_waiters: FxHashMap::default(),
            send_waiters: FxHashMap::default(),
            live: 0,
            peak_live: 0,
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Register a new actor, runnable at the back of the queue. Returns
    /// its id; ids are assigned densely in spawn order.
    pub fn spawn(&mut self) -> ActorId {
        let id = ActorId(self.state.len() as u32);
        self.state.push(ActorState::Ready);
        self.ready.push_back(id);
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        id
    }

    /// Take the next runnable actor off the queue, or `None` when nothing
    /// can run (all dead, or deadlock — distinguish with
    /// [`Scheduler::all_dead`]).
    pub fn pick(&mut self) -> Option<ActorId> {
        self.ready.pop_front()
    }

    /// Return the slice holder to the back of the queue if it is still
    /// runnable (it may have parked or died during its slice).
    pub fn yield_back(&mut self, a: ActorId) {
        if self.state[a.index()] == ActorState::Ready {
            self.ready.push_back(a);
        }
    }

    /// Is the actor runnable right now? The interpreters' slice loops
    /// check this after every blocking-capable operation.
    pub fn is_ready(&self, a: ActorId) -> bool {
        self.state[a.index()] == ActorState::Ready
    }

    /// Is the slice holder the only runnable actor? Then yielding it back
    /// and picking again returns it at once, so a slice boundary changes
    /// nothing but the quantum draw — the plan replayer re-slices in place
    /// on this (see `Interp::reslice`).
    pub fn holder_is_alone(&self) -> bool {
        self.ready.is_empty()
    }

    /// Has the actor returned from its root frame?
    pub fn is_dead(&self, a: ActorId) -> bool {
        self.state[a.index()] == ActorState::Dead
    }

    /// Park the slice holder on `reason`, registering it in the
    /// resource's wait list. The caller must not `yield_back` a parked
    /// actor (it is woken by the resource's state change instead).
    pub fn park(&mut self, a: ActorId, reason: WaitReason) {
        debug_assert_eq!(self.state[a.index()], ActorState::Ready);
        self.state[a.index()] = ActorState::Sleeping(reason);
        match reason {
            WaitReason::Join(t) => self.join_waiters.entry(t.0).or_default().push(a),
            WaitReason::Lock(l) => self.lock_waiters.entry(l).or_default().push(a),
            WaitReason::SendCap(t) => self.send_waiters.entry(t.0).or_default().push(a),
            // The mailbox owner itself is the wake target; no list needed.
            WaitReason::Receive => {}
        }
    }

    /// Make a sleeping actor runnable again at the back of the queue.
    /// No-op for ready or dead actors, so wake notifications can be sent
    /// unconditionally.
    fn wake(&mut self, a: ActorId) {
        if matches!(self.state[a.index()], ActorState::Sleeping(_)) {
            self.state[a.index()] = ActorState::Ready;
            self.ready.push_back(a);
        }
    }

    /// The actor returned from its root frame: mark it dead and wake all
    /// its joiners (they retry `join`, which now completes).
    pub fn actor_died(&mut self, a: ActorId) {
        debug_assert_ne!(self.state[a.index()], ActorState::Dead);
        self.state[a.index()] = ActorState::Dead;
        self.live -= 1;
        if let Some(ws) = self.join_waiters.remove(&a.0) {
            for w in ws {
                self.wake(w);
            }
        }
    }

    /// A lock was released: wake all its waiters in park order. Each
    /// retries `lock`; the first scheduled takes it and the rest re-park,
    /// so no wakeup is ever lost.
    pub fn lock_released(&mut self, lock: i64) {
        if let Some(ws) = self.lock_waiters.remove(&lock) {
            for w in ws {
                self.wake(w);
            }
        }
    }

    /// A message arrived in `target`'s mailbox: wake it if it is parked
    /// on `receive`.
    pub fn message_arrived(&mut self, target: ActorId) {
        if self.state[target.index()] == ActorState::Sleeping(WaitReason::Receive) {
            self.wake(target);
        }
    }

    /// A slot freed up in `target`'s mailbox: wake all senders parked on
    /// its capacity, in park order. Each retries `send`; those that still
    /// find the mailbox full re-park.
    pub fn mailbox_slot_freed(&mut self, target: ActorId) {
        if let Some(ws) = self.send_waiters.remove(&target.0) {
            for w in ws {
                self.wake(w);
            }
        }
    }

    /// Every actor has finished (program completion, as opposed to
    /// deadlock when [`Scheduler::pick`] returns `None`).
    pub fn all_dead(&self) -> bool {
        self.live == 0
    }

    /// Actors ever registered.
    pub fn spawned(&self) -> u32 {
        self.state.len() as u32
    }

    /// High-water mark of simultaneously live actors.
    pub fn peak_live(&self) -> u32 {
        self.peak_live as u32
    }

    /// Every sleeping actor with its wait reason, in id order — the
    /// deadlock report. Non-empty whenever `pick` returned `None` but
    /// `all_dead` is false.
    pub fn blocked_actors(&self) -> Vec<(u32, WaitReason)> {
        self.state
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                ActorState::Sleeping(r) => Some((i as u32, *r)),
                _ => None,
            })
            .collect()
    }

    /// Draw the next slice length: `base + (rng % base)` instructions,
    /// the same seeded jitter the pre-refactor schedulers applied.
    pub fn next_quantum(&mut self, base: u32) -> u32 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let drawn = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        base + (drawn % base.max(1) as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_round_robin_order() {
        let mut s = Scheduler::new(1);
        let a = s.spawn();
        let b = s.spawn();
        let c = s.spawn();
        assert_eq!(s.pick(), Some(a));
        s.yield_back(a);
        assert_eq!(s.pick(), Some(b));
        s.yield_back(b);
        assert_eq!(s.pick(), Some(c));
        s.yield_back(c);
        assert_eq!(s.pick(), Some(a));
    }

    #[test]
    fn holder_is_alone_tracks_the_ready_queue() {
        let mut s = Scheduler::new(1);
        let a = s.spawn();
        assert_eq!(s.pick(), Some(a));
        assert!(s.holder_is_alone());
        let b = s.spawn();
        assert!(!s.holder_is_alone(), "b is runnable");
        s.yield_back(a);
        assert_eq!(s.pick(), Some(b));
        s.park(b, WaitReason::Join(a));
        assert_eq!(s.pick(), Some(a));
        assert!(s.holder_is_alone(), "a sleeping actor is not runnable");
    }

    #[test]
    fn park_and_wake_join() {
        let mut s = Scheduler::new(1);
        let a = s.spawn();
        let b = s.spawn();
        assert_eq!(s.pick(), Some(a));
        s.park(a, WaitReason::Join(b));
        assert_eq!(s.pick(), Some(b));
        s.actor_died(b);
        // a woken by b's death, at the back of the (empty) queue.
        assert_eq!(s.pick(), Some(a));
        assert!(s.is_ready(a));
        assert!(s.is_dead(b));
    }

    #[test]
    fn lock_waiters_wake_in_park_order() {
        let mut s = Scheduler::new(1);
        let a = s.spawn();
        let b = s.spawn();
        let c = s.spawn();
        s.pick();
        s.yield_back(a);
        s.pick();
        s.park(b, WaitReason::Lock(7));
        s.pick();
        s.park(c, WaitReason::Lock(7));
        s.lock_released(7);
        // Queue: a (yielded), then b and c in park order.
        assert_eq!(s.pick(), Some(a));
        assert_eq!(s.pick(), Some(b));
        assert_eq!(s.pick(), Some(c));
    }

    #[test]
    fn receive_wake_only_when_parked() {
        let mut s = Scheduler::new(1);
        let a = s.spawn();
        // Not parked: a send notification must not enqueue a twice.
        s.message_arrived(a);
        assert_eq!(s.pick(), Some(a));
        assert_eq!(s.pick(), None);
        s.park(a, WaitReason::Receive);
        s.message_arrived(a);
        assert_eq!(s.pick(), Some(a));
    }

    #[test]
    fn deadlock_report_lists_waiters() {
        let mut s = Scheduler::new(1);
        let a = s.spawn();
        let b = s.spawn();
        s.pick();
        s.park(a, WaitReason::Join(b));
        s.pick();
        s.park(b, WaitReason::Lock(3));
        assert_eq!(s.pick(), None);
        assert!(!s.all_dead());
        let blocked = s.blocked_actors();
        assert_eq!(blocked.len(), 2);
        assert_eq!(blocked[0], (0, WaitReason::Join(b)));
        assert_eq!(blocked[1], (1, WaitReason::Lock(3)));
    }

    #[test]
    fn live_accounting_tracks_peak() {
        let mut s = Scheduler::new(1);
        let a = s.spawn();
        let _b = s.spawn();
        s.actor_died(a);
        let _c = s.spawn();
        assert_eq!(s.spawned(), 3);
        assert_eq!(s.peak_live(), 2);
        assert!(!s.all_dead());
    }

    #[test]
    fn quantum_jitter_is_seed_deterministic() {
        let mut s1 = Scheduler::new(42);
        let mut s2 = Scheduler::new(42);
        let mut s3 = Scheduler::new(43);
        let a: Vec<u32> = (0..8).map(|_| s1.next_quantum(64)).collect();
        let b: Vec<u32> = (0..8).map(|_| s2.next_quantum(64)).collect();
        let c: Vec<u32> = (0..8).map(|_| s3.next_quantum(64)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&q| (64..128).contains(&q)));
    }
}
