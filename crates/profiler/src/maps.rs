//! Access-status storage: approximate signatures, the exact page-table
//! shadow memory, and the legacy hash-map baseline.
//!
//! DiscoPoP records the last read and last write to every address. The
//! production configuration uses a *signature* (§2.3.2) — a fixed-size array
//! indexed by a hash of the address, with **no stored tag**: colliding
//! addresses silently share a slot, which is exactly the approximation that
//! produces the false positives/negatives quantified in Table 2.6. The
//! *perfect* map stores per-address state exactly (the "perfect signature"
//! of §2.5.1) and serves as ground truth.
//!
//! # What a slot stores
//!
//! Every map stores one 48-byte [`Slot`] per address (per hash bucket, for a
//! signature): the status of the last read and of the last write, side by
//! side. Each half is a 24-byte [`Cell`]: the access's timestamp, static op
//! id, loop instance, iteration and thread. Source line and variable are
//! *not* stored — they are fully determined by the op id
//! ([`interp::Program::mem_op_meta`]), so the dependence builder looks them
//! up when (and only when) it builds a dependence. An empty half is a cell
//! whose op id is `u32::MAX` — no `Option` discriminant, so a fresh page is
//! one `memset`-style fill.
//!
//! # One probe per access
//!
//! Algorithm 2 reads an address's read *and* write status and then stores
//! one of them. With both halves in one slot, an access pays one hash, one
//! page lookup and one slot reference ([`AccessMap::entry`]) and does all
//! three through it; with a map per half a write paid three lookups. The
//! price is that a page is charged whole: a region that is only ever read
//! carries its empty write halves.
//!
//! # Shadow-memory layout
//!
//! [`PerfectMap`] is a two-level page table over *word* addresses (the
//! interpreter emits 8-byte-aligned addresses only):
//!
//! ```text
//! addr:  63 ............ 6 | 5 ........ 3 | 2..0
//!        page id           | slot in page | 0 (word-aligned)
//!
//!   page cache (16 entries, indexed by a hash of the page id)
//!        │ miss
//!        ▼
//!   dir: page id ─► arena index ─► pages[index]: [Slot; 8]   (384 B)
//! ```
//!
//! Each page shadows 64 bytes of target address space (8 word slots), so a
//! touched region costs 384 B however far it lies from its neighbours — an
//! actor's stack or mailbox, 16 MiB from the next one, costs what it touches
//! rather than what a 4 KiB page would round it up to. Pages live in a
//! grow-only arena (`Vec<Box<Page>>`); a directory keyed with the in-repo
//! [`fxhash`] hasher maps page ids to arena indices, and a small
//! direct-mapped cache in front of it short-circuits the directory for the
//! pages a loop body cycles through. The cache is indexed by a *hash* of
//! the page id, not its low bits: arrays allocated back to back sit a power
//! of two apart, so `a[i]` and `b[i]` would evict each other on every access
//! under low-bit indexing. Compared with the seed's `HashMap` shadow
//! ([`HashShadowMap`], kept as the equivalence-test baseline), a hit costs a
//! multiply/shift plus an indexed load instead of a SipHash probe, and
//! `clear_range` walks slots directly instead of re-hashing every word.

use crate::access::Access;
use fxhash::FxHashMap;
use std::cell::Cell as StdCell;

/// Op id of an empty cell (and the engine's "no status" marker). Real op
/// ids are dense from 0, so the all-ones id never names an access.
pub(crate) const NO_OP: u32 = u32::MAX;

/// Status of the most recent access of one direction recorded for an
/// address: the `accessInfo` of §2.4 plus the thread and the loop context
/// used for inter-iteration tagging. Source line and variable are resolved
/// from the op id through [`interp::Program::mem_op_meta`] when a
/// dependence is built; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Timestamp of the access.
    pub ts: u64,
    /// Static memory-operation id of the access.
    pub op: u32,
    /// Innermost loop instance.
    pub instance: u32,
    /// Iteration within that instance.
    pub iter: u32,
    /// Thread that performed the access.
    pub thread: u32,
}

impl Cell {
    /// The stored form of "no access recorded".
    pub const EMPTY: Cell = Cell {
        ts: 0,
        op: NO_OP,
        instance: 0,
        iter: 0,
        thread: 0,
    };

    /// Build a cell from an access record.
    pub fn from_access(a: &Access) -> Self {
        debug_assert_ne!(a.op, NO_OP, "op id u32::MAX is the empty-cell marker");
        Cell {
            ts: a.ts,
            op: a.op,
            instance: a.instance,
            iter: a.iter,
            thread: a.thread,
        }
    }

    /// True when no access is recorded here.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.op == NO_OP
    }

    /// A stored cell as the status the engine sees.
    #[inline]
    pub fn status(self) -> Option<Cell> {
        (!self.is_empty()).then_some(self)
    }
}

/// What a map stores per address: the last read's and the last write's
/// status, probed together (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Status of the last read.
    pub read: Cell,
    /// Status of the last write.
    pub write: Cell,
}

impl Slot {
    /// A slot with neither half recorded.
    pub const EMPTY: Slot = Slot {
        read: Cell::EMPTY,
        write: Cell::EMPTY,
    };

    /// True when neither half is recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.read.is_empty() && self.write.is_empty()
    }

    /// Recorded halves: 0, 1 or 2.
    fn cells(&self) -> usize {
        usize::from(!self.read.is_empty()) + usize::from(!self.write.is_empty())
    }

    /// Fold `other` into `self` half by half, keeping the newer cell of
    /// each. Returns how many halves held a cell on both sides.
    fn merge_newest(&mut self, other: &Slot) -> u64 {
        let mut merged = 0;
        for (mine, theirs) in [(&mut self.read, other.read), (&mut self.write, other.write)] {
            if theirs.is_empty() {
                continue;
            }
            if !mine.is_empty() {
                merged += 1;
                if mine.ts >= theirs.ts {
                    continue;
                }
            }
            *mine = theirs;
        }
        merged
    }
}

/// Common interface over signature and perfect storage, so the dependence
/// engine is generic over the accuracy/space trade-off.
///
/// Addresses are word-granular: the interpreter only emits 8-byte-aligned
/// addresses, and implementations may key their storage on `addr >> 3`.
pub trait AccessMap {
    /// True when distinct addresses never share a slot, so accesses to
    /// disjoint address ranges cannot interact through the map. Resolving a
    /// plan run range by range ([`crate::engine::DepBuilder::process_run`])
    /// rests on this; signatures alias and keep the per-event path.
    const EXACT: bool = false;

    /// The slot `addr` maps to as it stands ([`Slot::EMPTY`] where nothing
    /// is stored). Never allocates.
    fn get(&self, addr: u64) -> Slot;
    /// The slot `addr` maps to, allocated on first touch: the one probe an
    /// access pays to read both statuses and store its own.
    fn entry(&mut self, addr: u64) -> &mut Slot;
    /// Evict a contiguous word range (variable-lifetime analysis, §2.3.5).
    fn clear_range(&mut self, addr: u64, words: u64);
    /// Bytes of memory held by this map.
    fn bytes(&self) -> usize;
}

/// Slots per lazily-allocated signature page (48 KiB of slots): coarse
/// enough that the spine stays tiny, fine enough that sparse workloads touch
/// only a few pages.
const SIG_PAGE: usize = 1 << 10;

/// Fixed-size, hash-indexed signature with no collision resolution.
///
/// Slot storage is paged and filled lazily: a fresh map allocates only the
/// page spine (`slots / 1024` pointers), and a page is allocated on the
/// first [`AccessMap::entry`] that lands in it. This removes the startup
/// cliff of a flat `Vec` — megabytes of up-front fill at the default 2^18
/// slots — which dominated profiled time on small workloads. Slot indexing
/// is unchanged (`hash_addr` over the same slot count), so dependence output
/// is bit-for-bit that of the flat layout.
#[derive(Debug, Clone)]
pub struct SignatureMap {
    /// Lazily allocated pages of `SIG_PAGE` slots each; `None` = never
    /// touched, all slots empty.
    pages: Vec<Option<Box<[Slot]>>>,
    /// Logical slot count (the hash modulus).
    slots: usize,
}

/// Fibonacci multiplicative hash on the word address. The xor-fold pulls
/// the high (well-mixed) product bits into the low bits so that the slot
/// index — including under power-of-two lengths — sees full entropy;
/// without it, addresses sharing low word-index bits collide systematically.
#[inline]
fn fold_addr(addr: u64) -> u64 {
    let h = (addr >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// Slot of `addr` among `len`: `fold_addr(addr) % len`, computed as a mask
/// when `len` is a power of two (the ladder's slot counts and every default
/// are), which is the same value without a hardware divide.
#[inline]
fn hash_addr(addr: u64, len: usize) -> usize {
    let h = fold_addr(addr);
    let len = len as u64;
    if len.is_power_of_two() {
        (h & (len - 1)) as usize
    } else {
        (h % len) as usize
    }
}

impl SignatureMap {
    /// A signature with `slots` slots (the paper evaluates 1e6–1e8). Costs
    /// one spine allocation; no slot memory is touched until first use.
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1);
        SignatureMap {
            pages: vec![None; slots.div_ceil(SIG_PAGE)],
            slots,
        }
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.slots
    }

    /// Recorded cells across both halves of every slot (for fill-factor
    /// diagnostics: out of `2 × num_slots()`).
    pub fn occupied(&self) -> usize {
        self.pages
            .iter()
            .flatten()
            .map(|p| p.iter().map(Slot::cells).sum::<usize>())
            .sum()
    }

    /// Slot `i`, allocating its page on first touch.
    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut Slot {
        let page = self.pages[i / SIG_PAGE]
            .get_or_insert_with(|| vec![Slot::EMPTY; SIG_PAGE].into_boxed_slice());
        &mut page[i % SIG_PAGE]
    }

    /// Slot `i` as stored (no hashing, no allocation).
    #[inline]
    fn slot(&self, i: usize) -> Slot {
        self.pages[i / SIG_PAGE]
            .as_ref()
            .map_or(Slot::EMPTY, |p| p[i % SIG_PAGE])
    }

    /// Build a signature from an exact shadow: every resident `(addr, slot)`
    /// is inserted through the normal hash, colliding entries resolved half
    /// by half by keeping the **newest** timestamp — exactly the state a
    /// signature that had seen the same access stream would hold for the
    /// *last* read and the *last* write per slot. The first rung of the
    /// degradation ladder.
    pub fn from_perfect(perfect: &PerfectMap, slots: usize) -> Self {
        let mut sig = SignatureMap::new(slots);
        for (addr, slot) in perfect.entries() {
            let i = hash_addr(addr, sig.slots);
            sig.slot_mut(i).merge_newest(&slot);
        }
        sig
    }

    /// Halve the slot count in place, merging slot `i` with slot
    /// `i + m/2` half by half (newest timestamp wins). Exact at the slot
    /// level: for even `m`, `hash % (m/2) == (hash % m) % (m/2)` (and the
    /// mask form agrees with `%`), so every address lands in precisely the
    /// slot a fresh signature of `m/2` slots would use — the halving rung
    /// of the degradation ladder re-keys without knowing any addresses.
    /// Returns the number of merges of two recorded cells, summed over both
    /// halves.
    ///
    /// # Panics
    /// If the slot count is odd (the ladder never halves odd counts).
    pub fn halve(&mut self) -> u64 {
        assert!(
            self.slots.is_multiple_of(2),
            "cannot halve an odd slot count"
        );
        let half = self.slots / 2;
        let mut merged = 0u64;
        for i in 0..half {
            let high = self.slot(i + half);
            if !high.is_empty() {
                merged += self.slot_mut(i).merge_newest(&high);
            }
        }
        // Drop the upper pages entirely; a straddling page keeps only its
        // lower-half slots.
        let keep_pages = half.div_ceil(SIG_PAGE);
        self.pages.truncate(keep_pages);
        let tail = half % SIG_PAGE;
        if tail != 0 {
            if let Some(Some(page)) = self.pages.last_mut().map(|p| p.as_mut()) {
                page[tail..].fill(Slot::EMPTY);
            }
        }
        self.slots = half;
        merged
    }
}

impl AccessMap for SignatureMap {
    #[inline]
    fn get(&self, addr: u64) -> Slot {
        self.slot(hash_addr(addr, self.slots))
    }

    #[inline]
    fn entry(&mut self, addr: u64) -> &mut Slot {
        let i = hash_addr(addr, self.slots);
        self.slot_mut(i)
    }

    fn clear_range(&mut self, addr: u64, words: u64) {
        for w in 0..words {
            let i = hash_addr(addr + w * 8, self.slots);
            // Clearing an unallocated page is a no-op; don't allocate it.
            if let Some(page) = self.pages[i / SIG_PAGE].as_mut() {
                page[i % SIG_PAGE] = Slot::EMPTY;
            }
        }
    }

    fn bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<Option<Box<[Slot]>>>()
            + self.pages.iter().flatten().count() * SIG_PAGE * std::mem::size_of::<Slot>()
    }
}

/// Word slots per shadow page: one page covers 64 bytes of address space
/// and costs 384 bytes. The size is a trade between scattered and dense
/// targets: a region of a few touched words (an actor's stack, a mailbox)
/// costs one page whatever the page size, while a dense sweep pays one
/// directory entry and one page-cache refill per page.
///
/// Eight is the measured knee (the benchmark at seed 1 on a 2-core host).
/// At 64 words, `actors_10k`'s 10,128 live words held about 21,700 pages,
/// 66.8 MB of shadow whose allocation and first touch were about 40% of
/// the job; at 8 the shadow is 13.0 MB and `analyze_ms` reads 99.3 →
/// 64.6 ms, while the dense workloads read the same. Rejected:
/// - 4 words: `suite_sweep` reads about 4% slower (72.9/72.8/73.4 →
///   75.0/76.2/76.9 ms);
/// - 16 words: 20.7 MB of shadow on `actors_10k` and no extra speed;
/// - a flat table for the globals, grown by doubling: a doubling overshoots
///   a memory ceiling, and `fault_injection`'s
///   `a_forced_spawn_under_a_ceiling_stays_home` fails ("every rung lands
///   back under the ceiling");
/// - a slab of 64 pages in place of one `Box` per page: no faster.
const PAGE_WORDS: usize = 8;
/// Address bits consumed by the in-page slot (3 word bits + 3 slot bits).
const PAGE_SHIFT: u32 = 6;
/// Entries in the direct-mapped page cache (a power of two). A loop body
/// cycles through a handful of pages — its arrays' current pages plus a
/// stack page — and sixteen hashed entries keep them all resident.
const PAGE_CACHE: usize = 16;
/// Sentinel page id of an empty page-cache entry.
const NO_PAGE: u64 = u64::MAX;

type Page = [Slot; PAGE_WORDS];

/// Exact shadow memory: a two-level page table over word addresses.
///
/// O(1) per access with no directory probe on the page-cache fast path; see
/// the module docs for the layout. Pages are never freed while the map
/// lives — `clear_range` empties slots but keeps the page allocated, so
/// page-cache entries stay valid and address ranges that are reused (stack
/// frames) never reallocate.
#[derive(Debug, Clone)]
pub struct PerfectMap {
    /// Page id → index into `pages`.
    dir: FxHashMap<u64, u32>,
    /// Grow-only page arena. Pages are boxed so that growing the spine
    /// moves pointers, never pages, and reserves no page storage ahead of
    /// use: held bytes are the touched pages plus the spine's capacity and
    /// the directory's ([`AccessMap::bytes`]).
    #[allow(clippy::vec_box)]
    pages: Vec<Box<Page>>,
    /// Recently touched pages as `(page id, arena index)`, indexed by
    /// [`PerfectMap::cache_way`]; avoids the directory probe for the pages
    /// a loop body keeps returning to.
    cache: [StdCell<(u64, u32)>; PAGE_CACHE],
}

impl Default for PerfectMap {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfectMap {
    /// An empty perfect map.
    pub fn new() -> Self {
        PerfectMap {
            dir: FxHashMap::default(),
            pages: Vec::new(),
            cache: std::array::from_fn(|_| StdCell::new((NO_PAGE, 0))),
        }
    }

    /// Number of distinct addresses with a recorded read or write (a walk
    /// over the pages; diagnostics and tests).
    pub fn len(&self) -> usize {
        self.pages
            .iter()
            .map(|p| p.iter().filter(|s| !s.is_empty()).count())
            .sum()
    }

    /// True if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shadow pages allocated (diagnostics).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Page-cache entry a page id maps to: the top bits of a Fibonacci
    /// hash, so ids a power of two apart spread instead of colliding.
    #[inline]
    fn cache_way(id: u64) -> usize {
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - PAGE_CACHE.trailing_zeros())) as usize
    }

    /// Arena index of `addr`'s page, if the page exists; refreshes the
    /// page cache.
    #[inline]
    fn find_page(&self, addr: u64) -> Option<u32> {
        let id = addr >> PAGE_SHIFT;
        let way = &self.cache[Self::cache_way(id)];
        let (cid, cidx) = way.get();
        if cid == id {
            return Some(cidx);
        }
        let idx = *self.dir.get(&id)?;
        way.set((id, idx));
        Some(idx)
    }

    /// Arena index of `addr`'s page, allocating it on first touch.
    #[inline]
    fn find_or_alloc_page(&mut self, addr: u64) -> u32 {
        if let Some(idx) = self.find_page(addr) {
            return idx;
        }
        let id = addr >> PAGE_SHIFT;
        let idx = self.pages.len() as u32;
        self.pages.push(Box::new([Slot::EMPTY; PAGE_WORDS]));
        self.dir.insert(id, idx);
        self.cache[Self::cache_way(id)].set((id, idx));
        idx
    }

    #[inline]
    fn slot_of(addr: u64) -> usize {
        (addr >> 3) as usize & (PAGE_WORDS - 1)
    }

    /// Every `(address, slot)` pair with a recorded half, in unspecified
    /// order. Exact maps are enumerable — which is what lets the
    /// degradation ladder re-key an exact shadow into a signature
    /// ([`SignatureMap::from_perfect`]); a signature stores no addresses.
    pub fn entries(&self) -> Vec<(u64, Slot)> {
        let mut out = Vec::new();
        for (&id, &idx) in &self.dir {
            let page = &self.pages[idx as usize];
            for (s, slot) in page.iter().enumerate() {
                if !slot.is_empty() {
                    out.push(((id << PAGE_SHIFT) | ((s as u64) << 3), *slot));
                }
            }
        }
        out
    }
}

impl AccessMap for PerfectMap {
    const EXACT: bool = true;

    #[inline]
    fn get(&self, addr: u64) -> Slot {
        debug_assert_eq!(addr & 7, 0, "PerfectMap requires word-aligned addresses");
        self.find_page(addr).map_or(Slot::EMPTY, |idx| {
            self.pages[idx as usize][Self::slot_of(addr)]
        })
    }

    #[inline]
    fn entry(&mut self, addr: u64) -> &mut Slot {
        debug_assert_eq!(addr & 7, 0, "PerfectMap requires word-aligned addresses");
        let idx = self.find_or_alloc_page(addr);
        &mut self.pages[idx as usize][Self::slot_of(addr)]
    }

    fn clear_range(&mut self, addr: u64, words: u64) {
        // Walk page by page so a frame-sized range costs one page lookup
        // per page instead of one per word.
        let mut word = addr >> 3;
        let end = word + words;
        while word < end {
            let page_addr = word << 3;
            let in_page = (word as usize) & (PAGE_WORDS - 1);
            let take = (PAGE_WORDS - in_page).min((end - word) as usize);
            if let Some(idx) = self.find_page(page_addr) {
                self.pages[idx as usize][in_page..in_page + take].fill(Slot::EMPTY);
            }
            word += take as u64;
        }
    }

    fn bytes(&self) -> usize {
        self.pages.len() * std::mem::size_of::<Page>()
            + self.pages.capacity() * std::mem::size_of::<Box<Page>>()
            + self.dir.capacity() * std::mem::size_of::<(u64, u32)>()
    }
}

/// The seed's exact shadow memory: one `HashMap` entry per address.
///
/// Superseded by the page-table [`PerfectMap`] on every profiling path;
/// retained only as the independent reference implementation the
/// equivalence tests compare against.
#[derive(Debug, Clone, Default)]
pub struct HashShadowMap {
    map: std::collections::HashMap<u64, Slot>,
}

impl HashShadowMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct addresses with a recorded read or write.
    pub fn len(&self) -> usize {
        self.map.values().filter(|s| !s.is_empty()).count()
    }

    /// True if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl AccessMap for HashShadowMap {
    #[inline]
    fn get(&self, addr: u64) -> Slot {
        self.map.get(&addr).copied().unwrap_or(Slot::EMPTY)
    }

    #[inline]
    fn entry(&mut self, addr: u64) -> &mut Slot {
        self.map.entry(addr).or_insert(Slot::EMPTY)
    }

    fn clear_range(&mut self, addr: u64, words: u64) {
        for w in 0..words {
            self.map.remove(&(addr + w * 8));
        }
    }

    fn bytes(&self) -> usize {
        // Approximation: entry = key + value + bucket overhead.
        self.map.capacity() * (std::mem::size_of::<(u64, Slot)>() + 8)
    }
}

/// Estimated false-positive probability of a signature after inserting `n`
/// distinct addresses into `m` slots (dissertation Eq. 2.2):
/// `P = 1 - (1 - 1/m)^n`.
pub fn estimated_fp_rate(m: usize, n: usize) -> f64 {
    1.0 - (1.0 - 1.0 / m as f64).powi(n as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(op: u32) -> Cell {
        Cell {
            ts: 0,
            op,
            instance: u32::MAX,
            iter: 0,
            thread: 0,
        }
    }

    /// A cell stamped `ts` (newest-wins merges compare timestamps).
    fn stamped(op: u32, ts: u64) -> Cell {
        Cell { ts, ..cell(op) }
    }

    /// Store `c` into `addr`'s read or write half.
    fn put(m: &mut impl AccessMap, addr: u64, write: bool, c: Cell) {
        let slot = m.entry(addr);
        if write {
            slot.write = c;
        } else {
            slot.read = c;
        }
    }

    fn xorshift(mut rng: u64) -> impl FnMut() -> u64 {
        move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn signature_roundtrip_no_collision() {
        let mut s = SignatureMap::new(1 << 16);
        put(&mut s, 0x1000, true, cell(7));
        put(&mut s, 0x1000, false, cell(8));
        let slot = s.get(0x1000);
        assert_eq!((slot.write.op, slot.read.op), (7, 8));
        assert!(s.get(0x2000).is_empty());
    }

    #[test]
    fn slot_is_two_cells() {
        assert_eq!(std::mem::size_of::<Cell>(), 24);
        assert_eq!(std::mem::size_of::<Slot>(), 48);
    }

    #[test]
    fn mask_equals_modulo_for_every_power_of_two() {
        // The halving proof is stated for `%`; the mask must be the same
        // function wherever it is taken.
        let mut next = xorshift(0x3a5c);
        for k in 0..=30 {
            let len = 1usize << k;
            for _ in 0..2_000 {
                let addr = next() & !7;
                assert_eq!(
                    hash_addr(addr, len) as u64,
                    fold_addr(addr) % len as u64,
                    "2^{k} at {addr:#x}"
                );
            }
        }
        // Non-powers keep the divide.
        assert_eq!(hash_addr(0x1238, 1021) as u64, fold_addr(0x1238) % 1021);
    }

    #[test]
    fn halving_matches_fresh_smaller_signature() {
        // For a monotone-timestamp insert stream, halving a 2m-slot
        // signature must leave exactly the state an m-slot signature built
        // from the same stream would hold, in both halves of every slot —
        // the slot-level re-key identity the degradation ladder relies on.
        // The merge count is the number of recorded-cell pairs the halving
        // folded, summed over both halves.
        let (big_slots, small_slots) = (1 << 10, 1 << 9);
        let mut big = SignatureMap::new(big_slots);
        let mut small = SignatureMap::new(small_slots);
        let addr = |k: u64| (k * 0x39_41u64) & !7;
        for k in 0..5000u64 {
            let c = stamped(k as u32, k);
            put(&mut big, addr(k), k % 3 == 0, c);
            put(&mut small, addr(k), k % 3 == 0, c);
        }
        // Occupied pairs `(i, i + m/2)` per half, counted before halving.
        let expected_merges: u64 = (0..small_slots)
            .map(|i| {
                let (lo, hi) = (big.slot(i), big.slot(i + small_slots));
                u64::from(!lo.read.is_empty() && !hi.read.is_empty())
                    + u64::from(!lo.write.is_empty() && !hi.write.is_empty())
            })
            .sum();
        assert!(expected_merges > 0, "the stream must collide");
        assert_eq!(big.halve(), expected_merges);
        assert_eq!(big.num_slots(), small_slots);
        for k in 0..5000u64 {
            assert_eq!(big.get(addr(k)), small.get(addr(k)), "addr {:#x}", addr(k));
        }
        assert_eq!(big.occupied(), small.occupied());
    }

    #[test]
    fn from_perfect_keeps_newest_per_slot() {
        // 200 addresses into 64 slots force collisions; each half of each
        // slot must hold the newest cell of that half among the addresses
        // hashing there.
        let mut p = PerfectMap::new();
        for k in 0..200u64 {
            put(&mut p, k * 8, k % 2 == 0, stamped(k as u32, k));
            if k % 5 == 0 {
                // Some addresses carry both halves, the read newer.
                put(&mut p, k * 8, false, stamped(1000 + k as u32, 1000 + k));
            }
        }
        let sig = SignatureMap::from_perfect(&p, 64);
        let mut want = vec![Slot::EMPTY; 64];
        for (addr, slot) in p.entries() {
            want[hash_addr(addr, 64)].merge_newest(&slot);
        }
        for (i, w) in want.iter().enumerate() {
            assert_eq!(sig.slot(i), *w, "slot {i}");
        }
        for k in 0..200u64 {
            let got = sig.get(k * 8);
            for (half, mine) in [
                (got.read, p.get(k * 8).read),
                (got.write, p.get(k * 8).write),
            ] {
                assert!(
                    mine.is_empty() || half.ts >= mine.ts,
                    "newest-wins per half"
                );
            }
        }
        assert!(sig.occupied() <= 2 * 64);
    }

    #[test]
    fn signature_collision_shares_slot() {
        // A 1-slot signature collides everything — the defining behaviour.
        let mut s = SignatureMap::new(1);
        put(&mut s, 0x1000, true, cell(1));
        put(&mut s, 0x2000, true, cell(2));
        assert_eq!(s.get(0x1000).write.op, 2, "collision overwrites");
    }

    #[test]
    fn fresh_signature_allocates_no_pages() {
        let s = SignatureMap::new(1 << 18);
        assert_eq!(s.pages.iter().flatten().count(), 0, "no page on creation");
        // The spine is the only cost: pointers, not slots.
        assert!(s.bytes() < (1 << 18) / SIG_PAGE * 64, "spine only");
        assert_eq!(s.num_slots(), 1 << 18);
        assert_eq!(s.occupied(), 0);
        assert!(s.get(0x1000).is_empty(), "reads never allocate");
        let mut s = s;
        s.clear_range(0x1000, 64);
        assert_eq!(s.pages.iter().flatten().count(), 0, "clears never allocate");
        put(&mut s, 0x1000, false, cell(1));
        assert_eq!(s.pages.iter().flatten().count(), 1, "first touch: one page");
    }

    #[test]
    fn paged_signature_matches_dense_reference() {
        // Differential test: the lazily-paged layout must behave exactly
        // like a flat slot vector, half by half.
        struct Dense(Vec<Slot>);
        impl Dense {
            fn idx(&self, addr: u64) -> usize {
                hash_addr(addr, self.0.len())
            }
        }
        for slots in [1 << 12, 4099] {
            let mut paged = SignatureMap::new(slots);
            let mut dense = Dense(vec![Slot::EMPTY; slots]);
            let mut next = xorshift(0xfeed);
            for i in 0..30_000u32 {
                let r = next();
                let addr = (r >> 8) % (1 << 20) * 8;
                match r % 8 {
                    0 => {
                        let words = r >> 40 & 0x1F;
                        paged.clear_range(addr, words);
                        for w in 0..words {
                            let i = dense.idx(addr + w * 8);
                            dense.0[i] = Slot::EMPTY;
                        }
                    }
                    1..=3 => {
                        assert_eq!(paged.get(addr), dense.0[dense.idx(addr)], "get @ {i}");
                    }
                    _ => {
                        let write = r >> 60 & 1 == 1;
                        put(&mut paged, addr, write, cell(i));
                        let di = dense.idx(addr);
                        if write {
                            dense.0[di].write = cell(i);
                        } else {
                            dense.0[di].read = cell(i);
                        }
                    }
                }
            }
            assert_eq!(
                paged.occupied(),
                dense.0.iter().map(Slot::cells).sum::<usize>()
            );
        }
    }

    #[test]
    fn perfect_map_entries_roundtrip() {
        let mut p = PerfectMap::new();
        let addrs = [0x40u64, 0x1000, 0x1008, 0x7_F000, 0xFFFF_0000];
        for (i, &a) in addrs.iter().enumerate() {
            put(&mut p, a, i % 2 == 0, cell(i as u32));
        }
        let mut got = p.entries();
        got.sort_by_key(|(a, _)| *a);
        assert_eq!(got.len(), addrs.len());
        let mut want = addrs.to_vec();
        want.sort_unstable();
        assert_eq!(got.iter().map(|(a, _)| *a).collect::<Vec<_>>(), want);
        for (a, s) in got {
            assert_eq!(p.get(a), s);
        }
    }

    #[test]
    fn clear_range_evicts() {
        let mut s = SignatureMap::new(1 << 12);
        put(&mut s, 0x1000, true, cell(1));
        put(&mut s, 0x1008, false, cell(2));
        s.clear_range(0x1000, 2);
        assert!(s.get(0x1000).is_empty());
        assert!(s.get(0x1008).is_empty());
    }

    #[test]
    fn perfect_map_is_exact() {
        let mut p = PerfectMap::new();
        put(&mut p, 0x1000, true, cell(1));
        put(&mut p, 0x2000, false, cell(2));
        assert_eq!(p.get(0x1000).write.op, 1);
        assert_eq!(p.get(0x2000).read.op, 2);
        assert!(p.get(0x2000).write.is_empty());
        p.clear_range(0x1000, 1);
        assert!(p.get(0x1000).is_empty());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn perfect_map_crosses_page_boundaries() {
        let mut p = PerfectMap::new();
        // Last word of one page, first word of the next.
        let last = (1u64 << PAGE_SHIFT) - 8;
        let first = 1u64 << PAGE_SHIFT;
        put(&mut p, last, true, cell(1));
        put(&mut p, first, true, cell(2));
        assert_eq!(p.get(last).write.op, 1);
        assert_eq!(p.get(first).write.op, 2);
        assert_eq!(p.num_pages(), 2);
        // A range spanning the boundary clears both sides.
        p.clear_range(last, 2);
        assert!(p.get(last).is_empty());
        assert!(p.get(first).is_empty());
        assert!(p.is_empty());
    }

    #[test]
    fn perfect_map_clear_range_partial_pages() {
        let mut p = PerfectMap::new();
        for w in 0..(PAGE_WORDS as u64 * 3) {
            put(&mut p, 0x10_0000 + w * 8, w % 2 == 0, cell(w as u32));
        }
        assert_eq!(p.len(), PAGE_WORDS * 3);
        // Clear from mid-first-page to mid-third-page.
        let off = PAGE_WORDS as u64 / 3;
        let start = 0x10_0000 + off * 8;
        let words = PAGE_WORDS as u64 * 2;
        p.clear_range(start, words);
        assert_eq!(p.len(), PAGE_WORDS);
        assert!(p.get(start).is_empty());
        assert!(p.get(start + (words - 1) * 8).is_empty());
        assert!(!p.get(start + words * 8).is_empty());
        assert!(!p.get(start - 8).is_empty());
    }

    #[test]
    fn perfect_map_set_overwrites_without_len_growth() {
        let mut p = PerfectMap::new();
        put(&mut p, 0x40, true, cell(1));
        put(&mut p, 0x40, true, cell(2));
        put(&mut p, 0x40, false, cell(3));
        assert_eq!(p.len(), 1);
        assert_eq!((p.get(0x40).write.op, p.get(0x40).read.op), (2, 3));
    }

    #[test]
    fn perfect_map_matches_hash_shadow_on_random_ops() {
        // Differential test against the independent baseline.
        let mut next = xorshift(0x5eed);
        let mut pt = PerfectMap::new();
        let mut hs = HashShadowMap::new();
        let page_bytes = PAGE_WORDS as u64 * 8;
        for i in 0..50_000u32 {
            let r = next();
            // Word-aligned addresses from four kinds of region: a dense
            // array, a high stack-like block, a few words either side of a
            // page boundary, and 64 small regions 16 MiB apart (the actor
            // stack layout) — plus range clears.
            let addr = match r & 3 {
                0 => 0x1000 + (r >> 8) % 4096 * 8,
                1 => 0xFFFF_0000 + (r >> 8) % 512 * 8,
                2 => 0x20_0000 + page_bytes * 7 - 32 + (r >> 8) % 8 * 8,
                _ => 0x4000_0000 + (((r >> 8) % 64) << 24) + (r >> 20) % 96 * 8,
            };
            match r % 16 {
                0 => {
                    // Up to 255 words: from inside one page to across 32
                    // page boundaries.
                    let words = r >> 32 & 0xFF;
                    pt.clear_range(addr, words);
                    hs.clear_range(addr, words);
                }
                1..=5 => {
                    assert_eq!(pt.get(addr), hs.get(addr), "get({addr:#x}) @ {i}");
                }
                _ => {
                    let write = r >> 61 & 1 == 1;
                    put(&mut pt, addr, write, cell(i));
                    put(&mut hs, addr, write, cell(i));
                }
            }
        }
        assert_eq!(pt.len(), hs.len());
    }

    #[test]
    fn perfect_map_costs_what_is_touched() {
        // One word in each of 1,000 regions 16 MiB apart — the shape of
        // `actors_10k`'s stacks. Each costs one small page plus its share
        // of the spine and directory, not a 20 KiB page.
        let mut p = PerfectMap::new();
        for k in 0..1000u64 {
            put(&mut p, 0x4000_0000 + (k << 24), true, cell(k as u32));
        }
        assert_eq!(p.num_pages(), 1000);
        assert!(
            p.bytes() <= 1000 * 4096,
            "{} bytes for 1,000 isolated words",
            p.bytes()
        );
        // The spine is part of the figure.
        assert!(p.bytes() >= 1000 * (std::mem::size_of::<Page>() + 8));
    }

    #[test]
    fn shadow_pages_trade_scattered_against_dense() {
        // Both sides of the page-size trade. Scattered: one word on each of
        // N thread stacks costs one page apiece, a page is at most 384 B,
        // and with its share of the spine and directory a region stays
        // under 512 B. Dense: a 4,096-word sweep (one of `hot_loop`'s
        // arrays) costs one page per 8 words.
        const N: u64 = 1000;
        let mut p = PerfectMap::new();
        for t in 0..N {
            let addr = interp::STACK_BASE + t * interp::STACK_SPAN;
            put(&mut p, addr, true, cell(t as u32));
        }
        assert_eq!(p.num_pages(), N as usize);
        assert!(std::mem::size_of::<Page>() <= 384);
        assert!(p.bytes() <= N as usize * 512, "{} bytes", p.bytes());
        let mut p = PerfectMap::new();
        for w in 0..4096u64 {
            put(&mut p, interp::GLOBAL_BASE + w * 8, false, cell(w as u32));
        }
        assert_eq!(p.num_pages(), 512);
    }

    #[test]
    fn full_signature_bytes_are_spine_plus_slots() {
        // The governor divides budgets by `size_of::<Slot>()`; a signature
        // with every page allocated must cost exactly that per slot, plus
        // the spine.
        let slots = 4 * SIG_PAGE;
        let mut s = SignatureMap::new(slots);
        let empty = s.bytes();
        assert_eq!(empty, 4 * std::mem::size_of::<Option<Box<[Slot]>>>());
        // Walk consecutive words until every slot has been hit.
        let (mut addr, mut filled) = (0u64, 0);
        while filled < slots {
            filled += s.get(addr).is_empty() as usize;
            put(&mut s, addr, false, cell(1));
            addr += 8;
        }
        assert_eq!(s.occupied(), slots, "one half of every slot");
        assert_eq!(s.bytes(), empty + slots * std::mem::size_of::<Slot>());
    }

    #[test]
    fn page_cache_spreads_power_of_two_strides() {
        // Arrays allocated back to back put `a[i]` and `b[i]` a power of
        // two apart; the hashed cache index must not map such page ids to
        // one entry (low-bit indexing would, for every stride ≥ 16 pages).
        for shift in 4..20 {
            let ways: std::collections::BTreeSet<usize> = (0..4u64)
                .map(|k| PerfectMap::cache_way(0x8_0000 + (k << shift)))
                .collect();
            assert!(ways.len() >= 3, "stride 2^{shift} pages collides: {ways:?}");
        }
    }

    #[test]
    fn fp_rate_monotone() {
        let small = estimated_fp_rate(1_000_000, 1_000);
        let big = estimated_fp_rate(1_000_000, 1_000_000);
        assert!(small < big);
        assert!(big < 1.0);
    }
}
