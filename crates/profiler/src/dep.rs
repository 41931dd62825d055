//! Dependence representation, runtime merging, and the text output format
//! of dissertation §2.3.1 / Fig. 2.1 / Fig. 2.3.

use crate::access::LoopKey;
use fxhash::FxHashMap;
use std::fmt::Write;

/// Dependence type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepType {
    /// Read-after-write (flow/true dependence).
    Raw,
    /// Write-after-read (anti-dependence).
    War,
    /// Write-after-write (output dependence).
    Waw,
    /// First write to an address.
    Init,
}

impl std::fmt::Display for DepType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepType::Raw => write!(f, "RAW"),
            DepType::War => write!(f, "WAR"),
            DepType::Waw => write!(f, "WAW"),
            DepType::Init => write!(f, "INIT"),
        }
    }
}

impl std::str::FromStr for DepType {
    type Err = ();

    /// The inverse of `Display`.
    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "RAW" => Ok(DepType::Raw),
            "WAR" => Ok(DepType::War),
            "WAW" => Ok(DepType::Waw),
            "INIT" => Ok(DepType::Init),
            _ => Err(()),
        }
    }
}

/// A source location `fileID:lineID`. This reproduction profiles one module
/// at a time, so `file` is always 1 — kept for format fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SrcLoc {
    /// Module ("file") id.
    pub file: u32,
    /// 1-based source line.
    pub line: u32,
}

impl SrcLoc {
    /// Location in module 1.
    pub fn new(line: u32) -> Self {
        SrcLoc { file: 1, line }
    }
}

impl std::fmt::Display for SrcLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

impl std::str::FromStr for SrcLoc {
    type Err = ();

    /// The inverse of `Display`: `file:line`, both decimal.
    fn from_str(s: &str) -> Result<Self, ()> {
        let (file, line) = s.split_once(':').ok_or(())?;
        Ok(SrcLoc {
            file: file.parse().map_err(|_| ())?,
            line: line.parse().map_err(|_| ())?,
        })
    }
}

/// A merged data dependence: `<sink, type, source>` plus the attributes
/// DiscoPoP reports (variable, thread ids, inter-iteration tag) and this
/// reproduction's extras (the loop that carries it, race hint).
///
/// Two dependences are identical — and merged — iff every field matches
/// (§2.3.5, "runtime data dependence merging").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dep {
    /// Location of the later access.
    pub sink: SrcLoc,
    /// Dependence type.
    pub ty: DepType,
    /// Location of the earlier access (equal to `sink` for INIT).
    pub source: SrcLoc,
    /// Symbol id of the variable (`u32::MAX` renders as `*` for INIT).
    pub var: u32,
    /// Thread that executed the sink.
    pub sink_thread: u32,
    /// Thread that executed the source.
    pub source_thread: u32,
    /// The loop (function, region) whose iterations carry this dependence,
    /// if source and sink occurred in different iterations of a common loop.
    pub carried_by: Option<LoopKey>,
    /// Set when the profiler observed a timestamp inversion for this pair —
    /// evidence the two accesses were not mutually exclusive (§2.3.4).
    pub race_hint: bool,
}

impl Dep {
    /// True if this dependence crosses threads.
    pub fn is_cross_thread(&self) -> bool {
        self.sink_thread != self.source_thread
    }

    /// True if this dependence is loop-carried (in any loop).
    pub fn is_loop_carried(&self) -> bool {
        self.carried_by.is_some()
    }
}

/// A [`Dep`] packed losslessly into two `u64`s — the hot hashing key of
/// [`DepSet`].
///
/// The unpacked `Dep` is 40 bytes and its derived `Hash` feeds every field
/// through the hasher separately; the packed key is 16 bytes and hashes as
/// two words. Field budgets (checked by [`DepKey::pack`], which returns
/// `None` when exceeded so the caller can fall back to the wide
/// representation):
///
/// | field          | bits | limit                      |
/// |----------------|-----:|----------------------------|
/// | sink line      |   22 | < 2^22                     |
/// | source line    |   22 | < 2^22                     |
/// | sink thread    |   16 | < 65536                    |
/// | source thread  |   16 | < 65536                    |
/// | variable       |   20 | < 2^20 − 1 (`u32::MAX` maps to the all-ones sentinel) |
/// | carried func   |   14 | < 2^14                     |
/// | carried region |   14 | < 2^14                     |
/// | type/race/carried flag | 4 |                       |
///
/// File ids must be 1 (the single-module invariant of [`SrcLoc::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DepKey(u64, u64);

/// 20-bit variable sentinel standing in for `u32::MAX` ("no variable").
const VAR_STAR: u64 = (1 << 20) - 1;

impl DepKey {
    /// Pack a dependence, or `None` if any field exceeds its bit budget.
    pub fn pack(d: &Dep) -> Option<DepKey> {
        let var = if d.var == u32::MAX {
            VAR_STAR
        } else if (d.var as u64) < VAR_STAR {
            d.var as u64
        } else {
            return None;
        };
        let (carried, cf, cr) = match d.carried_by {
            None => (0u64, 0u64, 0u64),
            Some((f, r)) if f < (1 << 14) && r < (1 << 14) => (1, f as u64, r as u64),
            Some(_) => return None,
        };
        if d.sink.file != 1
            || d.source.file != 1
            || d.sink.line >= (1 << 22)
            || d.source.line >= (1 << 22)
            || d.sink_thread >= (1 << 16)
            || d.source_thread >= (1 << 16)
        {
            return None;
        }
        let ty = match d.ty {
            DepType::Raw => 0u64,
            DepType::War => 1,
            DepType::Waw => 2,
            DepType::Init => 3,
        };
        let w0 = d.sink.line as u64
            | (d.source.line as u64) << 22
            | (d.sink_thread as u64) << 44
            | ty << 60
            | (d.race_hint as u64) << 62
            | carried << 63;
        let w1 = var | (d.source_thread as u64) << 20 | cf << 36 | cr << 50;
        Some(DepKey(w0, w1))
    }

    /// Reconstruct the dependence. Exact inverse of [`DepKey::pack`].
    pub fn unpack(self) -> Dep {
        let DepKey(w0, w1) = self;
        let var20 = w1 & VAR_STAR;
        Dep {
            sink: SrcLoc::new((w0 & 0x3F_FFFF) as u32),
            ty: match (w0 >> 60) & 3 {
                0 => DepType::Raw,
                1 => DepType::War,
                2 => DepType::Waw,
                _ => DepType::Init,
            },
            source: SrcLoc::new((w0 >> 22 & 0x3F_FFFF) as u32),
            var: if var20 == VAR_STAR {
                u32::MAX
            } else {
                var20 as u32
            },
            sink_thread: (w0 >> 44 & 0xFFFF) as u32,
            source_thread: (w1 >> 20 & 0xFFFF) as u32,
            carried_by: if w0 >> 63 == 1 {
                Some(((w1 >> 36 & 0x3FFF) as u32, (w1 >> 50 & 0x3FFF) as u32))
            } else {
                None
            },
            race_hint: w0 >> 62 & 1 == 1,
        }
    }
}

/// Where each field of a [`DepKey`] lands in its fold key
/// ([`DepKey::fold_key`]): `(word, first bit in the word, width, first bit
/// in the key)`, from the key's top bit down in [`fold_order`]'s order.
/// The widths are the packed budgets and add up to 128.
const FOLD_FIELDS: [(usize, u32, u32, u32); 10] = [
    (0, 0, 22, 106), // sink line
    (0, 60, 2, 104), // type
    (0, 22, 22, 82), // source line
    (1, 0, 20, 62),  // variable (the `u32::MAX` sentinel is all ones)
    (0, 63, 1, 61),  // carried flag
    (1, 36, 14, 47), // carried func
    (1, 50, 14, 33), // carried region
    (0, 62, 1, 32),  // race hint
    (0, 44, 16, 16), // sink thread
    (1, 20, 16, 0),  // source thread
];

impl DepKey {
    /// This key as one integer whose order is [`fold_order`]'s over the
    /// unpacked dependences: each field moved to its place in
    /// [`FOLD_FIELDS`].
    fn fold_key(self) -> u128 {
        let w = [self.0, self.1];
        FOLD_FIELDS.iter().fold(0, |k, &(i, at, bits, to)| {
            k | u128::from(w[i] >> at & ((1 << bits) - 1)) << to
        })
    }

    /// Exact inverse of [`DepKey::fold_key`].
    fn from_fold_key(k: u128) -> DepKey {
        let mut w = [0u64; 2];
        for &(i, at, bits, to) in &FOLD_FIELDS {
            w[i] |= ((k >> to) as u64 & ((1 << bits) - 1)) << at;
        }
        DepKey(w[0], w[1])
    }
}

/// The order the report folds dependence rows in: by key (sink, type,
/// source, variable, carrying loop, race hint), then sink thread, then
/// source thread. With every thread 0 it is [`Dep`]'s own order, so
/// single-threaded rows keep the order they always had.
/// [`DepSet::in_fold_order`] sorts by the same order packed into one
/// integer; this tuple is its definition and its fallback for wide
/// entries.
pub fn fold_order(d: &Dep) -> impl Ord {
    (
        d.sink,
        d.ty,
        d.source,
        d.var,
        d.carried_by,
        d.race_hint,
        d.sink_thread,
        d.source_thread,
    )
}

/// The merged dependence store: one entry per distinct dependence with an
/// occurrence count.
///
/// Keyed with the in-repo [`fxhash`] hasher over the packed 16-byte
/// [`DepKey`] (vs the 40-byte unpacked [`Dep`]): the map is probed every
/// time a static op builds a dependence other than its last one (the
/// builder's per-op memo absorbs exact repeats), which on targets whose ops
/// alternate threads or sources is still once per access. Dependences whose
/// fields exceed the packed bit budgets — a target past 65,536 threads or
/// actors, 2^22 source lines or 2^20 variables — fall back to a wide map
/// keyed by the full `Dep`, preserving exactness. The thread budget is
/// sized for the actor programs: with 12-bit thread fields, every
/// dependence of `actors_10k`'s threads 4096–10001 went to the wide map.
#[derive(Debug, Clone, Default)]
pub struct DepSet {
    map: FxHashMap<DepKey, u64>,
    /// Fallback for dependences that do not fit [`DepKey`]; empty unless a
    /// budget above is exceeded.
    wide: FxHashMap<Dep, u64>,
    /// Dependences *found* (before merging); [`DepSet::len`] is after
    /// merging.
    pub total_found: u64,
}

impl DepSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set pre-sized for `cap` distinct dependences.
    pub fn with_capacity(cap: usize) -> Self {
        DepSet {
            map: fxhash::map_with_capacity(cap),
            wide: FxHashMap::default(),
            total_found: 0,
        }
    }

    /// Record one occurrence of `dep`, merging with identical entries.
    pub fn insert(&mut self, dep: Dep) {
        self.insert_n(dep, 1);
    }

    /// Record `n` occurrences of `dep` with a single probe — the flush path
    /// of the dependence builder's per-op memo, where a loop builds the same
    /// dependence once per iteration.
    pub fn insert_n(&mut self, dep: Dep, n: u64) {
        if n == 0 {
            return;
        }
        self.total_found += n;
        match DepKey::pack(&dep) {
            Some(k) => *self.map.entry(k).or_insert(0) += n,
            None => *self.wide.entry(dep).or_insert(0) += n,
        }
    }

    /// Merge another set into this one (used when joining parallel workers).
    /// Reserves space up front so the bulk insert cannot trigger repeated
    /// rehashes.
    pub fn merge(&mut self, other: DepSet) {
        self.total_found += other.total_found;
        self.map.reserve(other.map.len());
        for (k, c) in other.map {
            *self.map.entry(k).or_insert(0) += c;
        }
        for (d, c) in other.wide {
            *self.wide.entry(d).or_insert(0) += c;
        }
    }

    /// Number of distinct (merged) dependences.
    pub fn len(&self) -> usize {
        self.map.len() + self.wide.len()
    }

    /// True if no dependence was recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty() && self.wide.is_empty()
    }

    /// Iterate over `(dep, count)`, unpacking keys on the fly.
    pub fn iter(&self) -> impl Iterator<Item = (Dep, u64)> + '_ {
        self.map
            .iter()
            .map(|(k, c)| (k.unpack(), *c))
            .chain(self.wide.iter().map(|(d, c)| (*d, *c)))
    }

    /// All distinct dependences, totally ordered for deterministic output.
    pub fn sorted(&self) -> Vec<Dep> {
        let mut v: Vec<Dep> = self.iter().map(|(d, _)| d).collect();
        v.sort_unstable();
        v
    }

    /// Every `(dep, count)` of [`DepSet::iter`] in [`fold_order`]: one
    /// sort, no [`DepSet::count`] probe per dependence. Packed entries sort
    /// as `(fold key, count)` pairs of 32 bytes under an integer compare,
    /// then unpack; a set with wide entries sorts by the tuple.
    pub fn in_fold_order(&self) -> Vec<(Dep, u64)> {
        if !self.wide.is_empty() {
            let mut v: Vec<(Dep, u64)> = self.iter().collect();
            v.sort_unstable_by_key(|(d, _)| fold_order(d));
            return v;
        }
        let mut keyed: Vec<(u128, u64)> = Vec::with_capacity(self.map.len());
        keyed.extend(self.map.iter().map(|(k, c)| (k.fold_key(), *c)));
        keyed.sort_unstable_by_key(|&(k, _)| k);
        keyed
            .into_iter()
            .map(|(k, c)| (DepKey::from_fold_key(k).unpack(), c))
            .collect()
    }

    /// Occurrence count of a dependence, 0 if absent.
    pub fn count(&self, dep: &Dep) -> u64 {
        match DepKey::pack(dep) {
            Some(k) => self.map.get(&k).copied().unwrap_or(0),
            None => self.wide.get(dep).copied().unwrap_or(0),
        }
    }

    /// Does an identical dependence exist?
    pub fn contains(&self, dep: &Dep) -> bool {
        match DepKey::pack(dep) {
            Some(k) => self.map.contains_key(&k),
            None => self.wide.contains_key(dep),
        }
    }

    /// All RAW dependences carried by the given loop.
    pub fn carried_raws(&self, loop_key: LoopKey) -> Vec<Dep> {
        self.iter()
            .map(|(d, _)| d)
            .filter(|d| d.ty == DepType::Raw && d.carried_by == Some(loop_key))
            .collect()
    }

    /// Dependences with race hints.
    pub fn race_hints(&self) -> Vec<Dep> {
        self.iter()
            .map(|(d, _)| d)
            .filter(|d| d.race_hint)
            .collect()
    }

    /// Estimated bytes held by the merged store.
    pub fn bytes(&self) -> usize {
        self.map.capacity() * (std::mem::size_of::<(DepKey, u64)>() + 8)
            + self.wide.capacity() * (std::mem::size_of::<(Dep, u64)>() + 8)
    }

    /// Compare against a baseline (perfect-signature) set, returning
    /// `(false_positive_rate, false_negative_rate)` over distinct
    /// dependences — the metric of Table 2.6. INIT entries are excluded;
    /// they are bookkeeping, not dependences.
    pub fn accuracy_vs(&self, baseline: &DepSet) -> (f64, f64) {
        let ours: std::collections::HashSet<Dep> = self
            .iter()
            .map(|(d, _)| d)
            .filter(|d| d.ty != DepType::Init)
            .collect();
        let truth: std::collections::HashSet<Dep> = baseline
            .iter()
            .map(|(d, _)| d)
            .filter(|d| d.ty != DepType::Init)
            .collect();
        let fp = ours.difference(&truth).count();
        let fnn = truth.difference(&ours).count();
        let fpr = if ours.is_empty() {
            0.0
        } else {
            fp as f64 / ours.len() as f64
        };
        let fnr = if truth.is_empty() {
            0.0
        } else {
            fnn as f64 / truth.len() as f64
        };
        (fpr, fnr)
    }
}

/// Control-structure annotation for the text renderer (`BGN`/`END` lines).
#[derive(Debug, Clone, Copy)]
pub struct ControlSpan {
    /// Region kind name (`loop`, `branch`, `func`).
    pub kind: &'static str,
    /// First line.
    pub start: u32,
    /// Last line.
    pub end: u32,
    /// Iterations executed (printed after `END loop`).
    pub iters: u64,
}

/// Build `BGN`/`END` control spans for the text renderer from a program's
/// loop regions and the PET's iteration counts.
pub fn control_spans(prog: &interp::Program, pet: &crate::pet::Pet) -> Vec<ControlSpan> {
    let agg = pet.loops_aggregated();
    let mut spans = Vec::new();
    for (fi, f) in prog.module.functions.iter().enumerate() {
        for (ri, r) in f.regions.iter().enumerate() {
            if r.kind == mir::RegionKind::Loop {
                let iters = agg
                    .get(&(fi as u32, ri as u32))
                    .map(|(_, it, _)| *it)
                    .unwrap_or(0);
                spans.push(ControlSpan {
                    kind: "loop",
                    start: r.start_line,
                    end: r.end_line,
                    iters,
                });
            }
        }
    }
    spans.sort_by_key(|s| (s.start, s.end));
    spans
}

/// Render the dependence set in the DiscoPoP text format (Fig. 2.1 /
/// Fig. 2.3): one output line per sink, dependences aggregated, `NOM` for
/// plain lines, `BGN`/`END` markers for control spans. `multithreaded`
/// selects the thread-id-annotated form.
pub fn render_text(
    deps: &DepSet,
    symbol: &dyn Fn(u32) -> String,
    spans: &[ControlSpan],
    multithreaded: bool,
) -> String {
    // Group by (sink, sink_thread), pre-sized for the worst case of one
    // sink per dependence.
    let mut by_sink: FxHashMap<(SrcLoc, u32), Vec<Dep>> = fxhash::map_with_capacity(deps.len());
    for (d, _) in deps.iter() {
        by_sink.entry((d.sink, d.sink_thread)).or_default().push(d);
    }
    let mut keys: Vec<(SrcLoc, u32)> = by_sink.keys().copied().collect();
    keys.sort();

    let mut out = String::new();
    let mut opened: Vec<&ControlSpan> = Vec::new();
    let mut closed: Vec<*const ControlSpan> = Vec::new();
    let close_ended = |line: u32, opened: &mut Vec<&ControlSpan>, out: &mut String| {
        // Close spans that ended strictly before this line, innermost first.
        while let Some(pos) = opened.iter().rposition(|s| s.end < line) {
            let s = opened.remove(pos);
            if s.kind == "loop" {
                let _ = writeln!(out, "1:{} END {} {}", s.end, s.kind, s.iters);
            } else {
                let _ = writeln!(out, "1:{} END {}", s.end, s.kind);
            }
        }
    };
    for (sink, thread) in keys {
        close_ended(sink.line, &mut opened, &mut out);
        // Emit BGN markers for spans starting at or before this line.
        for s in spans {
            if s.start <= sink.line
                && s.end >= sink.line
                && !opened.iter().any(|o| std::ptr::eq(*o, s))
                && !closed.contains(&(s as *const _))
            {
                let _ = writeln!(out, "1:{} BGN {}", s.start, s.kind);
                opened.push(s);
                closed.push(s as *const _);
            }
        }
        // `keys` was collected from `by_sink`, so the entry exists; an
        // (impossible) miss just renders an empty sink line.
        let mut ds = by_sink.remove(&(sink, thread)).unwrap_or_default();
        // By the whole dependence: entries that differ only in source
        // thread, carrying loop or race hint must not come out in the
        // set's hash order.
        ds.sort_unstable();
        let mut entries = Vec::new();
        for d in ds {
            let v = if d.var == u32::MAX {
                "*".to_string()
            } else {
                symbol(d.var)
            };
            let e = if d.ty == DepType::Init {
                format!("{{INIT {v}}}")
            } else if multithreaded {
                format!("{{{} {}|{}|{}}}", d.ty, d.source, d.source_thread, v)
            } else {
                format!("{{{} {}|{}}}", d.ty, d.source, v)
            };
            entries.push(e);
        }
        if multithreaded {
            let _ = writeln!(out, "{sink}|{thread} NOM {}", entries.join(" "));
        } else {
            let _ = writeln!(out, "{sink} NOM {}", entries.join(" "));
        }
    }
    // Close anything still open (spans whose end lies past the last sink).
    while let Some(s) = opened.pop() {
        if s.kind == "loop" {
            let _ = writeln!(out, "1:{} END {} {}", s.end, s.kind, s.iters);
        } else {
            let _ = writeln!(out, "1:{} END {}", s.end, s.kind);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(sink: u32, ty: DepType, source: u32, var: u32) -> Dep {
        Dep {
            sink: SrcLoc::new(sink),
            ty,
            source: SrcLoc::new(source),
            var,
            sink_thread: 0,
            source_thread: 0,
            carried_by: None,
            race_hint: false,
        }
    }

    #[test]
    fn merging_counts_duplicates() {
        let mut s = DepSet::new();
        s.insert(dep(3, DepType::Raw, 2, 0));
        s.insert(dep(3, DepType::Raw, 2, 0));
        s.insert(dep(3, DepType::War, 2, 0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_found, 3);
        assert_eq!(s.count(&dep(3, DepType::Raw, 2, 0)), 2);
    }

    /// `iter()` with counts, sorted by the tuple.
    fn tuple_sorted(s: &DepSet) -> Vec<(Dep, u64)> {
        let mut v: Vec<(Dep, u64)> = s.iter().collect();
        v.sort_unstable_by_key(|(d, _)| fold_order(d));
        v
    }

    #[test]
    fn in_fold_order_is_the_tuple_sort_with_each_count() {
        let mut s = DepSet::new();
        for (sink, n) in [(9, 3), (2, 1), (5, 2)] {
            for t in 0..n {
                s.insert(Dep {
                    source_thread: t,
                    ..dep(sink, DepType::Raw, 1, 0)
                });
                s.insert(dep(sink, DepType::Raw, 1, 0));
            }
        }
        assert_eq!(s.in_fold_order(), tuple_sorted(&s));
        // Entries that do not fit the packed key live in the wide map.
        let mut wide = dep(4, DepType::War, 1, 0);
        wide.sink.file = u32::MAX;
        s.insert(wide);
        s.insert(Dep {
            sink_thread: 1 << 16,
            ..dep(5, DepType::Raw, 1, 0)
        });
        let pairs = s.in_fold_order();
        assert_eq!(pairs.len(), s.len());
        assert_eq!(pairs, tuple_sorted(&s));
        assert!(pairs.iter().all(|(d, n)| *n == s.count(d)));
    }

    #[test]
    fn fold_key_orders_like_the_tuple() {
        // A fixed-seed xorshift draws every field from its edge values or
        // at random within its budget.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut pick = |edges: &[u32], budget: u32| -> u32 {
            let r = next();
            match (r % (edges.len() as u64 + 1)) as usize {
                i if i < edges.len() => edges[i],
                _ => (r >> 32) as u32 % budget,
            }
        };
        let line_top = (1 << 22) - 1;
        let thread_top = (1 << 16) - 1;
        let mut deps = Vec::new();
        while deps.len() < 4000 {
            let ty =
                [DepType::Raw, DepType::War, DepType::Waw, DepType::Init][pick(&[], 4) as usize];
            let carried = match pick(&[0, 1], 3) {
                0 => None,
                1 => Some((0, 0)),
                _ => Some((pick(&[0, (1 << 14) - 1], 1 << 14), pick(&[0], 1 << 14))),
            };
            let d = Dep {
                sink: SrcLoc::new(pick(&[0, 1, line_top], 8)),
                ty,
                source: SrcLoc::new(pick(&[0, line_top], 8)),
                var: pick(&[0, u32::MAX, (1 << 20) - 2], 4),
                sink_thread: pick(&[0, thread_top], 4),
                source_thread: pick(&[0, thread_top], 4),
                carried_by: carried,
                race_hint: pick(&[0, 1], 2) == 1,
            };
            deps.push(d);
        }
        let keys: Vec<u128> = deps
            .iter()
            .map(|d| DepKey::pack(d).expect("in budget").fold_key())
            .collect();
        for (i, (a, ka)) in deps.iter().zip(&keys).enumerate() {
            let k = DepKey::pack(a).expect("in budget");
            assert_eq!(DepKey::from_fold_key(*ka), k, "{a:?}");
            // Each dependence against its neighbours in draw order and a
            // stride away, so equal prefixes meet often.
            for b in [i + 1, i + 7, i + 61].map(|j| j % deps.len()) {
                assert_eq!(
                    ka.cmp(&keys[b]),
                    fold_order(a).cmp(&fold_order(&deps[b])),
                    "{a:?} vs {:?}",
                    deps[b]
                );
            }
        }
        // And as a whole: one set, both sorts.
        let mut s = DepSet::new();
        for d in &deps {
            s.insert(*d);
        }
        assert_eq!(s.in_fold_order(), tuple_sorted(&s));
    }

    #[test]
    fn locations_and_types_parse_back_from_their_display() {
        for ty in [DepType::Raw, DepType::War, DepType::Waw, DepType::Init] {
            assert_eq!(ty.to_string().parse(), Ok(ty));
        }
        let loc = SrcLoc { file: 7, line: 42 };
        assert_eq!(loc.to_string().parse(), Ok(loc));
        for bad in ["", "7", "7:", ":42", "7:42:1", "a:b", "-1:2"] {
            assert_eq!(bad.parse::<SrcLoc>(), Err(()), "{bad:?}");
        }
        assert_eq!("raw".parse::<DepType>(), Err(()));
    }

    #[test]
    fn merge_two_sets() {
        let mut a = DepSet::new();
        a.insert(dep(1, DepType::Raw, 1, 0));
        let mut b = DepSet::new();
        b.insert(dep(1, DepType::Raw, 1, 0));
        b.insert(dep(2, DepType::Waw, 1, 0));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_found, 3);
    }

    #[test]
    fn accuracy_exact_match_is_zero_error() {
        let mut a = DepSet::new();
        a.insert(dep(1, DepType::Raw, 1, 0));
        let b = a.clone();
        assert_eq!(a.accuracy_vs(&b), (0.0, 0.0));
    }

    #[test]
    fn accuracy_counts_fp_and_fn() {
        let mut ours = DepSet::new();
        ours.insert(dep(1, DepType::Raw, 1, 0)); // true
        ours.insert(dep(2, DepType::Raw, 1, 0)); // false positive
        let mut truth = DepSet::new();
        truth.insert(dep(1, DepType::Raw, 1, 0));
        truth.insert(dep(3, DepType::War, 1, 0)); // we missed this
        let (fpr, fnr) = ours.accuracy_vs(&truth);
        assert!((fpr - 0.5).abs() < 1e-9);
        assert!((fnr - 0.5).abs() < 1e-9);
    }

    #[test]
    fn render_sequential_format() {
        let mut s = DepSet::new();
        s.insert(dep(60, DepType::Raw, 60, 0));
        s.insert(Dep {
            var: u32::MAX,
            ..dep(60, DepType::Init, 60, 0)
        });
        let spans = [ControlSpan {
            kind: "loop",
            start: 60,
            end: 60,
            iters: 1200,
        }];
        let text = render_text(&s, &|_| "i".to_string(), &spans, false);
        assert!(text.contains("1:60 BGN loop"));
        assert!(text.contains("{RAW 1:60|i}"));
        assert!(text.contains("{INIT *}"));
        assert!(text.contains("1:60 END loop 1200"));
    }

    #[test]
    fn render_multithreaded_format_has_thread_ids() {
        let mut s = DepSet::new();
        let mut d = dep(58, DepType::War, 77, 0);
        d.sink_thread = 2;
        d.source_thread = 2;
        s.insert(d);
        let text = render_text(&s, &|_| "iter".to_string(), &[], true);
        assert!(text.contains("1:58|2 NOM {WAR 1:77|2|iter}"), "{text}");
    }

    #[test]
    fn render_orders_entries_by_the_whole_dependence() {
        // Sixteen entries of one sink that differ only in source thread
        // come out in thread order, not in the set's hash order.
        let mut s = DepSet::new();
        for t in (0..16).rev() {
            s.insert(Dep {
                sink_thread: 1,
                source_thread: t,
                ..dep(9, DepType::Raw, 4, 0)
            });
        }
        let text = render_text(&s, &|_| "x".to_string(), &[], true);
        let entries: Vec<String> = (0..16).map(|t| format!("{{RAW 1:4|{t}|x}}")).collect();
        assert_eq!(text, format!("1:9|1 NOM {}\n", entries.join(" ")));
    }

    #[test]
    fn depkey_roundtrips_losslessly() {
        // Every in-budget field combination must survive pack → unpack
        // exactly, including the `u32::MAX` variable sentinel and the
        // carried-by option.
        let mut samples = Vec::new();
        for ty in [DepType::Raw, DepType::War, DepType::Waw, DepType::Init] {
            for var in [0u32, 7, (1 << 20) - 2, u32::MAX] {
                for carried in [None, Some((0u32, 0u32)), Some(((1 << 14) - 1, 3))] {
                    for race in [false, true] {
                        // Each line and thread field at its top edge once.
                        for (lines, threads) in [
                            ((123, (1 << 22) - 1), ((1 << 16) - 1, 17)),
                            (((1 << 22) - 1, 1), (0, (1 << 16) - 1)),
                        ] {
                            samples.push(Dep {
                                sink: SrcLoc::new(lines.0),
                                ty,
                                source: SrcLoc::new(lines.1),
                                var,
                                sink_thread: threads.0,
                                source_thread: threads.1,
                                carried_by: carried,
                                race_hint: race,
                            });
                        }
                    }
                }
            }
        }
        for d in samples {
            let k = DepKey::pack(&d).expect("in-budget dep must pack");
            assert_eq!(k.unpack(), d, "round-trip mismatch for {d:?}");
        }
    }

    #[test]
    fn depkey_rejects_out_of_budget_fields() {
        let base = dep(3, DepType::Raw, 2, 0);
        for wide in [
            Dep {
                sink: SrcLoc::new(1 << 22),
                ..base
            },
            Dep {
                source: SrcLoc::new(1 << 22),
                ..base
            },
            Dep {
                sink_thread: 1 << 16,
                ..base
            },
            Dep {
                source_thread: 1 << 16,
                ..base
            },
            Dep {
                var: (1 << 20) - 1,
                ..base
            },
            Dep {
                var: u32::MAX - 1,
                ..base
            },
            Dep {
                carried_by: Some((1 << 14, 0)),
                ..base
            },
            Dep {
                sink: SrcLoc { file: 2, line: 3 },
                ..base
            },
        ] {
            assert!(DepKey::pack(&wide).is_none(), "{wide:?} must not pack");
        }
    }

    #[test]
    fn wide_deps_fall_back_without_loss() {
        // A dependence that exceeds the packed budgets must still merge,
        // count, and render exactly like a packable one.
        let wide = Dep {
            sink: SrcLoc::new(1 << 25),
            ..dep(0, DepType::Raw, 2, 0)
        };
        let mut s = DepSet::new();
        s.insert(wide);
        s.insert(wide);
        s.insert(dep(3, DepType::Raw, 2, 0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.count(&wide), 2);
        assert!(s.contains(&wide));
        assert_eq!(s.total_found, 3);
        let mut other = DepSet::new();
        other.insert(wide);
        s.merge(other);
        assert_eq!(s.count(&wide), 3);
        assert!(s.sorted().contains(&wide));
    }

    #[test]
    fn carried_raw_query() {
        let mut s = DepSet::new();
        let mut d = dep(5, DepType::Raw, 5, 0);
        d.carried_by = Some((0, 1));
        s.insert(d);
        s.insert(dep(6, DepType::Raw, 5, 0));
        assert_eq!(s.carried_raws((0, 1)).len(), 1);
        assert_eq!(s.carried_raws((0, 2)).len(), 0);
    }
}
