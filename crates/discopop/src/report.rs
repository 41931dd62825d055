//! The versioned JSON wire format of a [`crate::Report`], and the
//! human-readable report printed from the same rows.
//!
//! The in-memory report carries ids (symbol ids, function indices) that
//! only mean something next to the [`interp::Program`] that produced them,
//! and the workspace's `serde` is an offline no-op shim — so the format is
//! defined here, by hand, once per direction: every row type (`DepDoc`,
//! `LoopDoc`, …) lists its fields in one `emit` over [`jsonio::Emitter`]
//! on the write side and in one `from_json` on the read side, and the
//! blocks around the rows are listed once in `emit_doc`. Downstream tools
//! consume the JSON; this module is the one place its shape is defined.
//!
//! # One description, one reader
//!
//! A row type is a *view*: its names are `Cow`s and its locations typed, so
//! it can borrow from a live report and its program or own what a parsed
//! document holds. Rows come from two places, behind the private `Rows`
//! walk:
//!
//! - a live [`crate::Report`] builds each row on the stack and drops it
//!   once emitted. [`crate::Report::to_json_string`] (the CLI's `--json`,
//!   the daemon's replies, the benchmark's jobs) pushes those rows into
//!   [`jsonio::TextSink`]: report → bytes in one pass, with no document, no
//!   tree and no allocation per row in between;
//! - an owned [`ReportDoc`] hands out the rows it holds.
//!   [`ReportDoc::to_json`] emits them into [`jsonio::TreeSink`]:
//!   `to_json().to_string_pretty()` is the **reference** the written bytes
//!   are tested against (`tests/streamed_report.rs`).
//!
//! A document is only ever read: [`ReportDoc::from_report`] emits a live
//! report into a [`jsonio::TreeSink`] and reads the tree with
//! [`ReportDoc::from_json`]'s reader.
//!
//! The human-readable report is written once too, over the same two
//! sources: [`crate::render_report`] prints a live report's rows and
//! [`ReportDoc::render`] a parsed document's, the same text for the same
//! run.
//!
//! # Schema (version 8)
//!
//! ```json
//! {
//!   "schema_version": 8,
//!   "program": "demo",
//!   "engine": "serial-perfect",
//!   "profile": {
//!     "steps": 1384, "accesses": 384, "dependences_found": 251,
//!     "profiler_bytes": 73728, "printed": [],
//!     "resource": {"budget_bytes": 1048576, "deadline_ms": null,
//!                  "peak_tracked_bytes": 524288, "fp_rate_estimate": 0.01,
//!                  "deadline_hit": false,
//!                  "degradation_steps": [{"from": "perfect",
//!                    "to": "signature:4096", "bytes_before": 1100000,
//!                    "bytes_after": 300000, "affected": [0, 8192],
//!                    "merged_slots": 0}]},
//!     "dependences": [
//!       {"sink": "1:4", "type": "RAW", "source": "1:2", "var": "sum",
//!        "threads": null, "carried_by": [0, 1], "race_hint": false,
//!        "count": 63},
//!       {"sink": "1:9", "type": "RAW", "source": "1:12", "var": "mailbox",
//!        "threads": [[1, 0, 1, 0, 3, 2], [9, 4, 0, 0, 1, 5]],
//!        "carried_by": null, "race_hint": false, "count": 11}
//!     ],
//!     "pet": [{"kind": "function", "name": "main", "entries": 1, "iters": 0,
//!              "dyn_instrs": 1384, "start_line": 2, "end_line": 7,
//!              "children": [1]}],
//!     "parallel": null,
//!     "summary": {"loops_skipped": 1, "cycles": 63,
//!                 "synthesized_accesses": 252,
//!                 "fallback_reasons": {"budget": 0, "precondition": 0,
//!                                      "fault": 0},
//!                 "dispatches": 412},
//!     "actors": {"spawned": 3, "peak_live": 3, "sent": 16, "received": 16,
//!                "channels": [[0, 1, 1, 1, 2, 8]],
//!                "channel_digest": 1234567890}
//!   },
//!   "discovery": {
//!     "loops":    [{"start_line": 3, "class": "Doall", "...": "..."}],
//!     "spmd":     [],
//!     "mpmd":     [],
//!     "ranked":   [{"target": {"kind": "loop", "start_line": 3,
//!                              "class": "Doall", "...": "..."},
//!                   "instruction_coverage": 0.62, "local_speedup": 64.0,
//!                   "cu_imbalance": 0.0, "score": 39.7}],
//!     "patterns": [{"name": "geometric decomposition", "loop_line": 3,
//!                   "width": 64}]
//!   },
//!   "static": {
//!     "spawns_threads": false, "affine_ops": 2, "mem_ops": 2,
//!     "loops": [{"func": 0, "func_name": "main", "region": 1,
//!                "start_line": 3, "end_line": 5, "mem_ops": 2,
//!                "affine_ops": 2, "has_iv": true, "trip_count": 64,
//!                "tested_pairs": 3, "proven_pairs": 3,
//!                "doall_candidate": true}],
//!     "claims": [{"func": 0, "region": 1, "var": "a",
//!                 "line_a": 4, "line_b": 4}],
//!     "lints": [{"kind": "const-oob", "func": "main", "var": "a",
//!                "line": 9, "message": "..."}]
//!   }
//! }
//! ```
//!
//! # Folded thread pairs
//!
//! A dependence row is keyed by everything but its two thread ids (sink,
//! type, source, var, carried_by, race_hint). The dependences that share
//! a key and differ only in `(sink_thread, source_thread)` are one row:
//! `count` is their sum, and `threads` lists them as arithmetic runs
//! `[sink0, source0, d_sink, d_source, n, count_each]` — the `n` pairs
//! `(sink0 + i·d_sink, source0 + i·d_source)`, `i` in `0..n`, each merged
//! `count_each` times. A row whose only pair is `(0, 0)` — every row of a
//! single-threaded target — writes `"threads": null`. Above, the second
//! row is the four dependences (1, 0), (2, 0) and (3, 0) with count 2 each
//! and (9, 4) with count 5. `actors.channels` folds the same way:
//! `[from0, to0, d_from, d_to, n, messages_each]`, so above actor 0 sends
//! 8 messages to actor 1 and actor 1 sends 8 to actor 2.
//!
//! The fold is greedy, over the rows in the order they are written (live
//! reports sort theirs by key, then sink thread, then source thread: the
//! fold order, defined once as [`profiler::dep::fold_order`] and sorted by
//! [`profiler::DepSet::in_fold_order`]'s packed integer key): a run grows
//! while the next pair has its count and steps by its stride.
//! [`ReportDoc::from_json`] unfolds the runs back into one [`DepDoc`] (or
//! one channel triple) per pair, so the fold loses nothing and re-folds
//! to the same bytes.
//!
//! Every key is always present. Four blocks may be `null`: `parallel`
//! (`chunks`, `queue_stalls`, `spawned_workers`, `worker_recoveries`,
//! `worker_processed`) for runs off the `parallel:N` engine, `resource`
//! for ungoverned runs, `actors` for targets that neither spawned a second
//! actor nor passed a message, and `static` for runs without the static
//! pre-pass ([`crate::Analysis::with_static`]).

use crate::{Report, StaticReport};
use discovery::ranking::SuggestionTarget;
use discovery::{
    LoopClass, LoopResult, MpmdSuggestion, Pattern, RankedSuggestion, SpmdKind, SpmdSuggestion,
};
use jsonio::{Emitter, TextSink, TreeSink, Value};
use profiler::dep::fold_order;
use profiler::{Dep, DepType, PetNode, PetNodeKind, SrcLoc};
use std::borrow::Cow;

/// Version stamp of the JSON schema [`ReportDoc::to_json`] writes, and the
/// only version [`ReportDoc::from_json`] reads: a document of any other
/// version is a [`SchemaError`] that names it.
///
/// Version 7 is version 6 with the three reserved zero keys of
/// `profile.parallel` (`rebalances`, `combined`, `merges`) gone, read with
/// every key required: `summary` is always an object, and `parallel`,
/// `resource`, `actors` and `static` are present even when `null`.
///
/// Version 8 folds thread pairs (see the module docs): a dependence row
/// trades `sink_thread`/`source_thread` for `threads` (runs, or `null` for
/// the lone pair `(0, 0)`), and `actors.channels` holds runs instead of
/// `{from, to, messages}` objects. Nothing else changed.
pub const SCHEMA_VERSION: u32 = 8;

/// Error produced when a JSON document does not match the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "report schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

type DocResult<T> = Result<T, SchemaError>;

fn err<T>(msg: impl Into<String>) -> DocResult<T> {
    Err(SchemaError(msg.into()))
}

fn field<'a>(v: &'a Value, key: &str) -> DocResult<&'a Value> {
    v.get(key)
        .ok_or_else(|| SchemaError(format!("missing field `{key}`")))
}

fn get_str(v: &Value, key: &str) -> DocResult<String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| SchemaError(format!("`{key}` must be a string")))
}

fn get_u64(v: &Value, key: &str) -> DocResult<u64> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| SchemaError(format!("`{key}` must be a non-negative integer")))
}

fn get_u32(v: &Value, key: &str) -> DocResult<u32> {
    u32::try_from(get_u64(v, key)?).map_err(|_| SchemaError(format!("`{key}` overflows u32")))
}

fn get_f64(v: &Value, key: &str) -> DocResult<f64> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| SchemaError(format!("`{key}` must be a number")))
}

fn get_bool(v: &Value, key: &str) -> DocResult<bool> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| SchemaError(format!("`{key}` must be a boolean")))
}

fn get_array<'a>(v: &'a Value, key: &str) -> DocResult<&'a [Value]> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| SchemaError(format!("`{key}` must be an array")))
}

fn checked_u32(n: u64, what: &str) -> DocResult<u32> {
    u32::try_from(n).map_err(|_| SchemaError(format!("{what} overflows u32")))
}

fn pair_u32(v: &Value, what: &str) -> DocResult<(u32, u32)> {
    match v.as_array() {
        Some([a, b]) => match (a.as_u64(), b.as_u64()) {
            (Some(a), Some(b)) => Ok((checked_u32(a, what)?, checked_u32(b, what)?)),
            _ => err(format!("{what} must hold two integers")),
        },
        _ => err(format!("{what} must be a two-element array")),
    }
}

/// A string field in one of the typed forms rows carry (`1:9`, `RAW`,
/// `Doall`).
fn get_parsed<T: std::str::FromStr>(v: &Value, key: &str) -> DocResult<T> {
    field(v, key)?
        .as_str()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SchemaError(format!("`{key}` is not in a form this build reads")))
}

/// A required field that is `null` or a non-negative integer.
fn get_opt_u64(v: &Value, key: &str) -> DocResult<Option<u64>> {
    match field(v, key)? {
        Value::Null => Ok(None),
        other => Ok(Some(other.as_u64().ok_or_else(|| {
            SchemaError(format!("`{key}` must be an integer or null"))
        })?)),
    }
}

fn get_opt_u32(v: &Value, key: &str) -> DocResult<Option<u32>> {
    get_opt_u64(v, key)?
        .map(|n| checked_u32(n, &format!("`{key}`")))
        .transpose()
}

/// An array field, each element read by `row`.
fn get_rows<T>(v: &Value, key: &str, row: impl Fn(&Value) -> DocResult<T>) -> DocResult<Vec<T>> {
    get_array(v, key)?.iter().map(row).collect()
}

/// An array of non-negative integers that fit `T`.
fn get_ints<T: TryFrom<u64>>(v: &Value, key: &str) -> DocResult<Vec<T>> {
    get_rows(v, key, |n| {
        n.as_u64()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| SchemaError(format!("`{key}` entries must be integers in range")))
    })
}

fn get_str_array(v: &Value, key: &str) -> DocResult<Vec<String>> {
    get_rows(v, key, |s| {
        s.as_str()
            .map(str::to_string)
            .ok_or_else(|| SchemaError(format!("`{key}` entries must be strings")))
    })
}

/// A required block that is `null` when the run had nothing to say there.
fn get_block<T>(
    v: &Value,
    key: &str,
    block: impl FnOnce(&Value) -> DocResult<T>,
) -> DocResult<Option<T>> {
    match field(v, key)? {
        Value::Null => Ok(None),
        other => block(other).map(Some),
    }
}

fn spans_from(v: &Value, key: &str) -> DocResult<Vec<(u32, u32)>> {
    get_rows(v, key, |s| pair_u32(s, key))
}

fn opt_u64<S: Emitter>(s: &mut S, n: Option<impl Into<u64>>) {
    match n {
        Some(n) => s.u64(n),
        None => s.null(),
    }
}

/// `[a, b]`, or `null`.
fn opt_pair<S: Emitter, N: Into<u64>>(s: &mut S, pair: Option<(N, N)>) {
    match pair {
        Some((a, b)) => s.array([a, b], |n, s| s.u64(n)),
        None => s.null(),
    }
}

fn spans<S: Emitter>(s: &mut S, spans: &[(u32, u32)]) {
    s.array(spans, |&span, s| opt_pair(s, Some(span)));
}

fn strs<S: Emitter>(s: &mut S, strs: &[String]) {
    s.array(strs, |text, s| s.str(text));
}

/// An optional block: its `emit`, or `null`.
fn opt_block<S: Emitter, T>(s: &mut S, block: &Option<T>, emit: impl FnOnce(&T, &mut S)) {
    match block {
        Some(block) => emit(block, s),
        None => s.null(),
    }
}

/// The most rows [`ReportDoc::from_json`] unfolds a document's runs into,
/// dependences, blocking rows and channels together: 2^24. It bounds
/// untrusted input: a run of six integers can stand for billions of rows.
/// A document past it is a [`SchemaError`], found before any of its rows
/// is built ([`unfolded_rows`]).
const MAX_UNFOLDED_ROWS: u64 = 1 << 24;

/// One arithmetic run of thread pairs: `(a + i·da, b + i·db)` for `i` in
/// `0..n`, each counted `each` times. Written `[a, b, da, db, n, each]`.
/// A run of one pair has strides `(0, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    a: u32,
    b: u32,
    da: i64,
    db: i64,
    n: u64,
    each: u64,
}

impl Run {
    /// The run that stands for `"threads": null`: the pair `(0, 0)` alone.
    fn is_lone_origin(&self) -> bool {
        (self.a, self.b, self.n) == (0, 0, 1)
    }

    /// The count the run's pairs add up to.
    fn total(&self) -> u64 {
        self.n.saturating_mul(self.each)
    }

    /// Its `n` pairs with their counts. Thread ids stay in `u32`: the fold
    /// builds runs from `u32` pairs, and [`Run::from_json`] checks the last.
    fn unfold(self) -> impl Iterator<Item = (u32, u32, u64)> {
        let at = |x: u32, d: i64, i: u64| (x as i64 + d * i as i64) as u32;
        (0..self.n).map(move |i| (at(self.a, self.da, i), at(self.b, self.db, i), self.each))
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_array();
        s.u64(self.a);
        s.u64(self.b);
        s.i64(self.da);
        s.i64(self.db);
        s.u64(self.n);
        s.u64(self.each);
        s.end_array();
    }

    fn from_json(v: &Value, what: &str) -> DocResult<Run> {
        let bad = || SchemaError(format!("{what} runs must be six integers in range"));
        let [a, b, da, db, n, each] = v.as_array().ok_or_else(bad)? else {
            return Err(bad());
        };
        let id = |x: &Value| {
            x.as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(bad)
        };
        let (a, b) = (id(a)?, id(b)?);
        let (da, db) = (da.as_i64().ok_or_else(bad)?, db.as_i64().ok_or_else(bad)?);
        let (n, each) = (n.as_u64().ok_or_else(bad)?, each.as_u64().ok_or_else(bad)?);
        if n == 0 {
            return err(format!("{what} run of zero pairs"));
        }
        // The ids are linear in `i`: the first and the last pair in range
        // puts every pair in range. `i128` holds `(n - 1)·d` exactly.
        let last = |x: u32, d: i64| x as i128 + (n - 1) as i128 * d as i128;
        if !(0..=u32::MAX as i128).contains(&last(a, da))
            || !(0..=u32::MAX as i128).contains(&last(b, db))
        {
            return err(format!("{what} run leaves the u32 thread ids"));
        }
        Ok(Run {
            a,
            b,
            da,
            db,
            n,
            each,
        })
    }
}

/// Greedy fold of `(a, b, count)` triples, in the order given, into runs:
/// a run takes the next triple while its count is the run's and — from the
/// third pair on — it steps by the run's stride.
fn runs(triples: impl Iterator<Item = (u32, u32, u64)>) -> impl Iterator<Item = Run> {
    let mut triples = triples.peekable();
    std::iter::from_fn(move || {
        let (a, b, each) = triples.next()?;
        let mut run = Run {
            a,
            b,
            da: 0,
            db: 0,
            n: 1,
            each,
        };
        let mut last = (a, b);
        while let Some(&(x, y, count)) = triples.peek() {
            let step = (x as i64 - last.0 as i64, y as i64 - last.1 as i64);
            if count != each || (run.n > 1 && step != (run.da, run.db)) {
                break;
            }
            (run.da, run.db) = step;
            run.n += 1;
            last = (x, y);
            triples.next();
        }
        Some(run)
    })
}

/// A folded dependence row's thread pairs, as [`fold_rows`] hands them out.
enum Threads<'r> {
    /// The pair `(0, 0)` alone, with its count: written `null`.
    Lone(u64),
    /// The runs, in order.
    Runs(&'r mut dyn Iterator<Item = Run>),
}

/// Fold `rows` into the rows v8 writes: each maximal stretch of
/// consecutive rows that share a key ([`DepDoc::same_key`]) becomes one,
/// handed to `row` as its first row and its [`Threads`]. Allocates nothing.
fn fold_rows<'r>(
    rows: impl Iterator<Item = DepDoc<'r>>,
    mut row: impl FnMut(&DepDoc<'r>, Threads<'_>),
) {
    let mut rows = rows.peekable();
    while let Some(first) = rows.next() {
        let next = || rows.next_if(|r| r.same_key(&first)).map(|r| r.pair());
        let mut runs =
            runs(std::iter::once(first.pair()).chain(std::iter::from_fn(next))).peekable();
        let head = runs.next();
        match head {
            Some(run) if run.is_lone_origin() && runs.peek().is_none() => {
                row(&first, Threads::Lone(run.each))
            }
            _ => row(&first, Threads::Runs(&mut head.into_iter().chain(runs))),
        }
    }
}

/// `rows`, folded, as the array of v8 rows.
fn emit_deps<'r, S: Emitter>(s: &mut S, rows: impl Iterator<Item = DepDoc<'r>>) {
    s.begin_array();
    fold_rows(rows, |first, threads| first.emit(threads, s));
    s.end_array();
}

/// The runs of the array `v`, each checked as it is read.
fn get_runs<'v>(
    v: &'v Value,
    what: &'v str,
) -> DocResult<impl Iterator<Item = DocResult<Run>> + 'v> {
    let runs = v
        .as_array()
        .ok_or_else(|| SchemaError(format!("{what} must be an array of runs")))?;
    Ok(runs.iter().map(move |r| Run::from_json(r, what)))
}

/// The rows the runs of document `v` unfold into — dependences, blocking
/// rows and channels — read leniently (what is malformed counts 0 and
/// fails the typed read later) and summed before anything is built.
fn unfolded_rows(v: &Value) -> u64 {
    fn array(v: Option<&Value>) -> &[Value] {
        v.and_then(Value::as_array).unwrap_or(&[])
    }
    fn sum(xs: &[Value], f: impl Fn(&Value) -> u64) -> u64 {
        xs.iter().map(f).fold(0, u64::saturating_add)
    }
    /// The `n`s of an array of runs.
    fn runs(runs: Option<&Value>) -> u64 {
        sum(array(runs), |r| {
            array(Some(r)).get(4).and_then(Value::as_u64).unwrap_or(0)
        })
    }
    fn deps(rows: Option<&Value>) -> u64 {
        sum(array(rows), |r| match r.get("threads") {
            Some(Value::Null) | None => 1,
            threads => runs(threads),
        })
    }
    let profile = v.get("profile");
    let loops = array(v.get("discovery").and_then(|d| d.get("loops")));
    deps(profile.and_then(|p| p.get("dependences")))
        .saturating_add(sum(loops, |l| deps(l.get("blocking"))))
        .saturating_add(runs(
            profile
                .and_then(|p| p.get("actors"))
                .and_then(|a| a.get("channels")),
        ))
}

/// One merged dependence. `sink`/`source` render in the DiscoPoP
/// `file:line` notation, `ty` as `RAW` / `WAR` / `WAW` / `INIT`.
#[derive(Debug, Clone, PartialEq)]
pub struct DepDoc<'a> {
    /// Location of the later access.
    pub sink: SrcLoc,
    /// Dependence type.
    pub ty: DepType,
    /// Location of the earlier access.
    pub source: SrcLoc,
    /// Variable name (`*` for INIT bookkeeping entries).
    pub var: Cow<'a, str>,
    /// Thread that executed the sink.
    pub sink_thread: u32,
    /// Thread that executed the source.
    pub source_thread: u32,
    /// `(function, region)` of the carrying loop, if loop-carried.
    pub carried_by: Option<(u32, u32)>,
    /// Timestamp inversion observed (§2.3.4).
    pub race_hint: bool,
    /// Occurrences merged into this entry.
    pub count: u64,
}

impl<'a> DepDoc<'a> {
    fn of(program: &'a interp::Program, d: &Dep, count: u64) -> Self {
        DepDoc {
            sink: d.sink,
            ty: d.ty,
            source: d.source,
            var: Cow::Borrowed(if d.var == u32::MAX {
                "*"
            } else {
                program.symbol(d.var)
            }),
            sink_thread: d.sink_thread,
            source_thread: d.source_thread,
            carried_by: d.carried_by,
            race_hint: d.race_hint,
            count,
        }
    }

    /// The same row, borrowing its name from `self`.
    fn view(&self) -> DepDoc<'_> {
        DepDoc {
            sink: self.sink,
            ty: self.ty,
            source: self.source,
            var: Cow::Borrowed(&self.var),
            sink_thread: self.sink_thread,
            source_thread: self.source_thread,
            carried_by: self.carried_by,
            race_hint: self.race_hint,
            count: self.count,
        }
    }

    /// Equal in everything but the thread pair and the count: the rows one
    /// folded row stands for.
    fn same_key(&self, other: &DepDoc<'_>) -> bool {
        self.sink == other.sink
            && self.ty == other.ty
            && self.source == other.source
            && self.var == other.var
            && self.carried_by == other.carried_by
            && self.race_hint == other.race_hint
    }

    /// `(sink_thread, source_thread, count)`.
    fn pair(&self) -> (u32, u32, u64) {
        (self.sink_thread, self.source_thread, self.count)
    }

    /// The folded row: this row's key with `threads`, and their sum as
    /// `count`.
    fn emit<S: Emitter>(&self, threads: Threads<'_>, s: &mut S) {
        s.begin_object();
        s.key("sink").display(&self.sink);
        s.key("type").display(&self.ty);
        s.key("source").display(&self.source);
        s.key("var").str(&self.var);
        let count = match threads {
            Threads::Lone(count) => {
                s.key("threads").null();
                count
            }
            Threads::Runs(runs) => {
                let mut count = 0u64;
                s.key("threads").begin_array();
                for run in runs {
                    count = count.saturating_add(run.total());
                    run.emit(s);
                }
                s.end_array();
                count
            }
        };
        opt_pair(s.key("carried_by"), self.carried_by);
        s.key("race_hint").bool(self.race_hint);
        s.key("count").u64(count);
        s.end_object();
    }

    /// Read one folded row into `out`, one [`DepDoc`] per thread pair.
    fn unfold(v: &Value, out: &mut Vec<DepDoc<'static>>) -> DocResult<()> {
        let row = DepDoc {
            sink: get_parsed(v, "sink")?,
            ty: get_parsed(v, "type")?,
            source: get_parsed(v, "source")?,
            var: get_str(v, "var")?.into(),
            sink_thread: 0,
            source_thread: 0,
            carried_by: match field(v, "carried_by")? {
                Value::Null => None,
                other => Some(pair_u32(other, "carried_by")?),
            },
            race_hint: get_bool(v, "race_hint")?,
            count: get_u64(v, "count")?,
        };
        let threads = match field(v, "threads")? {
            Value::Null => {
                out.push(row);
                return Ok(());
            }
            threads => threads,
        };
        let (mut sum, mut runs, mut lone) = (0u64, 0usize, false);
        for run in get_runs(threads, "`threads`")? {
            let run = run?;
            lone = runs == 0 && run.is_lone_origin();
            runs += 1;
            sum = sum.saturating_add(run.total());
            out.extend(
                run.unfold()
                    .map(|(sink_thread, source_thread, count)| DepDoc {
                        sink_thread,
                        source_thread,
                        count,
                        ..row.clone()
                    }),
            );
        }
        if runs == 0 {
            return err("`threads` must be null or hold at least one run");
        }
        if lone {
            return err("`threads` holding the pair (0, 0) alone must be null");
        }
        if sum != row.count {
            return err(format!(
                "`count` {} is not the sum of its thread runs, {sum}",
                row.count
            ));
        }
        Ok(())
    }
}

/// Every folded row of the array `key`, unfolded.
fn get_deps(v: &Value, key: &str) -> DocResult<Vec<DepDoc<'static>>> {
    let mut out = Vec::new();
    for row in get_array(v, key)? {
        DepDoc::unfold(row, &mut out)?;
    }
    Ok(out)
}

/// One PET node (§2.3.6), with function names resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct PetNodeDoc<'a> {
    /// `root`, `function`, or `loop`.
    pub kind: Cow<'a, str>,
    /// Function name (functions only, empty otherwise).
    pub name: Cow<'a, str>,
    /// Times entered under this parent.
    pub entries: u64,
    /// Loop iterations (loops only).
    pub iters: u64,
    /// Inclusive dynamic instructions.
    pub dyn_instrs: u64,
    /// First source line.
    pub start_line: u32,
    /// Last source line.
    pub end_line: u32,
    /// Child node indices into the node list.
    pub children: Cow<'a, [usize]>,
}

impl<'a> PetNodeDoc<'a> {
    fn of(program: &'a interp::Program, n: &'a PetNode) -> Self {
        let (kind, name) = match n.kind {
            PetNodeKind::Root => ("root", ""),
            PetNodeKind::Function(f) => (
                "function",
                program
                    .module
                    .functions
                    .get(f as usize)
                    .map_or("", |f| f.name.as_str()),
            ),
            PetNodeKind::Loop(_, _) => ("loop", ""),
        };
        PetNodeDoc {
            kind: Cow::Borrowed(kind),
            name: Cow::Borrowed(name),
            entries: n.entries,
            iters: n.iters,
            dyn_instrs: n.dyn_instrs,
            start_line: n.start_line,
            end_line: n.end_line,
            children: Cow::Borrowed(&n.children),
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("kind").str(&self.kind);
        s.key("name").str(&self.name);
        s.key("entries").u64(self.entries);
        s.key("iters").u64(self.iters);
        s.key("dyn_instrs").u64(self.dyn_instrs);
        s.key("start_line").u64(self.start_line);
        s.key("end_line").u64(self.end_line);
        s.key("children")
            .array(self.children.iter(), |&c, s| s.u64(c as u64));
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<PetNodeDoc<'static>> {
        Ok(PetNodeDoc {
            kind: get_str(v, "kind")?.into(),
            name: get_str(v, "name")?.into(),
            entries: get_u64(v, "entries")?,
            iters: get_u64(v, "iters")?,
            dyn_instrs: get_u64(v, "dyn_instrs")?,
            start_line: get_u32(v, "start_line")?,
            end_line: get_u32(v, "end_line")?,
            children: get_ints(v, "children")?.into(),
        })
    }
}

/// Parallel-engine transport statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelDoc {
    /// Chunks shipped to workers.
    pub chunks: u64,
    /// Full-queue retries the producer suffered.
    pub queue_stalls: u64,
    /// Worker threads actually spawned; 0 = fully inline.
    pub spawned_workers: u64,
    /// Panicked workers recovered by draining their partition back inline.
    pub worker_recoveries: u64,
    /// Accesses processed per partition.
    pub worker_processed: Vec<u64>,
}

impl ParallelDoc {
    fn from_stats(p: &profiler::ParallelStats) -> ParallelDoc {
        ParallelDoc {
            chunks: p.chunks,
            queue_stalls: p.queue_stalls,
            spawned_workers: p.spawned_workers as u64,
            worker_recoveries: p.worker_recoveries,
            worker_processed: p.worker_processed.clone(),
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("chunks").u64(self.chunks);
        s.key("queue_stalls").u64(self.queue_stalls);
        s.key("spawned_workers").u64(self.spawned_workers);
        s.key("worker_recoveries").u64(self.worker_recoveries);
        s.key("worker_processed")
            .array(&self.worker_processed, |&w, s| s.u64(w));
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<ParallelDoc> {
        Ok(ParallelDoc {
            chunks: get_u64(v, "chunks")?,
            queue_stalls: get_u64(v, "queue_stalls")?,
            spawned_workers: get_u64(v, "spawned_workers")?,
            worker_recoveries: get_u64(v, "worker_recoveries")?,
            worker_processed: get_ints(v, "worker_processed")?,
        })
    }
}

/// One degradation-ladder rung of a governed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationStepDoc {
    /// Tier before the step (`perfect` or `signature:<slots>`).
    pub from: String,
    /// Tier after the step.
    pub to: String,
    /// Tracked bytes that triggered the step.
    pub bytes_before: u64,
    /// Tracked bytes immediately after the step.
    pub bytes_after: u64,
    /// `[lo, hi]` word-address range whose tracking became approximate,
    /// when enumerable.
    pub affected: Option<(u64, u64)>,
    /// Slot pairs merged by a halving step.
    pub merged_slots: u64,
}

impl DegradationStepDoc {
    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("from").str(&self.from);
        s.key("to").str(&self.to);
        s.key("bytes_before").u64(self.bytes_before);
        s.key("bytes_after").u64(self.bytes_after);
        opt_pair(s.key("affected"), self.affected);
        s.key("merged_slots").u64(self.merged_slots);
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<DegradationStepDoc> {
        let affected = match field(v, "affected")? {
            Value::Null => None,
            other => match other.as_array() {
                Some([a, b]) => match (a.as_u64(), b.as_u64()) {
                    (Some(a), Some(b)) => Some((a, b)),
                    _ => return err("`affected` must hold two integers"),
                },
                _ => return err("`affected` must be a two-element array or null"),
            },
        };
        Ok(DegradationStepDoc {
            from: get_str(v, "from")?,
            to: get_str(v, "to")?,
            bytes_before: get_u64(v, "bytes_before")?,
            bytes_after: get_u64(v, "bytes_after")?,
            affected,
            merged_slots: get_u64(v, "merged_slots")?,
        })
    }
}

/// Resource accounting of a governed run; `null` for ungoverned runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceDoc {
    /// Configured memory ceiling in bytes, if any.
    pub budget_bytes: Option<u64>,
    /// Configured deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// High-water mark of tracked profiler bytes.
    pub peak_tracked_bytes: u64,
    /// Ladder rungs taken, in order.
    pub degradation_steps: Vec<DegradationStepDoc>,
    /// Estimated false-positive probability per probe for signature-mode
    /// regions; `0.0` while the run stayed exact.
    pub fp_rate_estimate: f64,
    /// `true` when the run hit its deadline and the profile is partial.
    pub deadline_hit: bool,
}

impl ResourceDoc {
    fn from_stats(r: &profiler::ResourceStats) -> ResourceDoc {
        ResourceDoc {
            budget_bytes: r.budget_bytes,
            deadline_ms: r.deadline_ms,
            peak_tracked_bytes: r.peak_tracked_bytes,
            degradation_steps: r
                .degradation_steps
                .iter()
                .map(|s| DegradationStepDoc {
                    from: s.from.to_string(),
                    to: s.to.to_string(),
                    bytes_before: s.bytes_before,
                    bytes_after: s.bytes_after,
                    affected: s.affected,
                    merged_slots: s.merged_slots,
                })
                .collect(),
            fp_rate_estimate: r.fp_rate_estimate,
            deadline_hit: r.deadline_hit,
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        opt_u64(s.key("budget_bytes"), self.budget_bytes);
        opt_u64(s.key("deadline_ms"), self.deadline_ms);
        s.key("peak_tracked_bytes").u64(self.peak_tracked_bytes);
        s.key("degradation_steps")
            .array(&self.degradation_steps, DegradationStepDoc::emit);
        s.key("fp_rate_estimate").f64(self.fp_rate_estimate);
        s.key("deadline_hit").bool(self.deadline_hit);
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<ResourceDoc> {
        Ok(ResourceDoc {
            budget_bytes: get_opt_u64(v, "budget_bytes")?,
            deadline_ms: get_opt_u64(v, "deadline_ms")?,
            peak_tracked_bytes: get_u64(v, "peak_tracked_bytes")?,
            degradation_steps: get_rows(v, "degradation_steps", DegradationStepDoc::from_json)?,
            fp_rate_estimate: get_f64(v, "fp_rate_estimate")?,
            deadline_hit: get_bool(v, "deadline_hit")?,
        })
    }
}

/// Affine-skip-tier accounting, in every report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryDoc {
    /// Distinct loops whose iterations were plan-replayed.
    pub loops_skipped: u64,
    /// Full loop cycles replayed without dispatch.
    pub cycles: u64,
    /// Memory access events synthesized by plan replay.
    pub synthesized_accesses: u64,
    /// Replays abandoned mid-cycle by slice-budget expiry.
    pub fallback_budget: u64,
    /// Engagements declined because a runtime precondition failed.
    pub fallback_precondition: u64,
    /// Tier shutdowns forced by fault injection.
    pub fallback_fault: u64,
    /// Interpreter dispatch-loop iterations for the whole run (plan
    /// replay performs none; compare against a run without `--static`).
    pub dispatches: u64,
}

impl SummaryDoc {
    fn from_synth(s: &profiler::SynthSummary) -> SummaryDoc {
        SummaryDoc {
            loops_skipped: s.loops_skipped,
            cycles: s.cycles,
            synthesized_accesses: s.synthesized_accesses,
            fallback_budget: s.fallback_budget,
            fallback_precondition: s.fallback_precondition,
            fallback_fault: s.fallback_fault,
            dispatches: s.dispatches,
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("loops_skipped").u64(self.loops_skipped);
        s.key("cycles").u64(self.cycles);
        s.key("synthesized_accesses").u64(self.synthesized_accesses);
        s.key("fallback_reasons").begin_object();
        s.key("budget").u64(self.fallback_budget);
        s.key("precondition").u64(self.fallback_precondition);
        s.key("fault").u64(self.fallback_fault);
        s.end_object();
        s.key("dispatches").u64(self.dispatches);
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<SummaryDoc> {
        let reasons = field(v, "fallback_reasons")?;
        Ok(SummaryDoc {
            loops_skipped: get_u64(v, "loops_skipped")?,
            cycles: get_u64(v, "cycles")?,
            synthesized_accesses: get_u64(v, "synthesized_accesses")?,
            fallback_budget: get_u64(reasons, "budget")?,
            fallback_precondition: get_u64(reasons, "precondition")?,
            fallback_fault: get_u64(reasons, "fault")?,
            dispatches: get_u64(v, "dispatches")?,
        })
    }
}

/// Actor-scheduler accounting: present when the run spawned a second actor
/// or passed a message, `null` for sequential targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorsDoc {
    /// Actors ever spawned (main included).
    pub spawned: u32,
    /// Peak simultaneously-live actors.
    pub peak_live: u32,
    /// Messages sent across all mailboxes.
    pub sent: u64,
    /// Messages received across all mailboxes.
    pub received: u64,
    /// Per-channel message counts `(from, to, messages)`, sorted by
    /// `(from, to)`; written folded into runs (see the module docs).
    pub channels: Vec<(u32, u32, u64)>,
    /// FNV-1a digest of the channel matrix — a compact, order-stable
    /// fingerprint for determinism checks across runs ([`ActorsDoc::digest_channels`]).
    pub channel_digest: u64,
}

impl ActorsDoc {
    /// FNV-1a over the `(from, to, messages)` triples in sorted order:
    /// equal matrices hash equal across runs and builds.
    pub fn digest_channels(channels: &[(u32, u32, u64)]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for &(from, to, n) in channels {
            mix(from as u64);
            mix(to as u64);
            mix(n);
        }
        h
    }

    fn from_summary(a: &profiler::ActorSummary) -> ActorsDoc {
        ActorsDoc {
            spawned: a.spawned,
            peak_live: a.peak_live,
            sent: a.sent,
            received: a.received,
            channel_digest: Self::digest_channels(&a.channels),
            channels: a.channels.clone(),
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("spawned").u64(self.spawned);
        s.key("peak_live").u64(self.peak_live);
        s.key("sent").u64(self.sent);
        s.key("received").u64(self.received);
        s.key("channels")
            .array(runs(self.channels.iter().copied()), |run, s| run.emit(s));
        s.key("channel_digest").u64(self.channel_digest);
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<ActorsDoc> {
        let mut channels = Vec::new();
        for run in get_runs(field(v, "channels")?, "`channels`")? {
            channels.extend(run?.unfold());
        }
        Ok(ActorsDoc {
            spawned: get_u32(v, "spawned")?,
            peak_live: get_u32(v, "peak_live")?,
            sent: get_u64(v, "sent")?,
            received: get_u64(v, "received")?,
            channels,
            channel_digest: get_u64(v, "channel_digest")?,
        })
    }
}

/// The profiler section of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDoc {
    /// Executed target instructions.
    pub steps: u64,
    /// Dynamic memory accesses processed.
    pub accesses: u64,
    /// Dependences found before merging.
    pub dependences_found: u64,
    /// Estimated profiler memory footprint in bytes.
    pub profiler_bytes: u64,
    /// Target program output.
    pub printed: Vec<String>,
    /// Merged dependences, one per thread pair, in the order they fold
    /// in (key, then sink thread, then source thread).
    pub dependences: Vec<DepDoc<'static>>,
    /// PET nodes (index 0 is the root; `children` index into this list).
    pub pet: Vec<PetNodeDoc<'static>>,
    /// Parallel-engine statistics, when the parallel engine ran.
    pub parallel: Option<ParallelDoc>,
    /// Resource accounting, when the run was governed by a budget.
    pub resource: Option<ResourceDoc>,
    /// Affine-skip-tier accounting.
    pub summary: SummaryDoc,
    /// Actor-scheduler accounting, for targets that ran actors.
    pub actors: Option<ActorsDoc>,
}

impl ProfileDoc {
    /// Everything but the two arrays that grow with the run.
    fn head(p: &profiler::ProfileOutput) -> ProfileDoc {
        ProfileDoc {
            steps: p.steps,
            accesses: p.skip_stats.total_accesses,
            dependences_found: p.deps.total_found,
            profiler_bytes: p.profiler_bytes as u64,
            printed: p.printed.clone(),
            dependences: Vec::new(),
            pet: Vec::new(),
            parallel: p.parallel.as_ref().map(ParallelDoc::from_stats),
            resource: p.resource.as_ref().map(ResourceDoc::from_stats),
            summary: SummaryDoc::from_synth(&p.synth),
            actors: p.actors.as_ref().map(ActorsDoc::from_summary),
        }
    }

    fn from_json(v: &Value) -> DocResult<ProfileDoc> {
        Ok(ProfileDoc {
            steps: get_u64(v, "steps")?,
            accesses: get_u64(v, "accesses")?,
            dependences_found: get_u64(v, "dependences_found")?,
            profiler_bytes: get_u64(v, "profiler_bytes")?,
            printed: get_str_array(v, "printed")?,
            dependences: get_deps(v, "dependences")?,
            pet: get_rows(v, "pet", PetNodeDoc::from_json)?,
            parallel: get_block(v, "parallel", ParallelDoc::from_json)?,
            resource: get_block(v, "resource", ResourceDoc::from_json)?,
            summary: SummaryDoc::from_json(field(v, "summary")?)?,
            actors: get_block(v, "actors", ActorsDoc::from_json)?,
        })
    }
}

/// One classified loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopDoc<'a> {
    /// Function index.
    pub func: u32,
    /// Region index within the function.
    pub region: u32,
    /// Header line.
    pub start_line: u32,
    /// Last line.
    pub end_line: u32,
    /// Iterations executed.
    pub iters: u64,
    /// Inclusive dynamic instructions.
    pub dyn_instrs: u64,
    /// `Doall` / `Reduction` / `Doacross` / `Sequential` / `NotExecuted`.
    pub class: LoopClass,
    /// Carried true dependences blocking DOALL, one per thread pair, in
    /// fold order like [`ProfileDoc::dependences`].
    pub blocking: Cow<'a, [DepDoc<'a>]>,
    /// Detected reduction variables.
    pub reduction_vars: Cow<'a, [String]>,
    /// DOACROSS pipeline-stage estimate (0 when not applicable).
    pub pipeline_stages: u64,
}

impl<'a> LoopDoc<'a> {
    fn of(l: &'a LoopResult, blocking: &'a [DepDoc<'a>]) -> Self {
        LoopDoc {
            func: l.info.func,
            region: l.info.region,
            start_line: l.info.start_line,
            end_line: l.info.end_line,
            iters: l.info.iters,
            dyn_instrs: l.info.dyn_instrs,
            class: l.class,
            blocking: Cow::Borrowed(blocking),
            reduction_vars: Cow::Borrowed(&l.reduction_vars),
            pipeline_stages: l.pipeline_stages as u64,
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("func").u64(self.func);
        s.key("region").u64(self.region);
        s.key("start_line").u64(self.start_line);
        s.key("end_line").u64(self.end_line);
        s.key("iters").u64(self.iters);
        s.key("dyn_instrs").u64(self.dyn_instrs);
        s.key("class").str(self.class.as_str());
        emit_deps(s.key("blocking"), self.blocking.iter().map(DepDoc::view));
        strs(s.key("reduction_vars"), &self.reduction_vars);
        s.key("pipeline_stages").u64(self.pipeline_stages);
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<LoopDoc<'static>> {
        Ok(LoopDoc {
            func: get_u32(v, "func")?,
            region: get_u32(v, "region")?,
            start_line: get_u32(v, "start_line")?,
            end_line: get_u32(v, "end_line")?,
            iters: get_u64(v, "iters")?,
            dyn_instrs: get_u64(v, "dyn_instrs")?,
            class: get_parsed(v, "class")?,
            blocking: get_deps(v, "blocking")?.into(),
            reduction_vars: get_str_array(v, "reduction_vars")?.into(),
            pipeline_stages: get_u64(v, "pipeline_stages")?,
        })
    }
}

/// One SPMD task suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmdDoc<'a> {
    /// `LoopTask` or `SiblingCalls`.
    pub kind: Cow<'a, str>,
    /// Containing function index.
    pub func: u32,
    /// Task body / call-site lines: a `SiblingCalls` group's two or more
    /// call sites, in instruction order.
    pub lines: Cow<'a, [u32]>,
    /// Callee names.
    pub callees: Cow<'a, [String]>,
    /// Loop header line (`LoopTask` only).
    pub loop_line: Option<u32>,
}

impl<'a> SpmdDoc<'a> {
    fn of(t: &'a SpmdSuggestion) -> Self {
        SpmdDoc {
            kind: Cow::Borrowed(match t.kind {
                SpmdKind::LoopTask => "LoopTask",
                SpmdKind::SiblingCalls => "SiblingCalls",
            }),
            func: t.func,
            lines: Cow::Borrowed(&t.lines),
            callees: Cow::Borrowed(&t.callees),
            loop_line: t.loop_line,
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("kind").str(&self.kind);
        s.key("func").u64(self.func);
        s.key("lines").array(self.lines.iter(), |&l, s| s.u64(l));
        strs(s.key("callees"), &self.callees);
        opt_u64(s.key("loop_line"), self.loop_line);
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<SpmdDoc<'static>> {
        Ok(SpmdDoc {
            kind: get_str(v, "kind")?.into(),
            func: get_u32(v, "func")?,
            lines: get_ints(v, "lines")?.into(),
            callees: get_str_array(v, "callees")?.into(),
            loop_line: get_opt_u32(v, "loop_line")?,
        })
    }
}

/// One MPMD (fork-join) task set.
#[derive(Debug, Clone, PartialEq)]
pub struct MpmdDoc<'a> {
    /// Containing function index.
    pub func: u32,
    /// `(start_line, end_line, weight)` per task.
    pub tasks: Cow<'a, [(u32, u32, u64)]>,
}

impl<'a> MpmdDoc<'a> {
    /// `tasks` is `m.tasks` as the triples the document carries.
    fn of(m: &MpmdSuggestion, tasks: &'a [(u32, u32, u64)]) -> Self {
        MpmdDoc {
            func: m.func,
            tasks: Cow::Borrowed(tasks),
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("func").u64(self.func);
        s.key("tasks")
            .array(self.tasks.iter(), |&(start_line, end_line, weight), s| {
                s.begin_object();
                s.key("start_line").u64(start_line);
                s.key("end_line").u64(end_line);
                s.key("weight").u64(weight);
                s.end_object();
            });
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<MpmdDoc<'static>> {
        Ok(MpmdDoc {
            func: get_u32(v, "func")?,
            tasks: get_rows(v, "tasks", |t| {
                Ok((
                    get_u32(t, "start_line")?,
                    get_u32(t, "end_line")?,
                    get_u64(t, "weight")?,
                ))
            })?
            .into(),
        })
    }
}

/// What a ranked suggestion points at.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetDoc<'a> {
    /// A parallelizable loop.
    Loop {
        /// Function index.
        func: u32,
        /// Region index.
        region: u32,
        /// Header line.
        start_line: u32,
        /// Loop class.
        class: LoopClass,
    },
    /// An MPMD task set.
    TaskSet {
        /// Function index.
        func: u32,
        /// Task line spans.
        spans: Cow<'a, [(u32, u32)]>,
    },
}

/// One ranked parallelization opportunity (§4.3 metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct RankedDoc<'a> {
    /// What to parallelize.
    pub target: TargetDoc<'a>,
    /// Fraction of executed instructions inside the region.
    pub instruction_coverage: f64,
    /// Serial work over critical path.
    pub local_speedup: f64,
    /// Coefficient of variation of independent CU-group weights.
    pub cu_imbalance: f64,
    /// Scalar ordering score.
    pub score: f64,
}

impl<'a> RankedDoc<'a> {
    fn of(r: &'a RankedSuggestion) -> Self {
        // JSON has no NaN/Infinity (jsonio renders them as `null`, which
        // would make the document unreadable by our own parser), so metric
        // values are pinned to finite numbers here.
        let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
        RankedDoc {
            target: match &r.target {
                &SuggestionTarget::Loop {
                    func,
                    region,
                    start_line,
                    class,
                } => TargetDoc::Loop {
                    func,
                    region,
                    start_line,
                    class,
                },
                SuggestionTarget::TaskSet { func, spans } => TargetDoc::TaskSet {
                    func: *func,
                    spans: Cow::Borrowed(spans),
                },
            },
            instruction_coverage: finite(r.ranking.instruction_coverage),
            local_speedup: finite(r.ranking.local_speedup),
            cu_imbalance: finite(r.ranking.cu_imbalance),
            score: finite(r.score),
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("target").begin_object();
        match &self.target {
            TargetDoc::Loop {
                func,
                region,
                start_line,
                class,
            } => {
                s.key("kind").str("loop");
                s.key("func").u64(*func);
                s.key("region").u64(*region);
                s.key("start_line").u64(*start_line);
                s.key("class").str(class.as_str());
            }
            TargetDoc::TaskSet { func, spans: task } => {
                s.key("kind").str("task_set");
                s.key("func").u64(*func);
                spans(s.key("spans"), task);
            }
        }
        s.end_object();
        s.key("instruction_coverage").f64(self.instruction_coverage);
        s.key("local_speedup").f64(self.local_speedup);
        s.key("cu_imbalance").f64(self.cu_imbalance);
        s.key("score").f64(self.score);
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<RankedDoc<'static>> {
        let t = field(v, "target")?;
        let target = match get_str(t, "kind")?.as_str() {
            "loop" => TargetDoc::Loop {
                func: get_u32(t, "func")?,
                region: get_u32(t, "region")?,
                start_line: get_u32(t, "start_line")?,
                class: get_parsed(t, "class")?,
            },
            "task_set" => TargetDoc::TaskSet {
                func: get_u32(t, "func")?,
                spans: spans_from(t, "spans")?.into(),
            },
            other => return err(format!("unknown target kind `{other}`")),
        };
        Ok(RankedDoc {
            target,
            instruction_coverage: get_f64(v, "instruction_coverage")?,
            local_speedup: get_f64(v, "local_speedup")?,
            cu_imbalance: get_f64(v, "cu_imbalance")?,
            score: get_f64(v, "score")?,
        })
    }
}

/// One parallel-pattern instance, flattened.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternDoc<'a> {
    /// Conventional pattern name.
    pub name: Cow<'a, str>,
    /// Loop header line (loop patterns only).
    pub loop_line: Option<u32>,
    /// Iterations to distribute (geometric decomposition only).
    pub width: Option<u64>,
    /// Decoupled stages (pipeline only).
    pub stages: Option<u64>,
    /// Reduction variables (reduction only).
    pub vars: Cow<'a, [String]>,
    /// Concurrent task spans (fork-join only).
    pub spans: Cow<'a, [(u32, u32)]>,
}

impl<'a> PatternDoc<'a> {
    fn of(p: &'a Pattern) -> Self {
        let mut doc = PatternDoc {
            name: Cow::Borrowed(p.name()),
            loop_line: None,
            width: None,
            stages: None,
            vars: Cow::Borrowed(&[]),
            spans: Cow::Borrowed(&[]),
        };
        match p {
            Pattern::GeometricDecomposition { loop_line, width } => {
                doc.loop_line = Some(*loop_line);
                doc.width = Some(*width);
            }
            Pattern::Reduction { loop_line, vars } => {
                doc.loop_line = Some(*loop_line);
                doc.vars = Cow::Borrowed(vars);
            }
            Pattern::Pipeline { loop_line, stages } => {
                doc.loop_line = Some(*loop_line);
                doc.stages = Some(*stages as u64);
            }
            Pattern::ForkJoin { spans } => doc.spans = Cow::Borrowed(spans),
        }
        doc
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("name").str(&self.name);
        opt_u64(s.key("loop_line"), self.loop_line);
        opt_u64(s.key("width"), self.width);
        opt_u64(s.key("stages"), self.stages);
        strs(s.key("vars"), &self.vars);
        spans(s.key("spans"), &self.spans);
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<PatternDoc<'static>> {
        Ok(PatternDoc {
            name: get_str(v, "name")?.into(),
            loop_line: get_opt_u32(v, "loop_line")?,
            width: get_opt_u64(v, "width")?,
            stages: get_opt_u64(v, "stages")?,
            vars: get_str_array(v, "vars")?.into(),
            spans: spans_from(v, "spans")?.into(),
        })
    }
}

/// Per-loop static coverage and independence statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticLoopDoc<'a> {
    /// Function index.
    pub func: u32,
    /// Function name.
    pub func_name: Cow<'a, str>,
    /// Region index within the function.
    pub region: u32,
    /// First source line.
    pub start_line: u32,
    /// Last source line.
    pub end_line: u32,
    /// Static memory ops inside the loop.
    pub mem_ops: u32,
    /// Of those, classified affine.
    pub affine_ops: u32,
    /// A canonical induction variable was recognized.
    pub has_iv: bool,
    /// Constant trip count, when provable.
    pub trip_count: Option<u64>,
    /// Same-variable pairs tested for independence.
    pub tested_pairs: u32,
    /// Pairs proven independent.
    pub proven_pairs: u32,
    /// All cross-iteration conflicts statically excluded.
    pub doall_candidate: bool,
}

impl<'a> StaticLoopDoc<'a> {
    fn of(l: &'a analysis::LoopReport) -> Self {
        StaticLoopDoc {
            func: l.func.index() as u32,
            func_name: Cow::Borrowed(&l.func_name),
            region: l.region.index() as u32,
            start_line: l.start_line,
            end_line: l.end_line,
            mem_ops: l.mem_ops,
            affine_ops: l.affine_ops,
            has_iv: l.has_iv,
            trip_count: l.trip_count,
            tested_pairs: l.tested_pairs,
            proven_pairs: l.proven_pairs,
            doall_candidate: l.doall_candidate,
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("func").u64(self.func);
        s.key("func_name").str(&self.func_name);
        s.key("region").u64(self.region);
        s.key("start_line").u64(self.start_line);
        s.key("end_line").u64(self.end_line);
        s.key("mem_ops").u64(self.mem_ops);
        s.key("affine_ops").u64(self.affine_ops);
        s.key("has_iv").bool(self.has_iv);
        opt_u64(s.key("trip_count"), self.trip_count);
        s.key("tested_pairs").u64(self.tested_pairs);
        s.key("proven_pairs").u64(self.proven_pairs);
        s.key("doall_candidate").bool(self.doall_candidate);
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<StaticLoopDoc<'static>> {
        Ok(StaticLoopDoc {
            func: get_u32(v, "func")?,
            func_name: get_str(v, "func_name")?.into(),
            region: get_u32(v, "region")?,
            start_line: get_u32(v, "start_line")?,
            end_line: get_u32(v, "end_line")?,
            mem_ops: get_u32(v, "mem_ops")?,
            affine_ops: get_u32(v, "affine_ops")?,
            has_iv: get_bool(v, "has_iv")?,
            trip_count: get_opt_u64(v, "trip_count")?,
            tested_pairs: get_u32(v, "tested_pairs")?,
            proven_pairs: get_u32(v, "proven_pairs")?,
            doall_candidate: get_bool(v, "doall_candidate")?,
        })
    }
}

/// One statically-proven independence claim.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimDoc<'a> {
    /// Function index of the carrying loop.
    pub func: u32,
    /// Region index of the carrying loop.
    pub region: u32,
    /// Variable name.
    pub var: Cow<'a, str>,
    /// Smaller source line of the proven pair.
    pub line_a: u32,
    /// Larger source line of the proven pair.
    pub line_b: u32,
}

impl<'a> ClaimDoc<'a> {
    fn of(c: &'a analysis::Claim) -> Self {
        ClaimDoc {
            func: c.func.index() as u32,
            region: c.region.index() as u32,
            var: Cow::Borrowed(&c.var_name),
            line_a: c.line_a,
            line_b: c.line_b,
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("func").u64(self.func);
        s.key("region").u64(self.region);
        s.key("var").str(&self.var);
        s.key("line_a").u64(self.line_a);
        s.key("line_b").u64(self.line_b);
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<ClaimDoc<'static>> {
        Ok(ClaimDoc {
            func: get_u32(v, "func")?,
            region: get_u32(v, "region")?,
            var: get_str(v, "var")?.into(),
            line_a: get_u32(v, "line_a")?,
            line_b: get_u32(v, "line_b")?,
        })
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct LintDoc<'a> {
    /// Stable lint code (`uninit-read`, `const-oob`, `range-oob`,
    /// `race-hint`).
    pub kind: Cow<'a, str>,
    /// Function (empty for module-level findings).
    pub func: Cow<'a, str>,
    /// Variable concerned.
    pub var: Cow<'a, str>,
    /// Source line (0 when spanning multiple sites).
    pub line: u32,
    /// Human-readable explanation.
    pub message: Cow<'a, str>,
}

impl<'a> LintDoc<'a> {
    fn of(l: &'a analysis::Lint) -> Self {
        LintDoc {
            kind: Cow::Borrowed(l.kind.code()),
            func: Cow::Borrowed(&l.func),
            var: Cow::Borrowed(&l.var),
            line: l.line,
            message: Cow::Borrowed(&l.message),
        }
    }

    fn emit<S: Emitter>(&self, s: &mut S) {
        s.begin_object();
        s.key("kind").str(&self.kind);
        s.key("func").str(&self.func);
        s.key("var").str(&self.var);
        s.key("line").u64(self.line);
        s.key("message").str(&self.message);
        s.end_object();
    }

    fn from_json(v: &Value) -> DocResult<LintDoc<'static>> {
        Ok(LintDoc {
            kind: get_str(v, "kind")?.into(),
            func: get_str(v, "func")?.into(),
            var: get_str(v, "var")?.into(),
            line: get_u32(v, "line")?,
            message: get_str(v, "message")?.into(),
        })
    }
}

/// The static pre-pass section of the report; `null` for runs without
/// [`crate::Analysis::with_static`].
#[derive(Debug, Clone, PartialEq)]
pub struct StaticDoc {
    /// The module spawns threads (claims suppressed).
    pub spawns_threads: bool,
    /// In-loop memory ops classified affine, summed over loops.
    pub affine_ops: u32,
    /// In-loop memory ops total.
    pub mem_ops: u32,
    /// Per-loop statistics.
    pub loops: Vec<StaticLoopDoc<'static>>,
    /// Proven independence claims.
    pub claims: Vec<ClaimDoc<'static>>,
    /// Lint findings.
    pub lints: Vec<LintDoc<'static>>,
}

impl StaticDoc {
    /// Everything but the three arrays.
    fn head(s: &StaticReport) -> StaticDoc {
        let (affine_ops, mem_ops) = s.coverage();
        StaticDoc {
            spawns_threads: s.spawns_threads,
            affine_ops,
            mem_ops,
            loops: Vec::new(),
            claims: Vec::new(),
            lints: Vec::new(),
        }
    }

    fn from_json(v: &Value) -> DocResult<StaticDoc> {
        Ok(StaticDoc {
            spawns_threads: get_bool(v, "spawns_threads")?,
            affine_ops: get_u32(v, "affine_ops")?,
            mem_ops: get_u32(v, "mem_ops")?,
            loops: get_rows(v, "loops", StaticLoopDoc::from_json)?,
            claims: get_rows(v, "claims", ClaimDoc::from_json)?,
            lints: get_rows(v, "lints", LintDoc::from_json)?,
        })
    }
}

/// The discovery section of the report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiscoveryDoc {
    /// Per-loop classification, hottest first.
    pub loops: Vec<LoopDoc<'static>>,
    /// SPMD task suggestions.
    pub spmd: Vec<SpmdDoc<'static>>,
    /// MPMD task suggestions.
    pub mpmd: Vec<MpmdDoc<'static>>,
    /// Ranked opportunities, best first.
    pub ranked: Vec<RankedDoc<'static>>,
    /// Parallel-pattern phrasing of the findings.
    pub patterns: Vec<PatternDoc<'static>>,
}

impl DiscoveryDoc {
    fn from_json(v: &Value) -> DocResult<DiscoveryDoc> {
        Ok(DiscoveryDoc {
            loops: get_rows(v, "loops", LoopDoc::from_json)?,
            spmd: get_rows(v, "spmd", SpmdDoc::from_json)?,
            mpmd: get_rows(v, "mpmd", MpmdDoc::from_json)?,
            ranked: get_rows(v, "ranked", RankedDoc::from_json)?,
            patterns: get_rows(v, "patterns", PatternDoc::from_json)?,
        })
    }
}

/// The ten arrays of a report that grow with the analysed program, each
/// as a walk over its rows. The owned document hands out the rows it
/// holds; a live [`Report`] ([`Live`]) builds each row on the stack,
/// borrowing every name from the report and its program, and drops it when
/// the visitor returns — so writing a live report allocates nothing per
/// row. Dependences come as an iterator rather than a visitor, so that
/// [`fold_rows`] can look one row ahead; either source yields them in fold
/// order.
trait Rows {
    fn dependences(&self) -> impl Iterator<Item = DepDoc<'_>>;
    fn pet(&self, f: impl FnMut(&PetNodeDoc<'_>));
    fn loops(&self, f: impl FnMut(&LoopDoc<'_>));
    fn spmd(&self, f: impl FnMut(&SpmdDoc<'_>));
    fn mpmd(&self, f: impl FnMut(&MpmdDoc<'_>));
    fn ranked(&self, f: impl FnMut(&RankedDoc<'_>));
    fn patterns(&self, f: impl FnMut(&PatternDoc<'_>));
    fn static_loops(&self, f: impl FnMut(&StaticLoopDoc<'_>));
    fn claims(&self, f: impl FnMut(&ClaimDoc<'_>));
    fn lints(&self, f: impl FnMut(&LintDoc<'_>));
}

impl Rows for ReportDoc {
    fn dependences(&self) -> impl Iterator<Item = DepDoc<'_>> {
        self.profile.dependences.iter().map(DepDoc::view)
    }
    fn pet(&self, f: impl FnMut(&PetNodeDoc<'_>)) {
        self.profile.pet.iter().for_each(f);
    }
    fn loops(&self, f: impl FnMut(&LoopDoc<'_>)) {
        self.discovery.loops.iter().for_each(f);
    }
    fn spmd(&self, f: impl FnMut(&SpmdDoc<'_>)) {
        self.discovery.spmd.iter().for_each(f);
    }
    fn mpmd(&self, f: impl FnMut(&MpmdDoc<'_>)) {
        self.discovery.mpmd.iter().for_each(f);
    }
    fn ranked(&self, f: impl FnMut(&RankedDoc<'_>)) {
        self.discovery.ranked.iter().for_each(f);
    }
    fn patterns(&self, f: impl FnMut(&PatternDoc<'_>)) {
        self.discovery.patterns.iter().for_each(f);
    }
    fn static_loops(&self, f: impl FnMut(&StaticLoopDoc<'_>)) {
        self.statics.iter().flat_map(|s| &s.loops).for_each(f);
    }
    fn claims(&self, f: impl FnMut(&ClaimDoc<'_>)) {
        self.statics.iter().flat_map(|s| &s.claims).for_each(f);
    }
    fn lints(&self, f: impl FnMut(&LintDoc<'_>)) {
        self.statics.iter().flat_map(|s| &s.lints).for_each(f);
    }
}

/// A [`Report`] beside the program that resolves its names: the rows of
/// the document it would mirror to, without the mirror.
struct Live<'a> {
    program: &'a interp::Program,
    report: &'a Report,
    /// `report.profile.deps` with their counts, sorted once into fold
    /// order ([`profiler::dep::fold_order`], by
    /// [`profiler::DepSet::in_fold_order`]): by key ([`DepDoc::same_key`],
    /// with the variable's symbol id), then sink thread, then source
    /// thread.
    deps: Vec<(Dep, u64)>,
}

impl<'a> Live<'a> {
    fn new(program: &'a interp::Program, report: &'a Report) -> Self {
        Live {
            program,
            report,
            deps: report.profile.deps.in_fold_order(),
        }
    }

    /// The document with all ten arrays empty.
    fn head(&self) -> ReportDoc {
        ReportDoc {
            schema_version: SCHEMA_VERSION,
            program: self.report.program.clone(),
            engine: self.report.engine.clone(),
            profile: ProfileDoc::head(&self.report.profile),
            discovery: DiscoveryDoc::default(),
            statics: self.report.statics.as_ref().map(StaticDoc::head),
        }
    }

    fn statics<T>(&self, rows: impl Fn(&'a StaticReport) -> &'a [T]) -> &'a [T] {
        self.report.statics.as_ref().map_or(&[], rows)
    }
}

impl Rows for Live<'_> {
    fn dependences(&self) -> impl Iterator<Item = DepDoc<'_>> {
        self.deps
            .iter()
            .map(|(d, count)| DepDoc::of(self.program, d, *count))
    }
    fn pet(&self, mut f: impl FnMut(&PetNodeDoc<'_>)) {
        for n in &self.report.profile.pet.nodes {
            f(&PetNodeDoc::of(self.program, n));
        }
    }
    fn loops(&self, mut f: impl FnMut(&LoopDoc<'_>)) {
        // Two buffers for every loop's blocking rows — sorted into fold
        // order, then resolved — so a loop costs no allocation of its own.
        let deps = &self.report.profile.deps;
        let (mut sorted, mut blocking) = (Vec::new(), Vec::new());
        for l in &self.report.discovery.loops {
            sorted.clear();
            sorted.extend_from_slice(&l.blocking);
            sorted.sort_unstable_by_key(fold_order);
            blocking.clear();
            blocking.extend(
                sorted
                    .iter()
                    .map(|d| DepDoc::of(self.program, d, deps.count(d))),
            );
            f(&LoopDoc::of(l, &blocking));
        }
    }
    fn spmd(&self, mut f: impl FnMut(&SpmdDoc<'_>)) {
        for t in &self.report.discovery.spmd {
            f(&SpmdDoc::of(t));
        }
    }
    fn mpmd(&self, mut f: impl FnMut(&MpmdDoc<'_>)) {
        let mut tasks = Vec::new();
        for m in &self.report.discovery.mpmd {
            tasks.clear();
            tasks.extend(m.tasks.iter().map(|t| (t.start_line, t.end_line, t.weight)));
            f(&MpmdDoc::of(m, &tasks));
        }
    }
    fn ranked(&self, mut f: impl FnMut(&RankedDoc<'_>)) {
        for r in &self.report.discovery.ranked {
            f(&RankedDoc::of(r));
        }
    }
    fn patterns(&self, mut f: impl FnMut(&PatternDoc<'_>)) {
        for p in &self.report.discovery.patterns {
            f(&PatternDoc::of(p));
        }
    }
    fn static_loops(&self, mut f: impl FnMut(&StaticLoopDoc<'_>)) {
        for l in self.statics(|s| &s.loops) {
            f(&StaticLoopDoc::of(l));
        }
    }
    fn claims(&self, mut f: impl FnMut(&ClaimDoc<'_>)) {
        for c in self.statics(|s| &s.claims) {
            f(&ClaimDoc::of(c));
        }
    }
    fn lints(&self, mut f: impl FnMut(&LintDoc<'_>)) {
        for l in self.statics(|s| &s.lints) {
            f(&LintDoc::of(l));
        }
    }
}

/// The document: every block's keys in order, once, around the rows of
/// `rows`. `head` supplies everything else (its own arrays are not read):
/// for an owned document both are the document itself, for a live report
/// [`Live::head`] and the [`Live`] rows.
fn emit_doc<S: Emitter>(head: &ReportDoc, rows: &impl Rows, s: &mut S) {
    s.begin_object();
    s.key("schema_version").u64(head.schema_version);
    s.key("program").str(&head.program);
    s.key("engine").str(&head.engine);

    let p = &head.profile;
    s.key("profile").begin_object();
    s.key("steps").u64(p.steps);
    s.key("accesses").u64(p.accesses);
    s.key("dependences_found").u64(p.dependences_found);
    s.key("profiler_bytes").u64(p.profiler_bytes);
    strs(s.key("printed"), &p.printed);
    emit_deps(s.key("dependences"), rows.dependences());
    s.key("pet").begin_array();
    rows.pet(|n| n.emit(s));
    s.end_array();
    opt_block(s.key("parallel"), &p.parallel, ParallelDoc::emit);
    opt_block(s.key("resource"), &p.resource, ResourceDoc::emit);
    p.summary.emit(s.key("summary"));
    opt_block(s.key("actors"), &p.actors, ActorsDoc::emit);
    s.end_object();

    s.key("discovery").begin_object();
    s.key("loops").begin_array();
    rows.loops(|l| l.emit(s));
    s.end_array();
    s.key("spmd").begin_array();
    rows.spmd(|t| t.emit(s));
    s.end_array();
    s.key("mpmd").begin_array();
    rows.mpmd(|m| m.emit(s));
    s.end_array();
    s.key("ranked").begin_array();
    rows.ranked(|r| r.emit(s));
    s.end_array();
    s.key("patterns").begin_array();
    rows.patterns(|p| p.emit(s));
    s.end_array();
    s.end_object();

    opt_block(s.key("static"), &head.statics, |st, s| {
        s.begin_object();
        s.key("spawns_threads").bool(st.spawns_threads);
        s.key("affine_ops").u64(st.affine_ops);
        s.key("mem_ops").u64(st.mem_ops);
        s.key("loops").begin_array();
        rows.static_loops(|l| l.emit(s));
        s.end_array();
        s.key("claims").begin_array();
        rows.claims(|c| c.emit(s));
        s.end_array();
        s.key("lints").begin_array();
        rows.lints(|l| l.emit(s));
        s.end_array();
        s.end_object();
    });
    s.end_object();
}

/// Write a live report into `s`: the events its document would emit,
/// without building it. [`ReportDoc::from_report`] builds it from them.
pub(crate) fn emit_live<S: Emitter>(program: &interp::Program, report: &Report, s: &mut S) {
    let live = Live::new(program, report);
    emit_doc(&live.head(), &live, s);
}

/// The human-readable report of a live report, from its rows: what
/// [`crate::render_report`] prints.
pub(crate) fn render_live(program: &interp::Program, report: &Report) -> String {
    let live = Live::new(program, report);
    render(&live.head(), &live)
}

/// `text` when `on`, else nothing: a line's optional remark.
fn suffix(on: bool, text: &'static str) -> &'static str {
    if on {
        text
    } else {
        ""
    }
}

/// The human-readable report, over the same inputs as [`emit_doc`]: a
/// live report and the document it parses back into print the same bytes.
/// Every block that says why the report reads as it does has its line —
/// the folded thread pairs, the skip tier, the actors and their mailboxes,
/// what a memory ceiling gave up, each loop's verdict, the ranking, the
/// task suggestions and the static pre-pass.
fn render(head: &ReportDoc, rows: &impl Rows) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let p = &head.profile;
    let _ = writeln!(
        out,
        "== DiscoPoP report: {} == (schema v{}, engine {})",
        head.program, head.schema_version, head.engine
    );
    // A multi-threaded report folds its thread pairs: say into how much.
    let (distinct, mut folded, mut runs) = (rows.dependences().count(), 0, 0);
    fold_rows(rows.dependences(), |_, threads| {
        folded += 1;
        if let Threads::Runs(r) = threads {
            runs += r.count();
        }
    });
    let shape = if runs == 0 {
        String::new()
    } else {
        format!(" in {folded} rows and {runs} thread runs")
    };
    let _ = writeln!(
        out,
        "{} instructions executed, {} accesses, {distinct} distinct dependences{shape} \
         ({} before merging)",
        p.steps, p.accesses, p.dependences_found
    );
    let s = &p.summary;
    if s.loops_skipped > 0 {
        let _ = writeln!(
            out,
            "affine skip tier: {} loops plan-replayed ({} cycles, {} accesses synthesized, \
             {} fallbacks, {} dispatches)",
            s.loops_skipped,
            s.cycles,
            s.synthesized_accesses,
            s.fallback_budget + s.fallback_precondition + s.fallback_fault,
            s.dispatches
        );
    }
    if let Some(a) = &p.actors {
        let _ = writeln!(
            out,
            "actors: {} spawned (peak {} live), {} messages sent / {} received over {} channel(s)",
            a.spawned,
            a.peak_live,
            a.sent,
            a.received,
            a.channels.len(),
        );
        let comm = apps::actor_comm(
            &a.channels,
            a.spawned as usize,
            rows.dependences()
                .filter(|d| d.var == interp::MAILBOX_VAR)
                .map(|d| (d.ty, d.sink_thread != d.source_thread, d.race_hint, d.count)),
        );
        let _ = writeln!(
            out,
            "mailbox dependences: {} handoffs (RAW), {} capacity couplings (WAR/WAW), {} race hints",
            comm.handoff_deps, comm.capacity_deps, comm.race_hints,
        );
        // The actor×actor matrix reads like the Fig. 5.1 thread matrices;
        // keep it to a screenful for the 10k-actor stress family.
        if a.spawned <= 16 {
            out.push_str(&apps::render_matrix(&comm.matrix));
        } else {
            let _ = writeln!(
                out,
                "channel matrix: {} actors, pattern {} (matrix elided)",
                a.spawned,
                comm.matrix.pattern(),
            );
        }
    }
    if let Some(r) = &p.resource {
        let _ = writeln!(
            out,
            "resource: peak {} tracked bytes, {} degradation step(s), est. FP rate {:.4}{}",
            r.peak_tracked_bytes,
            r.degradation_steps.len(),
            r.fp_rate_estimate,
            suffix(r.deadline_hit, " [deadline hit — partial profile]")
        );
    }

    out.push_str("\nLoops:\n");
    rows.loops(|l| {
        let extra = if !l.reduction_vars.is_empty() {
            format!(" reduction({})", l.reduction_vars.join(", "))
        } else if l.pipeline_stages > 0 {
            format!(" {} pipeline stages", l.pipeline_stages)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  line {:>4} ({} iters, {} instrs): {}{extra}",
            l.start_line, l.iters, l.dyn_instrs, l.class
        );
    });
    out.push_str("\nRanked parallelization opportunities:\n");
    let mut rank = 0;
    rows.ranked(|r| {
        rank += 1;
        let what = match &r.target {
            TargetDoc::Loop {
                start_line, class, ..
            } => format!("loop at line {start_line}: {class}"),
            TargetDoc::TaskSet { spans, .. } => {
                let spans: Vec<String> = spans.iter().map(|(a, b)| format!("{a}-{b}")).collect();
                format!("concurrent tasks at lines {}", spans.join(", "))
            }
        };
        let _ = writeln!(
            out,
            "  {rank}. {what} (coverage {:.1}%, local speedup {:.1}x, imbalance {:.2}, score {:.2})",
            r.instruction_coverage * 100.0,
            r.local_speedup,
            r.cu_imbalance,
            r.score
        );
    });
    let mut tasks = String::new();
    rows.spmd(|t| {
        let _ = writeln!(
            tasks,
            "  {} calling [{}] at lines {:?}",
            t.kind,
            t.callees.join(", "),
            t.lines
        );
    });
    if !tasks.is_empty() {
        let _ = write!(out, "\nTask suggestions:\n{tasks}");
    }

    if let Some(st) = &head.statics {
        let (mut claims, mut candidates, mut lints) = (0, 0, 0);
        rows.claims(|_| claims += 1);
        rows.static_loops(|l| candidates += usize::from(l.doall_candidate));
        rows.lints(|_| lints += 1);
        let affine = if st.mem_ops == 0 {
            1.0
        } else {
            f64::from(st.affine_ops) / f64::from(st.mem_ops)
        };
        let _ = writeln!(
            out,
            "\nStatic analysis: {}/{} in-loop memory ops affine ({:.1}%), {claims} independence \
             claims, {candidates} doall candidates, {lints} lint findings{}",
            st.affine_ops,
            st.mem_ops,
            affine * 100.0,
            suffix(st.spawns_threads, " (threaded module: claims suppressed)")
        );
        rows.static_loops(|l| {
            let _ = writeln!(
                out,
                "  loop at lines {}-{} in {}: {}/{} affine, {}/{} pairs proven{}",
                l.start_line,
                l.end_line,
                l.func_name,
                l.affine_ops,
                l.mem_ops,
                l.proven_pairs,
                l.tested_pairs,
                suffix(l.doall_candidate, " [static doall candidate]")
            );
        });
        rows.lints(|l| {
            let _ = writeln!(out, "  lint [{}]: {}", l.kind, l.message);
        });
    }
    out
}

/// The owned, name-resolved form of a full [`Report`], versioned: what a
/// JSON report parses into ([`ReportDoc::from_json_str`]), and what
/// [`ReportDoc::from_report`] (or [`Report::to_doc`]) reads a live report
/// into when a caller wants to keep or inspect it. Writing a report does
/// not need one — [`Report::to_json_string`] emits the same events straight
/// from the report.
///
/// ```
/// let src = "global int a[16];\nfn main() {\nfor (int i = 0; i < 16; i = i + 1) {\na[i] = i;\n}\n}";
/// let mut analysis = discopop::Analysis::new();
/// let compiled = analysis.compile(src, "doc-demo").unwrap();
/// let report = analysis.analyze_compiled(&compiled).unwrap();
/// let json = report.to_json_string(compiled.program());
/// let doc = discopop::report::ReportDoc::from_json_str(&json).unwrap();
/// assert_eq!(doc.schema_version, discopop::report::SCHEMA_VERSION);
/// assert_eq!(doc.program, "doc-demo");
/// assert_eq!(doc.discovery.loops[0].class.as_str(), "Doall");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDoc {
    /// Schema version ([`SCHEMA_VERSION`] when written by this build).
    pub schema_version: u32,
    /// Program (module) name.
    pub program: String,
    /// Engine label (see [`profiler::EngineKind::label`]).
    pub engine: String,
    /// Profiler section.
    pub profile: ProfileDoc,
    /// Discovery section.
    pub discovery: DiscoveryDoc,
    /// Static pre-pass section (`None` when the run did not enable static
    /// analysis).
    pub statics: Option<StaticDoc>,
}

impl ReportDoc {
    /// Read a live report into an owned document, resolving names against
    /// `program`: the events [`Report::to_json_string`] writes, emitted into
    /// a tree and read back by [`ReportDoc::from_json`]'s reader. That reader
    /// reads what this crate writes, so an error here is a bug and panics
    /// (`tests/streamed_report.rs` checks every catalogue program).
    pub fn from_report(program: &interp::Program, report: &Report) -> ReportDoc {
        let mut tree = TreeSink::default();
        emit_live(program, report, &mut tree);
        match ReportDoc::read(&tree.finish()) {
            Ok(doc) => doc,
            Err(e) => unreachable!("the reader reads what the writer writes: {e}"),
        }
    }

    /// Serialize to a JSON tree — the reference rendering
    /// (`to_json().to_string_pretty()`) every written report is tested
    /// against, and what a parsed report re-renders from.
    pub fn to_json(&self) -> Value {
        let mut tree = TreeSink::default();
        emit_doc(self, self, &mut tree);
        tree.finish()
    }

    /// Serialize to pretty-printed JSON text, written as the document is
    /// walked. Byte-identical to `to_json().to_string_pretty()`.
    pub fn to_json_string(&self) -> String {
        let mut text = TextSink::pretty();
        emit_doc(self, self, &mut text);
        text.finish()
    }

    /// Deserialize from a JSON tree, unfolding every run of thread pairs
    /// back into one row per pair. A document whose runs are malformed —
    /// no pairs, thread ids past `u32`, counts that do not add up, a lone
    /// `(0, 0)` not written `null` — or that unfolds past a fixed ceiling
    /// of rows is a [`SchemaError`].
    pub fn from_json(v: &Value) -> DocResult<ReportDoc> {
        let schema_version = get_u32(v, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return err(format!(
                "unsupported schema version {schema_version} \
                 (this build reads {SCHEMA_VERSION} only)"
            ));
        }
        let rows = unfolded_rows(v);
        if rows > MAX_UNFOLDED_ROWS {
            return err(format!(
                "the document unfolds into {rows} rows, past the ceiling of {MAX_UNFOLDED_ROWS}"
            ));
        }
        ReportDoc::read(v)
    }

    /// Read a document past [`ReportDoc::from_json`]'s guards against
    /// untrusted input: every block and row, each checked as it is read.
    fn read(v: &Value) -> DocResult<ReportDoc> {
        Ok(ReportDoc {
            schema_version: get_u32(v, "schema_version")?,
            program: get_str(v, "program")?,
            engine: get_str(v, "engine")?,
            profile: ProfileDoc::from_json(field(v, "profile")?)?,
            discovery: DiscoveryDoc::from_json(field(v, "discovery")?)?,
            statics: get_block(v, "static", StaticDoc::from_json)?,
        })
    }

    /// Parse a JSON report document from text.
    pub fn from_json_str(text: &str) -> DocResult<ReportDoc> {
        let v = Value::parse(text).map_err(|e| SchemaError(e.to_string()))?;
        ReportDoc::from_json(&v)
    }

    /// The human-readable report of this document: the text
    /// [`crate::render_report`] prints for the live report it was written
    /// from, byte for byte.
    pub fn render(&self) -> String {
        render(self, self)
    }

    /// All distinct loop classes present, in report order — the quick
    /// answer "is there anything parallel here?".
    pub fn loop_classes(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for l in &self.discovery.loops {
            if !seen.contains(&l.class.as_str()) {
                seen.push(l.class.as_str());
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A run of `n` pairs from `(a, b)` by `(da, db)`, `count` each.
    fn run(a: u32, b: u32, da: i64, db: i64, n: u64, count: u64) -> Vec<(u32, u32, u64)> {
        Run {
            a,
            b,
            da,
            db,
            n,
            each: count,
        }
        .unfold()
        .collect()
    }

    /// One thread-pair set, of a shape the fold must keep.
    fn pairs(rng: &mut Rng) -> Vec<(u32, u32, u64)> {
        let long = 20 + rng.below(300);
        let outlier = rng.below(long);
        match rng.below(6) {
            // The pair every single-threaded row has: written `null`.
            0 => vec![(0, 0, 1 + rng.below(100))],
            // A lone pair off the origin.
            1 => vec![(
                rng.below(40) as u32,
                1 + rng.below(40) as u32,
                1 + rng.below(9),
            )],
            // A long run, sink rising and source falling, broken by one
            // pair with another count.
            2 => {
                let mut p = run(
                    1,
                    5000,
                    1 + rng.below(3) as i64,
                    -(1 + rng.below(3) as i64),
                    long,
                    2,
                );
                p[outlier as usize].2 = 5;
                p
            }
            // A long run with one pair missing.
            3 => {
                let mut p = run(rng.below(5) as u32, 7, 1, 0, long, 1);
                p.remove(outlier as usize);
                p
            }
            // Mixed counts over a few random pairs, in random order.
            4 => (0..1 + rng.below(12))
                .map(|_| (rng.below(6) as u32, rng.below(6) as u32, 1 + rng.below(3)))
                .collect(),
            // (0, 0) beside other pairs: not `null`.
            _ => vec![(0, 0, 3), (0, 1, 3), (0, 2, 3), (4, 0, 1)],
        }
    }

    /// Rows under a few keys, each key's pairs drawn by [`pairs`].
    fn rows(rng: &mut Rng) -> Vec<DepDoc<'static>> {
        let mut rows = Vec::new();
        for key in 0..1 + rng.below(6) {
            let key_row = DepDoc {
                sink: SrcLoc::new(1 + rng.below(9) as u32),
                ty: [DepType::Raw, DepType::War, DepType::Waw, DepType::Init][key as usize % 4],
                source: SrcLoc::new(1 + rng.below(9) as u32),
                var: Cow::Owned(["x", "y", "*"][rng.below(3) as usize].to_string()),
                sink_thread: 0,
                source_thread: 0,
                carried_by: [None, Some((0, 1))][rng.below(2) as usize],
                race_hint: rng.below(4) == 0,
                count: 0,
            };
            for (sink_thread, source_thread, count) in pairs(rng) {
                rows.push(DepDoc {
                    sink_thread,
                    source_thread,
                    count,
                    ..key_row.clone()
                });
            }
        }
        rows
    }

    /// An actor program's document: every block is present, so the rows
    /// put into it are written in full.
    fn base() -> ReportDoc {
        let src = "fn main() -> int {\nint c = spawn_actor(stage, 0);\n\
                   for (int i = 0; i < 4; i = i + 1) { send(c, i); }\njoin(c);\n\
                   return receive();\n}\nfn stage(int x) {\nint s = 0;\n\
                   for (int i = 0; i < 4; i = i + 1) { s = s + receive(); }\nsend(0, s);\n}\n";
        let mut analysis = crate::Analysis::new();
        let compiled = analysis.compile(src, "fold").unwrap();
        let report = analysis.analyze_compiled(&compiled).unwrap();
        let doc = report.to_doc(compiled.program());
        assert!(doc.profile.actors.is_some() && !doc.discovery.loops.is_empty());
        doc
    }

    #[test]
    fn folding_then_unfolding_is_the_identity_and_re_renders_the_same_bytes() {
        let base = base();
        let mut rng = Rng(0x5eed);
        for case in 0..300 {
            let mut doc = base.clone();
            doc.profile.dependences = rows(&mut rng);
            doc.discovery.loops[0].blocking = rows(&mut rng).into();
            if let Some(actors) = &mut doc.profile.actors {
                actors.channels = pairs(&mut rng);
            }
            let json = doc.to_json_string();
            assert!(json == doc.to_json().to_string_pretty(), "case {case}");
            let parsed = ReportDoc::from_json_str(&json)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{json}"));
            assert_eq!(parsed, doc, "case {case}: unfold(fold(rows)) != rows");
            assert!(
                parsed.to_json_string() == json,
                "case {case}: second render differs"
            );
        }
    }

    #[test]
    fn a_long_run_broken_by_one_pair_folds_into_at_most_three_runs() {
        let mut rng = Rng(7);
        for _ in 0..200 {
            let n = 20 + rng.below(300);
            let at = rng.below(n) as usize;
            let mut counted = run(1, 9000, 2, -3, n, 4);
            counted[at].2 = 1;
            assert!(runs(counted.into_iter()).count() <= 3);
            let mut holed = run(3, 2, 1, 1, n, 1);
            holed.remove(at);
            assert!(runs(holed.into_iter()).count() <= 2);
        }
        assert_eq!(
            runs(run(5, 30_000, 1, -2, 10_000, 1).into_iter()).collect::<Vec<_>>(),
            [Run {
                a: 5,
                b: 30_000,
                da: 1,
                db: -2,
                n: 10_000,
                each: 1
            }]
        );
    }
}
