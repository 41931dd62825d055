//! `jsonio` — a minimal JSON tree, event emitter, writer, and parser.
//!
//! The workspace's `serde` is an offline no-op shim (see `shims/README.md`),
//! so anything that actually needs a wire format serializes through this
//! crate instead: build a [`Value`] tree, render it with [`Value::to_string`]
//! or [`Value::to_string_pretty`], and read it back with [`Value::parse`].
//!
//! A type with a large or performance-critical rendering describes itself
//! once, as events pushed into an [`Emitter`], and gets both forms from
//! the two sinks: [`TextSink`] writes the text directly (it is the one
//! writer — rendering a [`Value`] is emitting the tree into it), and
//! [`TreeSink`] builds the [`Value`] those same bytes parse back to.
//!
//! Numbers are kept in two lanes — [`Value::Int`] for integers (covering the
//! full `i64`/`u64` range used by profiler counters) and [`Value::Float`] for
//! everything else — so integer counts survive a round trip bit-for-bit.
//!
//! ```
//! use jsonio::Value;
//!
//! let v = Value::object([
//!     ("name", Value::from("demo")),
//!     ("steps", Value::from(42u64)),
//! ]);
//! let text = v.to_string();
//! assert_eq!(Value::parse(&text).unwrap(), v);
//! ```

// Parsing untrusted input must never panic: every failure path returns a
// typed `ParseError` instead (tests may still unwrap).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document tree.
///
/// Object keys keep insertion order (stored as a `Vec`), so rendering is
/// deterministic and mirrors the order fields were added in.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (also produced when parsing any number without `.`/`e`).
    Int(i64),
    /// A non-integer number. JSON has no NaN/Infinity, so non-finite
    /// values render as `null` — only finite floats round-trip; writers
    /// that need a guarantee must sanitize before building the tree.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Int(n as i64)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as i64)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        // Counter values in this workspace are far below 2^63; saturate
        // rather than wrap if one ever is not.
        Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Float(n)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

impl Value {
    /// An object from `(key, value)` pairs, preserving their order.
    pub fn object<K: Into<String>, V: Into<Value>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Value {
        Value::Object(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// An array from values.
    pub fn array<V: Into<Value>>(items: impl IntoIterator<Item = V>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }

    /// Object field lookup (first match; objects built by this crate never
    /// repeat keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Render without whitespace.
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> String {
        let mut sink = TextSink::compact();
        sink.value(self);
        sink.finish()
    }

    /// Render with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut sink = TextSink::pretty();
        sink.value(self);
        sink.finish()
    }

    /// Parse a JSON document. The entire input must be consumed (trailing
    /// whitespace is fine). Nesting is capped at
    /// [`ParseLimits::DEFAULT_MAX_DEPTH`] so a hostile document cannot
    /// exhaust the stack; use [`Value::parse_with_limits`] to choose the
    /// caps (network-facing callers should also bound the input size).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        Self::parse_with_limits(text, &ParseLimits::default())
    }

    /// Parse a JSON document under explicit resource limits. Inputs longer
    /// than [`ParseLimits::max_bytes`] are rejected up front with
    /// [`ParseErrorKind::TooLarge`] (no allocation proportional to the
    /// input happens first); arrays/objects nested deeper than
    /// [`ParseLimits::max_depth`] fail with [`ParseErrorKind::TooDeep`]
    /// at the offending bracket.
    pub fn parse_with_limits(text: &str, limits: &ParseLimits) -> Result<Value, ParseError> {
        if text.len() > limits.max_bytes {
            return Err(ParseError {
                offset: limits.max_bytes,
                kind: ParseErrorKind::TooLarge,
                message: format!(
                    "document is {} bytes (limit {})",
                    text.len(),
                    limits.max_bytes
                ),
            });
        }
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            max_depth: limits.max_depth,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// A JSON document as a sequence of events, pushed by whoever knows the
/// document's shape into whichever sink wants it: [`TextSink`] writes the
/// text as the events arrive, [`TreeSink`] builds the [`Value`]. A type that
/// describes itself once, as `fn emit<S: Emitter>(&self, s: &mut S)`, gets
/// both renderings, and they agree to the byte
/// (`tree.to_string_pretty() == text`): [`Value::to_string`] is itself
/// "emit this tree into the text sink".
///
/// Events must nest properly — every value in an object preceded by its
/// [`key`](Emitter::key), every `begin_*` closed — as the methods of a
/// well-typed `emit` do by construction; the sinks do not check.
///
/// ```
/// use jsonio::{Emitter, TextSink, TreeSink};
///
/// fn rows<S: Emitter>(s: &mut S, rows: &[u32]) {
///     s.begin_object();
///     s.key("n").u64(rows.len() as u64);
///     s.key("rows").array(rows, |&r, s| s.u64(r));
///     s.end_object();
/// }
/// let mut text = TextSink::compact();
/// rows(&mut text, &[1, 2, 3]);
/// assert_eq!(text.finish(), r#"{"n":3,"rows":[1,2,3]}"#);
/// let mut tree = TreeSink::default();
/// rows(&mut tree, &[1, 2, 3]);
/// assert_eq!(tree.finish().to_string(), r#"{"n":3,"rows":[1,2,3]}"#);
/// ```
pub trait Emitter {
    /// Open an object.
    fn begin_object(&mut self);
    /// Name the next value of the open object; returns `self` so the value
    /// follows on the same line.
    fn key(&mut self, key: &str) -> &mut Self;
    /// Close the open object.
    fn end_object(&mut self);
    /// Open an array.
    fn begin_array(&mut self);
    /// Close the open array.
    fn end_array(&mut self);
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, b: bool);
    /// An integer.
    fn i64(&mut self, n: i64);
    /// A number in the float lane ([`Value::Float`]: `2.0` stays `2.0`,
    /// non-finite becomes `null`).
    fn f64(&mut self, n: f64);
    /// A string.
    fn str(&mut self, s: &str);
    /// A string holding `d`'s `Display` text, formatted in place.
    fn display<D: fmt::Display + ?Sized>(&mut self, d: &D);

    /// A counter; saturates like `Value::from(u64)`.
    fn u64(&mut self, n: impl Into<u64>) {
        self.i64(i64::try_from(n.into()).unwrap_or(i64::MAX))
    }

    /// An array with one element per item, each written by `each`.
    fn array<T>(&mut self, items: impl IntoIterator<Item = T>, mut each: impl FnMut(T, &mut Self)) {
        self.begin_array();
        for item in items {
            each(item, self);
        }
        self.end_array();
    }

    /// An existing subtree, event by event.
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Int(n) => self.i64(*n),
            Value::Float(n) => self.f64(*n),
            Value::Str(s) => self.str(s),
            Value::Array(items) => self.array(items, |v, s| s.value(v)),
            Value::Object(fields) => {
                self.begin_object();
                for (k, v) in fields {
                    self.key(k).value(v);
                }
                self.end_object();
            }
        }
    }
}

/// The sink that writes JSON text as the events arrive — the one writer
/// behind every rendering. Pretty output is two-space indented, one line
/// per element, `[]`/`{}` for empty containers, with a final newline.
/// Its only allocation is the output buffer.
pub struct TextSink {
    out: String,
    pretty: bool,
    /// Containers open around the next event.
    depth: usize,
    /// The innermost open container has no element yet.
    empty: bool,
    /// The last event was a key: its value continues the line.
    after_key: bool,
}

impl TextSink {
    /// A sink writing without whitespace.
    pub fn compact() -> Self {
        TextSink {
            out: String::new(),
            pretty: false,
            depth: 0,
            empty: true,
            after_key: false,
        }
    }

    /// A sink writing with two-space indentation.
    pub fn pretty() -> Self {
        TextSink {
            pretty: true,
            ..Self::compact()
        }
    }

    /// The text written so far, plus the final newline when pretty.
    pub fn finish(mut self) -> String {
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }

    /// Splice in a value that is already compact JSON text (the caller
    /// vouches for it; it is not parsed). For a compact sink only: pretty
    /// output would need the text re-indented.
    pub fn raw(&mut self, json: &str) {
        debug_assert!(!self.pretty, "raw text cannot be re-indented");
        self.lead();
        self.out.push_str(json);
    }

    /// What precedes an element: nothing after its key, else a comma
    /// unless it is the container's first, and its own line when pretty.
    /// Runs once per event; without `inline` the scalar events measured
    /// 20–30% slower (100,000 `key` + `u64` pairs: 3.7 ms → 4.5 ms).
    #[inline]
    fn lead(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            if !self.empty {
                self.out.push(',');
            }
            newline(&mut self.out, self.pretty, self.depth);
        }
        self.empty = false;
    }

    fn open(&mut self, bracket: char) {
        self.lead();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            newline(&mut self.out, self.pretty, self.depth);
        }
        self.out.push(bracket);
        self.empty = false;
    }
}

impl Emitter for TextSink {
    fn begin_object(&mut self) {
        self.open('{');
    }
    fn key(&mut self, key: &str) -> &mut Self {
        self.lead();
        write_escaped(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }
    fn end_object(&mut self) {
        self.close('}');
    }
    fn begin_array(&mut self) {
        self.open('[');
    }
    fn end_array(&mut self) {
        self.close(']');
    }
    fn null(&mut self) {
        self.lead();
        self.out.push_str("null");
    }
    fn bool(&mut self, b: bool) {
        self.lead();
        self.out.push_str(if b { "true" } else { "false" });
    }
    fn i64(&mut self, n: i64) {
        self.lead();
        write_i64(&mut self.out, n);
    }
    fn f64(&mut self, n: f64) {
        self.lead();
        write_f64(&mut self.out, n);
    }
    fn str(&mut self, s: &str) {
        self.lead();
        write_escaped(&mut self.out, s);
    }
    fn display<D: fmt::Display + ?Sized>(&mut self, d: &D) {
        use fmt::Write;
        self.lead();
        self.out.push('"');
        let _ = write!(Escaping(&mut self.out), "{d}");
        self.out.push('"');
    }
}

/// The sink that builds the [`Value`] tree the events describe.
///
/// Finished values wait on a stack shared by every open container of their
/// kind until their own closes and splits them off, so each container is
/// allocated once, at its final size, however many elements it turns out
/// to have (measured: building a report's tree costs what building it by
/// hand from `Value::object` did; growing each container's own `Vec`, or
/// draining the stack element by element, cost 25% more).
#[derive(Default)]
pub struct TreeSink {
    /// Finished elements of the arrays still open (and the root).
    elements: Vec<Value>,
    /// Finished members of the objects still open.
    members: Vec<(String, Value)>,
    /// Per open container: the key it goes under itself, whether it is an
    /// object, and where its own begin in `members` or `elements`.
    open: Vec<(String, bool, usize)>,
    /// The key the next value goes under.
    key: String,
}

impl TreeSink {
    /// The finished tree (`null` if no event arrived).
    pub fn finish(mut self) -> Value {
        self.elements.pop().unwrap_or(Value::Null)
    }

    fn put(&mut self, v: Value) {
        match self.open.last() {
            Some((_, true, _)) => self.members.push((std::mem::take(&mut self.key), v)),
            _ => self.elements.push(v),
        }
    }

    fn begin(&mut self, object: bool) {
        let start = if object {
            self.members.len()
        } else {
            self.elements.len()
        };
        self.open
            .push((std::mem::take(&mut self.key), object, start));
    }

    fn end(&mut self) {
        if let Some((key, object, start)) = self.open.pop() {
            let v = if object {
                Value::Object(self.members.split_off(start))
            } else {
                Value::Array(self.elements.split_off(start))
            };
            self.key = key;
            self.put(v);
        }
    }
}

impl Emitter for TreeSink {
    fn begin_object(&mut self) {
        self.begin(true);
    }
    fn key(&mut self, key: &str) -> &mut Self {
        self.key = key.to_string();
        self
    }
    fn end_object(&mut self) {
        self.end();
    }
    fn begin_array(&mut self) {
        self.begin(false);
    }
    fn end_array(&mut self) {
        self.end();
    }
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, b: bool) {
        self.put(Value::Bool(b));
    }
    fn i64(&mut self, n: i64) {
        self.put(Value::Int(n));
    }
    fn f64(&mut self, n: f64) {
        self.put(Value::Float(n));
    }
    fn str(&mut self, s: &str) {
        self.put(Value::Str(s.to_string()));
    }
    fn display<D: fmt::Display + ?Sized>(&mut self, d: &D) {
        self.put(Value::Str(d.to_string()));
    }
    fn value(&mut self, v: &Value) {
        self.put(v.clone());
    }
}

fn newline(out: &mut String, pretty: bool, depth: usize) {
    const SPACES: &str = "                                                                ";
    if pretty {
        out.push('\n');
        let mut width = 2 * depth;
        while width > 0 {
            let run = width.min(SPACES.len());
            out.push_str(&SPACES[..run]);
            width -= run;
        }
    }
}

fn write_i64(out: &mut String, n: i64) {
    // 20 bytes hold `i64::MIN` with its sign.
    let mut buf = [b'0'; 20];
    let mut at = buf.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    // Digits and a sign are ASCII, so the check cannot fail.
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

fn write_f64(out: &mut String, n: f64) {
    use fmt::Write;
    if n.is_finite() {
        let at = out.len();
        let _ = write!(out, "{n}");
        // Keep the float lane on re-parse: `2.0` formats as `2`.
        if !out[at..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional fallback.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    escape(out, s);
    out.push('"');
}

/// `s` as it stands between the quotes of a JSON string.
fn escape(out: &mut String, s: &str) {
    use fmt::Write;
    // Everything that needs an escape is one ASCII byte, so the text
    // between two of them is pushed as a whole run — the entire string in
    // the usual case of none.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Formatting into a JSON string: every piece `Display` hands over is
/// escaped on its way into the buffer.
struct Escaping<'a>(&'a mut String);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape(self.0, s);
        Ok(())
    }
}

/// Resource limits for parsing untrusted input. The defaults keep
/// [`Value::parse`] safe against stack exhaustion (a depth cap) while
/// accepting any input size; network-facing callers should pass explicit
/// limits sized to their protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum input length in bytes; longer documents are rejected before
    /// any parsing work ([`ParseErrorKind::TooLarge`]).
    pub max_bytes: usize,
    /// Maximum array/object nesting depth ([`ParseErrorKind::TooDeep`]).
    /// The parser recurses per nesting level, so this bounds stack use.
    pub max_depth: usize,
}

impl ParseLimits {
    /// Default nesting cap: far deeper than any document this workspace
    /// writes (reports nest < 16 levels), far shallower than what it takes
    /// to overflow a thread stack (each level is a small parser frame).
    pub const DEFAULT_MAX_DEPTH: usize = 128;

    /// Limits for a given byte budget with the default depth cap.
    pub fn with_max_bytes(max_bytes: usize) -> Self {
        ParseLimits {
            max_bytes,
            ..Default::default()
        }
    }
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_bytes: usize::MAX,
            max_depth: Self::DEFAULT_MAX_DEPTH,
        }
    }
}

/// What class of failure a [`ParseError`] is — lets callers map resource
/// violations (a hostile document) to different responses than plain
/// syntax errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed JSON text (bad token, truncation, number overflow, …).
    Syntax,
    /// Nesting exceeded [`ParseLimits::max_depth`].
    TooDeep,
    /// Input exceeded [`ParseLimits::max_bytes`].
    TooLarge,
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Failure class (syntax vs resource-limit violation).
    pub kind: ParseErrorKind,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            kind: ParseErrorKind::Syntax,
            message: msg.to_string(),
        }
    }

    /// Track one nesting level; errors with [`ParseErrorKind::TooDeep`] at
    /// the opening bracket once the cap is crossed.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(ParseError {
                offset: self.pos,
                kind: ParseErrorKind::TooDeep,
                message: format!("nesting exceeds {} levels", self.max_depth),
            });
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.descend()?;
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.descend()?;
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Four hex digits of a `\u` escape starting at byte offset `at`.
    fn hex_escape(&self, at: usize) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("bad \\u escape"));
        }
        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hi = self.hex_escape(self.pos + 1)?;
                            let mut consumed = 4;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: conforming writers encode
                                // astral-plane characters as a \uD800-\uDBFF
                                // + \uDC00-\uDFFF pair — combine them. A
                                // valid pair is consumed whole; anything
                                // else leaves the next escape for the
                                // following iteration and maps the lone
                                // surrogate to the replacement char.
                                let next = self.pos + 5;
                                if self.bytes.get(next..next + 2) == Some(b"\\u") {
                                    let lo = self.hex_escape(next + 2)?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        consumed += 6;
                                        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(c).unwrap_or('\u{fffd}')
                                    } else {
                                        '\u{fffd}'
                                    }
                                } else {
                                    '\u{fffd}'
                                }
                            } else {
                                // Lone low surrogates are invalid; everything
                                // else is a plain BMP code point.
                                char::from_u32(hi).unwrap_or('\u{fffd}')
                            };
                            s.push(ch);
                            self.pos += consumed;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // The scanned range holds only ASCII digit/sign/exponent bytes, so
        // this cannot fail — but parse errors beat panics on untrusted input.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err("bad number"))
        }
    }
}

/// Order-insensitive object comparison helper for tests: maps every object
/// to a `BTreeMap` view recursively.
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Object(fields) => {
            let m: BTreeMap<&String, &Value> = fields.iter().map(|(k, v)| (k, v)).collect();
            Value::Object(
                m.into_iter()
                    .map(|(k, v)| (k.clone(), canonicalize(v)))
                    .collect(),
            )
        }
        Value::Array(items) => Value::Array(items.iter().map(canonicalize).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(2.5),
            Value::Str("a \"quoted\"\nline".to_string()),
        ] {
            assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
        }
    }

    #[test]
    fn roundtrip_nested() {
        let v = Value::object([
            ("name", Value::from("x")),
            ("xs", Value::array([1i64, 2, 3])),
            (
                "inner",
                Value::object([("f", Value::Float(0.25)), ("none", Value::Null)]),
            ),
        ]);
        let compact = v.to_string();
        let pretty = v.to_string_pretty();
        assert_eq!(Value::parse(&compact).unwrap(), v);
        assert_eq!(Value::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integers_stay_integers() {
        let v = Value::parse("[1, 2.0, 3]").unwrap();
        assert_eq!(
            v,
            Value::Array(vec![Value::Int(1), Value::Float(2.0), Value::Int(3)])
        );
        // A whole-valued float renders with `.0` so the lane survives.
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
    }

    #[test]
    fn accessors() {
        let v = Value::object([("a", Value::from(7u64)), ("s", Value::from("x"))]);
        assert_eq!(v.get("a").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    #[test]
    fn malformed_input_yields_errors_not_panics() {
        // Every one of these must come back as Err(ParseError), never panic.
        for bad in [
            "-",                    // sign with no digits
            "1e",                   // truncated exponent
            "1.2.3",                // double dot
            "--5",                  // double sign
            "{\"k\"}",              // object without `:`
            "{\"k\":}",             // object without value
            "{\"k\":1,}",           // trailing comma
            "{1:2}",                // non-string key
            "[",                    // truncated array
            "[1 2]",                // missing comma
            "nul",                  // truncated literal
            "tru\u{65}x",           // literal with trailing junk
            "\"\\",                 // escape at EOF
            "\"\\q\"",              // unknown escape
            "\"\\u12\"",            // truncated \u escape
            "9999999999999999999",  // i64 overflow
            "-9999999999999999999", // i64 underflow
        ] {
            let r = Value::parse(bad);
            assert!(r.is_err(), "`{bad}` parsed as {r:?}");
        }
    }

    #[test]
    fn parse_errors_carry_offsets_and_render() {
        let e = Value::parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"), "{e}");
        // Truncated input points at the end of the document.
        let e = Value::parse("{\"k\": ").unwrap_err();
        assert_eq!(e.offset, 6);
    }

    #[test]
    fn invalid_utf8_inside_strings_is_rejected() {
        // Parsing operates on &str so whole-document UTF-8 is guaranteed at
        // the type level; a \u escape cannot smuggle invalid code points
        // either: lone surrogates degrade to U+FFFD (checked in
        // surrogate_pairs_combine), out-of-range values are impossible with
        // four hex digits, and a truncated escape is a parse error.
        assert!(Value::parse("\"\\ud800").is_err());
        assert!(Value::parse("\"\\u12").is_err());
    }

    #[test]
    fn surrogate_pairs_combine() {
        // A conforming ASCII-escaping writer encodes 😀 (U+1F600) as a pair.
        assert_eq!(
            Value::parse(r#""😀""#).unwrap(),
            Value::Str("😀".to_string())
        );
        // Lone surrogates are invalid JSON text; they degrade to U+FFFD
        // without consuming what follows.
        assert_eq!(
            Value::parse(r#""\ud83dA""#).unwrap(),
            Value::Str("\u{fffd}A".to_string())
        );
        assert_eq!(
            Value::parse(r#""\ud83dA""#).unwrap(),
            Value::Str("\u{fffd}A".to_string())
        );
        assert_eq!(
            Value::parse(r#""\ude00""#).unwrap(),
            Value::Str("\u{fffd}".to_string())
        );
        assert!(Value::parse(r#""\ud83d"#).is_err(), "unterminated");
        assert!(Value::parse(r#""\uZZZZ""#).is_err(), "non-hex digits");
    }

    #[test]
    fn deeply_nested_input_is_rejected_not_stack_overflowed() {
        // A pathological document: 1M open brackets. Without the depth cap
        // this recursion would blow the stack; with it, a typed error.
        let deep = "[".repeat(1_000_000);
        let e = Value::parse(&deep).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::TooDeep);
        assert_eq!(e.offset, ParseLimits::DEFAULT_MAX_DEPTH);
        assert!(e.to_string().contains("nesting"), "{e}");
        // Same for objects, and for alternating nesting.
        let deep = r#"{"k":"#.repeat(100_000);
        assert_eq!(
            Value::parse(&deep).unwrap_err().kind,
            ParseErrorKind::TooDeep
        );
        let deep = r#"[{"k":"#.repeat(100_000);
        assert_eq!(
            Value::parse(&deep).unwrap_err().kind,
            ParseErrorKind::TooDeep
        );
    }

    #[test]
    fn depth_exactly_at_the_cap_parses() {
        let limits = ParseLimits {
            max_bytes: usize::MAX,
            max_depth: 4,
        };
        let ok = "[[[[1]]]]";
        assert!(Value::parse_with_limits(ok, &limits).is_ok());
        let too_deep = "[[[[[1]]]]]";
        let e = Value::parse_with_limits(too_deep, &limits).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::TooDeep);
        // Siblings do not accumulate depth: closing resets the level.
        let wide = "[[1],[2],[3],[[4]]]";
        assert!(Value::parse_with_limits(wide, &limits).is_ok());
    }

    #[test]
    fn oversized_input_is_rejected_up_front() {
        let limits = ParseLimits::with_max_bytes(16);
        let e = Value::parse_with_limits(&"9".repeat(17), &limits).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::TooLarge);
        assert!(e.message.contains("17 bytes"), "{e}");
        assert!(Value::parse_with_limits("[1,2,3]", &limits).is_ok());
        // Exactly at the limit is accepted.
        assert!(Value::parse_with_limits(&"1".repeat(16), &limits).is_ok());
    }

    #[test]
    fn syntax_errors_keep_the_syntax_kind() {
        assert_eq!(
            Value::parse("[1, x]").unwrap_err().kind,
            ParseErrorKind::Syntax
        );
    }

    /// The writer before the run-based fast path: one `match` per char.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// xorshift64*: enough randomness for tree shapes, no dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }

        fn string(&mut self) -> String {
            const ALPHABET: [&str; 12] = [
                "a", "key", " ", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é", "😀",
            ];
            (0..self.below(6))
                .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize])
                .collect()
        }

        /// A random tree no deeper than `depth` containers; any container
        /// may be empty.
        fn value(&mut self, depth: u32) -> Value {
            match self.below(if depth == 0 { 5 } else { 8 }) {
                0 => Value::Null,
                1 => Value::Bool(self.below(2) == 0),
                2 => Value::Int(match self.below(8) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => self.below(2000) as i64 - 1000,
                }),
                3 => Value::Float(match self.below(8) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1e300,
                    _ => self.below(2000) as f64 / 8.0 - 100.0,
                }),
                4 => Value::Str(self.string()),
                _ => self.container(depth, false),
            }
        }

        /// An array or object of random values; with `spine`, one child is
        /// again such a container, all the way down to `depth` 1.
        fn container(&mut self, depth: u32, spine: bool) -> Value {
            let mut children: Vec<Value> =
                (0..self.below(4)).map(|_| self.value(depth - 1)).collect();
            if spine && depth > 1 {
                let at = self.below(children.len() as u64 + 1) as usize;
                children.insert(at, self.container(depth - 1, true));
            }
            if self.below(2) == 0 {
                Value::Array(children)
            } else {
                Value::Object(children.into_iter().map(|v| (self.string(), v)).collect())
            }
        }
    }

    /// `v` as events, taken apart at random: some containers by hand,
    /// `begin`/`key`/`end` around their children, some scalars through
    /// their typed event (strings also through `Display`), the rest handed
    /// over whole.
    fn push<S: Emitter>(rng: &mut Rng, s: &mut S, v: &Value) {
        if rng.below(3) == 0 {
            return s.value(v);
        }
        match v {
            Value::Null => s.null(),
            Value::Bool(b) => s.bool(*b),
            Value::Int(n) => match u64::try_from(*n) {
                Ok(n) if rng.below(2) == 0 => s.u64(n),
                _ => s.i64(*n),
            },
            Value::Float(x) => s.f64(*x),
            Value::Str(text) if rng.below(2) == 0 => s.display(text),
            Value::Str(text) => s.str(text),
            Value::Array(items) => s.array(items, |v, s| push(rng, s, v)),
            Value::Object(fields) => {
                s.begin_object();
                for (k, v) in fields {
                    push(rng, s.key(k), v);
                }
                s.end_object();
            }
        }
    }

    #[test]
    fn emitted_documents_render_and_collect_like_their_trees() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut deepest = 0;
        for case in 0..300 {
            let depth = 1 + case % 10;
            let tree = Value::Array(vec![rng.value(depth)]);
            deepest = deepest.max(
                tree.to_string_pretty()
                    .lines()
                    .map(indent_of)
                    .max()
                    .unwrap()
                    / 2,
            );
            for _ in 0..3 {
                let (mut pretty, mut compact, mut built) =
                    (TextSink::pretty(), TextSink::compact(), TreeSink::default());
                push(&mut rng, &mut pretty, &tree);
                push(&mut rng, &mut compact, &tree);
                push(&mut rng, &mut built, &tree);
                assert_eq!(pretty.finish(), tree.to_string_pretty());
                assert_eq!(compact.finish(), tree.to_string());
                assert_eq!(built.finish(), tree);
            }
            assert_eq!(Value::parse(&tree.to_string_pretty()).unwrap(), tree);
        }
        assert!(deepest >= 8, "deepest generated nesting was {deepest}");

        // Empty containers at any position, and a bare scalar.
        let empty = |mut s: TextSink| {
            s.begin_object();
            s.key("a").array([0u32; 0], |n, s| s.u64(n));
            s.key("o").begin_object();
            s.end_object();
            s.end_object();
            s.finish()
        };
        assert_eq!(
            empty(TextSink::pretty()),
            "{\n  \"a\": [],\n  \"o\": {}\n}\n"
        );
        assert_eq!(empty(TextSink::compact()), r#"{"a":[],"o":{}}"#);
        assert_eq!(Value::Object(Vec::new()).to_string_pretty(), "{}\n");
        assert_eq!(TreeSink::default().finish(), Value::Null);
        let mut s = TextSink::pretty();
        s.u64(u64::MAX);
        assert_eq!(s.finish(), format!("{}\n", i64::MAX));
    }

    #[test]
    fn raw_text_is_spliced_where_a_value_goes() {
        let inner = Value::object([("k", Value::array([1i64, 2]))]);
        let envelope = |report: &dyn Fn(&mut TextSink)| {
            let mut s = TextSink::compact();
            s.begin_object();
            s.key("id").u64(7u64);
            report(s.key("report"));
            s.key("after").bool(true);
            s.end_object();
            s.finish()
        };
        assert_eq!(
            envelope(&|s| s.raw(&inner.to_string())),
            envelope(&|s| s.value(&inner))
        );
    }

    #[test]
    fn display_values_are_escaped_like_strings() {
        struct Hostile;
        impl fmt::Display for Hostile {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                // Several pieces, so the escaping is seen to hold across them.
                f.write_str("a\"b")?;
                f.write_str("\\c\n")?;
                f.write_str("\u{1}")
            }
        }
        let (mut text, mut tree) = (TextSink::compact(), TreeSink::default());
        text.display(&Hostile);
        tree.display(&Hostile);
        let tree = tree.finish();
        assert_eq!(tree, Value::Str("a\"b\\c\n\u{1}".to_string()));
        assert_eq!(text.finish(), tree.to_string());
    }

    fn indent_of(line: &str) -> usize {
        line.len() - line.trim_start_matches(' ').len()
    }

    #[test]
    fn long_arrays_indent_past_the_static_run_of_spaces() {
        // 40 levels deep is 80 columns: more than one copy of the run.
        let mut v = Value::array([1i64, 2]);
        for _ in 0..40 {
            v = Value::Array(vec![v]);
        }
        let text = v.to_string_pretty();
        assert_eq!(text.lines().map(indent_of).max(), Some(82));
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn escape_runs_equal_the_per_char_writer() {
        let mut rng = Rng(7);
        let mut samples: Vec<String> = (0..500).map(|_| rng.string()).collect();
        samples.extend(
            [
                "",
                "plain",
                "\"",
                "\\",
                "ends with quote\"",
                "\"starts",
                "a\u{0}b\u{7}c\u{1f}d",
                "tab\tnl\ncr\r",
                "naïve — 日本 😀",
                "\u{7f}\u{80}\u{9f}",
                "é\"é\\é\né",
            ]
            .map(str::to_string),
        );
        for s in samples {
            let mut out = String::new();
            write_escaped(&mut out, &s);
            assert_eq!(out, escape_per_char(&s), "{s:?}");
            assert_eq!(Value::parse(&out).unwrap(), Value::Str(s));
        }
    }

    #[test]
    fn numbers_render_as_before() {
        for n in [
            0,
            7,
            -7,
            10,
            99,
            100,
            -1000,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ] {
            assert_eq!(Value::Int(n).to_string(), n.to_string());
        }
        for (x, text) in [
            (2.0, "2.0"),
            (-0.0, "-0.0"),
            (0.0, "0.0"),
            (0.25, "0.25"),
            (-1.5e-7, "-0.00000015"),
            (1e21, "1000000000000000000000.0"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(Value::Float(x).to_string(), text);
        }
        assert_eq!(Value::from(u64::MAX), Value::Int(i64::MAX));
    }

    #[test]
    fn canonicalize_is_order_insensitive() {
        let a = Value::parse(r#"{"x":1,"y":2}"#).unwrap();
        let b = Value::parse(r#"{"y":2,"x":1}"#).unwrap();
        assert_ne!(a, b);
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }
}
