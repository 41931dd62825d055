//! Seeded input generation: the PRNG, shuffles, the Zipf sampler, the two
//! generated programs and the input fingerprint.
//!
//! Everything here is a pure function of the seed, so a seed names a set of
//! inputs; the program under test only ever sees the generated source text.

/// SplitMix64: tiny, well-mixed, and — unlike xorshift — fine with seed 0.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n` > 0). The modulo bias is below 2^-40 for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finalizer: also used on its own to derive the `i`-th draw
/// of a stream without generating the `i - 1` before it.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` for position `i` of the stream `seed` names.
pub fn unit_at(seed: u64, i: u64) -> f64 {
    let z = mix(seed ^ mix(i.wrapping_add(0x9e37_79b9_7f4a_7c15)));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Fisher–Yates.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The rank a uniform `u` in `[0, 1)` selects.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a 64: the fingerprint printed as `inputs_hash`. It tells two runs
/// with equal inputs from two runs without; it is not cryptographic.
pub fn fnv1a(chunks: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in chunk.as_ref() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Chunk boundary, so ["ab", "c"] and ["a", "bc"] differ.
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a generated loop is by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truth {
    /// 1-based line of the loop header.
    pub line: u32,
    /// Iterations are independent, possibly after a reduction clause.
    pub parallel: bool,
    /// Parallelising needs a reduction clause.
    pub reduction: bool,
}

const GATHER_TABLE: u64 = 65_536;
const GATHER_WORDS: u64 = 524_288;
const GATHER_PASSES: u64 = 5;

/// `sparse_gather`: an index table filled by a seed-drawn bijection, then
/// passes that gather through it. The footprint (1.1M words) is past
/// `EngineKind::AUTO_PERFECT_MAX_WORDS`, so `auto_for` picks the signature
/// engine, and every subscript goes through `%` or the table, so nothing is
/// affine. `a` is odd, hence `i -> (i * a + c) % 2^19` is injective and each
/// pass touches every `out[j]` at most once: the inner loop is a reduction
/// on `s`, the pass loop carries `out[j]`.
pub fn sparse_gather(seed: u64) -> (String, Vec<Truth>) {
    let mut rng = Rng::new(seed ^ 0x5a5a);
    let a = rng.below(GATHER_WORDS / 2) * 2 + 1;
    let c = rng.below(GATHER_WORDS);
    let source = format!(
        "global int idx[{GATHER_TABLE}];
global int data[{GATHER_WORDS}];
global int out[{GATHER_WORDS}];
global int s;
fn main() {{
    for (int i = 0; i < {GATHER_TABLE}; i = i + 1) {{
        idx[i] = (i * {a} + {c}) % {GATHER_WORDS};
    }}
    for (int r = 0; r < {GATHER_PASSES}; r = r + 1) {{
        for (int k = 0; k < {GATHER_TABLE}; k = k + 1) {{
            int j = idx[(k * 7 + r) % {GATHER_TABLE}];
            out[j] = data[(j + k) % {GATHER_WORDS}] + out[j];
            s = s + out[j];
        }}
    }}
}}
"
    );
    let truths = vec![
        Truth {
            line: 6,
            parallel: true,
            reduction: false,
        },
        Truth {
            line: 9,
            parallel: false,
            reduction: false,
        },
        Truth {
            line: 10,
            parallel: true,
            reduction: true,
        },
    ];
    (source, truths)
}

/// The loop shapes `wide_program` is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `g[i] = i * m + c` — DOALL.
    Map,
    /// `g[i] = g[i - 1] + c` — first-order recurrence, sequential.
    Recurrence,
    /// `s = s + g[i]` — scalar reduction.
    Reduction,
    /// `if (g[i] > m) m = g[i]` — a max-reduction in truth; a conditional
    /// update is not the `s = s op x` shape, so detectors tend to miss it.
    RunningMax,
}

pub const LOOP_KINDS: [LoopKind; 4] = [
    LoopKind::Map,
    LoopKind::Recurrence,
    LoopKind::Reduction,
    LoopKind::RunningMax,
];

impl LoopKind {
    pub fn truth(self) -> (bool, bool) {
        match self {
            LoopKind::Map => (true, false),
            LoopKind::Recurrence => (false, false),
            LoopKind::Reduction | LoopKind::RunningMax => (true, true),
        }
    }
}

pub const WIDE_FUNCTIONS: usize = 300;

/// `wide_program`: `WIDE_FUNCTIONS` functions of one 16-iteration loop
/// each, one 16-word global per function, `main` calling every function
/// once. The seed draws the order of the kinds and the constants; every
/// kind appears equally often whatever the seed, so the work — and the
/// share of loops a detector gets right — does not depend on the draw.
pub fn wide_program(seed: u64) -> (String, Vec<(LoopKind, Truth)>) {
    let mut rng = Rng::new(seed ^ 0x77de);
    let mut kinds: Vec<LoopKind> = (0..WIDE_FUNCTIONS)
        .map(|i| LOOP_KINDS[i % LOOP_KINDS.len()])
        .collect();
    shuffle(&mut rng, &mut kinds);

    let mut lines: Vec<String> = (0..WIDE_FUNCTIONS)
        .map(|i| format!("global int g{i}[16];"))
        .collect();
    let mut truths = Vec::with_capacity(WIDE_FUNCTIONS);
    for (i, &kind) in kinds.iter().enumerate() {
        let c = rng.below(97) + 1;
        let m = rng.below(7) + 2;
        let (init, from, body, tail) = match kind {
            LoopKind::Map => (None, 0, vec![format!("g{i}[i] = i * {m} + {c};")], None),
            LoopKind::Recurrence => (
                Some(format!("g{i}[0] = {c};")),
                1,
                vec![format!("g{i}[i] = g{i}[i - 1] + {m};")],
                None,
            ),
            LoopKind::Reduction => (
                Some("int s = 0;".to_string()),
                0,
                vec![format!("s = s + g{i}[i] * {m};")],
                Some(format!("g{i}[0] = s + {c};")),
            ),
            LoopKind::RunningMax => (
                Some(format!("int m = {c};")),
                0,
                vec![
                    format!("if (g{i}[i] > m) {{"),
                    format!("    m = g{i}[i];"),
                    "}".to_string(),
                ],
                Some(format!("g{i}[0] = m;")),
            ),
        };
        lines.push(format!("fn f{i}() {{"));
        lines.extend(init.map(|l| format!("    {l}")));
        let (parallel, reduction) = kind.truth();
        truths.push((
            kind,
            Truth {
                line: lines.len() as u32 + 1,
                parallel,
                reduction,
            },
        ));
        lines.push(format!("    for (int i = {from}; i < 16; i = i + 1) {{"));
        lines.extend(body.into_iter().map(|l| format!("        {l}")));
        lines.push("    }".to_string());
        lines.extend(tail.map(|l| format!("    {l}")));
        lines.push("}".to_string());
    }
    lines.push("fn main() {".to_string());
    lines.extend((0..WIDE_FUNCTIONS).map(|i| format!("    f{i}();")));
    lines.push("}".to_string());
    lines.push(String::new());
    (lines.join("\n"), truths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seed_stable() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // Pinned: a changed generator would silently change every input.
        assert_eq!(Rng::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);

        let mut a: Vec<u32> = (0..54).collect();
        let mut b = a.clone();
        shuffle(&mut Rng::new(3), &mut a);
        shuffle(&mut Rng::new(3), &mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..54).collect::<Vec<_>>(), "a permutation");
        assert_ne!(a, sorted, "and not the identity");

        assert_eq!(unit_at(5, 9), unit_at(5, 9));
        assert_ne!(unit_at(5, 9), unit_at(5, 10));
        assert!((0..1000).all(|i| (0.0..1.0).contains(&unit_at(1, i))));
    }

    #[test]
    fn zipf_follows_the_harmonic_weights() {
        let z = Zipf::new(54, 1.0);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999), 53);
        let n = 200_000u64;
        let mut hits = [0u64; 54];
        for i in 0..n {
            hits[z.rank(unit_at(42, i))] += 1;
        }
        let h54: f64 = (1..=54).map(|k| 1.0 / k as f64).sum();
        for (k, &count) in hits.iter().enumerate().take(8) {
            let want = 1.0 / ((k + 1) as f64 * h54);
            let got = count as f64 / n as f64;
            assert!(
                (got - want).abs() < 0.01,
                "rank {k}: drew {got:.4}, weight {want:.4}"
            );
        }
        // Same seed, same draws.
        assert_eq!(z.rank(unit_at(42, 17)), z.rank(unit_at(42, 17)));
    }

    #[test]
    fn fingerprint_sees_content_and_boundaries() {
        assert_eq!(fnv1a(["ab", "c"]), fnv1a(["ab", "c"]));
        assert_ne!(fnv1a(["ab", "c"]), fnv1a(["a", "bc"]));
        assert_ne!(fnv1a(["abc"]), fnv1a(["abd"]));
    }

    #[test]
    fn generated_sources_depend_on_the_seed_only() {
        assert_eq!(sparse_gather(1), sparse_gather(1));
        assert_ne!(sparse_gather(1).0, sparse_gather(2).0);
        let (a, ta) = wide_program(1);
        let (b, tb) = wide_program(2);
        assert_eq!(wide_program(1).0, a);
        assert_ne!(a, b);
        for kind in LOOP_KINDS {
            let count = |t: &[(LoopKind, Truth)]| t.iter().filter(|(k, _)| *k == kind).count();
            assert_eq!(count(&ta), WIDE_FUNCTIONS / LOOP_KINDS.len());
            assert_eq!(count(&tb), WIDE_FUNCTIONS / LOOP_KINDS.len());
        }
        // Every recorded line is a loop header.
        let lines: Vec<&str> = a.lines().collect();
        for (_, t) in &ta {
            assert!(
                lines[t.line as usize - 1].trim_start().starts_with("for ("),
                "line {} is `{}`",
                t.line,
                lines[t.line as usize - 1]
            );
        }
    }
}
