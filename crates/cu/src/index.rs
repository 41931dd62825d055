//! The dependence index: the merged [`DepSet`] unpacked once, with the
//! lookups CU construction and discovery ask of it.
//!
//! Both passes are post-passes over the *merged* dependence set and are
//! meant to cost what the program is wide — functions + loops + dependences
//! — so neither may rescan the set per loop, per function or per call-site
//! pair. They are handed this index instead of the set: every question they
//! have is a table lookup here, and the only scan of the set is
//! [`DepIndex::new`].

use fxhash::{FxHashMap, FxHashSet};
use interp::Program;
use profiler::{Dep, DepSet, DepType, LoopKey};

/// Lookups over one merged dependence set, built once per CU build or
/// discovery run.
#[derive(Debug, Clone, Default)]
pub struct DepIndex {
    /// Every dependence, in the set's iteration order (CU-graph edge order
    /// follows it).
    deps: Vec<Dep>,
    carried_raws: FxHashMap<LoopKey, Vec<Dep>>,
    /// `(source line, sink line)` of every RAW.
    raw_lines: FxHashSet<(u32, u32)>,
    /// `(line, variable)` of every non-carried WAR from a line to itself.
    same_line_wars: FxHashSet<(u32, u32)>,
    /// Per `(source line, variable)`: the other lines a RAW on it reaches,
    /// sorted and distinct.
    raws_leaving: FxHashMap<(u32, u32), Vec<u32>>,
    /// Per function: the RAWs with both ends inside its line span.
    raws_within: Vec<Vec<Dep>>,
}

impl DepIndex {
    /// Unpack `deps` and bucket it; `program` supplies the function spans.
    pub fn new(program: &Program, deps: &DepSet) -> DepIndex {
        let functions = &program.module.functions;
        // Functions by first line, with the running maximum of their last
        // lines: the functions holding a line pair `lo..=hi` are found by
        // walking back from the last one that starts at or before `lo`
        // while any earlier one can still reach `hi`.
        let mut spans: Vec<(u32, u32, usize)> = functions
            .iter()
            .enumerate()
            .map(|(fi, f)| (f.start_line, f.end_line, fi))
            .collect();
        spans.sort_unstable();
        let reach: Vec<u32> = spans
            .iter()
            .scan(0, |max, &(_, end, _)| {
                *max = end.max(*max);
                Some(*max)
            })
            .collect();

        let mut index = DepIndex {
            deps: Vec::with_capacity(deps.len()),
            raws_within: vec![Vec::new(); functions.len()],
            ..DepIndex::default()
        };
        for (d, _) in deps.iter() {
            index.deps.push(d);
            match d.ty {
                DepType::Raw => {
                    index.raw_lines.insert((d.source.line, d.sink.line));
                    if d.sink.line != d.source.line {
                        index
                            .raws_leaving
                            .entry((d.source.line, d.var))
                            .or_default()
                            .push(d.sink.line);
                    }
                    if let Some(key) = d.carried_by {
                        index.carried_raws.entry(key).or_default().push(d);
                    }
                    let lo = d.sink.line.min(d.source.line);
                    let hi = d.sink.line.max(d.source.line);
                    let starts_by = spans.partition_point(|&(start, _, _)| start <= lo);
                    for k in (0..starts_by).rev().take_while(|&k| reach[k] >= hi) {
                        let (_, end, fi) = spans[k];
                        if end >= hi {
                            index.raws_within[fi].push(d);
                        }
                    }
                }
                DepType::War if d.sink.line == d.source.line && d.carried_by.is_none() => {
                    index.same_line_wars.insert((d.sink.line, d.var));
                }
                _ => {}
            }
        }
        for sinks in index.raws_leaving.values_mut() {
            sinks.sort_unstable();
            sinks.dedup();
        }
        index
    }

    /// Every dependence, in [`DepSet::iter`] order.
    pub fn deps(&self) -> &[Dep] {
        &self.deps
    }

    /// The RAW dependences carried by `loop_key` ([`DepSet::carried_raws`]).
    pub fn carried_raws(&self, loop_key: LoopKey) -> &[Dep] {
        self.carried_raws.get(&loop_key).map_or(&[], Vec::as_slice)
    }

    /// Is there a RAW from `source_line` to `sink_line`, on any variable,
    /// carried or not?
    pub fn has_raw(&self, source_line: u32, sink_line: u32) -> bool {
        self.raw_lines.contains(&(source_line, sink_line))
    }

    /// Is there a non-carried WAR on `var` from `line` to itself — the
    /// witness that the line reads and writes one address within an
    /// iteration?
    pub fn has_same_line_war(&self, line: u32, var: u32) -> bool {
        self.same_line_wars.contains(&(line, var))
    }

    /// Is there a RAW on `var` from `line` to another line in `lo < sink ≤
    /// hi` — is the value written on `line` read elsewhere in that span?
    pub fn has_raw_leaving(&self, line: u32, var: u32, lo: u32, hi: u32) -> bool {
        self.raws_leaving.get(&(line, var)).is_some_and(|sinks| {
            let first = sinks.partition_point(|&sink| sink <= lo);
            sinks.get(first).is_some_and(|&sink| sink <= hi)
        })
    }

    /// The RAWs whose sink and source both lie within function `func`'s
    /// line span.
    pub fn raws_within(&self, func: u32) -> &[Dep] {
        &self.raws_within[func as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profiler::SrcLoc;

    /// xorshift64*.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u32 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n) as u32
        }
    }

    /// Three functions on lines 2-4, 5-8 and 9-12 (globals on line 1).
    fn program() -> Program {
        let src = "global int g;\nfn a() {\ng = 1;\n}\nfn b() {\ng = 2;\ng = 3;\n}\nfn main() {\na();\nb();\n}";
        Program::new(lang::compile(src, "t").unwrap())
    }

    /// A random set over lines 1..=13 and a few variables and loops, with
    /// some dependences too wide for the packed map.
    fn random_deps(rng: &mut Rng, n: usize) -> DepSet {
        let mut set = DepSet::new();
        for _ in 0..n {
            let wide = rng.below(8) == 0;
            let sink = 1 + rng.below(13);
            set.insert(Dep {
                sink: SrcLoc::new(sink),
                ty: [DepType::Raw, DepType::War, DepType::Waw, DepType::Init]
                    [rng.below(4) as usize],
                // Same-line pairs are what the WAR lookup is about.
                source: SrcLoc::new(if rng.below(3) == 0 {
                    sink
                } else {
                    1 + rng.below(13)
                }),
                var: if wide { u32::MAX - 1 } else { rng.below(4) },
                sink_thread: 0,
                source_thread: rng.below(2),
                carried_by: match rng.below(3) {
                    0 => None,
                    _ => Some((rng.below(3), rng.below(3))),
                },
                race_hint: false,
            });
        }
        set
    }

    fn sorted(mut v: Vec<Dep>) -> Vec<Dep> {
        v.sort();
        v
    }

    #[test]
    fn every_lookup_equals_the_scan_it_replaces() {
        let p = program();
        let mut rng = Rng(0x1234_5678_9abc_def1);
        let (mut wide, mut uncarried) = (0, 0);
        for case in 0..60 {
            let set = random_deps(&mut rng, 5 + case * 3);
            let index = DepIndex::new(&p, &set);
            let all: Vec<Dep> = set.iter().map(|(d, _)| d).collect();
            assert_eq!(index.deps(), &all[..]);
            wide += all.iter().filter(|d| d.var == u32::MAX - 1).count();
            uncarried += all.iter().filter(|d| d.carried_by.is_none()).count();

            for f in 0..4 {
                for r in 0..4 {
                    assert_eq!(
                        sorted(index.carried_raws((f, r)).to_vec()),
                        sorted(set.carried_raws((f, r))),
                    );
                }
            }
            for a in 0..=14 {
                for b in 0..=14 {
                    // `find_spmd_tasks`' `local_flow`.
                    let local_flow = all
                        .iter()
                        .any(|d| d.ty == DepType::Raw && d.sink.line == b && d.source.line == a);
                    assert_eq!(index.has_raw(a, b), local_flow, "RAW {a} -> {b}");
                }
                for var in [0, 1, 2, 3, 4, u32::MAX - 1, u32::MAX] {
                    // `analyze_loop`'s `same_addr_war`.
                    let same_addr_war = all.iter().any(|w| {
                        w.ty == DepType::War
                            && w.sink.line == a
                            && w.source.line == a
                            && w.carried_by.is_none()
                            && w.var == var
                    });
                    assert_eq!(index.has_same_line_war(a, var), same_addr_war);
                    for (lo, hi) in [(0, 14), (2, 7), (a, a + 3), (5, 5), (9, 2)] {
                        // `LoopAnalyzer::analyze`'s reduction veto.
                        let leaving = all.iter().any(|d| {
                            d.ty == DepType::Raw
                                && d.source.line == a
                                && d.sink.line != a
                                && d.var == var
                                && lo < d.sink.line
                                && d.sink.line <= hi
                        });
                        assert_eq!(index.has_raw_leaving(a, var, lo, hi), leaving);
                    }
                }
            }
            for (fi, f) in p.module.functions.iter().enumerate() {
                // `FnBuilder::new`'s span filter.
                let within = |l: u32| f.start_line <= l && l <= f.end_line;
                let scan: Vec<Dep> = all
                    .iter()
                    .filter(|d| {
                        d.ty == DepType::Raw && within(d.sink.line) && within(d.source.line)
                    })
                    .copied()
                    .collect();
                assert_eq!(index.raws_within(fi as u32), &scan[..], "function {fi}");
            }
        }
        assert!(
            wide > 100 && uncarried > 100,
            "{wide} wide, {uncarried} uncarried"
        );
    }

    #[test]
    fn functions_sharing_a_line_each_get_the_dependences_on_it() {
        let src =
            "global int g;\nfn a() { g = 1; } fn b() { g = g + 1; }\nfn main() {\na();\nb();\n}";
        let p = Program::new(lang::compile(src, "t").unwrap());
        let mut set = DepSet::new();
        let raw = |sink, source| Dep {
            sink: SrcLoc::new(sink),
            ty: DepType::Raw,
            source: SrcLoc::new(source),
            var: 0,
            sink_thread: 0,
            source_thread: 0,
            carried_by: None,
            race_hint: false,
        };
        set.insert(raw(2, 2));
        set.insert(raw(5, 4));
        set.insert(raw(4, 2));
        let index = DepIndex::new(&p, &set);
        assert_eq!(index.raws_within(0), &[raw(2, 2)]);
        assert_eq!(index.raws_within(1), &[raw(2, 2)]);
        assert_eq!(index.raws_within(2), &[raw(5, 4)]);
    }

    #[test]
    fn an_empty_set_indexes_to_nothing() {
        let index = DepIndex::new(&program(), &DepSet::new());
        assert!(index.deps().is_empty());
        assert!(index.carried_raws((0, 1)).is_empty());
        assert!(!index.has_raw(1, 1));
        assert!(!index.has_same_line_war(1, 0));
        assert!(!index.has_raw_leaving(1, 0, 0, 14));
        assert!(index.raws_within(2).is_empty());
    }
}
