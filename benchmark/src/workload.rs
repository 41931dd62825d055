//! The six workloads: what each one is, why it is here, and the jobs it is
//! made of.
//!
//! A *job* is what `discopop analyze FILE [--static] --json OUT` does: source
//! text in, pretty JSON report bytes out. A workload is a set of jobs plus
//! the order one pass runs them in (batch) or the mix requests draw them
//! from (service).

use crate::gen::{self, Truth};

/// One analysis job. The program under test receives `source`, `name` and
/// the `--static` flag, and nothing else.
#[derive(Debug, Clone)]
pub struct Job {
    pub name: String,
    pub source: String,
    /// `discopop analyze --static`: static pre-pass on, affine skip tier armed.
    pub statics: bool,
    /// Loops whose class is known independently of the tool.
    pub truths: Vec<Truth>,
}

/// How a workload's jobs reach the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One in-process caller running passes over `order`.
    Batch,
    /// Closed-loop TCP clients drawing from the Zipf mix.
    Service,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub mode: Mode,
    pub jobs: Vec<Job>,
    /// Batch: the job indices of one pass, in run order. Service: the
    /// popularity ranking (index 0 is drawn most often).
    pub order: Vec<usize>,
}

impl Workload {
    /// Fingerprint of everything the program under test will be given.
    pub fn inputs_hash(&self) -> u64 {
        let order: Vec<u8> = self.order.iter().map(|&i| i as u8).collect();
        let mut chunks: Vec<&[u8]> = vec![&order];
        for j in &self.jobs {
            chunks.push(j.name.as_bytes());
            chunks.push(j.source.as_bytes());
            chunks.push(if j.statics { b"s" } else { b"-" });
        }
        gen::fnv1a(chunks)
    }
}

/// Names and one-line reasons, in run order. `BENCHMARK.json` repeats this
/// table; a unit test keeps the two equal.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "hot_loop",
        "one affine nest of 10.6M accesses under --static: interpreter dispatch, event emission and the exact page-table shadow are the whole job (the paper's slowdown experiment)",
    ),
    (
        "sparse_gather",
        "7M non-affine accesses over 1.1M words: auto_for picks the signature map and the skip tier is off, so perfect-map and skip-tier changes must read no change here",
    ),
    (
        "wide_program",
        "300 generated functions, 46k accesses: frontend, static analysis, CU build, discovery and an 11 MB report are 99% of the job; profiler changes must read no change here",
    ),
    (
        "suite_sweep",
        "one pass over the 54 small catalogue programs in seed-shuffled order: per-job fixed cost (map allocation, decode, report) weighs; carries the hand-annotated loop truths",
    ),
    (
        "actors_10k",
        "10,002 green threads: scheduler and mailboxes execute, 825 MB of tracked shadow, 50k dependences and a 14 MB report make memory, DepSet and rendering first-order together",
    ),
    (
        "service_mix",
        "closed-loop TCP clients against the 2-worker daemon, Zipf over the 54 catalogue programs, every fifth request a cache miss: the only path through protocol, serve and submit",
    ),
];

/// The `stress` nest of `crates/bench/src/bin/perfjson.rs`, verbatim, so
/// `hot_loop` continues the `stress` rows of `BENCH_profiler.json`.
const HOT_LOOP_SRC: &str = "global int a[4096];
global int b[4096];
global int s;
fn main() {
    for (int r = 0; r < 200; r = r + 1) {
        for (int i = 1; i < 4096; i = i + 1) {
            b[i] = a[i - 1] + b[i];
            s = s + b[i];
        }
    }
}";

/// The catalogue programs `suite_sweep` and `service_mix` share: everything
/// in `workloads::all()` except `actors_10k`, which is a workload of its own
/// (one 0.6 s job among 0.3–22 ms ones would be the whole pass).
fn catalogue_jobs() -> Vec<Job> {
    workloads::all()
        .into_iter()
        .filter(|w| w.name != "actors_10k")
        .map(catalogue_job)
        .collect()
}

fn catalogue_job(w: workloads::Workload) -> Job {
    let truths = w
        .truths
        .iter()
        .map(|t| Truth {
            line: w
                .line_of(t.marker)
                .unwrap_or_else(|| panic!("{}: marker `{}` not in source", w.name, t.marker)),
            parallel: t.parallel,
            reduction: t.reduction,
        })
        .collect();
    Job {
        name: w.name.to_string(),
        source: w.source.to_string(),
        statics: false,
        truths,
    }
}

/// Build a workload's inputs from the seed.
pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    let single = |job: Job| Workload {
        mode: Mode::Batch,
        jobs: vec![job],
        order: vec![0],
    };
    Ok(match name {
        "hot_loop" => single(Job {
            name: "hot_loop".to_string(),
            source: HOT_LOOP_SRC.to_string(),
            statics: true,
            // The inner loop reads `a` (never written) and its own
            // `b[i]`, and sums into `s`: a reduction. The outer loop
            // re-reads every `b[i]` the previous round wrote.
            truths: vec![
                Truth {
                    line: 5,
                    parallel: false,
                    reduction: false,
                },
                Truth {
                    line: 6,
                    parallel: true,
                    reduction: true,
                },
            ],
        }),
        "sparse_gather" => {
            let (source, truths) = gen::sparse_gather(seed);
            single(Job {
                name: "sparse_gather".to_string(),
                source,
                statics: false,
                truths,
            })
        }
        "wide_program" => {
            let (source, truths) = gen::wide_program(seed);
            single(Job {
                name: "wide_program".to_string(),
                source,
                statics: true,
                truths: truths.into_iter().map(|(_, t)| t).collect(),
            })
        }
        "suite_sweep" => {
            let jobs = catalogue_jobs();
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            gen::shuffle(&mut gen::Rng::new(seed ^ 0x5eeb), &mut order);
            Workload {
                mode: Mode::Batch,
                jobs,
                order,
            }
        }
        "actors_10k" => {
            let w = workloads::by_name("actors_10k").expect("catalogue has actors_10k");
            let mut job = catalogue_job(w);
            // The catalogue annotates the spawn wave only. The other three
            // loops are sequential by the conventions its sibling actor
            // programs are annotated under: blocking receives serialise on
            // the mailbox, sends to one mailbox are ordered writes, and a
            // collector folds messages in arrival order.
            for marker in ["int k = 0; k < 10000", "i < 128", "while (0 < 1)"] {
                job.truths.push(Truth {
                    line: w.line_of(marker).expect("actors_10k has the marked loop"),
                    parallel: false,
                    reduction: false,
                });
            }
            single(job)
        }
        "service_mix" => {
            let jobs = catalogue_jobs();
            // Popularity follows catalogue order whatever the seed: the
            // seed draws *which request asks for which rank*, not which
            // program is popular. Were the ranking shuffled too, one seed
            // would make a 22 ms program the 22% head of the mix and the
            // next a 0.3 ms one, and no two seeds could be compared.
            let order = (0..jobs.len()).collect();
            Workload {
                mode: Mode::Service,
                jobs,
                order,
            }
        }
        _ => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "no workload `{name}` (there are: {})",
                known.join(", ")
            ));
        }
    })
}

/// One request of a workload's request stream: which job, and whether it
/// carries a module name the daemon has never seen (so it misses the
/// compiled-program cache and pays compile + decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    pub job: usize,
    pub fresh_name: bool,
}

/// The request stream of a workload, addressable by position so client
/// threads can claim positions from a shared counter. Service workloads
/// draw Zipf(1.0) over `order`; batch workloads cycle through their pass.
/// Every fifth request carries a fresh name.
pub struct RequestStream<'a> {
    workload: &'a Workload,
    zipf: gen::Zipf,
    seed: u64,
}

impl<'a> RequestStream<'a> {
    pub fn new(workload: &'a Workload, seed: u64) -> Self {
        RequestStream {
            workload,
            zipf: gen::Zipf::new(workload.order.len(), 1.0),
            seed: seed ^ 0x21bf,
        }
    }

    pub fn at(&self, i: u64) -> Draw {
        let order = &self.workload.order;
        let job = match self.workload.mode {
            Mode::Service => order[self.zipf.rank(gen::unit_at(self.seed, i))],
            Mode::Batch => order[(i % order.len() as u64) as usize],
        };
        Draw {
            job,
            fresh_name: i % 5 == 4,
        }
    }

    /// The module name request `i` is sent under.
    pub fn name(&self, i: u64) -> String {
        let d = self.at(i);
        let base = &self.workload.jobs[d.job].name;
        if d.fresh_name {
            format!("{base}~{i}")
        } else {
            base.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_builds_and_nothing_else_does() {
        for (name, why) in WORKLOADS {
            let w = build(name, 1).unwrap();
            assert!(!w.jobs.is_empty() && !w.order.is_empty());
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why fits the contract"
            );
        }
        assert!(build("nope", 1).unwrap_err().contains("hot_loop"));
    }

    #[test]
    fn the_seed_drives_inputs_and_only_the_seed() {
        for (name, _) in WORKLOADS {
            let h = |seed| build(name, seed).unwrap().inputs_hash();
            assert_eq!(h(1), h(1), "{name}");
        }
        for name in ["sparse_gather", "wide_program", "suite_sweep"] {
            let h = |seed| build(name, seed).unwrap().inputs_hash();
            assert_ne!(h(1), h(2), "{name}: the seed reaches the inputs");
        }
        let w = build("suite_sweep", 1).unwrap();
        assert_eq!(w.jobs.len(), 54);
        let mut sorted = w.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..54).collect::<Vec<_>>());
    }

    #[test]
    fn request_streams_are_positional_and_a_fifth_fresh() {
        let w = build("service_mix", 1).unwrap();
        let s = RequestStream::new(&w, 9);
        let draws: Vec<Draw> = (0..1000).map(|i| s.at(i)).collect();
        assert_eq!(draws, (0..1000).map(|i| s.at(i)).collect::<Vec<_>>());
        assert_eq!(draws.iter().filter(|d| d.fresh_name).count(), 200);
        assert_ne!(
            draws,
            (0..1000)
                .map(|i| RequestStream::new(&w, 10).at(i))
                .collect::<Vec<_>>()
        );
        // The head of the ranking is drawn most.
        let head = draws.iter().filter(|d| d.job == w.order[0]).count();
        assert!((150..300).contains(&head), "rank 0 drew {head}/1000");
        assert_eq!(s.name(4), format!("{}~4", w.jobs[s.at(4).job].name));
        assert_eq!(s.name(0), w.jobs[s.at(0).job].name);

        let b = build("suite_sweep", 1).unwrap();
        let s = RequestStream::new(&b, 9);
        let pass: Vec<usize> = (0..54).map(|i| s.at(i).job).collect();
        assert_eq!(pass, b.order, "batch streams replay the pass");
    }
}
