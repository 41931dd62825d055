//! `workloads` — benchmark stand-ins for the DiscoPoP evaluation.
//!
//! The dissertation evaluates on SNU NAS, Starbench, BOTS, PARSEC, and
//! several applications (gzip, bzip2, libVorbis, FaceDetection). Those are
//! large C programs this reproduction cannot execute; instead, each
//! benchmark is re-created as a mini-C kernel with the **same loop and
//! dependence structure** — true DOALL loops stay DOALL, reductions stay
//! reductions, recurrences stay recurrences, pipelines stay pipelines: what
//! discovery is scored on is the structure, which a kernel a hundredth the
//! size can carry whole. Every workload carries a
//! ground-truth annotation per loop, used to score detection quality
//! (Table 4.1's 92.5% headline). Every workload is run by the tool, never
//! timed natively: the paper's measured speedups (Table 4.2, Fig. 4.11) are
//! not reproduced.

// Library code must not panic on its own account; a worker thread's panic
// is resumed unchanged, never re-wrapped.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod actors;
pub mod apps;
pub mod bots;
pub mod meta;
pub mod nas;
pub mod parsec;
pub mod starbench;
pub mod textbook;

pub use meta::{LoopTruth, Suite, Workload};

/// All workloads across every suite.
pub fn all() -> Vec<Workload> {
    let mut v = Vec::new();
    v.extend(nas::suite());
    v.extend(starbench::suite());
    v.extend(bots::suite());
    v.extend(apps::suite());
    v.extend(parsec::suite());
    v.extend(textbook::suite());
    v.extend(actors::suite());
    v
}

/// Workloads of one suite.
pub fn suite(s: Suite) -> Vec<Workload> {
    all().into_iter().filter(|w| w.suite == s).collect()
}

/// Find a workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload must compile and execute successfully under the
    /// interpreter, and its annotated loop markers must resolve to source
    /// lines.
    #[test]
    fn all_workloads_compile_and_run() {
        for w in all() {
            let prog = w
                .program()
                .unwrap_or_else(|e| panic!("workload `{}` failed to compile: {e}", w.name));
            let r = interp::run(&prog, interp::NullSink)
                .unwrap_or_else(|e| panic!("workload `{}` failed to run: {e}", w.name));
            assert!(r.steps > 0, "workload `{}` did nothing", w.name);
            for t in w.truths {
                assert!(
                    w.line_of(t.marker).is_some(),
                    "workload `{}`: marker `{}` not found",
                    w.name,
                    t.marker
                );
            }
        }
    }

    #[test]
    fn suites_are_populated() {
        assert!(suite(Suite::Nas).len() >= 8);
        assert!(suite(Suite::Starbench).len() >= 10);
        assert!(suite(Suite::Bots).len() >= 9);
        assert!(suite(Suite::Apps).len() >= 4);
        assert!(suite(Suite::Textbook).len() >= 5);
        assert!(suite(Suite::Parsec).len() >= 4);
        assert!(suite(Suite::Actors).len() >= 4);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = all().iter().map(|w| w.name).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
