//! Detecting communication patterns on multicore systems (§5.3, Fig. 5.1).
//!
//! On shared-memory machines, "communication" between threads is a
//! cross-thread flow dependence: thread A writes an address, thread B reads
//! it. Aggregating the profiler's cross-thread RAW dependences into a
//! thread×thread matrix reveals the application's communication pattern —
//! nearest-neighbour, master-worker, all-to-all — exactly the splash2x
//! renderings of Fig. 5.1.

use profiler::{DepSet, DepType};

/// A thread-to-thread communication matrix: `m[producer][consumer]` counts
/// distinct cross-thread flow dependences.
#[derive(Debug, Clone)]
pub struct CommMatrix {
    /// Number of threads.
    pub threads: usize,
    /// Row-major counts.
    pub counts: Vec<u64>,
}

impl CommMatrix {
    /// Count at (producer, consumer).
    pub fn get(&self, from: u32, to: u32) -> u64 {
        self.counts[from as usize * self.threads + to as usize]
    }

    /// Total communication volume.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Heuristic pattern classification for reporting.
    pub fn pattern(&self) -> &'static str {
        let n = self.threads;
        if n < 2 || self.total() == 0 {
            return "none";
        }
        let mut off_diag = 0u64;
        let mut neighbour = 0u64;
        let mut to_master = 0u64;
        for a in 0..n {
            for b in 0..n {
                let c = self.counts[a * n + b];
                if a == b {
                    continue;
                }
                off_diag += c;
                if a + 1 == b || b + 1 == a {
                    neighbour += c;
                }
                if b == 0 {
                    to_master += c;
                }
            }
        }
        if off_diag == 0 {
            return "private";
        }
        if to_master as f64 / off_diag as f64 > 0.8 {
            return "gather";
        }
        if neighbour as f64 / off_diag as f64 > 0.8 {
            return "nearest-neighbour";
        }
        "all-to-all"
    }
}

/// Build the communication matrix from a dependence set, counting each
/// distinct cross-thread RAW once per occurrence weight.
pub fn comm_matrix(deps: &DepSet, threads: usize) -> CommMatrix {
    let mut counts = vec![0u64; threads * threads];
    for (d, n) in deps.iter() {
        if d.ty == DepType::Raw
            && d.is_cross_thread()
            && (d.source_thread as usize) < threads
            && (d.sink_thread as usize) < threads
        {
            counts[d.source_thread as usize * threads + d.sink_thread as usize] += n;
        }
    }
    CommMatrix { threads, counts }
}

/// Per-channel actor communication summary: the interpreter's exact
/// message counts arranged as an actor×actor matrix, plus the dependence
/// view of mailbox state — each send/receive pair is a write/read of the
/// same mailbox slot, so message handoffs appear as RAW dependences,
/// slot reuse at the capacity bound as WAR/WAW coupling, and unsynchronized
/// delivery as race hints.
#[derive(Debug, Clone)]
pub struct ActorComm {
    /// Actor×actor message counts (`matrix.get(from, to)` = messages sent
    /// from `from` to `to`). Pattern classification applies unchanged.
    pub matrix: CommMatrix,
    /// Cross-actor RAW dependences over mailbox slots — the profiler's
    /// view of message handoffs.
    pub handoff_deps: u64,
    /// WAR/WAW dependences over mailbox slots: capacity coupling from
    /// bounded-mailbox slot reuse (a later message overwrites the slot an
    /// earlier one occupied).
    pub capacity_deps: u64,
    /// Race-hinted dependences over mailbox state (out-of-order delivery
    /// observed by timestamp inversion).
    pub race_hints: u64,
}

/// Build the per-channel actor summary from the interpreter's channel
/// counts and the dependences over mailbox state — those whose variable is
/// [`interp::MAILBOX_VAR`] — each given as `(type, cross-thread, race hint,
/// count)`, so a live dependence set and a report's rows feed it alike.
pub fn actor_comm(
    channels: &[(u32, u32, u64)],
    actors: usize,
    mailbox_deps: impl IntoIterator<Item = (DepType, bool, bool, u64)>,
) -> ActorComm {
    let mut counts = vec![0u64; actors * actors];
    for &(from, to, n) in channels {
        if (from as usize) < actors && (to as usize) < actors {
            counts[from as usize * actors + to as usize] += n;
        }
    }
    let mut handoff_deps = 0u64;
    let mut capacity_deps = 0u64;
    let mut race_hints = 0u64;
    for (ty, cross_thread, race_hint, n) in mailbox_deps {
        match ty {
            DepType::Raw if cross_thread => handoff_deps += n,
            DepType::War | DepType::Waw => capacity_deps += n,
            _ => {}
        }
        if race_hint {
            race_hints += n;
        }
    }
    ActorComm {
        matrix: CommMatrix {
            threads: actors,
            counts,
        },
        handoff_deps,
        capacity_deps,
        race_hints,
    }
}

/// ASCII rendering of the matrix (Fig. 5.1 style): rows = producers,
/// columns = consumers, cells shaded by volume.
pub fn render_matrix(m: &CommMatrix) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let max = m.counts.iter().copied().max().unwrap_or(0).max(1);
    let _ = writeln!(out, "producer\\consumer (pattern: {})", m.pattern());
    let _ = write!(out, "     ");
    for b in 0..m.threads {
        let _ = write!(out, "{b:>6}");
    }
    let _ = writeln!(out);
    for a in 0..m.threads {
        let _ = write!(out, "{a:>4} ");
        for b in 0..m.threads {
            let c = m.counts[a * m.threads + b];
            let shade = match (c * 4 / max, c) {
                (_, 0) => "     .",
                (0, _) => "     -",
                (1, _) => "     +",
                (2, _) => "     *",
                _ => "     #",
            };
            let _ = write!(out, "{shade}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use profiler::{Dep, SrcLoc};

    fn dep(from_t: u32, to_t: u32, line: u32) -> Dep {
        Dep {
            sink: SrcLoc::new(line),
            ty: DepType::Raw,
            source: SrcLoc::new(line + 1),
            var: 0,
            sink_thread: to_t,
            source_thread: from_t,
            carried_by: None,
            race_hint: false,
        }
    }

    #[test]
    fn matrix_counts_cross_thread_flows() {
        let mut d = DepSet::new();
        d.insert(dep(1, 0, 5));
        d.insert(dep(1, 0, 5));
        d.insert(dep(2, 0, 6));
        let m = comm_matrix(&d, 4);
        assert_eq!(m.get(1, 0), 2);
        assert_eq!(m.get(2, 0), 1);
        assert_eq!(m.get(0, 1), 0);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn gather_pattern_recognized() {
        let mut d = DepSet::new();
        for t in 1..4 {
            d.insert(dep(t, 0, t * 10));
        }
        let m = comm_matrix(&d, 4);
        assert_eq!(m.pattern(), "gather");
    }

    #[test]
    fn neighbour_pattern_recognized() {
        let mut d = DepSet::new();
        for t in 0..3u32 {
            d.insert(dep(t, t + 1, t * 10 + 1));
            d.insert(dep(t + 1, t, t * 10 + 2));
        }
        let m = comm_matrix(&d, 4);
        assert_eq!(m.pattern(), "nearest-neighbour");
    }

    #[test]
    fn actor_comm_counts_channels_and_mailbox_deps() {
        let p = interp::Program::new(
            lang::compile(
                "fn main() -> int {
                    int c = spawn_actor(stage, 0);
                    for (int i = 0; i < 8; i = i + 1) { send(c, i); }
                    join(c);
                    return receive();
                }
                fn stage(int x) {
                    int s = 0;
                    for (int i = 0; i < 8; i = i + 1) { s = s + receive(); }
                    send(0, s);
                }",
                "t",
            )
            .unwrap(),
        );
        let out = profiler::profile_program(&p).unwrap();
        let actors = out.actors.as_ref().expect("actor block present");
        let mailbox = p.mailbox_symbol();
        let comm = actor_comm(
            &actors.channels,
            actors.spawned as usize,
            out.deps
                .iter()
                .filter(|(d, _)| Some(d.var) == mailbox)
                .map(|(d, n)| (d.ty, d.is_cross_thread(), d.race_hint, n)),
        );
        assert_eq!(comm.matrix.get(0, 1), 8);
        assert_eq!(comm.matrix.get(1, 0), 1);
        assert_eq!(comm.matrix.total(), 9);
        // Each message handoff is a cross-actor RAW over a mailbox slot.
        assert!(comm.handoff_deps > 0, "handoffs visible as RAW deps");
        // Two actors exchanging 0↔1 traffic are adjacent.
        assert_eq!(comm.matrix.pattern(), "nearest-neighbour");
    }

    #[test]
    fn render_has_header_and_rows() {
        let mut d = DepSet::new();
        d.insert(dep(0, 1, 3));
        let m = comm_matrix(&d, 2);
        let text = render_matrix(&m);
        assert!(text.contains("pattern"));
        assert!(text.lines().count() >= 4);
    }
}
