//! Determining optimal parameters for software transactional memory
//! (§5.2, Table 5.4).
//!
//! When a suggested parallel loop retains conflicting accesses to shared
//! variables, those accesses must execute atomically — each conflicting
//! update site is a *transaction* candidate, and their number and size
//! drive STM configuration (how many concurrent transactions, how large
//! the read/write sets). Transactions are determined by analyzing the
//! profiler's dependence output, exactly as Table 5.4 describes.

use discovery::{LoopClass, LoopResult};
use interp::Program;
use profiler::{DepSet, DepType};
use std::collections::BTreeSet;

/// A transaction candidate: a source line (or small line group) inside a
/// parallelizable loop whose accesses to a shared variable conflict across
/// iterations.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// Loop header line.
    pub loop_line: u32,
    /// Lines forming the atomic section.
    pub lines: Vec<u32>,
    /// Conflicting shared variables (names).
    pub vars: Vec<String>,
    /// Estimated read-set size (distinct shared variables read).
    pub read_set: usize,
    /// Estimated write-set size.
    pub write_set: usize,
}

/// Find transaction candidates for every parallelizable loop of a program.
///
/// A line group becomes a transaction when the loop is otherwise
/// parallelizable (DOALL/reduction) and the line carries a same-variable
/// cross-iteration conflict (the reduction updates and any remaining
/// carried WAR/WAW sites).
pub fn transactions_for(
    program: &Program,
    deps: &DepSet,
    loops: &[LoopResult],
) -> Vec<Transaction> {
    let mut out = Vec::new();
    for l in loops {
        if !matches!(l.class, LoopClass::Doall | LoopClass::Reduction) {
            continue;
        }
        let key = (l.info.func, l.info.region);
        // Conflict sites: lines with carried deps on shared variables.
        let mut by_line: std::collections::BTreeMap<u32, BTreeSet<String>> =
            std::collections::BTreeMap::new();
        for (d, _) in deps.iter() {
            if d.carried_by != Some(key) || d.var == u32::MAX {
                continue;
            }
            if matches!(d.ty, DepType::Raw | DepType::War | DepType::Waw) {
                let name = program.symbol(d.var).to_string();
                // Variables declared inside the loop (induction variables
                // and per-iteration temporaries) are privatized, not
                // transacted; only variables that outlive an iteration
                // need atomicity.
                let f = &program.module.functions[l.info.func as usize];
                let r = &f.regions[l.info.region as usize];
                let is_loop_local = f
                    .locals
                    .iter()
                    .any(|v| v.name == name && v.line >= r.start_line && v.line <= r.end_line);
                if !is_loop_local {
                    by_line.entry(d.sink.line).or_default().insert(name);
                }
            }
        }
        // Merge adjacent conflict lines into one transaction (they execute
        // together under one atomic section).
        let lines: Vec<u32> = by_line.keys().copied().collect();
        let mut group: Vec<u32> = Vec::new();
        let flush = |group: &mut Vec<u32>, out: &mut Vec<Transaction>| {
            if group.is_empty() {
                return;
            }
            let mut vars = BTreeSet::new();
            for g in group.iter() {
                vars.extend(by_line[g].iter().cloned());
            }
            // Read/write set sizes from the access lines.
            let mut reads = BTreeSet::new();
            let mut writes = BTreeSet::new();
            for (d, _) in deps.iter() {
                if group.contains(&d.sink.line) && d.var != u32::MAX {
                    match d.ty {
                        DepType::Raw => {
                            reads.insert(d.var);
                        }
                        DepType::War | DepType::Waw => {
                            writes.insert(d.var);
                        }
                        DepType::Init => {}
                    }
                }
            }
            out.push(Transaction {
                loop_line: l.info.start_line,
                lines: std::mem::take(group),
                vars: vars.into_iter().collect(),
                read_set: reads.len(),
                write_set: writes.len().max(1),
            });
        };
        for &line in &lines {
            if let Some(&last) = group.last() {
                if line > last + 1 {
                    flush(&mut group, &mut out);
                }
            }
            group.push(line);
        }
        flush(&mut group, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use profiler::profile_program;

    fn analyze(src: &str) -> (Program, Vec<Transaction>) {
        let p = Program::new(lang::compile(src, "t").unwrap());
        let out = profile_program(&p).unwrap();
        let loops: Vec<LoopResult> = discovery::hot_loops(&p, &out.pet)
            .into_iter()
            .map(|l| discovery::analyze_loop(&p, &out.deps, &l))
            .collect();
        let txs = transactions_for(&p, &out.deps, &loops);
        (p, txs)
    }

    #[test]
    fn reduction_update_is_a_transaction() {
        let (_, txs) = analyze(
            "global int a[64];\nglobal int s;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\ns = s + a[i];\n}\n}",
        );
        assert_eq!(txs.len(), 1, "{txs:?}");
        assert!(txs[0].vars.contains(&"s".to_string()));
        assert!(txs[0].write_set >= 1);
    }

    #[test]
    fn pure_doall_has_no_transactions() {
        let (_, txs) = analyze(
            "global int a[64];\nglobal int b[64];\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\nb[i] = a[i] + 1;\n}\n}",
        );
        assert!(txs.is_empty(), "{txs:?}");
    }

    #[test]
    fn adjacent_conflicts_merge_into_one_transaction() {
        let (_, txs) = analyze(
            "global int a[64];\nglobal int s;\nglobal int t;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\ns = s + a[i];\nt = t + a[i] * 2;\n}\n}",
        );
        assert_eq!(txs.len(), 1, "{txs:?}");
        assert_eq!(txs[0].lines.len(), 2);
        assert_eq!(txs[0].vars.len(), 2);
    }

    #[test]
    fn separate_conflicts_stay_separate() {
        let (_, txs) = analyze(
            "global int a[64];\nglobal int s;\nglobal int t;\nfn main() {\nfor (int i = 0; i < 64; i = i + 1) {\ns = s + a[i];\nint mid = a[i] * 3 - 1;\nint mid2 = mid + a[i];\nt = t + mid2;\n}\n}",
        );
        assert_eq!(txs.len(), 2, "{txs:?}");
    }
}
