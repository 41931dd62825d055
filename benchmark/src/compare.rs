//! `benchmark compare A.json B.json`: did anything a user sees move, and if
//! so, which layer moved it.
//!
//! Two runs are compared as vectors, not scalars (the similarity analysis
//! of Liu et al., arXiv 0906.1326): one row per workload × end-to-end
//! metric with a verdict against the metric's bound, then the per-layer
//! time vector's delta, largest first, and every count that changed.

use crate::metrics::{is_exact, Better, END_TO_END, PER_LAYER};
use jsonio::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// A side's own uncertainty exceeds the bound: the runs cannot resolve
    /// a difference of the size the bound cares about.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric: its value and, where the value is a
/// median over rounds, how far that median can be trusted — the rounds'
/// quartile distance as a share of the value, over the square root of
/// their number.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    pub spread: Option<f64>,
}

/// `a` is the base. A change of more than `bound` (as a share of `a`) in
/// the bad direction is worse, in the good direction better.
pub fn verdict(a: Reading, b: Reading, better: Better, bound: f64) -> Verdict {
    if [a.spread, b.spread].iter().flatten().any(|&s| s > bound) {
        return Verdict::Unresolved;
    }
    let change = (b.value - a.value) / a.value;
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn reading(w: &Value, table: &str, metric: &str) -> Option<Reading> {
    let row = w.get(table)?.get(metric)?;
    let num = |k: &str| row.get(k).and_then(Value::as_f64);
    let value = num("value")?;
    let spread = match (num("q1"), num("q3"), num("n")) {
        (Some(q1), Some(q3), Some(n)) if n >= 1.0 => Some((q3 - q1) / value / n.sqrt()),
        _ => None,
    };
    Some(Reading { value, spread })
}

/// Print the comparison; `Ok(false)` when any metric is worse.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let seed = |d: &Value| d.get("seed").and_then(Value::as_u64);
    println!(
        "A = {a_path} (seed {:?}), B = {b_path} (seed {:?})",
        seed(&a),
        seed(&b)
    );
    let mut any_worse = false;
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{a_path}: no workloads"))?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    for name in names {
        let wa = workload(&a, name).expect("listed above");
        let Some(wb) = workload(&b, name) else {
            println!("== {name}: only in A");
            continue;
        };
        println!("== {name}");
        for (metric, unit, better, bound) in END_TO_END {
            let (Some(ra), Some(rb)) = (
                reading(wa, "end_to_end", metric),
                reading(wb, "end_to_end", metric),
            ) else {
                println!("  {metric:<20} missing on one side");
                continue;
            };
            let v = verdict(ra, rb, better, bound);
            any_worse |= v == Verdict::Worse;
            println!(
                "  {metric:<20} A {:>12.4} {unit:<8} B {:>12.4}  B/A {:.4} (base A {:.4} {unit})  bound {bound}  {} is better  -> {}",
                ra.value,
                rb.value,
                rb.value / ra.value,
                ra.value,
                better.as_str(),
                v.as_str()
            );
        }

        // Which layer moved: the time vector's delta, largest first.
        let mut moved: Vec<(&str, f64, f64)> = PER_LAYER
            .iter()
            .filter(|(m, unit, _)| *unit == "ms" && !is_exact(m))
            .filter_map(|&(m, _, _)| {
                let (ra, rb) = (reading(wa, "per_layer", m)?, reading(wb, "per_layer", m)?);
                Some((m, ra.value, rb.value))
            })
            .collect();
        moved.sort_by(|x, y| (y.2 - y.1).abs().total_cmp(&(x.2 - x.1).abs()));
        println!("  layers by |B - A|:");
        for (m, va, vb) in moved.iter().take(5) {
            println!(
                "    {m:<24} A {va:>12.4} ms  B {vb:>12.4} ms  B-A {:+.4} ms ({:+.1}% of A)",
                vb - va,
                100.0 * (vb - va) / va.abs().max(f64::MIN_POSITIVE)
            );
        }
        let changed: Vec<String> = PER_LAYER
            .iter()
            .filter(|(m, _, _)| is_exact(m))
            .filter_map(|&(m, _, _)| {
                let (ra, rb) = (reading(wa, "per_layer", m)?, reading(wb, "per_layer", m)?);
                (ra.value != rb.value).then(|| format!("{m} {} -> {}", ra.value, rb.value))
            })
            .collect();
        if changed.is_empty() {
            println!("  counts: identical");
        } else {
            println!("  counts that changed: {}", changed.join("; "));
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, spread: Option<f64>) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = |a, b| verdict(r(a, Some(0.01)), r(b, Some(0.01)), Better::Lower, 0.10);
        assert_eq!(lower(100.0, 105.0), Verdict::Same);
        assert_eq!(lower(100.0, 111.0), Verdict::Worse);
        assert_eq!(lower(100.0, 89.0), Verdict::Better);
        let higher = |a, b| verdict(r(a, None), r(b, None), Better::Higher, 0.10);
        assert_eq!(higher(100.0, 89.0), Verdict::Worse);
        assert_eq!(higher(100.0, 111.0), Verdict::Better);
        assert_eq!(higher(100.0, 95.0), Verdict::Same);
        // Either side noisier than the bound: nothing can be said.
        assert_eq!(
            verdict(
                r(100.0, Some(0.2)),
                r(150.0, Some(0.01)),
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(r(100.0, None), r(100.0, Some(0.11)), Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }
}
