//! The metric vocabulary: names, units, directions and regression bounds.
//! `BENCHMARK.json` repeats these tables; a unit test keeps the two equal.

use crate::stats::summarize;
use jsonio::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, unit, better, bound)`: what a user of the system sees, on every
/// workload, and the share of the baseline median by which each may worsen
/// before a change counts as a regression. Bounds are three times the
/// quartile spread seen over ten runs under ten seeds, or more (README).
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    // Every time below is normalised to the host's speed while it was
    // measured (see `pace`): the timed section is rounds — one pass over
    // the job set, or (service) one block of 250 requests — each
    // bracketed by a reference kernel.
    //
    // Input generation + oracle reports + daemon boot + warm-up, before
    // the first timed round; median of three set-ups per run.
    ("setup_s", "s", Better::Lower, 0.25),
    // Median wall time of a pass; for the service, the median
    // client-observed submit() round trip.
    ("analyze_ms", "ms", Better::Lower, 0.25),
    // The slowest job of a pass, median over passes; for the service, the
    // 99th percentile of the round trip over all rounds.
    ("latency_p99_ms", "ms", Better::Lower, 0.25),
    // Jobs completed over the summed wall time of the rounds.
    ("req_per_s", "1/s", Better::Higher, 0.25),
    // VmHWM of the untraced process: the paper's Fig. 2.11 as the OS sees it.
    ("peak_rss_mb", "MB", Better::Lower, 0.15),
    // Ground-truth loops whose reported class agrees (Table 4.1). Counts
    // repeat exactly, so any lost loop is a regression.
    ("detection_accuracy", "fraction", Better::Higher, 0.001),
];

/// `(name, unit, better)`: single layers, timed from outside around their
/// public functions or separated by the ablation ladder.
pub const PER_LAYER: [(&str, &str, Better); 54] = [
    ("lang.lex_ms", "ms", Better::Lower),
    ("lang.parse_ms", "ms", Better::Lower),
    ("lang.lower_ms", "ms", Better::Lower),
    ("lang.source_bytes", "count", Better::Lower),
    ("lang.tokens", "count", Better::Lower),
    ("mir.verify_ms", "ms", Better::Lower),
    ("mir.instrs", "count", Better::Lower),
    ("interp.decode_ms", "ms", Better::Lower),
    ("interp.decoded_ops", "count", Better::Lower),
    ("interp.native_ms", "ms", Better::Lower),
    ("interp.steps", "count", Better::Lower),
    ("interp.dispatches", "count", Better::Lower),
    ("interp.emit_ms", "ms", Better::Lower),
    ("interp.events", "count", Better::Lower),
    ("interp.synth_loops", "count", Better::Higher),
    ("interp.synth_access_share", "fraction", Better::Higher),
    ("interp.actors_spawned", "count", Better::Lower),
    ("analysis.static_ms", "ms", Better::Lower),
    ("analysis.loops", "count", Better::Higher),
    ("analysis.claims", "count", Better::Higher),
    ("profiler.track_ms", "ms", Better::Lower),
    ("profiler.pet_ms", "ms", Better::Lower),
    ("profiler.accesses", "count", Better::Lower),
    ("profiler.accesses_per_s", "1/s", Better::Higher),
    ("profiler.slowdown_x", "x", Better::Lower),
    ("profiler.deps", "count", Better::Lower),
    ("profiler.merge_ratio", "x", Better::Higher),
    ("profiler.tracked_mb", "MB", Better::Lower),
    ("profiler.parallel_ms", "ms", Better::Lower),
    ("profiler.spawned_workers", "count", Better::Higher),
    ("profiler.queue_stalls", "count", Better::Lower),
    ("cu.build_ms", "ms", Better::Lower),
    ("cu.nodes", "count", Better::Lower),
    ("cu.edges", "count", Better::Lower),
    ("discovery.self_ms", "ms", Better::Lower),
    ("discovery.loops", "count", Better::Higher),
    ("discovery.suggestions", "count", Better::Higher),
    ("report.doc_ms", "ms", Better::Lower),
    ("report.bytes", "count", Better::Lower),
    ("jsonio.render_ms", "ms", Better::Lower),
    ("jsonio.parse_ms", "ms", Better::Lower),
    ("serve.floor_p50_ms", "ms", Better::Lower),
    ("serve.direct_p50_ms", "ms", Better::Lower),
    ("serve.overhead_p50_ms", "ms", Better::Lower),
    ("serve.cache_hit_share", "fraction", Better::Higher),
    ("serve.shed", "count", Better::Lower),
    ("serve.failed", "count", Better::Lower),
    ("serve.worker_recoveries", "count", Better::Lower),
    ("serve.queue_depth_max", "count", Better::Lower),
    ("protocol.encode_ms", "ms", Better::Lower),
    ("protocol.decode_ms", "ms", Better::Lower),
    ("protocol.response_bytes_p50", "count", Better::Lower),
    ("trace.overhead_share", "fraction", Better::Lower),
    ("trace.accounted_share", "fraction", Better::Higher),
];

/// Is this per-layer metric a count that must repeat exactly for a seed?
/// Everything that is neither a time nor derived from one.
pub fn is_exact(name: &str) -> bool {
    let timed = name.ends_with("_ms")
        || matches!(
            name,
            "profiler.accesses_per_s"
                | "profiler.slowdown_x"
                | "trace.overhead_share"
                | "trace.accounted_share"
                // Scheduling decides these two; they are observations.
                | "serve.queue_depth_max"
                | "profiler.queue_stalls"
        );
    !timed
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("`{name}` is not a metric of this benchmark"))
}

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`, in table order once [`Outcome::finish`] has run.
    pub metrics: Vec<(&'static str, f64)>,
    /// What stands behind a median: quartiles and count of the per-round
    /// values, and the median before host-speed normalisation.
    pub spreads: Vec<(&'static str, Vec<(&'static str, f64)>)>,
    /// Facts worth a line in the human-readable output.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "`{name}` reported twice"
        );
        self.metrics.push((name, value));
    }

    /// Report `value`, a median over the run's rounds, and keep beside it
    /// the quartiles and count of the per-round values it rests on and the
    /// median before host-speed normalisation.
    pub fn set_rounds(&mut self, name: &'static str, value: f64, per_round: &[f64], raw: f64) {
        let s = summarize(per_round);
        self.set(name, value);
        self.spreads.push((
            name,
            vec![("q1", s.q1), ("q3", s.q3), ("n", s.n as f64), ("raw", raw)],
        ));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Check that exactly the metrics of `table` were reported and put
    /// them in table order.
    pub fn finish<'a>(mut self, table: impl Iterator<Item = &'a str>) -> Outcome {
        let names: Vec<&str> = table.collect();
        for name in &names {
            assert!(self.get(name).is_some(), "`{name}` was not measured");
        }
        assert_eq!(
            self.metrics.len(),
            names.len(),
            "a metric outside the table"
        );
        self.metrics
            .sort_by_key(|(n, _)| names.iter().position(|t| t == n));
        self
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        Value::object([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|&(name, value)| {
                            (
                                name.to_string(),
                                Value::object([
                                    ("value", Value::from(value)),
                                    ("unit", Value::from(unit_of(name))),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Quartiles, sample counts and notes: what the result line has no
    /// room for. `run` reads it back from the line before the last.
    pub fn detail_line(&self) -> String {
        Value::object([
            (
                "spreads",
                Value::Object(
                    self.spreads
                        .iter()
                        .map(|(name, fields)| {
                            (
                                name.to_string(),
                                Value::object(fields.iter().map(|&(k, v)| (k, Value::from(v)))),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Value::Object(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::from(v.as_str())))
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_repeats_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Value::parse(text).expect("BENCHMARK.json parses");
        let rows = |key: &str| -> Vec<Value> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has `{key}`"))
                .to_vec()
        };
        let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(String, String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|m| {
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_string(), u.to_string(), b.as_str().to_string(), bound))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut o = Outcome {
            attempted: 16,
            ..Outcome::default()
        };
        for (name, _, _, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let o = o.finish(END_TO_END.iter().map(|m| m.0));
        let v = Value::parse(&o.result_line()).unwrap();
        let Value::Object(fields) = &v else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v.get("metrics").unwrap().get("analyze_ms").unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
        assert!(!o.result_line().contains('\n'));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn finish_refuses_a_missing_metric() {
        let mut o = Outcome::default();
        o.set("setup_s", 1.0);
        let _ = o.finish(END_TO_END.iter().map(|m| m.0));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "count")))
        {
            assert!(ok_name(n), "{n}");
            assert!(ok_unit(u), "{n}: {u}");
            assert!(seen.insert(n), "{n} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    }
}
