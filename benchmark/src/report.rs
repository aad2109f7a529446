//! The metric lists `BENCHMARK.json` declares, and the report every
//! workload fills: a human-readable block with units and sample counts,
//! then one JSON line for a runner that reads `BENCHMARK.json`.

/// End-to-end metrics `BENCHMARK.json` gates (untraced runs): name and unit.
/// Each is defined on all three workloads and steady across runs; the
/// throughputs and latencies every workload also prints move with the
/// host's load by more than any bound a gate could hold.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (traced runs): name and unit. A layer a workload
/// never calls reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("campaign.areas_ms", "ms"),
    ("radio.tables_ms", "ms"),
    ("sim.ns_per_event", "ns/event"),
    ("sim.allocs_per_event", "allocs/event"),
    ("sim.events_per_s_1core", "events/s"),
    ("sim.corrupt_ns_per_event", "ns/event"),
    ("nsglog.emit_ns_per_event", "ns/event"),
    ("nsglog.parse_ns_per_record", "ns/record"),
    ("nsglog.allocs_per_record", "allocs/record"),
    ("nsglog.loss_ratio", "ratio"),
    ("store.decode_ns_per_event", "ns/event"),
    ("detect.ns_per_event", "ns/event"),
    ("detect.allocs_per_event", "allocs/event"),
    ("predict.ns_per_event", "ns/event"),
    ("campaign.fold_ns_per_run", "ns/run"),
    ("campaign.finalize_ms", "ms"),
    ("campaign.serial_fraction", "ratio"),
    ("campaign.scaling_eff", "ratio"),
    ("campaign.sim_calls_per_run", "calls/run"),
    ("campaign.attempts_per_run", "attempts/run"),
    ("serve.protocol.ns_per_frame", "ns/frame"),
    ("serve.session.warm_ingest_ns_per_event", "ns/event"),
    ("serve.session.cold_ingest_us", "us"),
    ("serve.session.query_us", "us"),
    ("serve.engine.report_json_us", "us"),
    ("serve.session.end_us", "us"),
    ("serve.engine.allocs_per_frame", "allocs/frame"),
    ("serve.transport_us_per_req", "us/req"),
    ("loadgen.us_per_req", "us/req"),
    ("campaign.share", "ratio"),
    ("radio.share", "ratio"),
    ("sim.share", "ratio"),
    ("nsglog.share", "ratio"),
    ("store.share", "ratio"),
    ("detect.share", "ratio"),
    ("predict.share", "ratio"),
    ("serve.protocol.share", "ratio"),
    ("serve.session.share", "ratio"),
    ("serve.engine.share", "ratio"),
    ("loadgen.share", "ratio"),
    ("unattributed.share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was drawn from, where it is an order statistic.
    pub samples: Option<usize>,
}

/// What one workload run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    /// Units of work attempted (campaign runs or daemon requests).
    pub attempted: u64,
    /// Units of work that errored or went unanswered.
    pub failed: u64,
    /// Output checks that failed; empty means correct.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (derived numbers, context).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            ..Report::default()
        }
    }

    pub fn add(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Records a failed output check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Prints the human block, then the JSON line restricted to `keys`.
    /// A key the workload did not report is an error for end-to-end
    /// metrics and 0 (layer not called) for per-layer ones. Returns
    /// whether the run was correct.
    pub fn print(&mut self, keys: &[(&str, &'static str)], missing_is_zero: bool) -> bool {
        for &(name, unit) in keys {
            if self.get(name).is_none() {
                if missing_is_zero {
                    self.add(name, unit, 0.0, None);
                } else {
                    self.failures
                        .push(format!("metric {name} was not measured"));
                }
            }
        }
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.failures
                    .push(format!("metric {} is not finite: {}", m.name, m.value));
            }
        }
        println!("== {} ==", self.workload);
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("  {:<42} {:>16.6} {}{n}", m.name, m.value, m.unit);
        }
        for line in &self.notes {
            println!("  {line}");
        }
        for f in &self.failures {
            println!("  CHECK FAILED: {f}");
        }
        let correct = self.failures.is_empty();
        let metrics: Vec<String> = if correct {
            keys.iter()
                .map(|&(name, unit)| {
                    let v = self.get(name).map_or(0.0, |m| m.value);
                    format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
                })
                .collect()
        } else {
            Vec::new()
        };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lists above are the names `BENCHMARK.json` declares, and the
    /// default window is its `run_seconds`.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = v
                .get(key)
                .and_then(|x| x.as_array())
                .expect("metric array")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        assert_eq!(
            v.get("run_seconds").and_then(|x| x.as_u64()),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
