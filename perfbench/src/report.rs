//! What one run reports: the BENCHMARK.json metrics (the last stdout line, as
//! JSON), extra human-readable metrics, and the output checks.

use crate::trace::{self, Tracer};
use crate::Args;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarises.
    pub samples: usize,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples,
    }
}

/// Output checks of one run; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (rounds on the batch path; SUBMIT, META and
    /// STATUS calls on the serve path) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// The metrics BENCHMARK.json lists for this mode, in its order.
    pub metrics: Vec<Metric>,
    /// Further numbers for the human report only.
    pub extra: Vec<Metric>,
    /// Free-form report lines (trace summaries, host facts).
    pub lines: Vec<String>,
    pub checks: Checks,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty() && self.failed == 0
    }

    /// Human-readable report: one line per metric with unit and sample
    /// count, then the extra lines and any failed checks.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (tag, list) in [("metric", &self.metrics), ("extra", &self.extra)] {
            for m in list {
                let _ = writeln!(
                    out,
                    "{tag} {:<34} {:>14.6} {:<6} (n={})",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        let _ = writeln!(
            out,
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for f in &self.checks.failures {
            let _ = writeln!(out, "CHECK FAILED: {f}");
        }
        out
    }

    /// The machine-readable result line.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value is not JSON; it also means a broken run.
            let v = if x.value.is_finite() { x.value } else { -1.0 };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            );
        }
        let correct = self.correct() && self.metrics.iter().all(|x| x.value.is_finite());
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// The full per-layer list in BENCHMARK.json order: `measured` values
/// where this workload has them, zero for layers it never exercises
/// (the serve wire and counters on the batch path).
pub fn per_layer_metrics(measured: &[Metric]) -> Vec<Metric> {
    for m in measured {
        assert!(
            crate::PER_LAYER.iter().any(|&(name, _)| m.name == name),
            "{} is not a listed per-layer metric",
            m.name
        );
    }
    crate::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, unit, 0.0, 0))
        })
        .collect()
}

/// Per span name: count, total and self time.
pub fn span_summary(tr: &Tracer) -> Vec<String> {
    trace::summarize(&tr.spans)
        .into_iter()
        .map(|(name, (count, total, self_t))| {
            format!(
                "span {name:<24} count {count:>6}  total {:>10.4} s  self {:>10.4} s",
                total as f64 * 1e-9,
                self_t as f64 * 1e-9
            )
        })
        .collect()
}

/// Writes the spans, kept in memory until now, next to the run's other
/// outputs.
pub fn write_trace(args: &Args, tr: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("write trace: {e}"))?;
    out.lines
        .push(format!("trace written to {}", path.display()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_result_keys() {
        let mut o = Outcome {
            attempted: 12,
            metrics: vec![
                metric("round_s_p50", "s", 0.25, 10),
                metric("x", "1/s", 3.0, 1),
            ],
            ..Outcome::default()
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"round_s_p50\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 3.0, \"unit\": \"1/s\"}}}"
        );
        o.checks.expect(false, || "model differs".into());
        assert!(o.json().starts_with("{\"correct\": false"));
        assert!(o.human().contains("CHECK FAILED: model differs"));
    }
}
