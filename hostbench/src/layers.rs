//! Per-layer attribution of a traced run.
//!
//! The traced run records the program's own spans and counters on a
//! real-clock [`Tracer`], plus the benchmark's spans around its calls
//! into each layer (`bench.*`, see [`span`]). Durations come from
//! heron-trace's validator and profile tree ([`check_trace`],
//! [`profile_from_summary`]); this module only folds that tree into
//! per-name totals and self times and names the resulting metrics.

use std::collections::BTreeMap;

use heron_trace::{check_trace, merge_traces, profile_from_summary, ProfileNode, Tracer};

use crate::report::Metrics;
use crate::stats;

/// The benchmark's own span names, recorded around its calls into the
/// program.
pub mod span {
    /// `SpaceGenerator::generate_named`.
    pub const GENERATE: &str = "bench.generate";
    /// Session construction: `Tuner::new`, or `SolveSession::new` for
    /// the replayed service jobs (the solver root fixpoint).
    pub const SESSION: &str = "bench.session";
    /// One `Tuner::step` call.
    pub const STEP: &str = "bench.step";
    /// `Tuner::checkpoint` + `TuneCheckpoint::to_text`.
    pub const CHECKPOINT_SAVE: &str = "bench.checkpoint_save";
    /// Resuming from checkpoint text after a planned crash.
    pub const CHECKPOINT_RESUME: &str = "bench.checkpoint_resume";
}

/// Aggregated time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    /// Wall seconds inside the spans, children included. A span nested
    /// in a span of the same name is not counted twice.
    pub total_s: f64,
    /// Wall seconds not covered by any child span.
    pub self_s: f64,
    /// Number of spans.
    pub count: u64,
}

/// Folds a profile tree into per-name totals, self times and counts.
pub fn span_totals(root: &ProfileNode) -> BTreeMap<String, SpanAgg> {
    fn walk(node: &ProfileNode, ancestors: &mut Vec<String>, out: &mut BTreeMap<String, SpanAgg>) {
        let agg = out.entry(node.name.clone()).or_default();
        if !ancestors.contains(&node.name) {
            agg.total_s += node.total_s;
        }
        agg.self_s += node.self_s();
        agg.count += node.count;
        ancestors.push(node.name.clone());
        for child in &node.children {
            walk(child, ancestors, out);
        }
        ancestors.pop();
    }
    let mut out = BTreeMap::new();
    let mut ancestors = Vec::new();
    for child in &root.children {
        walk(child, &mut ancestors, &mut out);
    }
    out
}

/// Everything the traced run observed, across every session it traced.
#[derive(Debug, Default)]
pub struct Attribution {
    /// JSONL of every traced session, one segment each.
    pub segments: Vec<String>,
    /// Counter totals over all sessions.
    pub counters: BTreeMap<String, u64>,
    /// Host wall milliseconds of every executed tuning round.
    pub round_ms: Vec<f64>,
    /// Bytes of checkpoint text written.
    pub checkpoint_bytes: u64,
    /// Variables and constraints of the generated spaces.
    pub vars: u64,
    /// See `vars`.
    pub constraints: u64,
}

/// Counters folded from each traced session.
const COUNTERS: [&str; 12] = [
    "csp.propagations",
    "csp.solutions",
    "csp.wipeouts",
    "csp.restarts",
    "cga.offspring_attempted",
    "cga.offspring_invalid",
    "cga.fallback_samples",
    "model.fits",
    "model.predicts",
    "measure.trials",
    "measure.retries",
    "measure.invalid_trials",
];

impl Attribution {
    /// Adds one finished session's trace and counters.
    pub fn absorb(&mut self, tracer: &Tracer) {
        self.segments.push(tracer.to_jsonl());
        for name in COUNTERS {
            *self.counters.entry(name.to_string()).or_default() +=
                tracer.counter(name).unwrap_or(0);
        }
    }

    /// All sessions' traces merged into one JSONL trace.
    pub fn jsonl(&self) -> String {
        let segments: Vec<&str> = self.segments.iter().map(String::as_str).collect();
        merge_traces(&segments)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Validates the collected trace and appends the per-layer metrics
    /// for a traced tuning phase of `traced_wall_s` host seconds.
    ///
    /// # Errors
    /// The validator's message when the trace is malformed.
    pub fn metrics(&self, traced_wall_s: f64, m: &mut Metrics) -> Result<(), String> {
        let summary = check_trace(&self.jsonl())?;
        let spans = span_totals(&profile_from_summary(&summary));
        let get = |name: &str| spans.get(name).copied().unwrap_or_default();
        let ms = |s: f64| s * 1e3;

        m.push("generate.ms", ms(get(span::GENERATE).total_s), "ms");
        m.push("generate.vars", self.vars as f64, "count");
        m.push("generate.constraints", self.constraints as f64, "count");

        let solve = get("csp.solve");
        let props = self.counter("csp.propagations");
        let sols = self.counter("csp.solutions");
        m.push("csp.session_ms", ms(get(span::SESSION).total_s), "ms");
        m.push("csp.solve_ms", ms(solve.total_s), "ms");
        m.push("csp.solve_calls", solve.count as f64, "count");
        m.push("csp.propagations", props, "count");
        m.push("csp.solutions", sols, "count");
        m.push("csp.wipeouts", self.counter("csp.wipeouts"), "count");
        m.push("csp.restarts", self.counter("csp.restarts"), "count");
        m.push("csp.sol_per_kprop", ratio(sols, props / 1e3), "1/kprop");

        let attempted = self.counter("cga.offspring_attempted");
        let invalid = self.counter("cga.offspring_invalid");
        let populate = get("cga.populate");
        let evolve = get("cga.evolve");
        m.push("cga.populate_ms", ms(populate.total_s), "ms");
        m.push("cga.evolve_self_ms", ms(evolve.self_s), "ms");
        m.push("cga.offspring_attempted", attempted, "count");
        m.push("cga.offspring_invalid", invalid, "count");
        m.push(
            "cga.fallback_samples",
            self.counter("cga.fallback_samples"),
            "count",
        );
        m.push(
            "cga.offspring_valid_ratio",
            ratio(attempted - invalid, attempted),
            "frac",
        );

        let fit = get("model.fit");
        let fits = self.counter("model.fits");
        m.push("model.fit_ms", ms(fit.total_s), "ms");
        m.push("model.fits", fits, "count");
        m.push("model.fit_ms_per_fit", ratio(ms(fit.total_s), fits), "ms");
        m.push("model.predicts", self.counter("model.predicts"), "count");

        let trial = get("measure.trial");
        m.push("measure.trial_ms", ms(trial.total_s), "ms");
        m.push("measure.trials", self.counter("measure.trials"), "count");
        m.push("measure.retries", self.counter("measure.retries"), "count");
        m.push(
            "measure.invalid_trials",
            self.counter("measure.invalid_trials"),
            "count",
        );

        let step = get("tuner.step");
        let rounds = stats::summarize(&self.round_ms).ok_or("the traced run executed no round")?;
        m.push("tuner.step_self_ms", ms(step.self_s), "ms");
        m.push("tuner.rounds", rounds.n as f64, "count");
        m.push("tuner.round_ms_p50", rounds.median, "ms");
        m.push("tuner.round_ms_tail", rounds.tail, "ms");
        m.push("tuner.round_ms_tail_pct", rounds.tail_pct, "pct");

        let save = get(span::CHECKPOINT_SAVE);
        let resume = get(span::CHECKPOINT_RESUME);
        m.push("checkpoint.save_ms", ms(save.total_s), "ms");
        m.push("checkpoint.bytes", self.checkpoint_bytes as f64, "bytes");
        m.push("checkpoint.resume_ms", ms(resume.total_s), "ms");

        // Disjoint layer shares of the traced tuning phase: the solver
        // (wherever called), the cost-model fit, the simulator, the
        // checkpoint plane, and the self time of the CGA and tuner loop.
        let share = |s: f64| ratio(s, traced_wall_s);
        m.push("share.csp_solve", share(solve.total_s), "frac");
        m.push("share.model_fit", share(fit.total_s), "frac");
        m.push("share.measure_trial", share(trial.total_s), "frac");
        m.push(
            "share.checkpoint",
            share(save.total_s + resume.total_s),
            "frac",
        );
        m.push(
            "share.cga_self",
            share(evolve.self_s + populate.self_s),
            "frac",
        );
        m.push("share.tuner_self", share(step.self_s), "frac");
        Ok(())
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built tree on the simulated clock, so every duration is
    /// exact:
    ///
    /// ```text
    /// tuner.step 10s
    /// ├─ cga.evolve 6s
    /// │  ├─ csp.solve 2s
    /// │  └─ csp.solve 1s
    /// │     └─ csp.solve 0.5s (nested in a span of its own name)
    /// └─ model.fit 3s
    /// tuner.step 4s (no children)
    /// ```
    fn hand_built() -> Tracer {
        let t = Tracer::manual();
        {
            let _step = t.span("tuner.step");
            t.advance_s(0.5);
            {
                let _evolve = t.span("cga.evolve");
                t.advance_s(1.0);
                {
                    let _a = t.span("csp.solve");
                    t.advance_s(2.0);
                }
                {
                    let _b = t.span("csp.solve");
                    t.advance_s(0.25);
                    {
                        let _inner = t.span("csp.solve");
                        t.advance_s(0.5);
                    }
                    t.advance_s(0.25);
                }
                t.advance_s(2.0);
            }
            {
                let _fit = t.span("model.fit");
                t.advance_s(3.0);
            }
            t.advance_s(0.5);
        }
        {
            let _step = t.span("tuner.step");
            t.advance_s(4.0);
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let summary = check_trace(&hand_built().to_jsonl()).unwrap();
        let totals = span_totals(&profile_from_summary(&summary));
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;

        let step = totals["tuner.step"];
        assert_eq!(step.count, 2);
        assert!(close(step.total_s, 14.0));
        // 10 − (6 + 3) for the first step, all 4 s of the second.
        assert!(close(step.self_s, 5.0));

        let evolve = totals["cga.evolve"];
        assert!(close(evolve.total_s, 6.0) && close(evolve.self_s, 3.0));

        let solve = totals["csp.solve"];
        assert_eq!(solve.count, 3);
        // The nested solve lies inside its parent: 2 + 1, not 2 + 1 + 0.5.
        assert!(close(solve.total_s, 3.0));
        assert!(close(solve.self_s, 2.0 + 0.5 + 0.5));

        let fit = totals["model.fit"];
        assert!(close(fit.total_s, 3.0) && close(fit.self_s, 3.0));
    }

    #[test]
    fn shares_are_disjoint_fractions_of_the_traced_wall() {
        let tracer = hand_built();
        let mut attribution = Attribution {
            round_ms: vec![10_000.0, 4_000.0],
            ..Attribution::default()
        };
        attribution.absorb(&tracer);
        let mut m = Metrics::default();
        attribution.metrics(14.0, &mut m).unwrap();
        let get = |name: &str| m.get(name).unwrap();
        assert!((get("share.csp_solve") - 3.0 / 14.0).abs() < 1e-9);
        assert!((get("share.model_fit") - 3.0 / 14.0).abs() < 1e-9);
        assert!((get("share.cga_self") - 3.0 / 14.0).abs() < 1e-9);
        assert!((get("share.tuner_self") - 5.0 / 14.0).abs() < 1e-9);
        assert_eq!(get("share.checkpoint"), 0.0);
        assert_eq!(get("tuner.rounds"), 2.0);
        assert_eq!(get("csp.solve_calls"), 3.0);
    }
}
