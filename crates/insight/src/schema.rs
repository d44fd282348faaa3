//! Structural schema validators for the two insight artifacts.
//!
//! These are what `scripts/verify.sh` and `bench_compare
//! --check-insight` run against freshly produced documents: they check
//! member presence and types, array element shapes, and cross-field
//! invariants (regret length = rounds, coverage in `[0,1]`, …) without
//! pulling in any external JSON-schema machinery.

use heron_trace::json::{self, Json};

// The validators report every problem, not just the first: each
// helper runs the shared path-carrying accessor and records a failed
// lookup in `errs` instead of returning it.

fn keep<T>(lookup: Result<T, String>, errs: &mut Vec<String>) -> Option<T> {
    lookup.map_err(|e| errs.push(e)).ok()
}

fn want_num(obj: &Json, key: &str, errs: &mut Vec<String>, ctx: &str) -> Option<f64> {
    keep(json::want_num(obj, ctx, key), errs)
}

fn want_num_or_null(obj: &Json, key: &str, errs: &mut Vec<String>, ctx: &str) {
    if let Some(v) = keep(json::want(obj, ctx, key), errs) {
        if !matches!(v, Json::Num(_) | Json::Null) {
            errs.push(format!("{ctx}.{key}: expected a number or null"));
        }
    }
}

fn want_str(obj: &Json, key: &str, errs: &mut Vec<String>, ctx: &str) -> Option<String> {
    keep(json::want_str(obj, ctx, key), errs).map(str::to_string)
}

fn want_arr<'a>(obj: &'a Json, key: &str, errs: &mut Vec<String>, ctx: &str) -> &'a [Json] {
    keep(json::want_arr(obj, ctx, key), errs).unwrap_or(&[])
}

fn want_obj<'a>(doc: &'a Json, key: &str, errs: &mut Vec<String>) -> Option<&'a Json> {
    match keep(json::want(doc, "$", key), errs)? {
        obj @ Json::Obj(_) => Some(obj),
        _ => {
            errs.push(format!("$.{key}: expected an object"));
            None
        }
    }
}

/// Validates an `insight.json` document against the
/// `heron-insight-v1` schema.
///
/// # Errors
/// Every structural problem found, one message each.
pub fn validate_insight(doc: &Json) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let mut rounds_declared = None;

    if let Some(meta) = want_obj(doc, "meta", &mut errs) {
        match want_str(meta, "schema", &mut errs, "meta") {
            Some(s) if s == "heron-insight-v1" => {}
            Some(s) => errs.push(format!(
                "meta: schema is `{s}`, expected `heron-insight-v1`"
            )),
            None => {}
        }
        want_str(meta, "workload", &mut errs, "meta");
        want_str(meta, "dla", &mut errs, "meta");
        want_num(meta, "seed", &mut errs, "meta");
        rounds_declared = want_num(meta, "rounds", &mut errs, "meta");
        want_num(meta, "trials", &mut errs, "meta");
    }

    if let Some(conv) = want_obj(doc, "convergence", &mut errs) {
        want_num(conv, "final_best_gflops", &mut errs, "convergence");
        want_num_or_null(conv, "convergence_round", &mut errs, "convergence");
        let regret = want_arr(conv, "regret", &mut errs, "convergence");
        if let Some(n) = rounds_declared {
            if regret.len() as f64 != n {
                errs.push(format!(
                    "convergence: regret has {} entries but meta.rounds is {n}",
                    regret.len()
                ));
            }
        }
        for (i, r) in regret.iter().enumerate() {
            match r.as_f64() {
                Some(v) if v >= -1e-9 => {}
                Some(v) => errs.push(format!("convergence: regret[{i}] = {v} is negative")),
                None => errs.push(format!("convergence: regret[{i}] is not a number")),
            }
        }
        for (i, w) in want_arr(conv, "stagnation_windows", &mut errs, "convergence")
            .iter()
            .enumerate()
        {
            let ctx = format!("stagnation_windows[{i}]");
            want_num(w, "start", &mut errs, &ctx);
            want_num(w, "len", &mut errs, &ctx);
        }
    }

    if let Some(search) = want_obj(doc, "search", &mut errs) {
        for key in [
            "entropy_first_bits",
            "entropy_last_bits",
            "entropy_min_bits",
            "diversity_first",
            "diversity_last",
            "explore_fraction",
        ] {
            want_num(search, key, &mut errs, "search");
        }
        for (i, v) in want_arr(search, "coverage", &mut errs, "search")
            .iter()
            .enumerate()
        {
            let ctx = format!("coverage[{i}]");
            want_str(v, "name", &mut errs, &ctx);
            want_num(v, "domain_size", &mut errs, &ctx);
            want_num(v, "seen", &mut errs, &ctx);
            if let Some(c) = want_num(v, "coverage", &mut errs, &ctx) {
                if !(0.0..=1.0).contains(&c) {
                    errs.push(format!("{ctx}: coverage {c} outside [0, 1]"));
                }
            }
        }
    }

    if let Some(model) = want_obj(doc, "model", &mut errs) {
        want_num(model, "refits", &mut errs, "model");
        for key in [
            "batch_rank_accuracy_mean",
            "batch_rank_accuracy_min",
            "batch_spearman_mean",
            "batch_spearman_min",
            "importance_churn_mean",
        ] {
            want_num_or_null(model, key, &mut errs, "model");
        }
        for (i, d) in want_arr(model, "importance_drift", &mut errs, "model")
            .iter()
            .enumerate()
        {
            let ctx = format!("importance_drift[{i}]");
            want_num(d, "round", &mut errs, &ctx);
            want_num(d, "jaccard", &mut errs, &ctx);
            want_num(d, "l1", &mut errs, &ctx);
        }
        for (i, f) in want_arr(model, "refit_history", &mut errs, "model")
            .iter()
            .enumerate()
        {
            let ctx = format!("refit_history[{i}]");
            want_num(f, "round", &mut errs, &ctx);
            want_num(f, "samples", &mut errs, &ctx);
            want_num(f, "train_rank_accuracy", &mut errs, &ctx);
            want_num(f, "train_spearman", &mut errs, &ctx);
            for (j, t) in want_arr(f, "top_importance", &mut errs, &ctx)
                .iter()
                .enumerate()
            {
                let tctx = format!("{ctx}.top_importance[{j}]");
                want_num(t, "feature", &mut errs, &tctx);
                want_num(t, "importance", &mut errs, &tctx);
            }
        }
    }

    if let Some(cons) = want_obj(doc, "constraints", &mut errs) {
        for key in [
            "repaired_offspring",
            "relaxed_constraints",
            "fallback_samples",
            "deadline_hits",
            "solver_attempts",
            "solver_propagations",
            "solver_wipeouts",
            "solver_max_trail",
            "solver_incremental",
        ] {
            want_num(cons, key, &mut errs, "constraints");
        }
    }

    let rounds = want_arr(doc, "rounds", &mut errs, "document");
    if let Some(n) = rounds_declared {
        if rounds.len() as f64 != n {
            errs.push(format!(
                "document: rounds has {} entries but meta.rounds is {n}",
                rounds.len()
            ));
        }
    }
    for (i, r) in rounds.iter().enumerate() {
        let ctx = format!("rounds[{i}]");
        for key in [
            "round",
            "trials_done",
            "best_gflops",
            "batch_best_gflops",
            "batch_mean_gflops",
            "batch_size",
            "exploit_picks",
            "explore_picks",
            "population",
            "distinct_solutions",
            "diversity",
            "entropy_bits",
            "repaired_offspring",
            "relaxed_constraints",
            "fallback_samples",
            "deadline_hits",
            "solver_attempts",
            "solver_propagations",
            "solver_wipeouts",
            "solver_max_trail",
            "solver_incremental",
        ] {
            want_num(r, key, &mut errs, &ctx);
        }
        want_num_or_null(r, "batch_rank_accuracy", &mut errs, &ctx);
        want_num_or_null(r, "batch_spearman", &mut errs, &ctx);
        match r.get("stalled") {
            Some(Json::Bool(_)) => {}
            _ => errs.push(format!("{ctx}: missing boolean `stalled`")),
        }
        if r.get("round").and_then(Json::as_u64) != Some(i as u64) {
            errs.push(format!("{ctx}: round index is not {i}"));
        }
    }

    for (i, w) in want_arr(doc, "warnings", &mut errs, "document")
        .iter()
        .enumerate()
    {
        let ctx = format!("warnings[{i}]");
        want_str(w, "code", &mut errs, &ctx);
        want_str(w, "message", &mut errs, &ctx);
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Validates a `BENCH_heron.json` document against the
/// `heron-bench-v1` schema.
///
/// # Errors
/// Every structural problem found, one message each.
pub fn validate_bench(doc: &Json) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    match want_str(doc, "schema", &mut errs, "document") {
        Some(s) if s == "heron-bench-v1" => {}
        Some(s) => errs.push(format!("schema is `{s}`, expected `heron-bench-v1`")),
        None => {}
    }
    want_num(doc, "seed", &mut errs, "document");
    want_num(doc, "trials", &mut errs, "document");
    want_num(doc, "geomean_gflops", &mut errs, "document");
    let workloads = want_arr(doc, "workloads", &mut errs, "document");
    if workloads.is_empty() && errs.is_empty() {
        errs.push("workloads array is empty".to_string());
    }
    let mut prev_name: Option<String> = None;
    for (i, w) in workloads.iter().enumerate() {
        let ctx = format!("workloads[{i}]");
        if let Some(name) = want_str(w, "name", &mut errs, &ctx) {
            if let Some(prev) = &prev_name {
                if *prev >= name {
                    errs.push(format!("{ctx}: workloads not sorted by name"));
                }
            }
            prev_name = Some(name);
        }
        for key in [
            "best_gflops",
            "best_latency_us",
            "trials",
            "valid_trials",
            "rounds",
            "hw_measure_s",
            "randsat_solutions",
            "randsat_propagations",
            "sol_per_kprop",
            "model_fits",
            "final_rank_accuracy",
        ] {
            if let Some(v) = want_num(w, key, &mut errs, &ctx) {
                if !v.is_finite() || v < 0.0 {
                    errs.push(format!("{ctx}: `{key}` = {v} is not a finite non-negative"));
                }
            }
        }
        // Added with the trail-based solver; absent from pre-trail
        // baselines, which must stay comparable (`BenchReport::from_json`
        // defaults them to 0). Present ⇒ must be well-formed.
        for key in ["randsat_max_trail", "incremental_hits"] {
            if let Some(v) = w.get(key) {
                match v.as_f64() {
                    Some(n) if n.is_finite() && n >= 0.0 => {}
                    _ => errs.push(format!("{ctx}: `{key}` is not a finite non-negative")),
                }
            }
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, bench::WorkloadBench, BenchReport, RoundRecord, SearchLog};

    #[test]
    fn produced_insight_json_validates() {
        let mut log = SearchLog::new("w", "d", 5, 4);
        log.set_vars(vec![("a".to_string(), 4)]);
        log.observe_assignment(&[1]);
        for i in 0..4u32 {
            let mut r = RoundRecord::new(i);
            r.best_gflops = 10.0 + f64::from(i);
            r.trials_done = (i + 1) * 2;
            r.batch_size = 2;
            r.population = 4;
            r.distinct_solutions = 3;
            r.diversity = 0.75;
            r.entropy_bits = 1.2;
            log.push_round(r);
        }
        let doc = analyze(&log).to_json(&log);
        validate_insight(&doc).expect("valid");
        // Reparsed text also validates (what verify.sh does).
        let reparsed = heron_trace::json::parse(&doc.render_pretty()).unwrap();
        validate_insight(&reparsed).expect("valid after roundtrip");
    }

    #[test]
    fn produced_bench_json_validates_and_mutations_fail() {
        let mut r = BenchReport::new(1, 8);
        r.push(WorkloadBench {
            name: "g".into(),
            best_gflops: 1.0,
            best_latency_us: 2.0,
            trials: 8,
            valid_trials: 8,
            rounds: 2,
            hw_measure_s: 0.1,
            randsat_solutions: 10,
            randsat_propagations: 100,
            sol_per_kprop: 100.0,
            randsat_max_trail: 6,
            incremental_hits: 3,
            model_fits: 1,
            final_rank_accuracy: 0.8,
        });
        let doc = r.to_json();
        validate_bench(&doc).expect("valid");

        let broken = heron_trace::json::parse(
            &doc.render()
                .replace("\"best_gflops\":1", "\"best_gflops\":\"x\""),
        )
        .unwrap();
        let errs = validate_bench(&broken).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("best_gflops")));

        let wrong = heron_trace::json::parse(r#"{"schema":"heron-bench-v1"}"#).unwrap();
        assert!(validate_bench(&wrong).is_err());
    }

    #[test]
    fn insight_mutations_fail() {
        let mut log = SearchLog::new("w", "d", 5, 4);
        let mut rec = RoundRecord::new(0);
        rec.batch_size = 1;
        log.push_round(rec);
        let doc = analyze(&log).to_json(&log);
        let text = doc.render();
        for (from, to) in [
            ("\"schema\":\"heron-insight-v1\"", "\"schema\":\"v0\""),
            ("\"regret\":[0]", "\"regret\":[]"),
            ("\"stalled\":false", "\"stalled\":0"),
        ] {
            let mutated = text.replace(from, to);
            assert_ne!(mutated, text, "mutation `{from}` did not apply");
            let parsed = heron_trace::json::parse(&mutated).unwrap();
            assert!(validate_insight(&parsed).is_err(), "accepted `{to}`");
        }
    }
}
