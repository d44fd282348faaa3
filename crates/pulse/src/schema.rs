//! Structural validator for `heron-pulse-v2` documents.
//!
//! `heron_status` runs every input file through [`validate_pulse`]
//! before rendering, so a truncated or hand-edited `pulse.json` fails
//! with a named path instead of a blank dashboard. Beyond structure,
//! the validator enforces the schedule section's central invariant:
//! the critical segments form a contiguous chain from 0 to the
//! makespan whose durations sum *exactly* to `makespan_ns`.

use heron_trace::json::{want, want_arr, want_num, want_str};
use heron_trace::Json;

use crate::sli::PULSE_SCHEMA;

fn want_num_or_null(doc: &Json, path: &str, key: &str) -> Result<(), String> {
    match want(doc, path, key)? {
        Json::Num(_) | Json::Null => Ok(()),
        _ => Err(format!("{path}.{key}: expected a number or null")),
    }
}

/// The per-job SLI names every document carries (and the names an SLO
/// spec may reference per-job).
pub const SLI_KEYS: [&str; 6] = [
    "queue_wait_s",
    "recovery_max_s",
    "makespan_s",
    "ttfc_s",
    "sol_per_kprop",
    "rank_accuracy_final",
];

fn want_span(seg: &Json, path: &str) -> Result<(u64, u64), String> {
    let start = want_num(seg, path, "start_ns")? as u64;
    let end = want_num(seg, path, "end_ns")? as u64;
    if end < start {
        return Err(format!("{path}: end_ns {end} precedes start_ns {start}"));
    }
    Ok((start, end))
}

/// The `schedule` section: segment and lane structure, lane accounting,
/// and the exact critical-path telescope.
fn validate_schedule(schedule: &Json) -> Result<(), String> {
    let path = "$.schedule";
    let makespan_ns = want_num(schedule, path, "makespan_ns")? as u64;
    for (i, lane) in want_arr(schedule, path, "lanes")?.iter().enumerate() {
        let lane_path = format!("{path}.lanes[{i}]");
        want_num(lane, &lane_path, "worker")?;
        want_num(lane, &lane_path, "utilization")?;
        let busy = want_num(lane, &lane_path, "busy_ns")? as u64;
        let idle = want_num(lane, &lane_path, "idle_ns")? as u64;
        if busy.checked_add(idle) != Some(makespan_ns) {
            return Err(format!(
                "{lane_path}: busy {busy} + idle {idle} != makespan {makespan_ns}"
            ));
        }
    }
    // Critical segments, in model order, chain from 0 to the makespan,
    // so their durations telescope to exactly the chain's end.
    let mut cursor = 0u64;
    for (i, seg) in want_arr(schedule, path, "segments")?.iter().enumerate() {
        let seg_path = format!("{path}.segments[{i}]");
        want_str(seg, &seg_path, "job")?;
        want_num(seg, &seg_path, "attempt")?;
        want_num(seg, &seg_path, "slack_ns")?;
        let (start, end) = want_span(seg, &seg_path)?;
        let phase = want_str(seg, &seg_path, "phase")?;
        match (phase, want(seg, &seg_path, "worker")?) {
            ("run", Json::Num(_)) | ("queue" | "backoff", Json::Null) => {}
            ("run", _) => return Err(format!("{seg_path}.worker: run needs a lane")),
            ("queue" | "backoff", _) => {
                return Err(format!(
                    "{seg_path}.worker: `{phase}` segments carry no lane"
                ))
            }
            _ => return Err(format!("{seg_path}.phase: unknown phase `{phase}`")),
        }
        match want(seg, &seg_path, "critical")? {
            Json::Bool(false) => {}
            Json::Bool(true) if phase == "queue" => {
                return Err(format!("{seg_path}: queue segments are never critical"))
            }
            Json::Bool(true) => {
                if start != cursor {
                    return Err(format!(
                        "{seg_path}: critical chain gap — starts at {start}, previous ended at {cursor}"
                    ));
                }
                cursor = end;
            }
            _ => return Err(format!("{seg_path}.critical: expected a boolean")),
        }
    }
    if cursor != makespan_ns {
        return Err(format!(
            "{path}: critical chain ends at {cursor}, makespan is {makespan_ns}"
        ));
    }
    let declared = want_num(schedule, path, "critical_sum_ns")? as u64;
    if declared != cursor {
        return Err(format!(
            "{path}.critical_sum_ns: declared {declared}, critical segments sum to {cursor}"
        ));
    }
    Ok(())
}

/// Validates the structure of a `pulse.json` document.
///
/// # Errors
/// A message naming the offending JSON path.
pub fn validate_pulse(doc: &Json) -> Result<(), String> {
    let schema = want_str(doc, "$", "schema")?;
    if schema != PULSE_SCHEMA {
        return Err(format!(
            "$.schema: expected `{PULSE_SCHEMA}`, found `{schema}`"
        ));
    }
    let service = want(doc, "$", "service")?;
    for key in [
        "jobs",
        "completed",
        "preempted",
        "quarantined",
        "queued",
        "rejected",
        "reject_rate",
        "warnings",
        "workers",
    ] {
        want_num(service, "$.service", key)?;
    }
    let jobs = want_arr(doc, "$", "jobs")?;
    for (i, job) in jobs.iter().enumerate() {
        let path = format!("$.jobs[{i}]");
        want_str(job, &path, "id")?;
        want_str(job, &path, "state")?;
        for key in [
            "attempts",
            "recoveries",
            "postmortems",
            "rounds",
            "trials",
            "wall_s",
        ] {
            want_num(job, &path, key)?;
        }
        match want(job, &path, "termination")? {
            Json::Str(_) | Json::Null => {}
            _ => return Err(format!("{path}.termination: expected a string or null")),
        }
        let warnings = want_arr(job, &path, "warnings")?;
        if warnings.iter().any(|w| w.as_str().is_none()) {
            return Err(format!("{path}.warnings: expected strings"));
        }
        let slis = want(job, &path, "slis")?;
        for key in SLI_KEYS {
            want_num_or_null(slis, &format!("{path}.slis"), key)?;
        }
        let traj = want(job, &path, "trajectories")?;
        let acc = want_arr(traj, &format!("{path}.trajectories"), "batch_rank_accuracy")?;
        let props = want_arr(traj, &format!("{path}.trajectories"), "solver_propagations")?;
        if acc.len() != props.len() {
            return Err(format!(
                "{path}.trajectories: series lengths differ ({} vs {})",
                acc.len(),
                props.len()
            ));
        }
        let hot = want_arr(job, &path, "hot_spans")?;
        for (j, span) in hot.iter().enumerate() {
            let span_path = format!("{path}.hot_spans[{j}]");
            want_str(span, &span_path, "name")?;
            want_num(span, &span_path, "count")?;
            want_num(span, &span_path, "total_s")?;
        }
    }
    validate_schedule(want(doc, "$", "schedule")?)?;
    let slo = want(doc, "$", "slo")?;
    for key in ["pass", "warn", "breach"] {
        want_num(slo, "$.slo", key)?;
    }
    let rules = want_arr(slo, "$.slo", "rules")?;
    for (i, rule) in rules.iter().enumerate() {
        let path = format!("$.slo.rules[{i}]");
        want_str(rule, &path, "metric")?;
        let op = want_str(rule, &path, "op")?;
        if op != "<=" && op != ">=" {
            return Err(format!("{path}.op: expected `<=` or `>=`, found `{op}`"));
        }
        want_num(rule, &path, "threshold")?;
        want_num_or_null(rule, &path, "warn")?;
        want_num_or_null(rule, &path, "value")?;
        match want(rule, &path, "job")? {
            Json::Str(_) | Json::Null => {}
            _ => return Err(format!("{path}.job: expected a string or null")),
        }
        let verdict = want_str(rule, &path, "verdict")?;
        if !matches!(verdict, "pass" | "warn" | "breach") {
            return Err(format!("{path}.verdict: unknown verdict `{verdict}`"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{JobRun, ServiceRun};
    use crate::sli::build_pulse;
    use crate::slo::SloSpec;
    use heron_trace::json::parse;

    fn sample() -> Json {
        let run = ServiceRun {
            workers: 1,
            backoff_base_s: 1.0,
            checkpoint_every: 2,
            jobs: vec![JobRun {
                id: "a".to_string(),
                state: "completed".to_string(),
                attempt_ns: vec![1_000_000_000, 1_500_000_000],
                rounds: 3,
                trials: 12,
                termination: Some("trials-exhausted".to_string()),
                warnings: vec!["pulse.warn.heartbeat_stall attempt=1".to_string()],
                postmortems: 1,
                ..JobRun::default()
            }],
            rejected: Vec::new(),
        };
        let spec = SloSpec::parse("reject_rate <= 0.5\nmakespan_s <= 60 warn 30\n").unwrap();
        build_pulse(&run, &spec)
    }

    #[test]
    fn accepts_generated_documents_and_roundtrips() {
        let doc = sample();
        validate_pulse(&doc).expect("valid");
        let reparsed = parse(&doc.render_pretty()).expect("parses");
        validate_pulse(&reparsed).expect("still valid");
    }

    #[test]
    fn rejects_structural_damage_with_named_paths() {
        let base = sample().render();
        for (damage, want_msg) in [
            ("heron-pulse-v2", "heron-pulse-v1", "$.schema"),
            (
                "\"reject_rate\":0",
                "\"reject_rate\":\"0\"",
                "$.service.reject_rate",
            ),
            (
                "\"queue_wait_s\":1",
                "\"queue_wait_s\":true",
                "$.jobs[0].slis.queue_wait_s",
            ),
            ("\"verdict\":\"pass\"", "\"verdict\":\"ok\"", "verdict"),
            ("\"makespan_ns\":3", "\"makespan_ns\":4", "makespan"),
            (
                "\"critical_sum_ns\":3",
                "\"critical_sum_ns\":2",
                "$.schedule.critical_sum_ns",
            ),
            ("\"phase\":\"backoff\"", "\"phase\":\"nap\"", "phase"),
        ]
        .map(|(from, to, want)| (base.replace(from, to), want))
        {
            let doc = parse(&damage).expect("still JSON");
            let err = validate_pulse(&doc).unwrap_err();
            assert!(err.contains(want_msg), "want `{want_msg}` in `{err}`");
        }
    }
}
