//! Pulse-plane regression suite: per-job trace correlation and the
//! SLI/SLO engine.
//!
//! heron-pulse's contract extends the chaos proof from *results* to
//! *telemetry*: the merged service trace slices losslessly back into
//! per-job sub-traces (each a valid trace whose profile sums to that
//! job's recorded wall-clock), a recovered job's sub-trace is
//! byte-identical to an uninterrupted resume of the same checkpoint,
//! the whole derived plane — `pulse.json`, the SLO report, the
//! `heron_status` dashboard — is byte-identical across service reruns,
//! and every per-job schedule SLI equals a read of the document's own
//! schedule section, to the nanosecond.

use std::collections::BTreeMap;

use heron::pulse::{
    attach_slo, breach_count, build_pulse, render_dashboard, render_slo_report, validate_pulse,
    SloSpec,
};
use heron::serve::{parse_script, JobState, Supervisor};
use heron::trace::{check_trace, json, service_slice, slice_by_job, Json};
use heron_serve::build_session;

/// The shared chaos scenario: all three kill paths (crash after a
/// checkpoint, crash before any checkpoint, hang) on small jobs.
const SCRIPT: &str = "\
workers = 2
queue_capacity = 8
restart_budget = 2
checkpoint_every = 2
hang_grace_polls = 400
poll_interval_ms = 5

job a op=gemm shape=64x64x64 trials=32 seed=21
job b op=gemm shape=96x96x96 trials=32 seed=22 fault_rate=0.2
job c op=gemm shape=64x96x64 trials=24 seed=23

kill a attempt=0 round=3 kind=crash
kill b attempt=0 round=1 kind=crash
kill c attempt=0 round=2 kind=hang
";

fn run_service() -> Supervisor {
    let script = parse_script(SCRIPT).expect("script parses");
    let mut sup = Supervisor::from_script(script);
    sup.run();
    sup
}

#[test]
fn pulse_plane_is_byte_identical_across_service_runs() {
    let spec = SloSpec::parse(
        "\
reject_rate <= 0.5
recovery_max_s <= 60
queue_wait_s <= 120
",
    )
    .expect("spec parses");
    let first = build_pulse(&run_service().service_run(), &spec);
    let second = build_pulse(&run_service().service_run(), &spec);
    validate_pulse(&first).expect("valid pulse document");
    assert_eq!(
        first.render_pretty(),
        second.render_pretty(),
        "pulse.json diverged across reruns"
    );
    assert_eq!(render_slo_report(&first), render_slo_report(&second));
    assert_eq!(render_dashboard(&first, 3), render_dashboard(&second, 3));
    // The permissive spec passes; a tightened spec breaches — the gate
    // `heron_status --check` exits nonzero on.
    assert_eq!(breach_count(&first), 0, "{}", render_slo_report(&first));
    let tightened = SloSpec::parse("makespan_s <= 0.001\n").expect("spec parses");
    let rejudged = attach_slo(first, &tightened);
    assert!(breach_count(&rejudged) > 0, "tightened SLO must breach");
    // The hang (job c) surfaced its confirmed stall precursor.
    let jobs = rejudged.get("jobs").and_then(Json::as_arr).expect("jobs");
    let c = jobs
        .iter()
        .find(|j| j.get("id").and_then(Json::as_str) == Some("c"))
        .expect("job c");
    let warnings = c.get("warnings").and_then(Json::as_arr).expect("warnings");
    assert!(
        warnings
            .iter()
            .filter_map(Json::as_str)
            .any(|w| w.starts_with("pulse.warn.heartbeat_stall")),
        "job c should carry a heartbeat-stall warning"
    );
}

/// Two lanes, three jobs: `q` queues behind the others, `r` recovers
/// from a crash, and `p` crashes past its restart budget into
/// quarantine.
const CROSS_SCRIPT: &str = "\
workers = 2
queue_capacity = 8
restart_budget = 1
checkpoint_every = 2
hang_grace_polls = 400
poll_interval_ms = 5

job r op=gemm shape=64x64x64 trials=24 seed=51
job p op=gemm shape=48x48x48 trials=16 seed=52
job q op=gemm shape=32x32x32 trials=16 seed=53

kill r attempt=0 round=2 kind=crash
kill p attempt=0 round=1 kind=crash
kill p attempt=1 round=1 kind=crash
";

/// An SLI in seconds as rendered in pulse.json, back in nanoseconds
/// (`None` when null).
fn sli_ns(slis: &Json, key: &str) -> Option<u64> {
    let secs = slis.get(key).expect(key).as_f64()?;
    Some((secs * 1e9).round() as u64)
}

#[test]
fn per_job_slis_are_reads_of_the_schedule_section() {
    let script = parse_script(CROSS_SCRIPT).expect("script parses");
    let mut sup = Supervisor::from_script(script);
    sup.run();
    let rendered = build_pulse(&sup.service_run(), &SloSpec::empty()).render_pretty();
    let doc = json::parse(&rendered).expect("pulse.json parses");
    validate_pulse(&doc).expect("valid pulse document");
    let segments = doc
        .get("schedule")
        .and_then(|s| s.get("segments"))
        .and_then(Json::as_arr)
        .expect("schedule segments");
    let seg_u64 = |seg: &Json, key: &str| seg.get(key).and_then(Json::as_u64).expect(key);
    let rows = sup.rows();
    let jobs = doc.get("jobs").and_then(Json::as_arr).expect("jobs");
    assert_eq!(jobs.len(), 3);
    for job in jobs {
        let id = job.get("id").and_then(Json::as_str).expect("id");
        let slis = job.get("slis").expect("slis");
        let mine: Vec<&Json> = segments
            .iter()
            .filter(|s| s.get("job").and_then(Json::as_str) == Some(id))
            .collect();
        let is_run = |s: &Json| s.get("phase").and_then(Json::as_str) == Some("run");
        let runs: Vec<(u64, u64)> = mine
            .iter()
            .filter(|s| is_run(s))
            .map(|s| (seg_u64(s, "start_ns"), seg_u64(s, "end_ns")))
            .collect();
        let waits: u64 = mine
            .iter()
            .filter(|s| !is_run(s))
            .map(|s| seg_u64(s, "end_ns") - seg_u64(s, "start_ns"))
            .sum();
        let widest_gap = runs.windows(2).map(|w| w[1].0 - w[0].1).max().unwrap_or(0);
        let backoffs = mine
            .iter()
            .filter(|s| s.get("phase").and_then(Json::as_str) == Some("backoff"))
            .count() as u64;

        assert_eq!(sli_ns(slis, "queue_wait_s"), Some(waits), "{id}");
        assert_eq!(sli_ns(slis, "recovery_max_s"), Some(widest_gap), "{id}");
        let completed = job.get("state").and_then(Json::as_str) == Some("completed");
        let last_end = runs.last().filter(|_| completed).map(|run| run.1);
        assert_eq!(sli_ns(slis, "makespan_s"), last_end, "{id}: makespan_s");
        let recoveries = job.get("recoveries").and_then(Json::as_u64);
        assert_eq!(recoveries, Some(backoffs), "{id}: recoveries");
        // The supervisor's own count (manifest, JobRow) agrees.
        let row = rows.iter().find(|r| r.id == id).expect("row");
        assert_eq!(
            u64::from(row.recoveries),
            backoffs,
            "{id}: JobRow.recoveries"
        );
    }

    // The scenario really exercised all three paths.
    let sli = |id: &str, key: &str| {
        let job = jobs
            .iter()
            .find(|j| j.get("id").and_then(Json::as_str) == Some(id))
            .expect("job");
        sli_ns(job.get("slis").expect("slis"), key).unwrap_or(0)
    };
    assert_eq!(sup.state("r"), Some(JobState::Completed));
    assert_eq!(sup.state("p"), Some(JobState::Quarantined));
    assert_eq!(sup.state("q"), Some(JobState::Completed));
    assert!(sli("q", "queue_wait_s") > 0, "q queued behind r and p");
    assert!(sli("r", "recovery_max_s") > 0, "r recovered from its crash");
    let p = rows.iter().find(|r| r.id == "p").expect("p");
    assert_eq!((p.attempts, p.recoveries), (2, 1), "budget 1: one restart");
}

#[test]
fn merged_trace_slices_losslessly_and_sums_to_each_jobs_wall_clock() {
    let sup = run_service();
    let merged = sup.merged_trace_jsonl();
    let summary = check_trace(&merged).expect("merged trace validates");

    // Per-job span multiset of the merged trace, keyed by job id
    // (`-` = service-level / untagged).
    let mut expected: BTreeMap<String, Vec<(String, u64, u64)>> = BTreeMap::new();
    for span in &summary.spans {
        let key = span
            .ctx
            .as_ref()
            .map_or_else(|| "-".to_string(), |c| c.job.clone());
        expected
            .entry(key)
            .or_default()
            .push((span.name.clone(), span.t_open_ns, span.t_close_ns));
    }
    for spans in expected.values_mut() {
        spans.sort();
    }

    let slices = slice_by_job(&merged);
    assert_eq!(
        slices.keys().map(|s| s.as_str()).collect::<Vec<_>>(),
        ["a", "b", "c"],
        "every completed job slices out"
    );
    let mut reconstructed: BTreeMap<String, Vec<(String, u64, u64)>> = BTreeMap::new();
    for (job, slice) in &slices {
        let sub = check_trace(slice).expect("job slice validates standalone");
        // Exactness: the slice's top-level spans sum to the wall-clock
        // the worker recorded for the job's final attempt, to the ns.
        let wall_ns: u64 = sub
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.dur_ns())
            .sum();
        let report = sup.report(job).expect("completed job has a report");
        assert_eq!(
            wall_ns, report.wall_ns,
            "job `{job}` slice does not sum to its recorded wall-clock"
        );
        let mut spans: Vec<(String, u64, u64)> = sub
            .spans
            .iter()
            .map(|s| (s.name.clone(), s.t_open_ns, s.t_close_ns))
            .collect();
        spans.sort();
        reconstructed.insert(job.clone(), spans);
    }
    // The service-level remainder, plus every slice, reproduces the
    // merged trace's span multiset exactly: slicing is lossless.
    let service = check_trace(&service_slice(&merged)).expect("service slice validates");
    let mut spans: Vec<(String, u64, u64)> = service
        .spans
        .iter()
        .map(|s| (s.name.clone(), s.t_open_ns, s.t_close_ns))
        .collect();
    spans.sort();
    reconstructed.insert("-".to_string(), spans);
    assert_eq!(reconstructed, expected, "slicing lost or invented spans");
}

#[test]
fn recovered_job_slice_equals_the_uninterrupted_resume_suffix() {
    let script = parse_script(SCRIPT).expect("script parses");
    let specs = script.jobs.clone();
    let mut sup = Supervisor::from_script(script);
    sup.run();
    assert_eq!(sup.state("a"), Some(JobState::Completed));
    let slices = slice_by_job(&sup.merged_trace_jsonl());

    // Job `a` crashed after round 3 with a round-2 checkpoint: its
    // final attempt must trace byte-identically to checkpointing an
    // uninterrupted session at round 2 and resuming it to completion.
    let spec_a = &specs[0];
    let mut head = build_session(spec_a, None).expect("builds");
    for _ in 0..2 {
        assert!(head.step(), "session finished before the kill boundary");
    }
    let text = head.checkpoint().to_text();
    let mut resumed = build_session(spec_a, Some(&text)).expect("resumes");
    while resumed.step() {}
    assert_eq!(
        slices["a"],
        resumed.tracer().to_jsonl(),
        "job a's sub-trace is not the uninterrupted run's suffix"
    );

    // Job `b` crashed before any checkpoint: its final attempt is a
    // from-scratch rerun, so its sub-trace equals a fresh session's.
    let mut reference = build_session(&specs[1], None).expect("builds");
    while reference.step() {}
    assert_eq!(
        slices["b"],
        reference.tracer().to_jsonl(),
        "job b's sub-trace is not a fresh run's trace"
    );
}
