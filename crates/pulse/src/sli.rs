//! SLI computation and `pulse.json` assembly (`heron-pulse-v2`).
//!
//! Every SLI is defined in **simulated time** over the deterministic
//! projection in [`crate::ServiceRun`] (DESIGN.md §10). The schedule
//! SLIs are reads off the reconstructed service schedule
//! ([`crate::build_schedule`]) — the very segments the document's
//! `schedule` section lists, so the two can never disagree:
//!
//! * `queue_wait_s` — the job's queue plus backoff segments: time it
//!   was waiting for a worker or recovering rather than running.
//! * `recovery_max_s` — the largest gap between two consecutive run
//!   segments of the job (0 with fewer than two).
//! * `makespan_s` — the end of the job's last run segment, measured
//!   from service start; null unless the job completed.
//! * `ttfc_s` — time to first checkpoint within the final attempt: the
//!   close timestamp of its `checkpoint_every`-th top-level
//!   `tuner.step` span (the attempt's wall-clock when it ran fewer
//!   rounds than a checkpoint period).
//! * `sol_per_kprop` — solver throughput, `1000·csp.solutions /
//!   csp.propagations` from the attempt's metrics snapshot.
//! * `rank_accuracy_final` — the last recorded per-round
//!   `batch_rank_accuracy` from the job's insight document.
//!
//! A job's `recoveries` is its number of backoff segments. The
//! document also carries per-round trajectories
//! (`batch_rank_accuracy`, `solver_propagations`), the top hottest
//! spans per job (via the trace slicer), the schedule itself, and the
//! SLO verdicts ([`attach_slo`]).

use heron_trace::json::{self, Json};
use heron_trace::{check_trace, Json as J};

use crate::run::{JobRun, ServiceRun};
use crate::schedule::{build_schedule, Phase, Schedule, Segment};
use crate::slo::{SloOp, SloSpec};

/// The schema identifier stamped into every document.
pub const PULSE_SCHEMA: &str = "heron-pulse-v2";

/// How many hottest spans each job records in `pulse.json`.
pub const HOT_SPANS: usize = 5;

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

/// Solver throughput from a metrics TSV snapshot:
/// `1000 · csp.solutions / csp.propagations`, or `None` when either
/// counter is missing or no propagation happened.
pub fn sol_per_kprop_from_tsv(tsv: &str) -> Option<f64> {
    let mut solutions: Option<f64> = None;
    let mut propagations: Option<f64> = None;
    for line in tsv.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 3 {
            continue;
        }
        match cols[0] {
            "csp.solutions" => solutions = cols[2].parse().ok(),
            "csp.propagations" => propagations = cols[2].parse().ok(),
            _ => {}
        }
    }
    match (solutions, propagations) {
        (Some(sol), Some(prop)) if prop > 0.0 => Some(1000.0 * sol / prop),
        _ => None,
    }
}

/// Per-round trajectories pulled from a job's insight document.
fn trajectories(insight_json: &str) -> (Json, Option<f64>) {
    let mut rank = Vec::new();
    let mut props = Vec::new();
    let mut rank_final = None;
    if let Ok(doc) = json::parse(insight_json) {
        if let Some(J::Arr(rounds)) = doc.get("rounds") {
            for round in rounds {
                let acc = round.get("batch_rank_accuracy").and_then(J::as_f64);
                if let Some(a) = acc {
                    rank_final = Some(a);
                }
                rank.push(opt_num(acc));
                props.push(opt_num(
                    round.get("solver_propagations").and_then(J::as_f64),
                ));
            }
        }
    }
    let traj = Json::Obj(vec![
        ("batch_rank_accuracy".to_string(), Json::Arr(rank)),
        ("solver_propagations".to_string(), Json::Arr(props)),
    ]);
    (traj, rank_final)
}

/// The job's hottest spans (name, count, total seconds) and its
/// time-to-first-checkpoint, both from the sliced session trace.
fn slice_stats(job: &JobRun, wall_ns: u64, checkpoint_every: u64) -> (Json, Option<f64>) {
    let Ok(summary) = check_trace(&job.trace_jsonl) else {
        return (Json::Arr(Vec::new()), None);
    };
    if summary.spans.is_empty() {
        return (Json::Arr(Vec::new()), None);
    }
    // Hottest spans: aggregate by name, total-time descending,
    // name-ascending on ties.
    let mut by_name: Vec<(String, u64, u64)> = Vec::new();
    for span in &summary.spans {
        match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += span.dur_ns();
            }
            None => by_name.push((span.name.clone(), 1, span.dur_ns())),
        }
    }
    by_name.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    let hot: Vec<Json> = by_name
        .iter()
        .take(HOT_SPANS)
        .map(|(name, count, total_ns)| {
            Json::Obj(vec![
                ("name".to_string(), s(name)),
                ("count".to_string(), num(*count as f64)),
                ("total_s".to_string(), num(*total_ns as f64 / 1e9)),
            ])
        })
        .collect();
    // Time to first checkpoint: close of the checkpoint_every-th
    // top-level tuner.step, else the attempt's whole wall-clock.
    let steps: Vec<u64> = summary
        .spans
        .iter()
        .filter(|sp| sp.parent == 0 && sp.name == "tuner.step")
        .map(|sp| sp.t_close_ns)
        .collect();
    let k = checkpoint_every.max(1) as usize;
    let ttfc_ns = if steps.is_empty() {
        wall_ns
    } else {
        steps.get(k - 1).copied().unwrap_or(wall_ns)
    };
    (Json::Arr(hot), Some(ttfc_ns as f64 / 1e9))
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// What the schedule says about one job, in nanoseconds.
#[derive(Default)]
struct JobReads {
    /// Queue plus backoff segments.
    wait_ns: u64,
    /// Largest gap between consecutive run segments.
    recovery_max_ns: u64,
    /// End of the last run segment.
    last_end_ns: u64,
    /// Backoff segments.
    recoveries: u64,
}

fn job_reads(schedule: &Schedule, job: usize) -> JobReads {
    let mut reads = JobReads::default();
    let mut prev_run_end = None;
    for seg in schedule.segments.iter().filter(|seg| seg.job == job) {
        match seg.phase {
            Phase::Queue => reads.wait_ns += seg.dur_ns(),
            Phase::Backoff => {
                reads.wait_ns += seg.dur_ns();
                reads.recoveries += 1;
            }
            Phase::Run => {
                if let Some(end) = prev_run_end {
                    reads.recovery_max_ns = reads.recovery_max_ns.max(seg.start_ns - end);
                }
                prev_run_end = Some(seg.end_ns);
                reads.last_end_ns = seg.end_ns;
            }
        }
    }
    reads
}

fn job_json(job: &JobRun, reads: &JobReads, checkpoint_every: u64) -> Json {
    let wall_ns = job.attempt_ns.last().copied().unwrap_or(0);
    let (hot_spans, ttfc_s) = slice_stats(job, wall_ns, checkpoint_every);
    let (traj, rank_final) = trajectories(&job.insight_json);
    let slis = Json::Obj(vec![
        ("queue_wait_s".to_string(), num(secs(reads.wait_ns))),
        (
            "recovery_max_s".to_string(),
            num(secs(reads.recovery_max_ns)),
        ),
        (
            "makespan_s".to_string(),
            if job.state == "completed" {
                num(secs(reads.last_end_ns))
            } else {
                Json::Null
            },
        ),
        ("ttfc_s".to_string(), opt_num(ttfc_s)),
        (
            "sol_per_kprop".to_string(),
            opt_num(sol_per_kprop_from_tsv(&job.metrics_tsv)),
        ),
        ("rank_accuracy_final".to_string(), opt_num(rank_final)),
    ]);
    Json::Obj(vec![
        ("id".to_string(), s(&job.id)),
        ("state".to_string(), s(&job.state)),
        ("attempts".to_string(), num(job.attempt_ns.len() as f64)),
        ("recoveries".to_string(), num(reads.recoveries as f64)),
        ("postmortems".to_string(), num(job.postmortems as f64)),
        ("rounds".to_string(), num(job.rounds as f64)),
        ("trials".to_string(), num(job.trials as f64)),
        (
            "termination".to_string(),
            job.termination.as_deref().map_or(Json::Null, s),
        ),
        ("wall_s".to_string(), num(secs(wall_ns))),
        (
            "warnings".to_string(),
            Json::Arr(job.warnings.iter().map(|w| s(w)).collect()),
        ),
        ("slis".to_string(), slis),
        ("trajectories".to_string(), traj),
        ("hot_spans".to_string(), hot_spans),
    ])
}

fn jobs_json(run: &ServiceRun, schedule: &Schedule) -> Json {
    Json::Arr(
        run.jobs
            .iter()
            .enumerate()
            .map(|(i, job)| job_json(job, &job_reads(schedule, i), run.checkpoint_every))
            .collect(),
    )
}

fn segment_json(run: &ServiceRun, seg: &Segment) -> Json {
    Json::Obj(vec![
        ("job".to_string(), s(&run.jobs[seg.job].id)),
        ("attempt".to_string(), num(f64::from(seg.attempt))),
        ("phase".to_string(), s(seg.phase.as_str())),
        (
            "worker".to_string(),
            seg.worker.map_or(Json::Null, |w| num(w as f64)),
        ),
        ("start_ns".to_string(), num(seg.start_ns as f64)),
        ("end_ns".to_string(), num(seg.end_ns as f64)),
        ("slack_ns".to_string(), num(seg.slack_ns as f64)),
        ("critical".to_string(), Json::Bool(seg.critical)),
    ])
}

/// The document's `schedule` section: every segment in model order
/// (critical ones flagged), per-lane occupancy, and the critical-path
/// sum the validator holds equal to the makespan.
fn schedule_json(run: &ServiceRun, schedule: &Schedule) -> Json {
    let makespan_ns = schedule.makespan_ns;
    let lanes = schedule
        .lanes
        .iter()
        .enumerate()
        .map(|(l, lane)| {
            let utilization = if makespan_ns > 0 {
                lane.busy_ns as f64 / makespan_ns as f64
            } else {
                0.0
            };
            Json::Obj(vec![
                ("worker".to_string(), num(l as f64)),
                ("busy_ns".to_string(), num(lane.busy_ns as f64)),
                ("idle_ns".to_string(), num(lane.idle_ns as f64)),
                ("utilization".to_string(), num(utilization)),
            ])
        })
        .collect();
    let critical_sum_ns: u64 = schedule
        .critical
        .iter()
        .map(|&i| schedule.segments[i].dur_ns())
        .sum();
    Json::Obj(vec![
        ("makespan_ns".to_string(), num(makespan_ns as f64)),
        ("critical_sum_ns".to_string(), num(critical_sum_ns as f64)),
        ("lanes".to_string(), Json::Arr(lanes)),
        (
            "segments".to_string(),
            Json::Arr(
                schedule
                    .segments
                    .iter()
                    .map(|seg| segment_json(run, seg))
                    .collect(),
            ),
        ),
    ])
}

/// Assembles the `pulse.json` document for a finished service run and
/// evaluates the SLO spec into its `slo` section.
pub fn build_pulse(run: &ServiceRun, spec: &SloSpec) -> Json {
    let schedule = build_schedule(run);
    let count = |state: &str| run.jobs.iter().filter(|j| j.state == state).count() as f64;
    let admitted = run.jobs.len() as f64;
    let rejected = run.rejected.len() as f64;
    let reject_rate = if admitted + rejected > 0.0 {
        rejected / (admitted + rejected)
    } else {
        0.0
    };
    let warnings: usize = run.jobs.iter().map(|j| j.warnings.len()).sum();
    let service = Json::Obj(vec![
        ("jobs".to_string(), num(admitted)),
        ("completed".to_string(), num(count("completed"))),
        ("preempted".to_string(), num(count("preempted"))),
        ("quarantined".to_string(), num(count("quarantined"))),
        ("queued".to_string(), num(count("queued"))),
        ("rejected".to_string(), num(rejected)),
        ("reject_rate".to_string(), num(reject_rate)),
        ("warnings".to_string(), num(warnings as f64)),
        ("workers".to_string(), num(run.workers.max(1) as f64)),
    ]);
    let doc = Json::Obj(vec![
        ("schema".to_string(), s(PULSE_SCHEMA)),
        ("service".to_string(), service),
        ("jobs".to_string(), jobs_json(run, &schedule)),
        ("schedule".to_string(), schedule_json(run, &schedule)),
    ]);
    attach_slo(doc, spec)
}

/// The SLO rules of `spec` judged over `run`'s per-job SLIs alone (no
/// service section, so service-level rules find no sample and pass):
/// the `rules` array of [`attach_slo`]. The postmortem's at-death
/// verdicts call this on a one-job run of the dying job's settled
/// attempts, whose schedule no neighbour can perturb.
pub fn judge_job_slis(run: &ServiceRun, spec: &SloSpec) -> Json {
    let doc = Json::Obj(vec![(
        "jobs".to_string(),
        jobs_json(run, &build_schedule(run)),
    )]);
    attach_slo(doc, spec)
        .get("slo")
        .and_then(|slo| slo.get("rules"))
        .cloned()
        .unwrap_or_else(|| Json::Arr(Vec::new()))
}

/// The `(job, value)` samples a metric name resolves to: the service
/// SLI of that name if one exists, else the non-null per-job SLI from
/// every job. Unknown names resolve to no samples (the rule passes and
/// its report row says so).
fn metric_samples(doc: &Json, metric: &str) -> Vec<(Option<String>, f64)> {
    if let Some(v) = doc.get("service").and_then(|svc| svc.get(metric)) {
        if let Some(n) = v.as_f64() {
            return vec![(None, n)];
        }
    }
    let mut samples = Vec::new();
    if let Some(J::Arr(jobs)) = doc.get("jobs") {
        for job in jobs {
            let id = job.get("id").and_then(J::as_str).unwrap_or("?").to_string();
            if let Some(v) = job
                .get("slis")
                .and_then(|slis| slis.get(metric))
                .and_then(J::as_f64)
            {
                samples.push((Some(id), v));
            }
        }
    }
    samples
}

/// Evaluates `spec` against the SLIs already in `doc` and replaces (or
/// adds) the document's `slo` section. `heron_status --slo` uses this
/// to re-judge an existing `pulse.json` under a different spec.
pub fn attach_slo(doc: Json, spec: &SloSpec) -> Json {
    let mut rules = Vec::new();
    let (mut pass, mut warn, mut breach) = (0u32, 0u32, 0u32);
    for rule in &spec.rules {
        let samples = metric_samples(&doc, &rule.metric);
        // Worst sample: the one closest to (or furthest past) the bound.
        let worst = samples.iter().reduce(|a, b| match rule.op {
            SloOp::Le => {
                if b.1 > a.1 {
                    b
                } else {
                    a
                }
            }
            SloOp::Ge => {
                if b.1 < a.1 {
                    b
                } else {
                    a
                }
            }
        });
        let verdict = match worst {
            None => "pass",
            Some((_, v)) if rule.op.violates(*v, rule.threshold) => "breach",
            Some((_, v)) if rule.warn.is_some_and(|w| rule.op.violates(*v, w)) => "warn",
            Some(_) => "pass",
        };
        match verdict {
            "breach" => breach += 1,
            "warn" => warn += 1,
            _ => pass += 1,
        }
        rules.push(Json::Obj(vec![
            ("metric".to_string(), s(&rule.metric)),
            ("op".to_string(), s(rule.op.symbol())),
            ("threshold".to_string(), num(rule.threshold)),
            ("warn".to_string(), opt_num(rule.warn)),
            ("value".to_string(), opt_num(worst.map(|(_, v)| *v))),
            (
                "job".to_string(),
                worst
                    .and_then(|(job, _)| job.as_deref())
                    .map_or(Json::Null, s),
            ),
            ("verdict".to_string(), s(verdict)),
        ]));
    }
    let slo = Json::Obj(vec![
        ("rules".to_string(), Json::Arr(rules)),
        ("pass".to_string(), num(f64::from(pass))),
        ("warn".to_string(), num(f64::from(warn))),
        ("breach".to_string(), num(f64::from(breach))),
    ]);
    match doc {
        Json::Obj(mut members) => {
            members.retain(|(k, _)| k != "slo");
            members.push(("slo".to_string(), slo));
            Json::Obj(members)
        }
        other => other,
    }
}

/// The number of breached rules in a pulse document (0 when absent).
pub fn breach_count(doc: &Json) -> u64 {
    doc.get("slo")
        .and_then(|slo| slo.get("breach"))
        .and_then(J::as_u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_trace::Tracer;

    fn session_trace(steps: usize, per_step_s: f64) -> (String, u64) {
        let t = Tracer::manual();
        for _ in 0..steps {
            let _s = t.span("tuner.step");
            {
                let _m = t.span("measure.batch");
                t.advance_s(per_step_s / 2.0);
            }
            t.advance_s(per_step_s / 2.0);
        }
        (t.to_jsonl(), t.now_ns())
    }

    /// A completed job whose first `crashes` attempts die after 1s each
    /// and whose final attempt runs 4 rounds of 2s.
    fn job(id: &str, crashes: usize) -> JobRun {
        let (trace_jsonl, wall_ns) = session_trace(4, 2.0);
        let mut attempt_ns = vec![1_000_000_000; crashes];
        attempt_ns.push(wall_ns);
        JobRun {
            id: id.to_string(),
            state: "completed".to_string(),
            attempt_ns,
            rounds: 4,
            trials: 16,
            termination: Some("trials-exhausted".to_string()),
            metrics_tsv: "metric\ttype\tvalue\ncsp.solutions\tcounter\t50\ncsp.propagations\tcounter\t20000\n".to_string(),
            trace_jsonl,
            ..JobRun::default()
        }
    }

    fn run(workers: usize, jobs: Vec<JobRun>) -> ServiceRun {
        ServiceRun {
            workers,
            backoff_base_s: 0.5,
            checkpoint_every: 2,
            jobs,
            rejected: vec![("r1".to_string(), "queue full".to_string())],
        }
    }

    fn slis(doc: &Json, job: usize) -> &Json {
        let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap();
        jobs[job].get("slis").unwrap()
    }

    #[test]
    fn slis_are_exact_in_simulated_time() {
        let doc = build_pulse(&run(2, vec![job("a", 2)]), &SloSpec::empty());
        let slis = slis(&doc, 0);
        let get = |k: &str| slis.get(k).and_then(Json::as_f64).unwrap();
        // run 0–1, backoff 0.5, run 1.5–2.5, backoff 1.0, run 3.5–11.5:
        // waits 0.5 + 1.0; widest gap 1.0; last run ends at 11.5s;
        // ttfc = close of the final attempt's 2nd step = 4s;
        // 1000·50/20000 = 2.5.
        assert_eq!(get("queue_wait_s"), 1.5);
        assert_eq!(get("recovery_max_s"), 1.0);
        assert_eq!(get("makespan_s"), 11.5);
        assert_eq!(get("ttfc_s"), 4.0);
        assert_eq!(get("sol_per_kprop"), 2.5);
        assert_eq!(slis.get("rank_accuracy_final"), Some(&Json::Null));
        let a = &doc.get("jobs").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(a.get("attempts").and_then(Json::as_u64), Some(3));
        assert_eq!(a.get("recoveries").and_then(Json::as_u64), Some(2));
        assert_eq!(a.get("wall_s").and_then(Json::as_f64), Some(8.0));
        // reject_rate = 1 rejected / (1 admitted + 1 rejected).
        assert_eq!(
            doc.get("service").unwrap().get("reject_rate"),
            Some(&Json::Num(0.5))
        );
        let hot = a.get("hot_spans").and_then(Json::as_arr).unwrap();
        assert_eq!(
            hot[0].get("name").and_then(Json::as_str),
            Some("tuner.step")
        );
        assert_eq!(hot[0].get("total_s").and_then(Json::as_f64), Some(8.0));
    }

    #[test]
    fn waiting_behind_a_neighbour_is_queue_wait() {
        // One lane: b queues for a's whole 8s run.
        let doc = build_pulse(&run(1, vec![job("a", 0), job("b", 0)]), &SloSpec::empty());
        let b = slis(&doc, 1);
        assert_eq!(b.get("queue_wait_s"), Some(&Json::Num(8.0)));
        assert_eq!(b.get("recovery_max_s"), Some(&Json::Num(0.0)));
        assert_eq!(b.get("makespan_s"), Some(&Json::Num(16.0)));
        let schedule = doc.get("schedule").unwrap();
        assert_eq!(
            schedule.get("makespan_ns").and_then(Json::as_u64),
            schedule.get("critical_sum_ns").and_then(Json::as_u64)
        );
    }

    #[test]
    fn slo_verdicts_pass_warn_breach_and_name_the_worst_job() {
        let spec = SloSpec::parse(
            "\
reject_rate <= 0.6
queue_wait_s <= 1.0
sol_per_kprop >= 1.0 warn 3.0
",
        )
        .unwrap();
        let doc = build_pulse(&run(2, vec![job("a", 0), job("b", 2)]), &spec);
        let slo = doc.get("slo").unwrap();
        assert_eq!(slo.get("pass").and_then(Json::as_u64), Some(1));
        assert_eq!(slo.get("warn").and_then(Json::as_u64), Some(1));
        assert_eq!(slo.get("breach").and_then(Json::as_u64), Some(1));
        assert_eq!(breach_count(&doc), 1);
        let rules = slo.get("rules").and_then(Json::as_arr).unwrap();
        // queue_wait_s breaches via job b (1.5 > 1.0).
        assert_eq!(
            rules[1].get("verdict").and_then(Json::as_str),
            Some("breach")
        );
        assert_eq!(rules[1].get("job").and_then(Json::as_str), Some("b"));
        assert_eq!(rules[1].get("value").and_then(Json::as_f64), Some(1.5));
        // sol_per_kprop 2.5 ≥ 1.0 but < warn 3.0.
        assert_eq!(rules[2].get("verdict").and_then(Json::as_str), Some("warn"));
        // Re-judging under a looser spec flips the breach to pass.
        let loose = SloSpec::parse("queue_wait_s <= 10\n").unwrap();
        let rejudged = attach_slo(doc, &loose);
        assert_eq!(breach_count(&rejudged), 0);
    }

    #[test]
    fn job_only_judgement_ignores_service_members() {
        let spec = SloSpec::parse("reject_rate <= 0.1\nqueue_wait_s <= 1\n").unwrap();
        let rules = judge_job_slis(&run(2, vec![job("b", 2)]), &spec);
        let verdicts: Vec<&str> = rules
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|r| r.get("verdict").and_then(Json::as_str))
            .collect();
        assert_eq!(verdicts, ["pass", "breach"]);
    }

    #[test]
    fn document_is_byte_stable() {
        let spec = SloSpec::parse("reject_rate <= 1\n").unwrap();
        let a = build_pulse(&run(2, vec![job("a", 1)]), &spec).render_pretty();
        let b = build_pulse(&run(2, vec![job("a", 1)]), &spec).render_pretty();
        assert_eq!(a, b);
        assert!(a.contains("heron-pulse-v2"));
    }
}
