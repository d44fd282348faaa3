//! The schedule model: a deterministic reconstruction of how a
//! service run occupied its worker pool (DESIGN.md §10) — the single
//! definition of service time every schedule SLI is read off.
//!
//! The real supervisor schedules over OS threads, so real start times
//! are racy. The model replays the run's *deterministic facts* — each
//! attempt's simulated duration and the backoff policy — through a
//! canonical list scheduler instead: pending attempts are picked by
//! `(ready_ns, submission order)`, assigned to the earliest-free lane
//! (ties to the lowest index), and every attempt chain threads one
//! backoff segment between each death and rebirth (zero-length when
//! the backoff base is 0), so a job's backoff segments count its
//! recoveries. All arithmetic is integer
//! nanoseconds, so the critical-path sum telescopes *exactly* to the
//! makespan — the validator checks equality, not closeness.
//!
//! Each run segment's **binding predecessor** is whichever constraint
//! actually held it back: the previous run on its lane (it waited in
//! queue), or its own backoff (it was ready the instant backoff
//! expired). Walking binding predecessors from the last-finishing run
//! yields the critical path, a contiguous chain from 0 to the
//! makespan. Slack comes from a standard CPM backward pass over the
//! job-chain and lane-succession edges; critical segments have zero.

use crate::run::ServiceRun;

/// What a segment of schedule time represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Ready but waiting for a free lane (no worker).
    Queue,
    /// Running on a lane.
    Run,
    /// Simulated recovery backoff between death and rebirth (no worker).
    Backoff,
}

impl Phase {
    /// The phase name as rendered into `pulse.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::Run => "run",
            Phase::Backoff => "backoff",
        }
    }
}

/// One reconstructed segment of schedule time.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Index into [`ServiceRun::jobs`] (submission order).
    pub job: usize,
    /// Attempt number the segment belongs to.
    pub attempt: u32,
    /// Queue, run, or backoff.
    pub phase: Phase,
    /// Lane for run segments; `None` for queue/backoff.
    pub worker: Option<usize>,
    /// Segment start, model nanoseconds.
    pub start_ns: u64,
    /// Segment end, model nanoseconds.
    pub end_ns: u64,
    /// CPM slack: how far the segment could slip without moving the
    /// makespan. Zero on the critical path.
    pub slack_ns: u64,
    /// Whether the segment is on the critical path.
    pub critical: bool,
}

impl Segment {
    /// Segment duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-lane occupancy accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStats {
    /// Nanoseconds the lane spent running attempts.
    pub busy_ns: u64,
    /// Nanoseconds the lane sat idle before the makespan.
    pub idle_ns: u64,
    /// Indices (into [`Schedule::segments`]) of this lane's run
    /// segments, in start order.
    pub runs: Vec<usize>,
}

/// The reconstructed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Every segment, in model-creation order (topological).
    pub segments: Vec<Segment>,
    /// Per-lane occupancy, lane 0 first.
    pub lanes: Vec<LaneStats>,
    /// Model makespan: the last run segment's end, nanoseconds.
    pub makespan_ns: u64,
    /// Indices (into [`Schedule::segments`]) of the critical path, in
    /// time order. Contiguous: starts at 0, ends at the makespan.
    pub critical: Vec<usize>,
}

/// The simulated backoff before attempt `k` (k ≥ 1), nanoseconds.
fn backoff_ns(base_s: f64, k: usize) -> u64 {
    (base_s * f64::powi(2.0, k as i32 - 1) * 1e9).round() as u64
}

/// Appends a segment and its bookkeeping rows, returning its index.
fn push(
    segments: &mut Vec<Segment>,
    succs: &mut Vec<Vec<usize>>,
    binding: &mut Vec<Option<usize>>,
    seg: Segment,
    pred: Option<usize>,
) -> usize {
    let idx = segments.len();
    segments.push(seg);
    succs.push(Vec::new());
    binding.push(pred);
    idx
}

/// Replays `run` through the canonical list scheduler.
pub fn build_schedule(run: &ServiceRun) -> Schedule {
    let workers = run.workers.max(1);
    let njobs = run.jobs.len();
    let mut free_at = vec![0u64; workers];
    let mut lane_last_run: Vec<Option<usize>> = vec![None; workers];
    let mut prev_run: Vec<Option<usize>> = vec![None; njobs];
    let mut segments: Vec<Segment> = Vec::new();
    // CPM edges (successor lists) and critical-walk predecessors, both
    // indexed like `segments`.
    let mut succs: Vec<Vec<usize>> = Vec::new();
    let mut binding: Vec<Option<usize>> = Vec::new();

    // Pending attempts: (ready_ns, submission order, attempt index).
    let mut pending: Vec<(u64, usize, usize)> = run
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| !j.attempt_ns.is_empty())
        .map(|(i, _)| (0u64, i, 0usize))
        .collect();

    while !pending.is_empty() {
        let pick = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(ready, seq, _))| (ready, seq))
            .map(|(i, _)| i)
            .expect("pending is non-empty");
        let (ready, job, attempt_idx) = pending.remove(pick);
        let attempt = attempt_idx as u32;
        let dur = run.jobs[job].attempt_ns[attempt_idx];

        // Backoff segment: from the previous attempt's death to ready.
        let run_pred_if_ready = prev_run[job].map(|pred| {
            let chain_end = segments[pred].end_ns;
            let b = push(
                &mut segments,
                &mut succs,
                &mut binding,
                Segment {
                    job,
                    attempt,
                    phase: Phase::Backoff,
                    worker: None,
                    start_ns: chain_end,
                    end_ns: ready,
                    slack_ns: 0,
                    critical: false,
                },
                Some(pred),
            );
            succs[pred].push(b);
            b
        });

        // Lane assignment: earliest-free lane, ties to the lowest index.
        let lane = (0..workers)
            .min_by_key(|&l| (free_at[l], l))
            .expect("workers >= 1");
        let start = ready.max(free_at[lane]);
        let queue_idx = if start > ready {
            Some(push(
                &mut segments,
                &mut succs,
                &mut binding,
                Segment {
                    job,
                    attempt,
                    phase: Phase::Queue,
                    worker: None,
                    start_ns: ready,
                    end_ns: start,
                    slack_ns: 0,
                    critical: false,
                },
                None,
            ))
        } else {
            None
        };

        // The run's binding predecessor: the lane if it queued, its
        // backoff (or chain) if it started the instant it was ready.
        let run_pred = if start > ready {
            lane_last_run[lane]
        } else {
            run_pred_if_ready
        };
        let run_idx = push(
            &mut segments,
            &mut succs,
            &mut binding,
            Segment {
                job,
                attempt,
                phase: Phase::Run,
                worker: Some(lane),
                start_ns: start,
                end_ns: start + dur,
                slack_ns: 0,
                critical: false,
            },
            run_pred,
        );
        // CPM edges: chain predecessor → run, lane predecessor → run.
        if let Some(p) = run_pred_if_ready {
            succs[p].push(run_idx);
        }
        if let Some(p) = lane_last_run[lane] {
            succs[p].push(run_idx);
        }
        if let Some(q) = queue_idx {
            // A queue segment slips with its run: same slack, set below.
            succs[q].push(run_idx);
        }
        free_at[lane] = start + dur;
        lane_last_run[lane] = Some(run_idx);
        prev_run[job] = Some(run_idx);

        // Release the next attempt of the chain after its backoff.
        if attempt_idx + 1 < run.jobs[job].attempt_ns.len() {
            let next_ready = start + dur + backoff_ns(run.backoff_base_s, attempt_idx + 1);
            pending.push((next_ready, job, attempt_idx + 1));
        }
    }

    let makespan_ns = segments
        .iter()
        .filter(|s| s.phase == Phase::Run)
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(0);

    // CPM backward pass: creation order is topological (every edge
    // points forward), so one reverse sweep computes latest finishes.
    let mut latest_finish = vec![makespan_ns; segments.len()];
    for i in (0..segments.len()).rev() {
        for &s in &succs[i] {
            let latest_start = latest_finish[s] - segments[s].dur_ns();
            latest_finish[i] = latest_finish[i].min(latest_start);
        }
        segments[i].slack_ns = latest_finish[i] - segments[i].end_ns;
    }

    // Critical path: binding predecessors back from the last finisher.
    let mut critical = Vec::new();
    if let Some(last) = segments
        .iter()
        .enumerate()
        .filter(|(_, s)| s.phase == Phase::Run && s.end_ns == makespan_ns)
        .map(|(i, _)| i)
        .next()
    {
        let mut cursor = Some(last);
        while let Some(i) = cursor {
            critical.push(i);
            segments[i].critical = true;
            cursor = binding[i];
        }
        critical.reverse();
    }

    let lanes = (0..workers)
        .map(|l| {
            let runs: Vec<usize> = segments
                .iter()
                .enumerate()
                .filter(|(_, s)| s.phase == Phase::Run && s.worker == Some(l))
                .map(|(i, _)| i)
                .collect();
            let busy_ns: u64 = runs.iter().map(|&i| segments[i].dur_ns()).sum();
            LaneStats {
                busy_ns,
                idle_ns: makespan_ns - busy_ns,
                runs,
            }
        })
        .collect();

    Schedule {
        segments,
        lanes,
        makespan_ns,
        critical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::JobRun;

    fn job(id: &str, state: &str, attempts_s: &[f64]) -> JobRun {
        JobRun {
            id: id.to_string(),
            state: state.to_string(),
            attempt_ns: attempts_s.iter().map(|s| (s * 1e9) as u64).collect(),
            ..JobRun::default()
        }
    }

    fn run(workers: usize, jobs: Vec<JobRun>) -> ServiceRun {
        ServiceRun {
            workers,
            backoff_base_s: 0.5,
            checkpoint_every: 2,
            jobs,
            rejected: Vec::new(),
        }
    }

    fn critical_sum(s: &Schedule) -> u64 {
        s.critical.iter().map(|&i| s.segments[i].dur_ns()).sum()
    }

    fn assert_contiguous(s: &Schedule) {
        let mut cursor = 0;
        for &i in &s.critical {
            assert_eq!(s.segments[i].start_ns, cursor, "critical chain gap");
            cursor = s.segments[i].end_ns;
        }
        assert_eq!(cursor, s.makespan_ns, "critical chain misses makespan");
        assert_eq!(critical_sum(s), s.makespan_ns);
    }

    #[test]
    fn single_job_chain_threads_backoffs_into_the_critical_path() {
        // crash after 2s, backoff 0.5s, rerun 3s: makespan 5.5s.
        let input = run(2, vec![job("a", "completed", &[2.0, 3.0])]);
        let s = build_schedule(&input);
        assert_eq!(s.makespan_ns, 5_500_000_000);
        let phases: Vec<Phase> = s.segments.iter().map(|x| x.phase).collect();
        assert_eq!(phases, vec![Phase::Run, Phase::Backoff, Phase::Run]);
        assert_eq!(s.critical.len(), 3, "run + backoff + run all critical");
        assert_contiguous(&s);
        assert!(s.segments.iter().all(|x| x.slack_ns == 0 || !x.critical));
    }

    #[test]
    fn contention_queues_jobs_and_binds_them_to_the_lane() {
        // One lane, two jobs: the second queues behind the first.
        let input = run(
            1,
            vec![job("a", "completed", &[4.0]), job("b", "completed", &[2.0])],
        );
        let s = build_schedule(&input);
        assert_eq!(s.makespan_ns, 6_000_000_000);
        let queue: Vec<&Segment> = s
            .segments
            .iter()
            .filter(|x| x.phase == Phase::Queue)
            .collect();
        assert_eq!(queue.len(), 1);
        assert_eq!(queue[0].job, 1);
        assert_eq!(queue[0].start_ns, 0);
        assert_eq!(queue[0].end_ns, 4_000_000_000);
        // Critical path: a's run then b's run, no queue segments.
        assert!(s
            .critical
            .iter()
            .all(|&i| s.segments[i].phase != Phase::Queue));
        assert_contiguous(&s);
        assert_eq!(s.lanes[0].busy_ns, 6_000_000_000);
        assert_eq!(s.lanes[0].idle_ns, 0);
    }

    #[test]
    fn off_path_jobs_carry_slack() {
        // Two lanes: a runs 5s (critical), b runs 2s with 3s of slack.
        let input = run(
            2,
            vec![job("a", "completed", &[5.0]), job("b", "completed", &[2.0])],
        );
        let s = build_schedule(&input);
        assert_eq!(s.makespan_ns, 5_000_000_000);
        let b_run = s
            .segments
            .iter()
            .find(|x| x.job == 1 && x.phase == Phase::Run)
            .expect("b ran");
        assert_eq!(b_run.slack_ns, 3_000_000_000);
        assert!(!b_run.critical);
        assert_contiguous(&s);
        assert_eq!(s.lanes[1].busy_ns, 2_000_000_000);
        assert_eq!(s.lanes[1].idle_ns, 3_000_000_000);
    }

    #[test]
    fn empty_runs_and_never_started_jobs_are_harmless() {
        let input = run(2, vec![job("a", "queued", &[])]);
        let s = build_schedule(&input);
        assert_eq!(s.makespan_ns, 0);
        assert!(s.segments.is_empty());
        assert!(s.critical.is_empty());
        assert_eq!(s.lanes.len(), 2);
    }

    #[test]
    fn a_zero_backoff_base_still_marks_every_restart() {
        let mut input = run(1, vec![job("a", "completed", &[1.0, 1.0, 1.0])]);
        input.backoff_base_s = 0.0;
        let s = build_schedule(&input);
        let backoffs: Vec<u64> = s
            .segments
            .iter()
            .filter(|x| x.phase == Phase::Backoff)
            .map(Segment::dur_ns)
            .collect();
        assert_eq!(backoffs, vec![0, 0], "one (empty) backoff per restart");
        assert_eq!(s.makespan_ns, 3_000_000_000);
        assert_contiguous(&s);
    }

    #[test]
    fn the_model_is_a_pure_function_of_its_input() {
        let input = run(
            2,
            vec![
                job("a", "completed", &[1.5, 2.5]),
                job("b", "completed", &[4.0]),
                job("c", "completed", &[1.0]),
            ],
        );
        let s1 = build_schedule(&input);
        let s2 = build_schedule(&input);
        assert_eq!(s1, s2);
        assert_contiguous(&s1);
    }
}
