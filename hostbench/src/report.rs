//! Result assembly: named metrics, outcome accounting, the environment
//! stamp, and the JSON documents the benchmark prints and writes.

use heron_trace::Json;

use crate::stats;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let entry = Json::Obj(vec![
                        ("value".to_string(), Json::Num(*value)),
                        ("unit".to_string(), Json::Str((*unit).to_string())),
                    ]);
                    (name.clone(), entry)
                })
                .collect(),
        )
    }
}

/// How one submitted tune or service job ended, for failure accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job ran and reported a result.
    Finished {
        /// Whether it ended `TrialsExhausted`; any other termination
        /// (infeasible, starved, space exhausted) is a failed job.
        exhausted: bool,
        /// Trials attempted.
        trials: usize,
        /// Trials that produced no measurement: invalid, timed out past
        /// every retry, or quarantined (all counted in `invalid_trials`).
        failed_trials: usize,
    },
    /// Rejected at admission or quarantined by the supervisor: the job
    /// produced nothing, so its whole trial budget counts as failed.
    Lost {
        /// The job's trial budget.
        budget: usize,
    },
}

/// Failure counts over the jobs of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that did not end `TrialsExhausted`.
    pub failed_jobs: usize,
    /// Trials attempted, lost jobs' budgets included.
    pub trials: usize,
    /// Trials without a measurement, lost jobs' budgets included.
    pub failed_trials: usize,
}

impl Tally {
    /// Counts one job.
    pub fn add(&mut self, outcome: JobOutcome) {
        self.jobs += 1;
        match outcome {
            JobOutcome::Finished {
                exhausted,
                trials,
                failed_trials,
            } => {
                self.failed_jobs += usize::from(!exhausted);
                self.trials += trials;
                self.failed_trials += failed_trials;
            }
            JobOutcome::Lost { budget } => {
                self.failed_jobs += 1;
                self.trials += budget;
                self.failed_trials += budget;
            }
        }
    }

    /// Failed over submitted jobs (0 when none were submitted).
    pub fn job_fail_frac(&self) -> f64 {
        crate::layers::ratio(self.failed_jobs as f64, self.jobs as f64)
    }

    /// Failed over attempted trials (0 when none were attempted).
    pub fn trial_fail_frac(&self) -> f64 {
        crate::layers::ratio(self.failed_trials as f64, self.trials as f64)
    }

    /// Pushes the two end-to-end success fractions. They are reported
    /// as `1 − fail_frac` so that a healthy run reads 1, never 0.
    pub fn push_metrics(&self, m: &mut Metrics) {
        m.push("trial_ok_frac", 1.0 - self.trial_fail_frac(), "frac");
        m.push("job_ok_frac", 1.0 - self.job_fail_frac(), "frac");
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.jobs += other.jobs;
        self.failed_jobs += other.failed_jobs;
        self.trials += other.trials;
        self.failed_trials += other.failed_trials;
    }
}

/// Peak resident set of this process, MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn proc_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// CPU seconds (user + system) this process has used, all threads
/// included, from `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Where and how this result was produced. Results from different
/// machines, compilers or builds are not comparable.
pub fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::Obj(vec![
        ("nproc".to_string(), Json::Num(nproc as f64)),
        (
            "rustc".to_string(),
            Json::Str(env!("HOSTBENCH_RUSTC").to_string()),
        ),
        (
            "profile".to_string(),
            Json::Str(env!("HOSTBENCH_PROFILE").to_string()),
        ),
        ("commit".to_string(), Json::Str(commit())),
    ])
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
                .unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// A timing as JSON: sample count, median, tail percentile and the
/// samples themselves; `None` without samples.
pub fn timing_json(samples: &[f64]) -> Option<Json> {
    let s = stats::summarize(samples)?;
    Some(Json::Obj(vec![
        ("n".to_string(), Json::Num(s.n as f64)),
        ("median".to_string(), Json::Num(s.median)),
        ("tail_pct".to_string(), Json::Num(s.tail_pct)),
        ("tail".to_string(), Json::Num(s.tail)),
        (
            "samples".to_string(),
            Json::Arr(samples.iter().map(|&x| Json::Num(x)).collect()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(trials: usize, failed_trials: usize) -> JobOutcome {
        JobOutcome::Finished {
            exhausted: true,
            trials,
            failed_trials,
        }
    }

    #[test]
    fn lost_jobs_count_as_failed_jobs_and_failed_trials() {
        let mut t = Tally::default();
        t.add(finished(100, 4));
        // A rejected or quarantined job: its whole budget failed.
        t.add(JobOutcome::Lost { budget: 80 });
        t.add(finished(120, 0));
        t.add(JobOutcome::Lost { budget: 100 });
        assert_eq!(t.jobs, 4);
        assert_eq!(t.failed_jobs, 2);
        assert_eq!(t.job_fail_frac(), 0.5);
        assert_eq!(t.trials, 400);
        assert_eq!(t.failed_trials, 184);
        assert!((t.trial_fail_frac() - 0.46).abs() < 1e-12);
        let mut m = Metrics::default();
        t.push_metrics(&mut m);
        assert!((m.get("trial_ok_frac").unwrap() - 0.54).abs() < 1e-12);
        assert_eq!(m.get("job_ok_frac"), Some(0.5));
    }

    #[test]
    fn a_finished_job_that_did_not_exhaust_its_trials_failed() {
        let mut t = Tally::default();
        t.add(JobOutcome::Finished {
            exhausted: false,
            trials: 40,
            failed_trials: 0,
        });
        t.add(finished(300, 0));
        assert_eq!(t.job_fail_frac(), 0.5);
        assert_eq!(t.trial_fail_frac(), 0.0);
    }

    #[test]
    fn an_empty_run_reports_no_failures() {
        let t = Tally::default();
        assert_eq!((t.job_fail_frac(), t.trial_fail_frac()), (0.0, 0.0));
    }
}
