//! The deterministic projection of a finished service run that every
//! pulse artifact is derived from: the service schedule, the per-job
//! SLIs, and the postmortem's at-death SLO verdicts.
//!
//! Everything here is a deterministic function of (job script, seeds,
//! chaos plan): submission order, each settled attempt's simulated
//! duration, manifest-grade job facts and per-job artifacts.
//! Scheduling-dependent data (event interleavings, real worker ids,
//! host wall-clock) is deliberately *absent*, which is what makes
//! `pulse.json` byte-identical across reruns of the same script.

/// One admitted job's deterministic outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobRun {
    /// Job id.
    pub id: String,
    /// Final lifecycle state, rendered (`completed`, `quarantined`, …).
    pub state: String,
    /// Simulated nanoseconds each settled attempt ran before it ended
    /// (completed, preempted, crashed, hung or failed), in attempt
    /// order; empty for jobs that never ran.
    pub attempt_ns: Vec<u64>,
    /// Lifetime rounds (0 when never reported).
    pub rounds: u64,
    /// Trials completed.
    pub trials: u64,
    /// Final termination for completed jobs.
    pub termination: Option<String>,
    /// Anomaly warnings recorded by the supervisor (`pulse.warn.*`).
    pub warnings: Vec<String>,
    /// Per-job `insight.json` (empty when unavailable).
    pub insight_json: String,
    /// Final attempt's metrics snapshot TSV (empty when unavailable).
    pub metrics_tsv: String,
    /// Final attempt's session trace (ctx-stripped slice; empty when
    /// unavailable).
    pub trace_jsonl: String,
    /// Postmortem bundles emitted for this job (crash/hang/quarantine
    /// deaths; deterministic under a fixed chaos plan).
    pub postmortems: u64,
}

/// The whole service run, ready for [`crate::build_pulse`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRun {
    /// Worker pool size the schedule is reconstructed over.
    pub workers: usize,
    /// Recovery backoff base in simulated seconds (doubles per retry).
    pub backoff_base_s: f64,
    /// Periodic checkpoint cadence in rounds (0 = only on preempt).
    pub checkpoint_every: u64,
    /// Every admitted job in submission order — the schedule's
    /// tie-breaker.
    pub jobs: Vec<JobRun>,
    /// Rejected submissions as `(id, reason)` in submission order.
    pub rejected: Vec<(String, String)>,
}
