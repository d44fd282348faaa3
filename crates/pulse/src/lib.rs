//! `heron-pulse`: the service telemetry plane for `heron-serve`
//! (DESIGN.md §10).
//!
//! The crate folds a finished service run's deterministic projection
//! ([`ServiceRun`]: jobs in submission order, each with its settled
//! attempts and artifacts) into a schema-versioned `pulse.json`
//! document (`heron-pulse-v2`). The projection is first replayed into
//! the **service schedule** — per-worker occupancy, per-job
//! queue/run/backoff segments, and the critical path through the
//! makespan with per-segment CPM slack, all in integer nanoseconds —
//! and every schedule SLI (`queue_wait_s`, `recovery_max_s`,
//! `makespan_s`, `recoveries`) is a read off those segments, so the
//! SLIs and the document's `schedule` section cannot disagree. The
//! crate then evaluates a declarative SLO spec over the SLIs and
//! renders three human views: a pass/warn/breach SLO report, the
//! `heron_status` ops dashboard, and a text timeline of the schedule.
//!
//! Determinism contract: every SLI is defined in *simulated* time over
//! scheduling-independent inputs, so `pulse.json`, the SLO report, the
//! dashboard and the timeline are byte-identical across reruns of the
//! same service script (pinned by `tests/serve_pulse.rs` and the
//! verify.sh pulse stage).
//!
//! Module map:
//!
//! * [`run`] — the deterministic run projection ([`ServiceRun`]);
//! * [`schedule`] — the canonical list-scheduler replay, binding
//!   predecessors, critical path, slack;
//! * [`sli`] — SLI reads and `pulse.json` assembly;
//! * [`slo`] — the SLO spec grammar;
//! * [`schema`] — the structural validator with `$.path` errors;
//! * [`report`] — SLO report, dashboard and timeline renderers.
//!
//! # Example
//!
//! ```
//! use heron_pulse::{build_pulse, JobRun, ServiceRun, SloSpec};
//!
//! let run = ServiceRun {
//!     workers: 2,
//!     backoff_base_s: 0.5,
//!     checkpoint_every: 2,
//!     jobs: vec![JobRun {
//!         id: "g1".to_string(),
//!         state: "completed".to_string(),
//!         // Crashed after 1s, resumed after a 0.5s backoff, ran 2s.
//!         attempt_ns: vec![1_000_000_000, 2_000_000_000],
//!         ..JobRun::default()
//!     }],
//!     rejected: Vec::new(),
//! };
//! let spec = SloSpec::parse("reject_rate <= 0.25\n").unwrap();
//! let doc = build_pulse(&run, &spec);
//! heron_pulse::validate_pulse(&doc).unwrap();
//! assert_eq!(heron_pulse::breach_count(&doc), 0);
//! let schedule = doc.get("schedule").unwrap();
//! assert_eq!(schedule.get("makespan_ns").unwrap().as_u64(), Some(3_500_000_000));
//! ```

pub mod report;
pub mod run;
pub mod schedule;
pub mod schema;
pub mod sli;
pub mod slo;

pub use report::{render_dashboard, render_slo_report, render_timeline};
pub use run::{JobRun, ServiceRun};
pub use schedule::{build_schedule, LaneStats, Phase, Schedule, Segment};
pub use schema::{validate_pulse, SLI_KEYS};
pub use sli::{
    attach_slo, breach_count, build_pulse, judge_job_slis, sol_per_kprop_from_tsv, HOT_SPANS,
    PULSE_SCHEMA,
};
pub use slo::{SloOp, SloRule, SloSpec};
