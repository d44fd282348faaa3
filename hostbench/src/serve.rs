//! The `serve-recovery` workload: the tuner under the `heron-serve`
//! supervisor, with per-round checkpoints and two planned crashes.
//!
//! The supervisor and its workers trace on the simulated clock, so the
//! traced run cannot read host time from their spans. It instead
//! replays every job on its own through the same session constructor
//! the workers use (`build_session`), checkpointing each round and
//! resuming at the planned crash rounds exactly as the service does,
//! and attributes the replay's host time to layers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_csp::SolveSession;
use heron_rng::SplitMix64;
use heron_serve::{build_session, chaos, parse_script, JobScript, JobSpec, JobState, Supervisor};
use heron_trace::{TraceContext, Tracer};

use crate::host::Speed;
use crate::layers::{span, Attribution};
use crate::report::{process_cpu_s, JobOutcome, Metrics, Tally};
use crate::{job_seeds, stats, time_for, Run, MAX_SEEDS, SETUP_REPS};

/// The job mix: `(id, op, shape, trials, fault_rate)`. GEMM and C2D
/// sessions of different sizes on the default platform (V100), one of
/// them on a device that fails 10% of measurements. The budgets are
/// small, so that a service run takes about 1 s and a timed run covers
/// some thirty scripts: a script's wall time varies by ±20% with its
/// job seeds.
const JOBS: [(&str, &str, &str, usize, f64); 6] = [
    ("s1", "gemm", "256x256x256", 50, 0.0),
    ("s2", "c2d", "1x28x28x128x128x3x1x1", 60, 0.0),
    ("s3", "gemm", "512x128x256", 40, 0.1),
    ("s4", "c2d", "8x14x14x256x256x3x1x1", 45, 0.0),
    ("s5", "gemm", "128x512x512", 55, 0.0),
    ("s6", "c2d", "1x56x56x64x64x1x0x1", 50, 0.0),
];

/// Scripts every timed run covers, whatever `--seconds` says; the
/// search-quality metrics are taken over them, so that they are fixed
/// by `--seed`.
const MIN_SCRIPTS: usize = 24;

/// Jobs whose first attempt crashes mid-run.
const CRASHED: [&str; 2] = ["s1", "s4"];

/// The job script for `seed`: job seeds and crash rounds are drawn from
/// it. A crash comes in round 2–4: after the first checkpoint, and
/// before the last round of the shortest crashed job (45 trials in
/// batches of 8). All jobs are admitted at once onto two workers;
/// nothing is rejected.
pub fn script(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut text =
        String::from("workers = 2\nqueue_capacity = 8\nrestart_budget = 2\ncheckpoint_every = 1\n");
    for (id, op, shape, trials, fault_rate) in JOBS {
        let job_seed = rng.next_u64();
        text.push_str(&format!(
            "job {id} op={op} shape={shape} trials={trials} seed={job_seed} fault_rate={fault_rate}\n"
        ));
    }
    for id in CRASHED {
        let round = 2 + rng.next_u64() % 3;
        text.push_str(&format!("kill {id} attempt=0 round={round} kind=crash\n"));
    }
    text
}

/// Counters of the service plane; all zero for the single-tune
/// workloads.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceStats {
    attempts: u64,
    recoveries: u64,
    lost_rounds: u64,
    checkpoint_saves: u64,
    stale_saves: u64,
    postmortems: u64,
    cpu_s: f64,
    idle_frac: f64,
    overhead_cpu_s: f64,
}

impl ServiceStats {
    /// Appends the `serve.*` per-layer metrics.
    pub fn push(&self, m: &mut Metrics) {
        m.push("serve.attempts", self.attempts as f64, "count");
        m.push("serve.recoveries", self.recoveries as f64, "count");
        m.push("serve.lost_rounds", self.lost_rounds as f64, "count");
        m.push(
            "serve.checkpoint_saves",
            self.checkpoint_saves as f64,
            "count",
        );
        m.push("serve.stale_saves", self.stale_saves as f64, "count");
        m.push("serve.postmortems", self.postmortems as f64, "count");
        m.push("serve.cpu_s", self.cpu_s, "s");
        m.push("serve.idle_frac", self.idle_frac, "frac");
        m.push("serve.overhead_cpu_s", self.overhead_cpu_s, "s");
    }
}

/// One service run: set-up, `Supervisor::run`, the host speed around
/// it, and what it reported.
struct ServiceRun {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    speed: Speed,
    sup: Supervisor,
}

fn run_service(text: &str) -> Result<ServiceRun, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut sup = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let script = parse_script(text).map_err(|e| e.to_string())?;
        let built = Supervisor::from_script(script);
        setups.push(t.elapsed().as_secs_f64());
        sup = Some(built);
    }
    let mut sup = sup.expect("SETUP_REPS > 0");
    // The workers cannot be interleaved with the reference kernel, so
    // it runs in a block on each side of the service run.
    let mut speed = Speed::default();
    speed.block();
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    sup.run();
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    speed.block();
    Ok(ServiceRun {
        setup_s: stats::median(&setups).expect("non-empty"),
        wall_s,
        cpu_s,
        speed,
        sup,
    })
}

/// A field of a deterministic record line, e.g. `invalid=` → `3`.
fn record_field<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    record
        .split_whitespace()
        .find_map(|token| token.strip_prefix(key))
}

/// Per-job results of a finished service run: outcome, fingerprint,
/// best throughput and simulated measurement seconds.
struct JobResults {
    tally: Tally,
    fingerprints: BTreeMap<String, u64>,
    gflops: Vec<f64>,
    sim_measure_s: f64,
}

fn job_results(sup: &Supervisor, specs: &[JobSpec]) -> Result<JobResults, String> {
    let mut r = JobResults {
        tally: Tally::default(),
        fingerprints: BTreeMap::new(),
        gflops: Vec::new(),
        sim_measure_s: 0.0,
    };
    for spec in specs {
        let report = match sup.state(&spec.id) {
            Some(JobState::Completed) => sup.report(&spec.id),
            _ => None,
        };
        let Some(report) = report else {
            r.tally.add(JobOutcome::Lost {
                budget: spec.trials,
            });
            continue;
        };
        let bad = |what: &str| format!("job `{}`: record has no {what}", spec.id);
        let invalid = record_field(&report.record, "invalid=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("invalid= count"))?;
        let hw_bits = record_field(&report.record, "hw_measure_s=")
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| bad("hw_measure_s="))?;
        r.tally.add(JobOutcome::Finished {
            exhausted: report.termination == "trials-exhausted",
            trials: report.trials,
            failed_trials: invalid,
        });
        r.fingerprints.insert(spec.id.clone(), report.fingerprint);
        r.gflops.push(report.best_gflops);
        r.sim_measure_s += f64::from_bits(hw_bits);
    }
    Ok(r)
}

/// Runs the service on the run's scripts in turn, once each, while
/// `seconds` allow (at least [`MIN_SCRIPTS`]), then runs the first
/// script again and checks that it reproduces its job fingerprints. The
/// first script's first run is then checked against uninterrupted
/// references, once, outside the timed region. Times are calibrated to
/// reference host speed ([`crate::host`]); `setup_s` and `wall_s` are
/// their medians over the scripts.
/// `best_gflops` is the geometric mean over the jobs and
/// `sim_measure_s` the mean per service run of the first
/// [`MIN_SCRIPTS`] scripts.
pub fn timed(seed: u64, seconds: f64) -> Result<Run, String> {
    let start = Instant::now();
    let texts: Vec<String> = job_seeds(seed, MAX_SEEDS).into_iter().map(script).collect();
    let parse = |text: &str| parse_script(text).map_err(|e| e.to_string());
    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    let (mut raw_wall, mut factors) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut firsts: Vec<JobResults> = Vec::new();
    let mut verify: Option<(Supervisor, JobScript)> = None;
    // One slot of the budget is kept for the repetition.
    while let Some(text) = texts.get(wall.len()) {
        if wall.len() >= MIN_SCRIPTS
            && !time_for(start.elapsed().as_secs_f64(), seconds, wall.len(), 2)
        {
            break;
        }
        let parsed = parse(text)?;
        let run = run_service(text)?;
        setup.push(run.speed.calibrate(run.setup_s));
        wall.push(run.speed.calibrate(run.wall_s));
        raw_wall.push(run.wall_s);
        factors.push(run.speed.factor());
        let results = job_results(&run.sup, &parsed.jobs)?;
        tally += results.tally;
        if firsts.len() < MIN_SCRIPTS {
            firsts.push(results);
        }
        verify.get_or_insert((run.sup, parsed));
    }
    let (sup, parsed) = verify.expect("at least one service run");
    let again = run_service(&texts[0])?;
    let results = job_results(&again.sup, &parsed.jobs)?;
    tally += results.tally;
    let mut problems = Vec::new();
    if results.fingerprints != firsts[0].fingerprints {
        problems
            .push("script 0: a repeated service run reported different job fingerprints".into());
    }
    let peak_rss_mb = crate::report::peak_rss_mb();
    if let Err(e) = chaos::verify_run(&sup, &parsed.jobs) {
        problems.push(format!("recovery verification failed: {e}"));
    }
    let recoveries: u32 = sup.rows().iter().map(|r| r.recoveries).sum();
    if recoveries as usize != CRASHED.len() {
        problems.push(format!(
            "script 0: {recoveries} recoveries for {} planned crashes",
            CRASHED.len()
        ));
    }
    let gflops: Vec<f64> = firsts
        .iter()
        .flat_map(|r| r.gflops.iter().copied())
        .collect();
    let sim_s: f64 = firsts.iter().map(|r| r.sim_measure_s).sum();
    let mut m = Metrics::default();
    m.push("setup_s", stats::median(&setup).expect("non-empty"), "s");
    m.push("wall_s", stats::median(&wall).expect("non-empty"), "s");
    m.push("best_gflops", stats::geomean(&gflops), "Gop/s");
    m.push("sim_measure_s", sim_s / firsts.len() as f64, "s");
    m.push("peak_rss_mb", peak_rss_mb, "MiB");
    tally.push_metrics(&mut m);
    Ok(Run::new(m, tally, problems)
        .timing("setup_s", &setup)
        .timing("wall_s", &wall)
        .timing("raw_wall_s", &raw_wall)
        .timing("host_speed", &factors))
}

/// One serial replay of every job of the script.
struct Replay {
    wall_s: f64,
    cpu_s: f64,
    lost_rounds: u64,
    fingerprints: BTreeMap<String, u64>,
    attribution: Attribution,
}

/// Replays each job alone: a checkpoint every `checkpoint_every`
/// rounds, and at a planned crash round a resume from the last
/// checkpoint, losing the rounds since — what the service does. With
/// `traced`, sessions trace on a real clock, the benchmark spans its
/// calls, and each job's set-up layers (space generation, solver root
/// fixpoint) are timed once outside the replay's wall time.
fn replay(script: &JobScript, traced: bool) -> Result<Replay, String> {
    let every = script.config.checkpoint_every;
    let mut r = Replay {
        wall_s: 0.0,
        cpu_s: 0.0,
        lost_rounds: 0,
        fingerprints: BTreeMap::new(),
        attribution: Attribution::default(),
    };
    let a = &mut r.attribution;
    for spec in &script.jobs {
        let tracer = if traced {
            Tracer::real()
        } else {
            Tracer::disabled()
        };
        tracer.set_context(Some(TraceContext::new(spec.id.as_str(), 0, 0)));
        if traced {
            let platform = spec.platform().map_err(|e| e.to_string())?;
            let workload = spec.workload().map_err(|e| e.to_string())?;
            let space = {
                let _s = tracer.span(span::GENERATE);
                SpaceGenerator::new(platform.clone())
                    .generate_named(
                        &workload.build(platform.in_dtype),
                        &SpaceOptions::heron(),
                        &workload.name,
                    )
                    .map_err(|e| format!("space generation failed: {e:?}"))?
            };
            a.vars += space.csp.num_vars() as u64;
            a.constraints += space.csp.constraints().len() as u64;
            let _s = tracer.span(span::SESSION);
            black_box(SolveSession::new(&space.csp));
        }
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let attach = |mut tuner: heron_core::Tuner| {
            if traced {
                tuner.set_tracer(tracer.clone());
            }
            tuner
        };
        let mut tuner = attach(build_session(spec, None)?);
        let mut crashed = false;
        let mut saved: Option<(u64, String)> = None;
        loop {
            let before = tuner.rounds_total();
            let t = Instant::now();
            let more = {
                let _s = tracer.span(span::STEP);
                tuner.step()
            };
            if tuner.rounds_total() > before {
                a.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            if !more {
                break;
            }
            let round = tuner.rounds_total() as u64;
            if !crashed && script.plan.kill_at(&spec.id, 0, round).is_some() {
                crashed = true;
                let (saved_round, text) = saved.as_ref().ok_or_else(|| {
                    format!("job `{}` crashes before its first checkpoint", spec.id)
                })?;
                r.lost_rounds += round - saved_round;
                let _s = tracer.span(span::CHECKPOINT_RESUME);
                tuner = attach(build_session(spec, Some(text))?);
                continue;
            }
            if every > 0 && round.is_multiple_of(every) {
                let _s = tracer.span(span::CHECKPOINT_SAVE);
                let text = tuner.checkpoint().to_text();
                a.checkpoint_bytes += text.len() as u64;
                saved = Some((round, text));
            }
        }
        r.wall_s += t0.elapsed().as_secs_f64();
        r.cpu_s += process_cpu_s() - cpu0;
        r.fingerprints
            .insert(spec.id.clone(), tuner.result().determinism_fingerprint());
        if traced {
            a.absorb(&tracer);
        }
    }
    Ok(r)
}

/// The traced run, on the timed run's first script. Each repetition
/// runs the service untraced, then the serial replay untraced and
/// traced; the tracing overhead is the ratio of the traced and
/// untraced replay medians, and the service's CPU overhead is its CPU
/// time minus the untraced replay's.
pub fn traced(seed: u64, seconds: f64) -> Result<Run, String> {
    let text = script(job_seeds(seed, 1)[0]);
    let parsed = parse_script(&text).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let (mut service_wall, mut service_cpu) = (Vec::new(), Vec::new());
    let (mut plain, mut plain_cpu, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut problems = Vec::new();
    let mut tally = Tally::default();
    let mut first: Option<(Supervisor, Replay)> = None;
    while first.is_none() || start.elapsed().as_secs_f64() < seconds {
        let run = run_service(&text)?;
        service_wall.push(run.wall_s);
        service_cpu.push(run.cpu_s);
        let results = job_results(&run.sup, &parsed.jobs)?;
        tally += results.tally;
        // Alternate which replay runs first, so an order effect cancels.
        let (untraced_replay, traced_replay) = if traced.len() % 2 == 0 {
            let untraced_replay = replay(&parsed, false)?;
            (untraced_replay, replay(&parsed, true)?)
        } else {
            let traced_replay = replay(&parsed, true)?;
            (replay(&parsed, false)?, traced_replay)
        };
        plain.push(untraced_replay.wall_s);
        plain_cpu.push(untraced_replay.cpu_s);
        traced.push(traced_replay.wall_s);
        for r in [&untraced_replay, &traced_replay] {
            if r.fingerprints != results.fingerprints {
                problems.push("a replayed job's fingerprint differs from the service's".into());
            }
        }
        if first.is_none() {
            first = Some((run.sup, traced_replay));
        }
    }
    let (sup, first_replay) = first.expect("at least one repetition");
    if let Err(e) = chaos::verify_run(&sup, &parsed.jobs) {
        problems.push(format!("recovery verification failed: {e}"));
    }
    let med = |xs: &[f64]| stats::median(xs).expect("non-empty");
    let rows = sup.rows();
    let cpu_s = med(&service_cpu);
    let service = ServiceStats {
        attempts: rows.iter().map(|r| u64::from(r.attempts)).sum(),
        recoveries: rows.iter().map(|r| u64::from(r.recoveries)).sum(),
        lost_rounds: first_replay.lost_rounds,
        checkpoint_saves: sup.store().saves(),
        stale_saves: sup.store().stale_saves(),
        postmortems: sup.postmortems().len() as u64,
        cpu_s,
        idle_frac: 1.0 - cpu_s / (med(&service_wall) * parsed.config.workers as f64),
        overhead_cpu_s: cpu_s - med(&plain_cpu),
    };
    let mut m = Metrics::default();
    first_replay.attribution.metrics(traced[0], &mut m)?;
    service.push(&mut m);
    m.push(
        "trace.overhead_frac",
        med(&traced) / med(&plain) - 1.0,
        "frac",
    );
    Ok(Run::new(m, tally, problems)
        .timing("service_wall_s", &service_wall)
        .timing("service_cpu_s", &service_cpu)
        .timing("replay_wall_s", &plain)
        .timing("replay_cpu_s", &plain_cpu)
        .timing("traced_replay_wall_s", &traced)
        .with_trace(first_replay.attribution.jsonl()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_function_of_the_seed() {
        assert_eq!(script(7), script(7));
        assert_ne!(script(7), script(8));
        let parsed = parse_script(&script(7)).unwrap();
        assert_eq!(parsed.jobs.len(), JOBS.len());
        assert_eq!(parsed.plan.rule_count(), CRASHED.len());
        assert_eq!(parsed.config.checkpoint_every, 1);
        assert!(parsed.jobs.iter().all(|j| j.validate().is_ok()));
    }

    #[test]
    fn record_fields_parse() {
        let record = "valid=7 invalid=3 retried=0\nhw_measure_s=4000000000000000\n";
        assert_eq!(record_field(record, "invalid="), Some("3"));
        assert_eq!(
            record_field(record, "hw_measure_s="),
            Some("4000000000000000")
        );
        assert_eq!(record_field(record, "missing="), None);
    }
}
