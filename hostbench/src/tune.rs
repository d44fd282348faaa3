//! The single-tune workloads: one `Tuner` session driven to its trial
//! budget through the public library API, repeated for the run's
//! duration.

use std::hint::black_box;
use std::time::Instant;

use heron_baselines::tune::heron_config;
use heron_core::generate::{GeneratedSpace, SpaceGenerator, SpaceOptions};
use heron_core::tuner::{Termination, TuneResult, Tuner};
use heron_dla::{DlaSpec, Measurer};
use heron_trace::Tracer;
use heron_workloads::{OpKind, Workload};

use crate::host::Speed;
use crate::layers::{span, Attribution};
use crate::report::{JobOutcome, Metrics, Tally};
use crate::{job_seeds, stats, time_for, Run, MAX_SEEDS, SETUP_REPS};

/// A GEMM tune on one platform.
pub struct TuneWorkload {
    /// Platform.
    pub dla: fn() -> DlaSpec,
    /// GEMM extents.
    pub mnk: (i64, i64, i64),
    /// Trial budget; `heron_config` picks the quick CGA below 1000
    /// trials and the paper configuration from 1000 on.
    pub trials: usize,
    /// Job seeds every timed run tunes, whatever `--seconds` says. A
    /// session's search path, and with it its best kernel, depends on
    /// its seed; the search-quality metrics are taken over these seeds,
    /// so that they are fixed by `--seed` and no one seed moves them far.
    pub min_seeds: usize,
}

impl TuneWorkload {
    fn workload(&self) -> Workload {
        let (m, n, k) = self.mnk;
        Workload::new(format!("gemm-{m}x{n}x{k}"), OpKind::Gemm { m, n, k })
    }

    fn generate(&self) -> Result<GeneratedSpace, String> {
        let spec = (self.dla)();
        let workload = self.workload();
        SpaceGenerator::new(spec.clone())
            .generate_named(
                &workload.build(spec.in_dtype),
                &SpaceOptions::heron(),
                &workload.name,
            )
            .map_err(|e| format!("space generation failed: {e:?}"))
    }

    fn session(&self, space: GeneratedSpace, seed: u64) -> Tuner {
        Tuner::new(
            space,
            Measurer::new((self.dla)()),
            heron_config(self.trials),
            seed,
        )
    }
}

/// One untraced repetition: set-up and tuning-phase seconds, the host
/// speed around the tuning phase, and the session it produced.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    speed: Speed,
    tuner: Tuner,
    result: TuneResult,
}

fn untraced_rep(w: &TuneWorkload, seed: u64) -> Result<Rep, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut tuner = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = w.session(w.generate()?, seed);
        setups.push(t.elapsed().as_secs_f64());
        tuner = Some(built);
    }
    let mut tuner = tuner.expect("SETUP_REPS > 0");
    // `Tuner::run` is this loop; the reference kernel runs between
    // steps, outside the timed region.
    let mut speed = Speed::default();
    let mut wall_s = 0.0;
    loop {
        speed.sample();
        let t = Instant::now();
        let more = black_box(tuner.step());
        wall_s += t.elapsed().as_secs_f64();
        if !more {
            break;
        }
    }
    let result = tuner.result();
    Ok(Rep {
        setup_s: stats::median(&setups).expect("non-empty"),
        wall_s,
        speed,
        tuner,
        result,
    })
}

/// Correctness of a finished tune: the best solution satisfies every
/// constraint of `CSP_initial`, and the simulator accepts its kernel.
fn check_best(w: &TuneWorkload, tuner: &Tuner, result: &TuneResult) -> Result<(), String> {
    let csp = &tuner.space().csp;
    let best = result
        .best_solution
        .as_ref()
        .ok_or("the tune found no solution")?;
    if let Some(i) = csp
        .constraints()
        .iter()
        .position(|c| !c.check(&|v| best.value(v)))
    {
        return Err(format!(
            "best solution violates constraint #{i} of CSP_initial"
        ));
    }
    let kernel = result
        .best_kernel
        .as_ref()
        .ok_or("the best solution has no kernel")?;
    Measurer::new((w.dla)())
        .validate(kernel)
        .map_err(|e| format!("the simulator rejects the best kernel: {e}"))
}

fn outcome(result: &TuneResult) -> JobOutcome {
    JobOutcome::Finished {
        exhausted: result.termination == Termination::TrialsExhausted,
        trials: result.curve.len(),
        failed_trials: result.invalid_trials,
    }
}

/// Tunes the run's job seeds in turn, once each, while `seconds` allow
/// (at least `min_seeds`), then tunes the first seed again and checks
/// that it reproduces its determinism fingerprint. Times are calibrated
/// to reference host speed ([`crate::host`]); `setup_s` and `wall_s`
/// are their medians over the seeds. `best_gflops` is
/// the geometric mean and `sim_measure_s` the mean per tune over the
/// first `min_seeds` seeds.
pub fn timed(w: &TuneWorkload, seed: u64, seconds: f64) -> Result<Run, String> {
    let start = Instant::now();
    let seeds = job_seeds(seed, MAX_SEEDS);
    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    let (mut raw_wall, mut factors) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut results = Vec::new();
    let mut problems = Vec::new();
    // One slot of the budget is kept for the repetition.
    while let Some(&job_seed) = seeds.get(wall.len()) {
        if wall.len() >= w.min_seeds
            && !time_for(start.elapsed().as_secs_f64(), seconds, wall.len(), 2)
        {
            break;
        }
        let rep = untraced_rep(w, job_seed)?;
        setup.push(rep.speed.calibrate(rep.setup_s));
        wall.push(rep.speed.calibrate(rep.wall_s));
        raw_wall.push(rep.wall_s);
        factors.push(rep.speed.factor());
        tally.add(outcome(&rep.result));
        if let Err(e) = check_best(w, &rep.tuner, &rep.result) {
            problems.push(format!("seed {job_seed}: {e}"));
        }
        if results.len() < w.min_seeds {
            results.push(rep.result);
        }
    }
    let again = untraced_rep(w, seeds[0])?;
    tally.add(outcome(&again.result));
    let (fp0, fp) = (
        results[0].determinism_fingerprint(),
        again.result.determinism_fingerprint(),
    );
    if fp0 != fp {
        problems.push(format!(
            "seed {}: repetition fingerprint {fp:016x} differs from {fp0:016x}",
            seeds[0]
        ));
    }
    let peak_rss_mb = crate::report::peak_rss_mb();
    let gflops: Vec<f64> = results.iter().map(|r| r.best_gflops).collect();
    let sim_s: f64 = results.iter().map(|r| r.timing.hw_measure_s).sum();
    let mut m = Metrics::default();
    m.push("setup_s", stats::median(&setup).expect("non-empty"), "s");
    m.push("wall_s", stats::median(&wall).expect("non-empty"), "s");
    m.push("best_gflops", stats::geomean(&gflops), "Gop/s");
    m.push("sim_measure_s", sim_s / results.len() as f64, "s");
    m.push("peak_rss_mb", peak_rss_mb, "MiB");
    tally.push_metrics(&mut m);
    Ok(Run::new(m, tally, problems)
        .timing("setup_s", &setup)
        .timing("wall_s", &wall)
        .timing("raw_wall_s", &raw_wall)
        .timing("host_speed", &factors))
}

/// The traced run, on the timed run's first job seed: alternates
/// untraced and traced repetitions until `seconds` have passed (at
/// least one pair), attributes the first traced repetition's host time
/// to layers, and reports the tracing overhead as the ratio of the
/// traced and untraced median walls. The tracer only observes, so
/// every repetition must give the same determinism fingerprint.
pub fn traced(w: &TuneWorkload, seed: u64, seconds: f64) -> Result<Run, String> {
    let seed = job_seeds(seed, 1)[0];
    let start = Instant::now();
    let (mut plain, mut traced, mut fingerprints) = (Vec::new(), Vec::new(), Vec::new());
    let untraced = |plain: &mut Vec<f64>, fingerprints: &mut Vec<u64>| -> Result<(), String> {
        let rep = untraced_rep(w, seed)?;
        plain.push(rep.wall_s);
        fingerprints.push(rep.result.determinism_fingerprint());
        Ok(())
    };
    let mut attribution: Option<Attribution> = None;
    let mut problems = Vec::new();
    let mut tally = Tally::default();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // Alternate which side runs first, so an order effect cancels.
        let untraced_first = traced.len() % 2 == 0;
        if untraced_first {
            untraced(&mut plain, &mut fingerprints)?;
        }
        let tracer = Tracer::real();
        let space = {
            let _s = tracer.span(span::GENERATE);
            w.generate()?
        };
        let mut a = Attribution {
            vars: space.csp.num_vars() as u64,
            constraints: space.csp.constraints().len() as u64,
            ..Attribution::default()
        };
        let tuner = {
            let _s = tracer.span(span::SESSION);
            w.session(space, seed)
        };
        let mut tuner = tuner.with_tracer(tracer.clone());
        let t0 = Instant::now();
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
        }
        traced.push(t0.elapsed().as_secs_f64());
        if !untraced_first {
            untraced(&mut plain, &mut fingerprints)?;
        }
        let result = tuner.result();
        tally.add(outcome(&result));
        fingerprints.push(result.determinism_fingerprint());
        if attribution.is_none() {
            if let Err(e) = check_best(w, &tuner, &result) {
                problems.push(e);
            }
            a.absorb(&tracer);
            attribution = Some(a);
        }
    }
    if fingerprints.windows(2).any(|p| p[0] != p[1]) {
        problems.push("traced and untraced repetitions differ in determinism fingerprint".into());
    }
    let a = attribution.expect("at least one traced repetition ran");
    let traced_wall = stats::median(&traced).expect("non-empty");
    let plain_wall = stats::median(&plain).expect("non-empty");
    let mut m = Metrics::default();
    a.metrics(traced[0], &mut m)?;
    crate::serve::ServiceStats::default().push(&mut m);
    m.push(
        "trace.overhead_frac",
        traced_wall / plain_wall - 1.0,
        "frac",
    );
    Ok(Run::new(m, tally, problems)
        .timing("wall_s", &plain)
        .timing("traced_wall_s", &traced)
        .with_trace(a.jsonl()))
}
