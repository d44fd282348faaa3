//! Host-time benchmark of the Heron tuner.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload v100-gemm512 --seed 1 --seconds 38 --trace 0
//! ```
//!
//! Drives the tuner through its public library API in one process, on
//! one of three workloads (see `hostbench/README.md` for why each
//! exists), for `--seconds` of repetitions. With `--trace 0` it reports
//! the end-to-end metrics with tracing off; with `--trace 1` it runs
//! the traced variant and reports per-layer host time and counts. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A full result, with the environment stamp and every timing's sample
//! count, goes to `hostbench/results/`, next to the traced run's JSONL.
//! The exit code is 0 only when every correctness check passed.

mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod tune;

use std::process::ExitCode;

use heron_trace::Json;

use crate::report::{environment, timing_json, Metrics, Tally};
use crate::tune::TuneWorkload;

/// Where results and traces are written, relative to the repository
/// root the benchmark runs from.
const RESULTS_DIR: &str = "hostbench/results";

/// The solver-heavy tune. A 100-trial tune takes about 1 s, so a run
/// covers some forty seeds: the host time of a tune varies by ±20%
/// from seed to seed, and over fewer seeds that variation would
/// outweigh any change worth detecting. Its best kernel varies as much,
/// so the search-quality metrics take 24 seeds.
const V100_GEMM512: TuneWorkload = TuneWorkload {
    dla: heron_dla::v100,
    mnk: (512, 512, 512),
    trials: 100,
    min_seeds: 24,
};

/// The model-heavy tune (Table 9 G1 on DL Boost, paper CGA config).
const DLBOOST_GEMM1024: TuneWorkload = TuneWorkload {
    dla: heron_dla::dlboost,
    mnk: (1024, 1024, 1024),
    trials: 1000,
    min_seeds: 6,
};

/// Set-up takes well under a millisecond on every workload, so each
/// repetition performs it this many times and keeps the median.
pub const SETUP_REPS: usize = 64;

/// Job seeds a timed run derives; it stops earlier, when `--seconds`
/// run out.
pub const MAX_SEEDS: usize = 256;

/// Whether a run that has timed `done` seeds in `elapsed` seconds has
/// time for `more` seeds at their mean cost within `seconds`.
pub fn time_for(elapsed: f64, seconds: f64, done: usize, more: usize) -> bool {
    done == 0 || elapsed * (done + more) as f64 / done as f64 <= seconds
}

const WORKLOADS: [&str; 3] = ["v100-gemm512", "dlboost-gemm1024", "serve-recovery"];

/// The run's `n` job seeds, derived from `--seed`.
pub fn job_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = heron_rng::SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// What one run measured and checked.
pub struct Run {
    metrics: Metrics,
    tally: Tally,
    problems: Vec<String>,
    timings: Vec<(String, Vec<f64>)>,
    trace_jsonl: Option<String>,
}

impl Run {
    /// A run's metrics, outcome counts and failed correctness checks.
    pub fn new(metrics: Metrics, tally: Tally, problems: Vec<String>) -> Self {
        Run {
            metrics,
            tally,
            problems,
            timings: Vec::new(),
            trace_jsonl: None,
        }
    }

    /// Records the raw samples behind a timing.
    #[must_use]
    pub fn timing(mut self, name: &str, samples: &[f64]) -> Self {
        self.timings.push((name.to_string(), samples.to_vec()));
        self
    }

    /// Attaches the traced run's JSONL.
    #[must_use]
    pub fn with_trace(mut self, jsonl: String) -> Self {
        self.trace_jsonl = Some(jsonl);
        self
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Run, String> {
    let (seed, secs) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("v100-gemm512", false) => tune::timed(&V100_GEMM512, seed, secs),
        ("v100-gemm512", true) => tune::traced(&V100_GEMM512, seed, secs),
        ("dlboost-gemm1024", false) => tune::timed(&DLBOOST_GEMM1024, seed, secs),
        ("dlboost-gemm1024", true) => tune::traced(&DLBOOST_GEMM1024, seed, secs),
        ("serve-recovery", false) => serve::timed(seed, secs),
        ("serve-recovery", true) => serve::traced(seed, secs),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// Writes the full result (and the trace, for a traced run) under
/// [`RESULTS_DIR`].
fn write_results(args: &Args, run: &Run, line: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(RESULTS_DIR)?;
    let stem = format!(
        "{RESULTS_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let timings = run
        .timings
        .iter()
        .filter_map(|(name, xs)| Some((name.clone(), timing_json(xs)?)))
        .collect();
    let doc = Json::Obj(vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("environment".to_string(), environment()),
        ("timings".to_string(), Json::Obj(timings)),
        (
            "problems".to_string(),
            Json::Arr(run.problems.iter().cloned().map(Json::Str).collect()),
        ),
        ("result".to_string(), line.clone()),
    ]);
    std::fs::write(format!("{stem}.json"), doc.render_pretty())?;
    if let Some(jsonl) = &run.trace_jsonl {
        std::fs::write(format!("{stem}.trace.jsonl"), jsonl)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hostbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let correct = run.problems.is_empty();
    for p in &run.problems {
        eprintln!("hostbench: correctness: {p}");
    }
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(run.tally.jobs as f64)),
        (
            "failed".to_string(),
            Json::Num(run.tally.failed_jobs as f64),
        ),
        ("metrics".to_string(), run.metrics.to_json()),
    ]);
    eprintln!("hostbench: environment {}", environment().render());
    if let Err(e) = write_results(&args, &run, &line) {
        eprintln!("hostbench: cannot write results under {RESULTS_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_starts_another_seed_only_if_it_fits() {
        assert!(time_for(0.0, 0.0, 0, 2));
        // Four seeds in 20 s: two more at 5 s each end at 30 s.
        assert!(time_for(20.0, 30.0, 4, 2));
        assert!(!time_for(20.0, 29.9, 4, 2));
    }
}
