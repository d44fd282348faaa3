//! `heron_status` — the deterministic ops dashboard for `heron-serve`.
//!
//! Reads a `pulse.json` document (written by `heron_serve --pulse-out`),
//! validates it against the `heron-pulse-v2` schema, and renders the
//! service dashboard: one row per job with its SLI columns and breach
//! flags, service totals, the hottest spans per job, recorded
//! `pulse.warn.*` anomalies, and any SLO breaches. Below it come the
//! schedule's `critical-path sum == makespan` line (the validator has
//! just enforced that equality; CI greps for the line) and its text
//! timeline: one row per worker plus the critical path.
//!
//! ```text
//! heron_status pulse.json                 # render the dashboard
//! heron_status pulse.json --top 5         # …with 5 hottest spans per job
//! heron_status pulse.json --slo SPEC      # re-judge under a different SLO spec
//! heron_status pulse.json --check         # exit 1 if any SLO rule is breached
//! ```
//!
//! The output is a pure function of `pulse.json` (itself
//! byte-identical across reruns of the same service script), so it is
//! byte-stable too — `--check` is the CI gate that fails the
//! build when a committed SLO spec is breached.

use heron_bench::{flag, has_flag};
use heron_pulse::{
    attach_slo, breach_count, render_dashboard, render_timeline, validate_pulse, SloSpec,
};
use heron_trace::{json, Json};

fn usage() -> ! {
    eprintln!("usage: heron_status <pulse.json> [--check] [--top N] [--slo SPEC]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if has_flag(&args, "--help") {
        usage();
    }
    let Some(path) = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--") && (*i == 0 || (args[i - 1] != "--top" && args[i - 1] != "--slo"))
        })
        .map(|(_, a)| a)
    else {
        usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{path}`: {e}");
            std::process::exit(1);
        }
    };
    let mut doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("`{path}` is not JSON: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = validate_pulse(&doc) {
        eprintln!("`{path}` is not a valid heron-pulse-v2 document: {e}");
        std::process::exit(1);
    }
    if let Some(spec_path) = flag(&args, "--slo") {
        let spec_text = match std::fs::read_to_string(&spec_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read SLO spec `{spec_path}`: {e}");
                std::process::exit(1);
            }
        };
        let spec = match SloSpec::parse(&spec_text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bad SLO spec `{spec_path}`: {e}");
                std::process::exit(1);
            }
        };
        doc = attach_slo(doc, &spec);
    }
    let top = match flag(&args, "--top") {
        Some(t) => match t.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--top expects a positive integer, got `{t}`");
                std::process::exit(2);
            }
        },
        None => 3,
    };
    print!("{}", render_dashboard(&doc, top));
    let schedule = doc.get("schedule").expect("validated");
    let makespan_ns = schedule.get("makespan_ns").and_then(Json::as_u64);
    let critical = schedule
        .get("segments")
        .and_then(Json::as_arr)
        .map_or(0, |segs| {
            segs.iter()
                .filter(|s| s.get("critical") == Some(&Json::Bool(true)))
                .count()
        });
    println!(
        "\ncritical-path sum == makespan ({} ns, {critical} segment(s))",
        makespan_ns.unwrap_or(0)
    );
    print!("{}", render_timeline(&doc, 72));
    if has_flag(&args, "--check") {
        let breaches = breach_count(&doc);
        if breaches > 0 {
            eprintln!("SLO check FAILED: {breaches} rule(s) breached");
            std::process::exit(1);
        }
        println!("SLO check: PASS");
    }
}
