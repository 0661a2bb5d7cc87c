//! The ConfBench-RS benchmark: three workloads, each one process driven by
//! a seed, printing end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`) as the last line of standard output.
//!
//! Usage: `perfbench --workload <fig6-cold|run-mix|fleet-churn> --seed N
//! --seconds S --trace <0|1>`, run from the repository root (it reads the
//! metric list from `BENCHMARK.json` there). See `perfbench/NOTES.md` for
//! why each workload exists and which layer metric moves which end-to-end
//! metric.

mod common;
mod fig6;
mod fleet_churn;
mod layers;
mod run_mix;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use common::{Sheet, Tracer, OUT_DIR};

/// Parsed command line.
#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced, before it is rendered.
#[derive(Default)]
pub struct Outcome {
    pub sheet: Sheet,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs and broken invariants; any entry makes the run fail.
    pub errors: Vec<String>,
    /// Deterministic output records, digested in this order.
    pub records: Vec<String>,
    /// Values that must repeat exactly across runs of one seed.
    pub exact: BTreeMap<String, String>,
    /// Workload-property shares and other context for the reader.
    pub context: serde_json::Map,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(message());
        }
    }

    pub fn note(&mut self, key: &str, value: impl serde::Serialize) {
        self.context.insert(key.to_owned(), serde_json::to_value(&value));
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// Metric names and units the run must report, from `BENCHMARK.json`.
fn declared_metrics(trace: bool) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let spec: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = spec[if trace { "per_layer" } else { "end_to_end" }]
        .as_array()
        .ok_or("BENCHMARK.json: metric list missing")?;
    Ok(list
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap_or_default().to_owned(),
                m["unit"].as_str().unwrap_or_default().to_owned(),
            )
        })
        .collect())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let declared = match declared_metrics(args.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let tracer = args.trace.then(|| std::sync::Arc::new(Tracer::new()));
    let started = Instant::now();
    let mut outcome = match args.workload.as_str() {
        "fig6-cold" => fig6::run(&args, tracer.as_ref()),
        "run-mix" => run_mix::run(&args, tracer.as_ref()),
        "fleet-churn" => fleet_churn::run(&args, tracer.as_ref()),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (fig6-cold, run-mix, fleet-churn)");
            std::process::exit(2);
        }
    };
    let wall_s = started.elapsed().as_secs_f64();

    // The metric sheet must match the declaration exactly, name and unit.
    let produced: BTreeMap<String, String> = outcome
        .sheet
        .to_json()
        .as_object()
        .expect("sheet renders as an object")
        .iter()
        .map(|(k, v)| (k.clone(), v["unit"].as_str().unwrap_or_default().to_owned()))
        .collect();
    for (name, unit) in &declared {
        match produced.get(name) {
            None => outcome.errors.push(format!("metric {name} not measured")),
            Some(u) if u != unit => {
                outcome.errors.push(format!("metric {name}: unit {u} != {unit}"))
            }
            Some(_) => {}
        }
    }
    for name in produced.keys().filter(|n| !declared.contains_key(*n)) {
        outcome.errors.push(format!("metric {name} is not declared in BENCHMARK.json"));
    }
    for name in outcome.sheet.non_finite() {
        outcome.errors.push(format!("metric {name} is not a finite number"));
    }

    let mode = if args.trace { "traced" } else { "untraced" };
    let digest = common::digest(&outcome.records);
    outcome.exact.insert("output_digest".into(), digest.clone());
    let build = common::build_id();
    let key = format!("{}-{}-{mode}", args.workload, args.seed);
    for name in common::repeat_check(&format!("{key}-{build}"), &outcome.exact) {
        outcome.errors.push(format!(
            "{name} differs from an earlier run of seed {} by this build",
            args.seed
        ));
    }
    if let Some(tracer) = &tracer {
        let path = PathBuf::from(OUT_DIR).join(format!("spans-{key}.jsonl"));
        match tracer.write(&path) {
            Ok(()) => outcome.note("span_file", path.display().to_string()),
            Err(e) => outcome.errors.push(format!("writing {}: {e}", path.display())),
        }
        outcome.note("spans_recorded", tracer.len());
    }

    let host = serde_json::json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "git_revision": common::git_revision(),
        "seed": args.seed,
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "build_id": build,
    });
    outcome.note("host", host);
    outcome.note("workload", args.workload.clone());
    outcome.note("mode", mode);
    outcome.note("wall_s", wall_s);
    outcome.note("output_digest", digest);
    outcome.note("exact", serde_json::to_value(&outcome.exact));
    let context = serde_json::json!({ "context": outcome.context });
    println!("{}", serde_json::to_string(&context).expect("context renders"));
    for e in &outcome.errors {
        eprintln!("perfbench: FAILED CHECK: {e}");
    }

    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    let result = serde_json::json!({
        "correct": correct,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": outcome.sheet.to_json(),
    });
    println!("{}", serde_json::to_string(&result).expect("result renders"));
    if !correct {
        std::process::exit(1);
    }
}
