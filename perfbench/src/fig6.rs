//! `fig6-cold`: the paper's Fig. 6 matrix (25 functions × 7 languages ×
//! secure/normal × TDX + SEV-SNP, paper-scale arguments, 10 trials — 700
//! cells) submitted as one campaign to a fresh in-process gateway whose
//! scheduler runs one worker per platform, the gateway daemon's shape.
//! Every cell misses the result cache.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use confbench::{Gateway, SystemClock};
use confbench_bench::{campaign::fig6_spec, ExperimentConfig};
use confbench_sched::{Executor, Scheduler, SchedulerConfig};
use confbench_types::{CampaignSpec, CampaignStatus, Result, RunRequest, RunResult, TeePlatform};

use crate::common::{
    abba, median, peak_rss_mb, percentile, percentile_or_zero, repeated_share, Tracer,
};
use crate::{fleet_churn, layers, Args, Outcome};

/// Longest a single campaign may take before the run gives up on it.
const CAMPAIGN_LIMIT: Duration = Duration::from_secs(150);
/// Untraced/traced campaign pairs behind `trace_overhead_share`.
const OVERHEAD_PAIRS: usize = 2;
/// Stack builds behind each `setup_s` sample.
const SETUP_REPS: usize = 20;

/// The 700-cell matrix: both platforms in one campaign.
fn spec(seed: u64) -> CampaignSpec {
    let cfg = ExperimentConfig::paper(seed);
    let mut spec = fig6_spec(cfg, TeePlatform::Tdx, None);
    spec.platforms = vec![TeePlatform::Tdx, TeePlatform::SevSnp];
    spec
}

/// One cold campaign: fresh gateway and scheduler, submit, wait.
struct Campaign {
    wall_s: f64,
    /// Per-cell `Gateway::run` time, ms.
    latencies_ms: Vec<f64>,
    status: CampaignStatus,
    sched: Arc<Scheduler>,
}

/// The campaign stack: a gateway with local TDX and SEV-SNP hosts and a
/// scheduler over it with one worker per platform.
fn stack(
    seed: u64,
    spec: &CampaignSpec,
    tracer: Option<(Arc<Tracer>, Option<usize>)>,
) -> (Arc<Dispatch>, Arc<Scheduler>) {
    let gateway = Arc::new(
        Gateway::builder()
            .seed(seed)
            .local_host(TeePlatform::Tdx)
            .local_host(TeePlatform::SevSnp)
            .build(),
    );
    let dispatch = Arc::new(Dispatch::new(Arc::clone(&gateway), tracer));
    let config = SchedulerConfig {
        queue_capacity: spec.cell_count(),
        retry_after_secs: gateway.retry_policy().retry_after_secs(),
        ..SchedulerConfig::default()
    };
    let sched = Arc::new(Scheduler::with_metrics(
        Arc::clone(&dispatch) as Arc<dyn Executor>,
        Arc::new(SystemClock),
        config,
        Arc::clone(gateway.metrics()),
    ));
    sched.spawn_workers(1);
    (dispatch, sched)
}

/// Median time to build the campaign stack, over [`SETUP_REPS`] builds.
fn setup_s(seed: u64, spec: &CampaignSpec) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let at = Instant::now();
            let (_, sched) = stack(seed, spec, None);
            let s = at.elapsed().as_secs_f64();
            sched.shutdown();
            s
        })
        .collect();
    median(&times)
}

fn campaign(seed: u64, spec: &CampaignSpec, tracer: Option<&Arc<Tracer>>) -> Campaign {
    let parent = tracer.map(|t| t.open("campaign", None));
    let (dispatch, sched) = stack(seed, spec, tracer.map(|t| (Arc::clone(t), parent)));
    let submitted = Instant::now();
    let receipt = sched.submit(spec.clone()).expect("the fig6 matrix fits its queue");
    let finished = dispatch.wait_for(receipt.jobs, CAMPAIGN_LIMIT);
    let mut status = sched.campaign_status(&receipt.id).expect("campaign exists");
    while finished && !status.is_done() {
        std::thread::sleep(Duration::from_millis(1));
        status = sched.campaign_status(&receipt.id).expect("campaign exists");
    }
    let wall_s = submitted.elapsed().as_secs_f64();
    sched.shutdown();
    if let (Some(t), Some(id)) = (tracer, parent) {
        t.close(id);
    }
    Campaign { wall_s, latencies_ms: dispatch.take(), status, sched }
}

/// Checks one campaign's cells and returns its deterministic records.
fn check(outcome: &mut Outcome, c: &Campaign) -> Vec<String> {
    let s = &c.status;
    outcome.check(s.failed == 0 && s.completed == s.total_jobs, || {
        format!(
            "campaign: {} of {} cells completed, {} failed",
            s.completed, s.total_jobs, s.failed
        )
    });
    outcome
        .check(s.cache_hits == 0, || format!("cold campaign served {} cache hits", s.cache_hits));
    // Every language, platform and VM kind computes the same answer for a
    // function and its arguments.
    let mut answers: BTreeMap<&str, &str> = BTreeMap::new();
    for cell in &s.cells {
        let first = answers.entry(&cell.cell.function.name).or_insert(&cell.output);
        if *first != cell.output {
            outcome.errors.push(format!(
                "{}/{}/{}/{}: output {:?} differs from {:?}",
                cell.cell.function.name,
                cell.cell.language,
                cell.cell.platform,
                cell.cell.kind,
                cell.output,
                first
            ));
        }
    }
    let mut records: Vec<String> = s
        .cells
        .iter()
        .map(|c| {
            format!(
                "{}|{}|{}|{}|{:016x}|{:016x}|{}",
                c.cell.function.name,
                c.cell.language,
                c.cell.platform,
                c.cell.kind,
                c.mean_ms.to_bits(),
                c.stddev_ms.to_bits(),
                c.output
            )
        })
        .collect();
    records.sort();
    records
}

pub fn run(args: &Args, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut outcome = Outcome::default();
    let spec = spec(args.seed);
    outcome.note("cells_per_campaign", spec.cell_count());
    let cells = confbench_sched::campaign::expand(&spec);
    let triples = cells.into_iter().map(|c| (c.function.name, c.function.args, c.language));
    outcome.note("repeated_triple_share", repeated_share(triples));
    outcome.note("token_share", 0.0);
    match tracer {
        None => untraced(args, &spec, &mut outcome),
        Some(t) => traced(args, &spec, t, &mut outcome),
    }
    outcome
}

fn untraced(args: &Args, spec: &CampaignSpec, outcome: &mut Outcome) {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut latencies = Vec::new();
    let mut first_records: Option<Vec<String>> = None;
    loop {
        let lap = Instant::now();
        let c = campaign(args.seed, spec, None);
        outcome.attempted += c.status.total_jobs as u64;
        outcome.failed += (c.status.total_jobs - c.status.completed) as u64;
        let records = check(outcome, &c);
        match &first_records {
            None => {
                // Later campaigns only add allocator retention to the
                // high-water mark, so the peak of the first one is reported.
                outcome.sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
                first_records = Some(records);
            }
            Some(first) => outcome.check(*first == records, || {
                "a repeated campaign of the same seed produced different cells".into()
            }),
        }
        setups.push(setup_s(args.seed, spec));
        rates.push(c.status.total_jobs as f64 / c.wall_s);
        latencies.extend(c.latencies_ms);
        let lap_s = lap.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + lap_s > args.seconds {
            break;
        }
    }
    outcome.note("campaign_cells_per_s", &rates);
    outcome.note("latency_samples", latencies.len());
    outcome.note("result_cache_hit_ratio", 0.0);
    outcome.sheet.set("runs_per_s", median(&rates), "1/s");
    outcome.sheet.set("run_p50_ms", percentile(&latencies, 0.5), "ms");
    outcome.sheet.set("run_p99_ms", percentile(&latencies, 0.99), "ms");
    outcome.sheet.set("setup_s", median(&setups), "s");
    outcome.records = first_records.unwrap_or_default();
}

fn traced(args: &Args, spec: &CampaignSpec, tracer: &Arc<Tracer>, outcome: &mut Outcome) {
    // The same campaign without and with benchmark spans, in ABBA order:
    // the difference is the tracing overhead.
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    for traced in abba(OVERHEAD_PAIRS) {
        let c = campaign(args.seed, spec, traced.then_some(tracer));
        outcome.attempted += c.status.total_jobs as u64;
        outcome.failed += (c.status.total_jobs - c.status.completed) as u64;
        let records = check(outcome, &c);
        if outcome.records.is_empty() {
            outcome.records = records;
        } else if outcome.records != records {
            outcome.errors.push("traced and untraced campaigns disagree".into());
        }
        if traced {
            traced_walls.push(c.wall_s);
            last = Some(c);
        } else {
            plain_walls.push(c.wall_s);
        }
    }
    let traced = last.expect("at least one traced campaign");
    let (plain_s, traced_s) = (median(&plain_walls), median(&traced_walls));
    outcome.sheet.set("trace_overhead_share", traced_s / plain_s - 1.0, "share");
    outcome.note("untraced_campaign_s", plain_s);
    outcome.note("traced_campaign_s", traced_s);

    // Queue wait of every job, from the scheduler's own job traces.
    let waits: Vec<f64> = traced
        .status
        .cells
        .iter()
        .filter_map(|c| traced.sched.job_status(&c.job)?.trace)
        .filter_map(|t| t.find("sched.enqueue").map(|q| (q.end_ms - q.start_ms) as f64))
        .collect();
    let metrics = traced.sched.metrics();
    let hits = metrics.counter_value("sched_cache_hits_total").unwrap_or(0) as f64;
    let misses = metrics.counter_value("sched_cache_misses_total").unwrap_or(0) as f64;

    // Per-layer decomposition over the TDX half of the matrix (the
    // ROADMAP baseline's 350 cells), plus the layers this workload does not
    // reach, measured on its own inputs.
    let tdx: Vec<_> = confbench_sched::campaign::expand(spec)
        .into_iter()
        .filter(|c| c.platform == TeePlatform::Tdx)
        .collect();
    let probe = layers::Probe { seed: args.seed, cells: &tdx, light: 40 };
    probe.run(tracer, outcome);
    let plan = fleet_churn::mini_plan(spec, &spec.functions[..3]);
    fleet_churn::fleet_layer(args.seed, &plan, tracer, outcome);

    outcome.sheet.set("sched.queue_wait_p50_ms", percentile_or_zero(&waits, 0.5), "ms");
    outcome.sheet.set("sched.cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    outcome.note("result_cache_hit_ratio", hits / (hits + misses).max(1.0));
}

/// The scheduler→gateway boundary as the benchmark sees it: every job goes
/// to the real [`Gateway`], and the benchmark notes how long each call took
/// (and, traced, records a span around it).
struct Dispatch {
    gateway: Arc<Gateway>,
    /// The tracer and the parent span of the traced run.
    tracer: Option<(Arc<Tracer>, Option<usize>)>,
    /// Duration of each dispatch that came back, ms.
    done: Mutex<Vec<f64>>,
    cv: Condvar,
}

impl Dispatch {
    fn new(gateway: Arc<Gateway>, tracer: Option<(Arc<Tracer>, Option<usize>)>) -> Self {
        Dispatch { gateway, tracer, done: Mutex::new(Vec::new()), cv: Condvar::new() }
    }

    /// Blocks until `n` dispatches have come back or `limit` passes;
    /// returns whether all `n` came back.
    fn wait_for(&self, n: usize, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        let mut done = self.done.lock().expect("dispatch lock");
        while done.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            done = self.cv.wait_timeout(done, left).expect("dispatch lock").0;
        }
        true
    }

    fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.done.lock().expect("dispatch lock"))
    }
}

impl Executor for Dispatch {
    fn execute(&self, request: &RunRequest) -> Result<RunResult> {
        let at = Instant::now();
        let result = match &self.tracer {
            Some((tracer, parent)) => {
                tracer.time("gateway.run", *parent, || self.gateway.run(request)).0
            }
            None => self.gateway.run(request),
        };
        let ms = at.elapsed().as_secs_f64() * 1e3;
        self.done.lock().expect("dispatch lock").push(ms);
        self.cv.notify_all();
        result
    }

    fn function_fingerprint(&self, name: &str) -> Option<String> {
        self.gateway.function_fingerprint(name)
    }
}
