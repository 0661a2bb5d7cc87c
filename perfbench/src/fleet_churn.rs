//! `fleet-churn`: a 3-shard in-process fleet over all three platforms with
//! quick-scale cells. Campaign A is submitted and drained (all result-cache
//! writes); campaign B, half of whose functions overlap A, follows (those
//! cells are cache reads on their ring owners); after a fixed number of
//! pumps one shard is killed and the fleet drained. Successive iterations
//! of a run kill each shard in turn. The traced run adds a series of
//! TDX-secure live migrations.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use confbench_bench::heatmap_quick_args;
use confbench_fleet::{Fleet, FleetConfig, MigrationConfig};
use confbench_sched::{CachedCell, Executor as _};
use confbench_types::{
    CampaignFunction, CampaignSpec, Language, OpTrace, Priority, TeePlatform, VmKind, VmTarget,
};

use crate::common::{
    abba, mean, median, peak_rss_mb, percentile, percentile_or_zero, repeated_share, Tracer,
};
use crate::{layers, Args, Outcome};

/// Shards of the fleet; a run kills each in turn.
const SHARDS: usize = 3;
/// Functions of campaign A; B keeps the first three and adds three more.
const A_FUNCTIONS: [&str; 6] = ["cpustress", "iostress", "fib", "json", "matrix", "wordcount"];
const B_NEW: [&str; 3] = ["quicksort", "checksum", "nbody"];
/// Pumps of campaign B before a shard is killed.
const KILL_AFTER_PUMPS: usize = 10;
/// Live migrations in the traced run's series.
const MIGRATIONS: usize = 200;
/// Fewest untraced/traced iteration pairs behind `trace_overhead_share`.
const MIN_OVERHEAD_PAIRS: usize = 3;
/// Timed harvests after a traced iteration's drain.
const HARVEST_REPS: usize = 20;
/// Upper bound on pumps per iteration (a stuck fleet is a failure).
const PUMP_LIMIT: usize = 100_000;

/// The two campaigns, the kill point and the migration count of one
/// iteration.
pub struct Plan {
    a: CampaignSpec,
    b: CampaignSpec,
    kill_after: usize,
    kill: usize,
    migrations: usize,
}

fn quick_spec(seed: u64, names: &[&str]) -> CampaignSpec {
    CampaignSpec {
        functions: names
            .iter()
            .map(|n| {
                let mut f = CampaignFunction::new(*n);
                f.args = heatmap_quick_args(n);
                f
            })
            .collect(),
        languages: Language::ALL.to_vec(),
        platforms: TeePlatform::ALL.to_vec(),
        modes: vec![VmKind::Secure, VmKind::Normal],
        trials: 3,
        seed,
        priority: Priority::Normal,
        deadline_ms: None,
        device: None,
    }
}

fn plan(seed: u64, kill: usize, migrations: usize) -> Plan {
    let b_names: Vec<&str> = A_FUNCTIONS[..3].iter().chain(B_NEW.iter()).copied().collect();
    Plan {
        a: quick_spec(seed, &A_FUNCTIONS),
        b: quick_spec(seed, &b_names),
        kill_after: KILL_AFTER_PUMPS,
        kill,
        migrations,
    }
}

/// What one iteration measured.
#[derive(Default)]
struct Iteration {
    setup_s: f64,
    wall_s: f64,
    cells: usize,
    unique: usize,
    /// Per-cell time from its campaign's submission until harvested, ms.
    latencies_ms: Vec<f64>,
    rejected: usize,
    executions: u64,
    steals: u64,
    replaced: usize,
    lost_at_kill: u64,
    cache_hits: u64,
    results: BTreeMap<String, CachedCell>,
    submit_us: Vec<f64>,
    pump_us: Vec<f64>,
    harvest_us: Vec<f64>,
    migrate_us: Vec<f64>,
    blackout_us: Vec<f64>,
    rounds: Vec<f64>,
    wire_bytes: Vec<f64>,
    migrate_failed: usize,
    errors: Vec<String>,
}

/// Progress of one submitted campaign while the fleet pumps.
struct Tracked {
    id: String,
    submitted: Instant,
    done: usize,
    total: usize,
}

impl Tracked {
    /// Records the latency of cells harvested since the last look.
    fn observe(&mut self, fleet: &Fleet, latencies: &mut Vec<f64>) -> bool {
        let status = fleet.campaign_status(&self.id).expect("submitted campaign exists");
        let ms = self.submitted.elapsed().as_secs_f64() * 1e3;
        latencies.extend(std::iter::repeat_n(ms, status.done.saturating_sub(self.done)));
        self.done = status.done;
        status.complete
    }
}

/// A warm-up trace for migration sources: enough resident pages that
/// pre-copy has real work.
fn warm_trace() -> OpTrace {
    let mut warm = OpTrace::new();
    warm.cpu(10_000_000);
    warm.alloc(64 * 4096);
    warm.cpu(2_000_000);
    warm
}

/// Runs one iteration: fresh fleet, campaign A, campaign B with a shard
/// kill, then the migration series. Spans are recorded when traced.
fn iteration(seed: u64, plan: &Plan, tracer: Option<&Arc<Tracer>>) -> Iteration {
    let mut it = Iteration::default();
    let root = tracer.map(|t| t.open("fleet.iteration", None));
    let span = |name: &str| tracer.map(|t| t.open(name, root));
    let close = |id: Option<usize>| id.map(|id| tracer.expect("span implies tracer").close(id));

    let setup = Instant::now();
    let fleet = Fleet::new(FleetConfig { shards: SHARDS, seed, ..FleetConfig::default() });
    it.setup_s = setup.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut pumps = 0usize;
    // `Fleet::pump` harvests at its end, so a pump's time includes it.
    let pump = |it: &mut Iteration| {
        let s = span("fleet.pump");
        let progressed = fleet.pump();
        if let Some(us) = close(s) {
            it.pump_us.push(us);
        }
        progressed
    };
    for (phase, spec) in [("a", &plan.a), ("b", &plan.b)] {
        let s = span("fleet.submit");
        let submitted = Instant::now();
        let receipt = fleet.submit(spec.clone());
        if let Some(us) = close(s) {
            it.submit_us.push(us / spec.cell_count() as f64);
        }
        it.cells += spec.cell_count();
        let receipt = match receipt {
            Ok(r) => r,
            Err(e) => {
                it.rejected += spec.cell_count();
                it.errors.push(format!("campaign {phase} rejected: {e}"));
                continue;
            }
        };
        let mut tracked = Tracked { id: receipt.id, submitted, done: 0, total: receipt.jobs };
        let mut phase_pumps = 0usize;
        loop {
            if phase == "b" && phase_pumps == plan.kill_after {
                let executed_before: u64 = fleet.total_executions();
                let harvested_before = fleet.results().len() as u64;
                it.lost_at_kill = executed_before.saturating_sub(harvested_before);
                let s = span("fleet.kill_shard");
                it.replaced = fleet.kill_shard(plan.kill);
                close(s);
            }
            let progressed = pump(&mut it);
            phase_pumps += 1;
            pumps += 1;
            if tracked.observe(&fleet, &mut it.latencies_ms) {
                break;
            }
            if !progressed && phase_pumps > plan.kill_after || pumps > PUMP_LIMIT {
                it.errors.push(format!(
                    "campaign {phase} stalled at {}/{} cells",
                    tracked.done, tracked.total
                ));
                break;
            }
        }
    }
    fleet.drain();
    it.wall_s = started.elapsed().as_secs_f64();

    // A harvest over the drained fleet, outside the wall: the same walk
    // over every shard's cache that ends each pump, with nothing new.
    if tracer.is_some() {
        for _ in 0..HARVEST_REPS {
            let h = span("fleet.harvest");
            fleet.harvest();
            it.harvest_us.push(close(h).expect("traced"));
        }
    }

    it.results = fleet.results();
    it.unique = it.results.len();
    it.executions = fleet.total_executions();
    it.steals = fleet.steals();
    it.cache_hits = fleet.status().iter().map(|s| s.cache_hits).sum();

    let warm = warm_trace();
    for i in 0..plan.migrations {
        let cfg = MigrationConfig { nonce: i as u64, ..MigrationConfig::default() };
        let s = span("fleet.run_migration");
        let at = Instant::now();
        let report = fleet.run_migration(
            VmTarget::secure(TeePlatform::Tdx),
            std::slice::from_ref(&warm),
            &cfg,
        );
        let us = close(s).unwrap_or_else(|| at.elapsed().as_secs_f64() * 1e6);
        match report {
            Ok(r) => {
                it.migrate_us.push(us);
                it.blackout_us.push(r.downtime_us as f64);
                it.rounds.push(f64::from(r.precopy_rounds));
                it.wire_bytes.push(r.wire_bytes as f64);
            }
            Err(e) => {
                it.migrate_failed += 1;
                it.errors.push(format!("migration {i} failed: {e}"));
            }
        }
    }
    close(root);
    it
}

/// Checks an iteration's outputs and dedup identity; returns its records.
fn check(outcome: &mut Outcome, plan: &Plan, it: &Iteration) -> Vec<String> {
    outcome.errors.extend(it.errors.iter().cloned());
    let expected_unique = {
        let a: BTreeSet<&str> = plan.a.functions.iter().map(|f| f.name.as_str()).collect();
        let b: BTreeSet<&str> = plan.b.functions.iter().map(|f| f.name.as_str()).collect();
        let per_function = plan.a.cell_count() / plan.a.functions.len();
        a.union(&b).count() * per_function
    };
    outcome.check(it.unique == expected_unique, || {
        format!("fleet harvested {} unique cells, expected {expected_unique}", it.unique)
    });
    // Dedup identity: every unique cell executes once, plus the cells the
    // kill lost after they executed but before they were harvested.
    outcome.check(it.executions == it.unique as u64 + it.lost_at_kill, || {
        format!(
            "dedup: {} executions != {} unique + {} lost at the kill",
            it.executions, it.unique, it.lost_at_kill
        )
    });
    // Every expected cell is harvested, and every language, platform and
    // VM kind computes the same answer for a function and its arguments.
    let gateway = confbench::Gateway::builder().local_host(TeePlatform::Tdx).build();
    let mut answers: BTreeMap<String, String> = BTreeMap::new();
    let mut records = Vec::new();
    for spec in [&plan.a, &plan.b] {
        for cell in confbench_sched::campaign::expand(spec) {
            let fingerprint = gateway.function_fingerprint(&cell.function.name).unwrap_or_default();
            let key = confbench_sched::cache_key(&cell, &fingerprint);
            let Some(result) = it.results.get(&key) else {
                outcome.errors.push(format!("cell {key} was never harvested"));
                continue;
            };
            let first = answers.entry(cell.function.name.clone()).or_insert(result.output.clone());
            if *first != result.output {
                outcome.errors.push(format!(
                    "{}/{}/{}/{}: output {:?} differs from {:?}",
                    cell.function.name,
                    cell.language,
                    cell.platform,
                    cell.kind,
                    result.output,
                    first
                ));
            }
            records.push(format!(
                "{}|{}|{}|{}|{:016x}|{}",
                cell.function.name,
                cell.language,
                cell.platform,
                cell.kind,
                result.mean_ms.to_bits(),
                result.output
            ));
        }
    }
    records.sort();
    records.dedup();
    records.push(format!(
        "steals={} replaced={} executions={}",
        it.steals, it.replaced, it.executions
    ));
    records
}

pub fn run(args: &Args, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut outcome = Outcome::default();
    let first_kill = (args.seed % SHARDS as u64) as usize;
    let untraced_plan = plan(args.seed, first_kill, 0);
    let cells = confbench_sched::campaign::expand(&untraced_plan.a)
        .into_iter()
        .chain(confbench_sched::campaign::expand(&untraced_plan.b));
    let triples = cells.map(|c| (c.function.name, c.function.args, c.language));
    outcome.note("repeated_triple_share", repeated_share(triples));
    outcome.note("token_share", 0.0);
    match tracer {
        None => {
            let started = Instant::now();
            let (mut setups, mut rates, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
            // Iteration k kills shard (seed + k) % SHARDS, so every run
            // weighs the three kills alike and ends on a whole rotation.
            let plans: Vec<Plan> =
                (0..SHARDS).map(|k| plan(args.seed, (first_kill + k) % SHARDS, 0)).collect();
            let mut first: Vec<Vec<String>> = Vec::new();
            let mut hits = (0u64, 0u64);
            for k in 0.. {
                let lap = Instant::now();
                let plan = &plans[k % SHARDS];
                let it = iteration(args.seed, plan, None);
                outcome.attempted += it.cells as u64;
                outcome.failed += it.rejected as u64;
                let records = check(&mut outcome, plan, &it);
                if k == 0 {
                    // Later iterations only add allocator retention to the
                    // high-water mark: report the first one's peak.
                    outcome.sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
                }
                match first.get(k % SHARDS) {
                    None => {
                        first.push(records);
                        for (name, value) in [
                            ("fleet.steals", it.steals as usize),
                            ("fleet.replaced_cells", it.replaced),
                            ("fleet.executions", it.executions as usize),
                        ] {
                            let name = format!("{name}@kill{}", plan.kill);
                            outcome.exact.insert(name, value.to_string());
                        }
                    }
                    Some(f) => outcome.check(*f == records, || {
                        "a repeated fleet iteration of the same seed produced different results"
                            .into()
                    }),
                }
                hits = (hits.0 + it.cache_hits, hits.1 + it.cells as u64);
                setups.push(it.setup_s);
                rates.push(it.cells as f64 / it.wall_s);
                latencies.extend(it.latencies_ms);
                let over = started.elapsed().as_secs_f64() + lap.elapsed().as_secs_f64();
                if (k + 1) % SHARDS == 0 && over > args.seconds {
                    break;
                }
            }
            outcome.note("iteration_cells_per_s", &rates);
            outcome.note("latency_samples", latencies.len());
            outcome.note("iterations", rates.len());
            outcome.note("result_cache_hit_ratio", hits.0 as f64 / hits.1.max(1) as f64);
            outcome.sheet.set("runs_per_s", median(&rates), "1/s");
            outcome.sheet.set("run_p50_ms", percentile(&latencies, 0.5), "ms");
            outcome.sheet.set("run_p99_ms", percentile(&latencies, 0.99), "ms");
            outcome.sheet.set("setup_s", median(&setups), "s");
            outcome.records = first.concat();
        }
        Some(t) => {
            // Untraced and traced iterations alternate; the overhead compares
            // their median walls.
            let traced_plan = plan(args.seed, first_kill, MIGRATIONS);
            let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
            let mut last = None;
            // Pairs continue until half the run is used; the probe follows.
            let started = Instant::now();
            for (i, traced) in abba(usize::MAX).enumerate() {
                let half_used = started.elapsed().as_secs_f64() > args.seconds / 2.0;
                if i % 2 == 0 && i >= 2 * MIN_OVERHEAD_PAIRS && half_used {
                    break;
                }
                let (p, tr) = if traced { (&traced_plan, Some(t)) } else { (&untraced_plan, None) };
                let it = iteration(args.seed, p, tr);
                outcome.attempted += (it.cells + it.blackout_us.len()) as u64;
                outcome.failed += (it.rejected + it.migrate_failed) as u64;
                let records = check(&mut outcome, p, &it);
                if outcome.records.is_empty() {
                    outcome.records = records;
                } else if outcome.records != records {
                    outcome.errors.push("traced and untraced fleet iterations disagree".into());
                }
                if traced {
                    traced_walls.push(it.wall_s);
                    last = Some(it);
                } else {
                    plain_walls.push(it.wall_s);
                }
            }
            let traced = last.expect("at least one traced iteration");
            let (plain_s, traced_s) = (median(&plain_walls), median(&traced_walls));
            outcome.sheet.set("trace_overhead_share", traced_s / plain_s - 1.0, "share");
            outcome.note("untraced_fleet_s", plain_s);
            outcome.note("traced_fleet_s", traced_s);
            fleet_metrics(&traced, &mut outcome);
            let hit_ratio = traced.cache_hits as f64 / traced.cells.max(1) as f64;
            outcome.sheet.set("sched.cache_hit_ratio", hit_ratio, "ratio");
            outcome.note("result_cache_hit_ratio", hit_ratio);

            // The layer probe replays the unique cells of both campaigns.
            let mut cells = confbench_sched::campaign::expand(&traced_plan.a);
            let seen: BTreeSet<String> = cells.iter().map(|c| format!("{c:?}")).collect();
            cells.extend(
                confbench_sched::campaign::expand(&traced_plan.b)
                    .into_iter()
                    .filter(|c| !seen.contains(&format!("{c:?}"))),
            );
            let probe = layers::Probe { seed: args.seed, cells: &cells, light: 60 };
            probe.run(t, &mut outcome);
        }
    }
    outcome
}

/// Per-layer `fleet.*` metrics of one (traced) iteration.
fn fleet_metrics(it: &Iteration, outcome: &mut Outcome) {
    let s = &mut outcome.sheet;
    s.set("fleet.submit_us_per_cell", mean(&it.submit_us), "us");
    s.set("fleet.pump_us", mean(&it.pump_us), "us");
    s.set("fleet.harvest_us", mean(&it.harvest_us), "us");
    s.set("fleet.steals", it.steals as f64, "count");
    s.set("fleet.executions", it.executions as f64, "count");
    s.set("fleet.replaced_cells", it.replaced as f64, "count");
    s.set("fleet.dedup_ratio", it.executions as f64 / it.unique.max(1) as f64, "ratio");
    s.set("fleet.migrate_us", mean(&it.migrate_us), "us");
    s.set("fleet.migrate_precopy_rounds", mean(&it.rounds), "count");
    s.set("fleet.migrate_wire_bytes", mean(&it.wire_bytes), "bytes");
    s.set("fleet.migrate_blackout_p50_us", percentile_or_zero(&it.blackout_us, 0.5), "us");
    for (name, value) in [
        ("fleet.steals", it.steals.to_string()),
        ("fleet.replaced_cells", it.replaced.to_string()),
        ("fleet.executions", it.executions.to_string()),
        ("fleet.migrate_wire_bytes", mean(&it.wire_bytes).to_string()),
    ] {
        outcome.exact.insert(name.into(), value);
    }
    outcome.note("migrations", it.blackout_us.len());
    outcome.note("fleet_unique_cells", it.unique);
    outcome.note("fleet_lost_at_kill", it.lost_at_kill);
}

/// Mini-fleet plan for workloads that do not reach the fleet themselves:
/// campaign A holds the first two of `functions`, campaign B keeps the
/// first and adds the third.
pub fn mini_plan(template: &CampaignSpec, functions: &[CampaignFunction]) -> Plan {
    let spec = |fs: Vec<CampaignFunction>| CampaignSpec { functions: fs, ..template.clone() };
    Plan {
        a: spec(functions[..2].to_vec()),
        b: spec(vec![functions[0].clone(), functions[2].clone()]),
        kill_after: 2,
        kill: (template.seed % SHARDS as u64) as usize,
        migrations: 20,
    }
}

/// The `fleet.*` layer measured on a mini plan (for fig6-cold and run-mix).
pub fn fleet_layer(seed: u64, plan: &Plan, tracer: &Arc<Tracer>, outcome: &mut Outcome) {
    let it = iteration(seed, plan, Some(tracer));
    outcome.attempted += (plan.a.cell_count() + plan.b.cell_count() + plan.migrations) as u64;
    outcome.failed += (it.rejected + it.migrate_failed) as u64;
    let _ = check(outcome, plan, &it);
    fleet_metrics(&it, outcome);
}
