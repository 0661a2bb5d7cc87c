//! `run-mix`: a closed loop of 2 keep-alive clients sending `POST /v1/run`
//! over loopback to a gateway that reaches one remote `HostAgent` per
//! platform over HTTP (the paper's gateway→TEE-host topology). Each request
//! is a (function, args, language) triple dealt from a seeded shuffle of
//! distinct triples over the 25 suite functions, their arguments spread
//! around the quick-scale ones, and the 7 languages, so no triple repeats
//! within a run; it goes to TDX or SEV-SNP, secure or normal, with 3
//! trials. Half the secure requests (a quarter of all) carry a live
//! attestation session token opened during setup.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use confbench::{AttestSessionInfo, FunctionStore, Gateway, HostAgent, HostConfig};
use confbench_bench::heatmap_quick_args;
use confbench_faasrt::FaasFunction as _;
use confbench_httpd::{Client, Method, Request, Server};
use confbench_obs::SpanRecorder;
use confbench_types::{
    CampaignCell, CampaignFunction, CampaignSpec, FunctionSpec, Language, Priority, RunRequest,
    RunResult, TeePlatform, VmKind, VmTarget,
};

use crate::common::{
    abba, mean, median, peak_rss_mb, percentile, repeated_share, SplitMix64, Tracer,
};
use crate::{fleet_churn, layers, Args, Outcome};

const CLIENTS: u64 = 2;
const TRIALS: u32 = 3;
const PLATFORMS: [TeePlatform; 2] = [TeePlatform::Tdx, TeePlatform::SevSnp];
/// Times the whole stack is built per run; `setup_s` is the median.
const SETUP_REPS: usize = 20;
/// Responses per client that enter the output digest.
const DIGEST_PREFIX: usize = 100;
/// Untraced/traced pass pairs behind `trace_overhead_share`.
const OVERHEAD_PAIRS: usize = 3;
/// Requests of client 0's stream that the traced run decomposes.
const PROBE_REQUESTS: usize = 150;

/// Gateway, remote hosts and the session tokens opened during setup.
struct Stack {
    gateway: Server,
    hosts: Vec<Server>,
    tokens: BTreeMap<TeePlatform, String>,
}

impl Stack {
    fn build(seed: u64) -> Result<Stack, String> {
        let mut hosts = Vec::new();
        let mut builder = Gateway::builder().seed(seed);
        for p in PLATFORMS {
            let config = HostConfig { seed, faults: None, ..HostConfig::default() };
            let agent = Arc::new(HostAgent::with_config(
                p,
                Arc::new(FunctionStore::new()),
                SpanRecorder::default(),
                config,
            ));
            let server = agent.serve().map_err(|e| format!("host {p} bind: {e}"))?;
            builder = builder.remote_host(p, server.addr());
            hosts.push(server);
        }
        let gateway = Arc::new(builder.build());
        let server = gateway.serve().map_err(|e| format!("gateway bind: {e}"))?;
        let client = Client::new(server.addr());
        let mut tokens = BTreeMap::new();
        for p in PLATFORMS {
            let body = serde_json::json!({ "platform": p });
            let request = Request::new(Method::Post, "/v1/attest/sessions").json(&body);
            let response = client.send(&request).map_err(|e| format!("attest {p}: {e}"))?;
            if response.status != 201 {
                return Err(format!("attest {p}: status {}", response.status));
            }
            let info: AttestSessionInfo =
                response.body_json().map_err(|e| format!("attest {p}: {e}"))?;
            tokens.insert(p, info.id);
        }
        Ok(Stack { gateway: server, hosts, tokens })
    }

    fn shutdown(self) {
        self.gateway.shutdown();
        for h in self.hosts {
            h.shutdown();
        }
    }
}

/// One generated request and whether it carries a session token.
struct Planned {
    request: RunRequest,
    token: bool,
}

/// Most argument tuples one function contributes to the [`Pool`].
const TUPLES_PER_FUNCTION: usize = 2_000;

/// Inclusive range each argument of `name` is drawn from. A size argument
/// whose cost grows linearly spans half to twice its quick-scale value;
/// the ones whose cost grows faster span about the same cost range.
fn arg_ranges(name: &str) -> Vec<(u64, u64)> {
    match name {
        "fib" => vec![(12, 14)],
        "binarytrees" => vec![(8, 10)],
        "matrix" => vec![(10, 15)],
        "dijkstra" => vec![(8, 12)],
        "mandelbrot" => vec![(14, 28)],
        "ack" => vec![(2, 8), (11, 22)],
        "spectralnorm" => vec![(14, 28), (1, 4)],
        _ => heatmap_quick_args(name)
            .iter()
            .map(|a| {
                let q: u64 = a.parse().expect("quick-scale arguments are integers");
                (q.div_ceil(2), 2 * q)
            })
            .collect(),
    }
}

/// Every argument tuple of `name`'s ranges, or [`TUPLES_PER_FUNCTION`]
/// evenly spaced ones when there are more.
fn arg_tuples(name: &str) -> Vec<Vec<String>> {
    let ranges = arg_ranges(name);
    let count: usize = ranges.iter().map(|(lo, hi)| (hi - lo + 1) as usize).product();
    let take = count.min(TUPLES_PER_FUNCTION);
    (0..take)
        .map(|j| {
            let mut index = j * count / take;
            let mut tuple = Vec::with_capacity(ranges.len());
            for (lo, hi) in ranges.iter().rev() {
                let width = (hi - lo + 1) as usize;
                tuple.push((lo + (index % width) as u64).to_string());
                index /= width;
            }
            tuple.reverse();
            tuple
        })
        .collect()
}

/// The distinct (function, args, language) triples of a run in a seeded
/// order. The clients deal from it in turn, so no triple repeats until a
/// run sends more requests than the pool holds.
struct Pool {
    /// (function, args) tuples.
    tuples: Vec<(String, Vec<String>)>,
    /// (tuple index, language), shuffled.
    order: Vec<(u32, Language)>,
}

impl Pool {
    fn new(seed: u64) -> Pool {
        let mut tuples = Vec::new();
        for f in confbench_workloads::faas_registry() {
            for args in arg_tuples(f.name()) {
                tuples.push((f.name().to_owned(), args));
            }
        }
        let mut order: Vec<(u32, Language)> = (0..tuples.len() as u32)
            .flat_map(|t| Language::ALL.into_iter().map(move |l| (t, l)))
            .collect();
        let mut rng = SplitMix64::new(seed ^ 0x5851_f42d_4c95_7f2d);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i as u64) as usize);
        }
        Pool { tuples, order }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    /// The `n`-th triple of the order, wrapping around at its end.
    fn triple(&self, n: usize) -> (&str, &[String], Language) {
        let (t, language) = self.order[n % self.order.len()];
        let (name, args) = &self.tuples[t as usize];
        (name, args, language)
    }
}

/// The seeded request stream of one client: every [`CLIENTS`]-th triple of
/// the pool, with a seeded target, seed and token choice per request.
struct Stream<'p> {
    pool: &'p Pool,
    next: usize,
    rng: SplitMix64,
}

impl<'p> Stream<'p> {
    fn new(pool: &'p Pool, seed: u64, client: u64) -> Self {
        Stream {
            pool,
            next: client as usize,
            rng: SplitMix64::new(seed ^ (client + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
        }
    }

    fn next(&mut self) -> Planned {
        let (name, args, language) = self.pool.triple(self.next);
        self.next += CLIENTS as usize;
        let platform = PLATFORMS[self.rng.range(0, 1) as usize];
        let kind = if self.rng.range(0, 1) == 0 { VmKind::Secure } else { VmKind::Normal };
        let seed = self.rng.next_u64();
        let token = kind == VmKind::Secure && self.rng.range(0, 1) == 0;
        Planned {
            request: RunRequest {
                function: FunctionSpec { name: name.to_owned(), language, args: args.to_vec() },
                target: VmTarget { platform, kind },
                trials: TRIALS,
                seed,
                deadline_ms: None,
                attest_session: None,
                device: None,
            },
            token,
        }
    }
}

/// What one closed-loop pass measured.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    ok: u64,
    failed: u64,
    tokens: u64,
    errors: Vec<String>,
    /// Per client: the first responses, as digest records.
    records: Vec<Vec<String>>,
    /// (function, args) → output, across every response.
    answers: BTreeMap<(String, Vec<String>), String>,
    /// Hash of each sent request's (function, args, language) triple.
    triples: Vec<u64>,
}

fn triple_hash(f: &FunctionSpec) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (&f.name, &f.args, f.language).hash(&mut h);
    h.finish()
}

fn check_response(
    planned: &RunRequest,
    response: Result<confbench_httpd::Response, confbench_httpd::HttpError>,
) -> Result<RunResult, String> {
    let response = response.map_err(|e| format!("transport: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "status {}: {}",
            response.status,
            String::from_utf8_lossy(&response.body)
        ));
    }
    let result: RunResult = response.body_json().map_err(|e| format!("bad body: {e}"))?;
    let f = &planned.function;
    if result.function != f.name
        || result.language != f.language
        || result.target != planned.target
        || result.trial_ms.len() != planned.trials as usize
        || result.output.is_empty()
    {
        return Err(format!("{}/{}: result does not match its request", f.name, f.language));
    }
    Ok(result)
}

/// Runs the closed loop for `seconds` with fresh streams.
fn closed_loop(
    stack: &Stack,
    pool: &Pool,
    seed: u64,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
) -> Pass {
    let addr = stack.gateway.addr();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let passes: Vec<Pass> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let client = Client::new(addr);
                    let mut stream = Stream::new(pool, seed, c);
                    let mut pass = Pass { records: vec![Vec::new()], ..Pass::default() };
                    while Instant::now() < deadline {
                        let planned = stream.next();
                        let mut request = planned.request.clone();
                        if planned.token {
                            request.attest_session =
                                Some(stack.tokens[&request.target.platform].clone());
                            pass.tokens += 1;
                        }
                        let f = &request.function;
                        pass.triples.push(triple_hash(f));
                        let span = tracer.map(|t| t.open("client.run", None));
                        let at = Instant::now();
                        let http = Request::new(Method::Post, "/v1/run").json(&request);
                        let outcome = check_response(&request, client.send(&http));
                        let ms = at.elapsed().as_secs_f64() * 1e3;
                        if let (Some(t), Some(id)) = (tracer, span) {
                            t.close(id);
                        }
                        match outcome {
                            Ok(result) => {
                                pass.ok += 1;
                                pass.latencies_ms.push(ms);
                                if pass.records[0].len() < DIGEST_PREFIX {
                                    pass.records[0].push(format!(
                                        "{c}|{}|{}|{:?}|{}|{:016x}|{}",
                                        f.name,
                                        f.language,
                                        f.args,
                                        request.target,
                                        result.stats.mean_ms.to_bits(),
                                        result.output
                                    ));
                                }
                                let key = (f.name.clone(), f.args.clone());
                                let first =
                                    pass.answers.entry(key).or_insert(result.output.clone());
                                if *first != result.output {
                                    pass.errors.push(format!(
                                        "{}/{} {:?}: output {:?} differs from {:?}",
                                        f.name, f.language, f.args, result.output, first
                                    ));
                                }
                            }
                            Err(e) => {
                                pass.failed += 1;
                                pass.errors.push(e);
                            }
                        }
                    }
                    pass
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut total = Pass { wall_s: started.elapsed().as_secs_f64(), ..Pass::default() };
    for p in passes {
        total.latencies_ms.extend(p.latencies_ms);
        total.ok += p.ok;
        total.failed += p.failed;
        total.tokens += p.tokens;
        total.errors.extend(p.errors);
        total.records.extend(p.records);
        total.triples.extend(p.triples);
        for (key, output) in p.answers {
            let first = total.answers.entry(key.clone()).or_insert(output.clone());
            if *first != output {
                total.errors.push(format!("{key:?}: clients disagree ({first:?} vs {output:?})"));
            }
        }
    }
    total
}

/// Digest records, complete only when every client got far enough.
fn records(pass: &Pass) -> Option<Vec<String>> {
    pass.records.iter().all(|r| r.len() == DIGEST_PREFIX).then(|| pass.records.concat())
}

fn shares(pass: &Pass, outcome: &mut Outcome) {
    let sent = pass.triples.len().max(1) as f64;
    outcome.note("repeated_triple_share", repeated_share(&pass.triples));
    outcome.note("token_share", pass.tokens as f64 / sent);
    // Request seeds are drawn per request, so no two runs share a content
    // address: a result cache in front of this mix would never hit.
    outcome.note("result_cache_hit_ratio", 0.0);
    outcome.note("latency_samples", pass.latencies_ms.len());
}

pub fn run(args: &Args, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        let at = Instant::now();
        match Stack::build(args.seed) {
            Ok(s) => {
                setups.push(at.elapsed().as_secs_f64());
                if let Some(old) = stack.replace(s) {
                    Stack::shutdown(old);
                }
            }
            Err(e) => {
                outcome.errors.push(format!("setup: {e}"));
                break;
            }
        }
    }
    let Some(stack) = stack else {
        outcome.attempted = 1;
        outcome.failed = 1;
        return outcome;
    };
    let pool = Pool::new(args.seed);
    outcome.note("pool_triples", pool.len());

    match tracer {
        None => {
            let pass = closed_loop(&stack, &pool, args.seed, args.seconds, None);
            outcome.attempted = pass.ok + pass.failed;
            outcome.failed = pass.failed;
            outcome.errors.extend(pass.errors.iter().cloned());
            shares(&pass, &mut outcome);
            if pass.latencies_ms.is_empty() {
                outcome.errors.push("no request completed".into());
            } else {
                outcome.sheet.set("runs_per_s", pass.ok as f64 / pass.wall_s, "1/s");
                outcome.sheet.set("run_p50_ms", percentile(&pass.latencies_ms, 0.5), "ms");
                outcome.sheet.set("run_p99_ms", percentile(&pass.latencies_ms, 0.99), "ms");
            }
            outcome.sheet.set("setup_s", median(&setups), "s");
            outcome.sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
            match records(&pass) {
                Some(r) => outcome.records = r,
                None => outcome.note("digest", "partial: a client finished fewer requests"),
            }
        }
        Some(t) => traced(args, &stack, &pool, t, &mut outcome),
    }
    stack.shutdown();
    outcome
}

fn traced(args: &Args, stack: &Stack, pool: &Pool, tracer: &Arc<Tracer>, outcome: &mut Outcome) {
    // Untraced and traced passes over the same request streams, in ABBA
    // order: the difference in mean latency is the tracing overhead.
    let segment = args.seconds / (2 * OVERHEAD_PAIRS) as f64;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for on in abba(OVERHEAD_PAIRS) {
        let pass = closed_loop(stack, pool, args.seed, segment, on.then_some(tracer));
        outcome.attempted += pass.ok + pass.failed;
        outcome.failed += pass.failed;
        outcome.errors.extend(pass.errors.iter().cloned());
        match (records(&pass), outcome.records.is_empty()) {
            (Some(r), true) => outcome.records = r,
            (Some(r), false) if r != outcome.records => {
                outcome.errors.push("passes over the same requests disagree".into());
            }
            _ => {}
        }
        if on {
            shares(&pass, outcome);
            traced.extend(pass.latencies_ms);
        } else {
            plain.extend(pass.latencies_ms);
        }
    }
    let (plain_ms, traced_ms) = (mean(&plain), mean(&traced));
    outcome.sheet.set(
        "trace_overhead_share",
        traced_ms / plain_ms.max(f64::MIN_POSITIVE) - 1.0,
        "share",
    );
    outcome.note("untraced_mean_ms", plain_ms);
    outcome.note("traced_mean_ms", traced_ms);

    // The probe decomposes the start of client 0's request stream.
    let mut stream = Stream::new(pool, args.seed, 0);
    let cells: Vec<_> = (0..PROBE_REQUESTS).map(|_| request_cell(&stream.next().request)).collect();
    let probe = layers::Probe { seed: args.seed, cells: &cells, light: 60 };
    probe.run(tracer, outcome);

    let mut names: Vec<String> = Vec::new();
    for c in &cells {
        if !names.contains(&c.function.name) {
            names.push(c.function.name.clone());
        }
    }
    let functions: Vec<CampaignFunction> = names[..3]
        .iter()
        .map(|n| CampaignFunction { name: n.clone(), args: heatmap_quick_args(n) })
        .collect();
    let template = CampaignSpec {
        functions: Vec::new(),
        languages: Language::ALL.to_vec(),
        platforms: PLATFORMS.to_vec(),
        modes: vec![VmKind::Secure, VmKind::Normal],
        trials: TRIALS,
        seed: args.seed,
        priority: Priority::Normal,
        deadline_ms: None,
        device: None,
    };
    let plan = fleet_churn::mini_plan(&template, &functions);
    fleet_churn::fleet_layer(args.seed, &plan, tracer, outcome);

    // The layers this workload exercises for real, read from its own
    // gateway's registry (its server publishes there too).
    let m = stack.gateway.metrics();
    let reused = m.counter_value("httpd_keepalive_reuse_total").unwrap_or(0) as f64;
    let requests = m.counter_value("httpd_requests_total").unwrap_or(0) as f64;
    let s = &mut outcome.sheet;
    s.set("httpd.keepalive_reuse_ratio", reused / requests.max(1.0), "ratio");
    s.set("httpd.rejected", m.counter_value("httpd_rejected_total").unwrap_or(0) as f64, "count");
    let hits = m.counter_value("attest_cache_hits_total").unwrap_or(0) as f64;
    let misses = m.counter_value("attest_cache_misses_total").unwrap_or(0) as f64;
    s.set("attest.cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    let retries = m.counter_value("gateway_retries_total").unwrap_or(0);
    s.set("confbench.retries", retries as f64, "count");
    s.set("sched.cache_hit_ratio", 0.0, "ratio");
}

/// Converts a run request into the campaign cell that would dispatch it.
fn request_cell(request: &RunRequest) -> CampaignCell {
    CampaignCell {
        function: CampaignFunction {
            name: request.function.name.clone(),
            args: request.function.args.clone(),
        },
        language: request.function.language,
        platform: request.target.platform,
        kind: request.target.kind,
        trials: request.trials,
        seed: request.seed,
        device: request.device,
    }
}
