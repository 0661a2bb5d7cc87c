//! The per-layer probe of the traced run. Each layer is timed from outside
//! by calling its public entry points with the workload's own inputs:
//! `sched` (submit, step, status, cache key), `confbench` (`Gateway::run`,
//! `HostAgent::execute`), `faasrt` (`FunctionLauncher::launch`), `vmm`
//! (`TeeVmBuilder::try_build`, `Vm::try_execute` with the cache model on
//! and off), `perfmon` (`PerfStat::try_measure_spanned`), `types` (serde
//! on `RunRequest`/`RunResult`), `httpd` (`Request::read_from_buffered`,
//! the remote host hop, health round trips), `attest`
//! (`AttestService::{open_session, ensure_session}`) and `obs` (span
//! recording). A layer's self time is its call minus the separately timed
//! calls to the layers beneath it, made with the same inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use confbench::{
    AttestConfig, AttestService, FunctionStore, Gateway, HostAgent, HostConfig, SystemClock,
};
use confbench_faasrt::FunctionLauncher;
use confbench_httpd::{Client, Method, Request};
use confbench_obs::{MetricsRegistry, SpanRecorder};
use confbench_perfmon::PerfStat;
use confbench_sched::{cache_key, CachedCell, Executor, Scheduler, SchedulerConfig};
use confbench_types::{
    CampaignCell, FunctionSpec, Language, OpTrace, Priority, RunRequest, RunResult, TeePlatform,
    TraceSpan, VmTarget,
};
use confbench_vmm::{ExecutionReport, TeeVmBuilder, Vm};

use crate::common::{mean, percentile_or_zero, us_since, Tracer};
use crate::Outcome;

/// How the host agent's supervisor derives a request's VM seed.
fn vm_seed(host_seed: u64, request_seed: u64) -> u64 {
    host_seed ^ request_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Repetitions of each sub-microsecond codec call, so one timing covers
/// enough work to read.
const CODEC_REPS: usize = 20;

/// The probe's inputs: the gateway/host seed the workload used and the
/// cells to decompose; the `light` cheapest of them also go through the
/// codec and HTTP measurements.
pub struct Probe<'a> {
    pub seed: u64,
    pub cells: &'a [CampaignCell],
    pub light: usize,
}

/// One sampled cell and its `Gateway::run` result.
struct Executed {
    cell: CampaignCell,
    result: RunResult,
}

/// Sums of the simulated counts over every execution with the cache model on.
#[derive(Default)]
struct SimCounts {
    cache_refs: u64,
    cache_misses: u64,
    vm_exits: u64,
    bounce_bytes: u64,
    cycles: u64,
}

impl SimCounts {
    fn add(&mut self, r: &ExecutionReport) {
        self.cache_refs += r.perf.cache_references;
        self.cache_misses += r.perf.cache_misses;
        self.vm_exits += r.perf.vm_exits;
        self.bounce_bytes += r.perf.bounce_bytes;
        self.cycles += r.perf.cycles;
    }
}

fn platforms(cells: &[CampaignCell]) -> Vec<TeePlatform> {
    cells.iter().map(|c| c.platform).collect::<BTreeSet<_>>().into_iter().collect()
}

fn gateway(seed: u64, platforms: &[TeePlatform]) -> Arc<Gateway> {
    let mut builder = Gateway::builder().seed(seed);
    for &p in platforms {
        builder = builder.local_host(p);
    }
    Arc::new(builder.build())
}

fn host(seed: u64, platform: TeePlatform, metrics: &Arc<MetricsRegistry>) -> Arc<HostAgent> {
    let config = HostConfig {
        seed,
        faults: None,
        metrics: Some(Arc::clone(metrics)),
        ..HostConfig::default()
    };
    Arc::new(HostAgent::with_config(
        platform,
        Arc::new(FunctionStore::new()),
        SpanRecorder::default(),
        config,
    ))
}

impl Probe<'_> {
    pub fn run(&self, tracer: &Arc<Tracer>, outcome: &mut Outcome) {
        let executed = self.gateway_and_below(tracer, outcome);
        self.scheduler(tracer, &executed, outcome);
        // Codec and HTTP costs hardly depend on the run's size; the
        // cheapest cells keep the hop above the execution-time noise.
        let mut light: Vec<&Executed> = executed.iter().collect();
        light.sort_by(|a, b| a.result.stats.mean_ms.total_cmp(&b.result.stats.mean_ms));
        light.truncate(self.light);
        codecs(tracer, &light, outcome);
        self.http(tracer, &light, outcome);
        spans(&executed, outcome);
        attest(tracer, self.seed, outcome);
    }

    /// `Gateway::run` and `HostAgent::execute` on each cell's request
    /// (alternating which goes first, so neither gets the warmer caches),
    /// then the layers beneath the host on the same request:
    /// `FunctionLauncher::launch`, `TeeVmBuilder::try_build`,
    /// `Vm::try_execute` (cache model on and off) and
    /// `PerfStat::try_measure_spanned`.
    fn gateway_and_below(&self, tracer: &Arc<Tracer>, outcome: &mut Outcome) -> Vec<Executed> {
        let platforms = platforms(self.cells);
        let gw = gateway(self.seed, &platforms);
        let registry = Arc::new(MetricsRegistry::new());
        let hosts: BTreeMap<TeePlatform, Arc<HostAgent>> =
            platforms.iter().map(|&p| (p, host(self.seed, p, &registry))).collect();
        let store = FunctionStore::new();
        let recorder = SpanRecorder::default();
        let mut launch_us: BTreeMap<Language, Vec<f64>> = BTreeMap::new();
        let (mut gw_total, mut host_total, mut below_total) = (0.0, 0.0, 0.0);
        let (mut gw_self, mut host_self) = (Vec::new(), Vec::new());
        let (mut build, mut exec, mut nocache, mut perf) = (Vec::new(), 0.0, 0.0, Vec::new());
        let (mut executes, mut ops, mut trace_ops) = (0u64, 0u64, 0u64);
        let mut counts = SimCounts::default();
        let mut executed = Vec::with_capacity(self.cells.len());

        for (i, cell) in self.cells.iter().enumerate() {
            let req = request(cell);
            let root = tracer.open("probe.cell", None);
            let host = &hosts[&req.target.platform];
            let via_gateway = || tracer.time("gateway.run", Some(root), || gw.run(&req));
            let direct = || tracer.time("host.execute", Some(root), || host.execute(&req));
            let ((gw_result, gw_us), (host_result, host_us)) = if i % 2 == 0 {
                let g = via_gateway();
                (g, direct())
            } else {
                let h = direct();
                (via_gateway(), h)
            };
            outcome.attempted += 2;
            let (gw_result, host_result) = match (gw_result, host_result) {
                (Ok(g), Ok(h)) => (g, h),
                (g, h) => {
                    outcome.failed += u64::from(g.is_err()) + u64::from(h.is_err());
                    outcome
                        .errors
                        .push(format!("{}: gateway or host run failed", req.function.name));
                    tracer.close(root);
                    continue;
                }
            };
            outcome.check(
                host_result.trial_ms == gw_result.trial_ms
                    && host_result.output == gw_result.output,
                || format!("{}: host and gateway results differ", req.function.name),
            );

            let function = store.get(&req.function.name).expect("suite function is stored");
            let language = req.function.language;
            let (launched, l_us) = tracer.time("faasrt.launch", Some(root), || {
                FunctionLauncher::new(language).launch(&function, &req.function.args)
            });
            let launched = launched.expect("the host launched the same function");
            launch_us.entry(language).or_default().push(l_us);
            trace_ops += (launched.trace.len() + launched.startup_trace.len()) as u64;

            let seed = vm_seed(self.seed, req.seed);
            let (vm, b_us) = tracer.time("vmm.build", Some(root), || {
                TeeVmBuilder::new(req.target).seed(seed).try_build()
            });
            let mut vm = vm.expect("no fault plan, so boots succeed");
            build.push(b_us);
            let traces: Vec<&OpTrace> = std::iter::once(&launched.startup_trace)
                .chain(std::iter::repeat_n(&launched.trace, req.trials as usize - 1))
                .collect();
            let (cell_exec, reports) = replay(tracer, root, &mut vm, "vmm.execute", &traces);
            let mut trial_ms = Vec::new();
            for (i, (report, trace)) in reports.iter().zip(&traces).enumerate() {
                counts.add(report);
                executes += 1;
                ops += trace.len() as u64;
                if i > 0 {
                    trial_ms.push(report.wall_ms);
                }
            }
            let ((report, _sample), p_us) = {
                let (measured, us) = tracer.time("perfmon.measure", Some(root), || {
                    PerfStat::for_vm(&vm).try_measure_spanned(&mut vm, &launched.trace, &recorder)
                });
                (measured.expect("no fault plan, so the measured trial succeeds"), us)
            };
            perf.push(p_us);
            counts.add(&report);
            trial_ms.push(report.wall_ms);
            outcome.check(trial_ms == host_result.trial_ms, || {
                format!("{}/{language}: direct replay differs from the host", req.function.name)
            });

            let mut plain = TeeVmBuilder::new(req.target)
                .seed(seed)
                .cache_model(false)
                .try_build()
                .expect("no fault plan, so boots succeed");
            nocache += replay(tracer, root, &mut plain, "vmm.execute_nocache", &traces).0;
            exec += cell_exec;
            tracer.close(root);

            gw_total += gw_us;
            host_total += host_us;
            let below = l_us + b_us + cell_exec + p_us;
            below_total += below;
            gw_self.push(gw_us - host_us);
            host_self.push(host_us - below);
            executed.push(Executed { cell: cell.clone(), result: gw_result });
        }

        let n = executed.len().max(1) as f64;
        let s = &mut outcome.sheet;
        for language in Language::ALL {
            let name = format!("faasrt.launch_us.{language}");
            s.set(name, mean(launch_us.get(&language).map_or(&[][..], Vec::as_slice)), "us");
        }
        s.set("faasrt.trace_ops", trace_ops as f64, "count");
        s.set("vmm.build_us", mean(&build), "us");
        s.set("vmm.execute_us", exec / executes.max(1) as f64, "us");
        s.set("vmm.execute_nocache_us", nocache / executes.max(1) as f64, "us");
        s.set("vmm.cache_model_share", 1.0 - nocache / exec.max(f64::MIN_POSITIVE), "share");
        s.set("vmm.cache_lines_per_s", counts.cache_refs as f64 / (exec / 1e6).max(1e-9), "1/s");
        s.set("vmm.host_ns_per_op", exec * 1e3 / ops.max(1) as f64, "ns");
        s.set("vmm.cache_refs", counts.cache_refs as f64, "count");
        s.set("vmm.cache_misses", counts.cache_misses as f64, "count");
        s.set("vmm.vm_exits", counts.vm_exits as f64, "count");
        s.set("vmm.bounce_bytes", counts.bounce_bytes as f64, "bytes");
        s.set("vmm.sim_cycles", counts.cycles as f64, "count");
        s.set("perfmon.measure_us", mean(&perf), "us");
        s.set("confbench.gateway_run_us", gw_total / n, "us");
        s.set("confbench.host_execute_us", host_total / n, "us");
        // Self times are medians of per-cell differences: on millisecond
        // cells they sit near the timing noise, which the median resists.
        s.set("confbench.gateway_self_us", percentile_or_zero(&gw_self, 0.5), "us");
        s.set("confbench.host_self_us", percentile_or_zero(&host_self, 0.5), "us");
        let residual = (gw_total - below_total) / gw_total.max(f64::MIN_POSITIVE);
        s.set("residual_share", residual, "share");
        let retries = gw.metrics().counter_value("gateway_retries_total").unwrap_or(0);
        let rebuilds: u64 = [gw.metrics(), &registry]
            .iter()
            .flat_map(|m| m.snapshot().counters)
            .filter(|(name, _)| name.starts_with("vm_rebuilds_total"))
            .map(|(_, v)| v)
            .sum();
        s.set("confbench.retries", (retries + rebuilds) as f64, "count");
        for (name, value) in [
            ("vmm.cache_refs", counts.cache_refs),
            ("vmm.cache_misses", counts.cache_misses),
            ("vmm.vm_exits", counts.vm_exits),
            ("vmm.bounce_bytes", counts.bounce_bytes),
            ("vmm.sim_cycles", counts.cycles),
            ("faasrt.trace_ops", trace_ops),
        ] {
            outcome.exact.insert(name.into(), value.to_string());
        }

        // The ROADMAP baseline's totals, in seconds over the decomposed cells.
        let per_language: serde_json::Map = launch_us
            .iter()
            .map(|(l, v)| (l.to_string(), serde_json::json!(v.iter().sum::<f64>() / 1e6)))
            .collect();
        let baseline = serde_json::json!({
            "cells": executed.len(),
            "launch_s_by_language": per_language,
            "launch_s": launch_us.values().flatten().sum::<f64>() / 1e6,
            "vm_execute_s": (exec + perf.iter().sum::<f64>()) / 1e6,
            "vm_execute_nocache_s": nocache / 1e6,
            "vm_build_s": build.iter().sum::<f64>() / 1e6,
            "gateway_run_s": gw_total / 1e6,
            "residual_s": (gw_total - below_total) / 1e6,
        });
        outcome.note("baseline", baseline);
        executed
    }

    /// `sched`: the cells are submitted to a scheduler whose result cache
    /// already holds their results (from the runs above), so every step is
    /// a cache hit; queue wait is the time from submission until a step
    /// takes the job.
    fn scheduler(&self, tracer: &Arc<Tracer>, executed: &[Executed], outcome: &mut Outcome) {
        let platforms = platforms(self.cells);
        let gw = gateway(self.seed, &platforms);
        let sched = Scheduler::with_metrics(
            Arc::clone(&gw) as Arc<dyn Executor>,
            Arc::new(SystemClock),
            SchedulerConfig { queue_capacity: self.cells.len(), ..SchedulerConfig::default() },
            Arc::clone(gw.metrics()),
        );
        let root = tracer.open("probe.sched", None);
        let cells: Vec<CampaignCell> = executed.iter().map(|e| e.cell.clone()).collect();
        let (_, key_us) = tracer.time("sched.cache_key", Some(root), || {
            for cell in &cells {
                let fp = gw.function_fingerprint(&cell.function.name).unwrap_or_default();
                black_box(cache_key(cell, &fp));
            }
        });
        for (cell, e) in cells.iter().zip(executed) {
            let fp = gw.function_fingerprint(&cell.function.name).unwrap_or_default();
            let stats = e.result.stats;
            sched.result_cache().insert(
                cache_key(cell, &fp),
                CachedCell {
                    mean_ms: stats.mean_ms,
                    median_ms: stats.mean_ms,
                    min_ms: stats.min_ms,
                    max_ms: stats.max_ms,
                    stddev_ms: stats.stddev_ms,
                    output: e.result.output.clone(),
                },
            );
        }
        let (receipt, submit_us) = tracer.time("sched.submit", Some(root), || {
            sched.submit_cells(cells.clone(), Priority::Normal, None)
        });
        let receipt = receipt.expect("probe cells fit their queue");
        let submitted = Instant::now();
        let (mut hit_us, mut waits) = (Vec::new(), Vec::new());
        loop {
            let mut any = false;
            for &p in &platforms {
                let waited = submitted.elapsed().as_secs_f64() * 1e3;
                let (stepped, us) = tracer.time("sched.step", Some(root), || sched.step(p));
                if stepped {
                    hit_us.push(us);
                    waits.push(waited);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        let (status, status_us) =
            tracer.time("sched.status", Some(root), || sched.campaign_status(&receipt.id));
        tracer.close(root);
        let status = status.expect("probe campaign exists");
        outcome.check(status.cache_hits == cells.len(), || {
            format!("prefilled cache served {} of {} cells", status.cache_hits, status.total_jobs)
        });
        let n = cells.len().max(1) as f64;
        let s = &mut outcome.sheet;
        s.set("sched.submit_us_per_cell", submit_us / n, "us");
        s.set("sched.step_hit_us", mean(&hit_us), "us");
        s.set("sched.status_us", status_us, "us");
        s.set("sched.cache_key_us", key_us / n, "us");
        s.set("sched.queue_wait_p50_ms", percentile_or_zero(&waits, 0.5), "ms");
    }

    /// `httpd`: each request again through a remote `HostAgent` over HTTP
    /// (the hop is that call minus the in-process `HostAgent::execute`),
    /// plus health round trips on the same keep-alive client.
    fn http(&self, tracer: &Arc<Tracer>, executed: &[&Executed], outcome: &mut Outcome) {
        let registry = Arc::new(MetricsRegistry::new());
        let mut servers = BTreeMap::new();
        let mut local = BTreeMap::new();
        for p in platforms(self.cells) {
            local.insert(p, host(self.seed, p, &registry));
            let server = host(self.seed, p, &registry).serve().expect("host agent binds loopback");
            let client = Client::new(server.addr());
            servers.insert(p, (server, client));
        }
        let root = tracer.open("probe.http", None);
        let mut hops = Vec::new();
        for e in executed {
            let run = request(&e.cell);
            let (_, client) = &servers[&run.target.platform];
            let (_, local_us) = tracer
                .time("host.execute", Some(root), || local[&run.target.platform].execute(&run));
            let http = Request::new(Method::Post, "/v1/execute").json(&run);
            let (response, us) = tracer.time("httpd.host_hop", Some(root), || client.send(&http));
            let remote: Option<RunResult> =
                response.ok().filter(|r| r.status == 200).and_then(|r| r.body_json().ok());
            outcome.check(remote.as_ref().is_some_and(|r| r.trial_ms == e.result.trial_ms), || {
                format!("{}: remote host result differs", run.function.name)
            });
            hops.push(us - local_us);
        }
        let mut health = Vec::new();
        for (_, client) in servers.values() {
            for _ in 0..100 {
                let (response, us) = tracer.time("httpd.health", Some(root), || {
                    client.send(&Request::new(Method::Get, "/v1/health"))
                });
                outcome.check(response.is_ok_and(|r| r.status == 200), || "health failed".into());
                health.push(us);
            }
        }
        tracer.close(root);
        let (mut reused, mut requests, mut rejected) = (0, 0, 0);
        for (_, (server, _)) in servers {
            let m = server.metrics();
            reused += m.counter_value("httpd_keepalive_reuse_total").unwrap_or(0);
            requests += m.counter_value("httpd_requests_total").unwrap_or(0);
            rejected += m.counter_value("httpd_rejected_total").unwrap_or(0);
            server.shutdown();
        }
        let s = &mut outcome.sheet;
        s.set("httpd.host_hop_us", mean(&hops), "us");
        s.set("httpd.health_rtt_us", mean(&health), "us");
        s.set("httpd.keepalive_reuse_ratio", reused as f64 / requests.max(1) as f64, "ratio");
        s.set("httpd.rejected", rejected as f64, "count");
    }
}

/// Executes `traces` in order on `vm`, one span each; returns the summed
/// µs and the reports.
fn replay(
    tracer: &Tracer,
    root: usize,
    vm: &mut Vm,
    name: &str,
    traces: &[&OpTrace],
) -> (f64, Vec<ExecutionReport>) {
    let mut total = 0.0;
    let mut reports = Vec::with_capacity(traces.len());
    for trace in traces {
        let (report, us) = tracer.time(name, Some(root), || vm.try_execute(trace));
        reports.push(report.expect("no fault plan, so executions succeed"));
        total += us;
    }
    (total, reports)
}

/// `types` (serde on the requests and results) and `httpd` request parsing.
fn codecs(tracer: &Arc<Tracer>, executed: &[&Executed], outcome: &mut Outcome) {
    let root = tracer.open("probe.codecs", None);
    let (mut req_decode, mut res_encode, mut res_decode, mut bytes, mut parse) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for e in executed {
        let run = request(&e.cell);
        let body = serde_json::to_vec(&run).expect("requests serialize");
        let at = Instant::now();
        for _ in 0..CODEC_REPS {
            black_box(serde_json::from_slice::<RunRequest>(black_box(&body)).expect("decodes"));
        }
        req_decode.push(us_since(at) / CODEC_REPS as f64);

        let at = Instant::now();
        let mut encoded = Vec::new();
        for _ in 0..CODEC_REPS {
            encoded = serde_json::to_vec(black_box(&e.result)).expect("results serialize");
        }
        res_encode.push(us_since(at) / CODEC_REPS as f64);
        bytes.push(encoded.len() as f64);

        let at = Instant::now();
        for _ in 0..CODEC_REPS {
            let decoded: RunResult = serde_json::from_slice(black_box(&encoded)).expect("decodes");
            black_box(decoded);
        }
        res_decode.push(us_since(at) / CODEC_REPS as f64);
        let decoded: RunResult = serde_json::from_slice(&encoded).expect("decodes");
        outcome.check(
            decoded.trial_ms == e.result.trial_ms && decoded.output == e.result.output,
            || "RunResult does not survive a JSON round trip".into(),
        );

        let mut wire = Vec::new();
        Request::new(Method::Post, "/v1/run")
            .json(&run)
            .write_to(&mut wire)
            .expect("writes to memory");
        let at = Instant::now();
        for _ in 0..CODEC_REPS {
            let parsed = Request::read_from_buffered(&mut Cursor::new(black_box(&wire)))
                .expect("own request parses");
            black_box(parsed);
        }
        parse.push(us_since(at) / CODEC_REPS as f64);
    }
    tracer.close(root);
    let s = &mut outcome.sheet;
    s.set("types.run_request_decode_us", mean(&req_decode), "us");
    s.set("types.run_result_encode_us", mean(&res_encode), "us");
    s.set("types.run_result_decode_us", mean(&res_decode), "us");
    s.set("types.run_result_bytes", mean(&bytes), "bytes");
    s.set("httpd.parse_us", mean(&parse), "us");
}

fn span_count(t: &TraceSpan) -> usize {
    1 + t.children.iter().map(span_count).sum::<usize>()
}

/// `obs`: spans the program records per run, and what one span costs.
fn spans(executed: &[Executed], outcome: &mut Outcome) {
    let per_run: Vec<f64> =
        executed.iter().map(|e| e.result.trace.as_ref().map_or(0, span_count) as f64).collect();
    let recorder = SpanRecorder::default();
    const N: usize = 20_000;
    let at = Instant::now();
    for _ in 0..N {
        let mut root = recorder.root("bench.root");
        let child = root.child("bench.child");
        root.finish_child(child);
        black_box(root.finish());
    }
    let span_ns = at.elapsed().as_secs_f64() * 1e9 / (2 * N) as f64;
    outcome.sheet.set("obs.span_ns", span_ns, "ns");
    outcome.sheet.set("obs.spans_per_run", mean(&per_run), "count");
}

/// `attest`: cold session opens on fresh services, then warm
/// `ensure_session` lookups of the live token.
fn attest(tracer: &Arc<Tracer>, seed: u64, outcome: &mut Outcome) {
    let root = tracer.open("probe.attest", None);
    let registry = Arc::new(MetricsRegistry::new());
    let (mut opens, mut ensures) = (Vec::new(), Vec::new());
    for rep in 0..3u64 {
        let service = AttestService::new(
            seed.wrapping_add(rep),
            AttestConfig::default(),
            Arc::new(SystemClock),
            Some(&registry),
        );
        for platform in [TeePlatform::Tdx, TeePlatform::SevSnp] {
            let (opened, us) = tracer
                .time("attest.open_session", Some(root), || service.open_session(platform, None));
            outcome.attempted += 1;
            let Ok(opened) = opened else {
                outcome.failed += 1;
                continue;
            };
            opens.push(us);
            let (_, us) = tracer.time("attest.ensure_session", Some(root), || {
                for _ in 0..200 {
                    let warm =
                        service.ensure_session(&opened.session.id, VmTarget::secure(platform));
                    black_box(warm.expect("a live session stays live"));
                }
            });
            ensures.push(us / 200.0);
        }
    }
    tracer.close(root);
    let hits = registry.counter_value("attest_cache_hits_total").unwrap_or(0) as f64;
    let misses = registry.counter_value("attest_cache_misses_total").unwrap_or(0) as f64;
    let s = &mut outcome.sheet;
    s.set("attest.session_open_us", mean(&opens), "us");
    s.set("attest.ensure_warm_us", mean(&ensures), "us");
    s.set("attest.cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
}

/// The run request a campaign cell dispatches as (what
/// `Scheduler::step_with` builds).
fn request(cell: &CampaignCell) -> RunRequest {
    RunRequest {
        function: FunctionSpec {
            name: cell.function.name.clone(),
            language: cell.language,
            args: cell.function.args.clone(),
        },
        target: VmTarget { platform: cell.platform, kind: cell.kind },
        trials: cell.trials,
        seed: cell.seed,
        deadline_ms: None,
        attest_session: None,
        device: cell.device,
    }
}
