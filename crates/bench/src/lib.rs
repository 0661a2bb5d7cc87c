//! The ConfBench-RS experiment harness: one driver per table/figure in the
//! paper's evaluation (§IV), regenerating the same rows and series.
//!
//! | Paper artifact | Driver | Binary |
//! |---|---|---|
//! | Fig. 3 (confidential ML, stacked percentiles)     | [`fig3::run`] | `fig3_ml` |
//! | §IV-C DBMS findings (speedtest ratios)            | [`dbms::run`] | `dbms_table` |
//! | Fig. 4 (UnixBench index ratios)                   | [`fig4::run`] | `fig4_unixbench` |
//! | Fig. 5 (attestation latencies)                    | [`fig5::run`] | `fig5_attestation` |
//! | Fig. 6 (TDX & SEV-SNP FaaS heatmap)               | [`heatmap::run`] | `fig6_heatmap` |
//! | Fig. 7 (CCA FaaS heatmap)                         | [`heatmap::run`] | `fig7_cca_heatmap` |
//! | Fig. 8 (CCA distributions, box-and-whiskers)      | [`fig8::run`] | `fig8_cca_box` |
//! | Fig. 6 via the campaign scheduler (cold vs memoized) | [`campaign::run`] | `campaign_fig6` |
//! | TEE-IO gpu-inference + TDISP on/off ablation      | [`fig_gpu::run`] | `fig_gpu` |
//! | Design-choice ablations (DESIGN.md §5)            | [`ablations`] | `ablations` |
//!
//! All drivers are deterministic in the seed; `Scale::Quick` shrinks
//! workload arguments and trial counts for tests, `Scale::Paper` matches
//! the paper's configuration (10 trials, default sizes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use confbench_faasrt::{FaasFunction, FunctionLauncher};
use confbench_types::{Language, OpTrace, TeePlatform, VmKind, VmTarget};
use confbench_vmm::TeeVmBuilder;

/// Experiment size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small arguments, 3 trials — for tests and smoke runs.
    Quick,
    /// The paper's configuration: default arguments, 10 trials.
    Paper,
}

/// Common experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Deterministic seed.
    pub seed: u64,
    /// Scale of arguments and trials.
    pub scale: Scale,
}

impl ExperimentConfig {
    /// Quick configuration at `seed`.
    pub fn quick(seed: u64) -> Self {
        ExperimentConfig { seed, scale: Scale::Quick }
    }

    /// Paper configuration at `seed`.
    pub fn paper(seed: u64) -> Self {
        ExperimentConfig { seed, scale: Scale::Paper }
    }

    /// Trials per measurement (paper: 10 independent runs).
    pub fn trials(&self) -> u32 {
        match self.scale {
            Scale::Quick => 3,
            Scale::Paper => 10,
        }
    }

    /// Parses the figure binaries' common CLI: `[--quick|--smoke] [--seed N]`
    /// (`--smoke` is the CI alias for `--quick`).
    pub fn from_cli(default_seed: u64) -> Self {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick" || a == "--smoke");
        let seed = args
            .iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(default_seed);
        if quick {
            ExperimentConfig::quick(seed)
        } else {
            ExperimentConfig::paper(seed)
        }
    }
}

/// Executes a prepared trace on a fresh VM for `target`: boots, replays the
/// unmeasured startup trace, then measures `trials` executions.
/// Returns per-trial wall milliseconds.
pub fn run_trace(
    target: VmTarget,
    startup: &OpTrace,
    trace: &OpTrace,
    trials: u32,
    seed: u64,
) -> Vec<f64> {
    let mut vm = TeeVmBuilder::new(target).seed(seed).build();
    let _ = vm.execute(startup);
    vm.execute_trials(trace, trials).iter().map(|r| r.wall_ms).collect()
}

/// Launches `function` under `language` once (launch is deterministic) and
/// measures it on the secure and normal VM of `platform`.
/// Returns (secure ms trials, normal ms trials).
pub fn measure_function(
    function: &dyn FaasFunction,
    args: &[String],
    language: Language,
    platform: TeePlatform,
    trials: u32,
    seed: u64,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let output =
        FunctionLauncher::new(language).launch(function, args).map_err(|e| e.to_string())?;
    let seed = mix_seed(seed, &format!("{}/{}", function.name(), language));
    let secure = run_trace(
        VmTarget { platform, kind: VmKind::Secure },
        &output.startup_trace,
        &output.trace,
        trials,
        seed,
    );
    let normal = run_trace(
        VmTarget { platform, kind: VmKind::Normal },
        &output.startup_trace,
        &output.trace,
        trials,
        seed,
    );
    Ok((secure, normal))
}

/// Mean of a slice (helper used across drivers).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Mixes a measurement label into a seed (FNV-1a), so each experiment cell
/// gets an independent jitter stream; a shared seed would correlate the
/// noise of every cell and bias whole figures.
pub fn mix_seed(seed: u64, tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in tag.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub use confbench_workloads::heatmap_quick_args;

pub mod ablations;
pub mod campaign;
pub mod colocation;
pub mod dbms;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig8;
pub mod fig_gpu;
pub mod fig_migration;
pub mod heatmap;
