//! The ConfBench workload suite: 25 FaaS functions, the UnixBench-style OS
//! microbenchmarks, and the classic workloads (ML inference, DBMS stress).
//!
//! Every FaaS workload exists twice, by design: as a CBScript program (run
//! for real by the Lua interpreter, the LuaJIT tracing VM, and the Wasmi
//! bytecode VM in `confbench-faasrt`) and as a native Rust twin (used by the
//! Python/Node/Ruby/Go launcher paths). Differential tests pin both
//! implementations to identical outputs.
//!
//! # Example
//!
//! ```
//! use confbench_faasrt::FunctionLauncher;
//! use confbench_types::Language;
//! use confbench_workloads::find_workload;
//!
//! let factors = find_workload("factors").unwrap();
//! let out = FunctionLauncher::new(Language::Go).launch(&factors, &["28".into()])?;
//! assert_eq!(out.output, "56"); // 1+2+4+7+14+28
//! # Ok::<(), confbench_faasrt::LaunchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classic;
mod faas;
mod gpu;
mod native;
mod scripts;
mod unixbench;

pub use classic::{dbms_speedtest, InferenceRun, MlWorkload};
pub use faas::{faas_registry, find_workload, heatmap_quick_args, FaasWorkload, WorkloadCategory};
pub use gpu::GpuInferenceWorkload;
pub use unixbench::{aggregate_index, index_score, unixbench_suite, UnixBenchTest};
