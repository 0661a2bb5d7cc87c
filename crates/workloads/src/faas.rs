//! The FaaS workload registry: 25 functions spanning CPU, memory, I/O and
//! mixed behaviour (paper §IV-D; sources follow the FaaSdom /
//! faas-benchmark / Lua-Benchmarks / wasmi-benchmarks suites the paper
//! draws from).

use confbench_faasrt::FaasFunction;
use confbench_types::OpTrace;

use crate::native;
use crate::scripts;

/// Dominant resource of a workload (used to discuss heatmap structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadCategory {
    /// Compute-bound (integer/float).
    Cpu,
    /// Allocation/memory-bandwidth-bound.
    Memory,
    /// Device-I/O-bound.
    Io,
    /// Syscall/logging/filesystem mixes.
    Mixed,
}

type NativeFn = fn(&[String], &mut OpTrace) -> Result<String, String>;

/// One registered FaaS workload: a CBScript source, its native twin, and
/// default arguments sized for the figure runs.
#[derive(Clone)]
pub struct FaasWorkload {
    name: &'static str,
    script: &'static str,
    native: NativeFn,
    default_args: &'static [&'static str],
    category: WorkloadCategory,
}

impl std::fmt::Debug for FaasWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaasWorkload")
            .field("name", &self.name)
            .field("category", &self.category)
            .finish_non_exhaustive()
    }
}

impl FaasWorkload {
    /// The workload's dominant-resource category.
    pub fn category(&self) -> WorkloadCategory {
        self.category
    }

    /// Default arguments used by the paper-figure runs.
    pub fn default_args(&self) -> Vec<String> {
        self.default_args.iter().map(|s| (*s).to_owned()).collect()
    }
}

impl FaasFunction for FaasWorkload {
    fn name(&self) -> &str {
        self.name
    }

    fn script(&self) -> &str {
        self.script
    }

    fn run_native(&self, args: &[String], trace: &mut OpTrace) -> Result<String, String> {
        (self.native)(args, trace)
    }
}

/// The 25-workload registry, in the paper's heatmap column order.
pub fn faas_registry() -> Vec<FaasWorkload> {
    use WorkloadCategory::*;
    vec![
        w("cpustress", scripts::CPUSTRESS, native::cpustress, &["120000"], Cpu),
        w("memstress", scripts::MEMSTRESS, native::memstress, &["48"], Memory),
        w("iostress", scripts::IOSTRESS, native::iostress, &["6"], Io),
        w("logging", scripts::LOGGING, native::logging, &["3000"], Mixed),
        w("factors", scripts::FACTORS, native::factors, &["1234567"], Cpu),
        w("filesystem", scripts::FILESYSTEM, native::filesystem, &["2"], Mixed),
        w("ack", scripts::ACKERMANN, native::ackermann, &["40", "40"], Cpu),
        w("fib", scripts::FIB, native::fib, &["18"], Cpu),
        w("primes", scripts::PRIMES, native::primes, &["40000"], Memory),
        w("matrix", scripts::MATRIX, native::matrix, &["26"], Cpu),
        w("quicksort", scripts::QUICKSORT, native::quicksort, &["3000"], Memory),
        w("mergesort", scripts::MERGESORT, native::mergesort, &["3000"], Memory),
        w("base64", scripts::BASE64, native::base64, &["30000"], Cpu),
        w("json", scripts::JSON, native::json, &["250"], Mixed),
        w("checksum", scripts::CHECKSUM, native::checksum, &["60000"], Cpu),
        w("compress", scripts::COMPRESS, native::compress, &["30000"], Cpu),
        w("mandelbrot", scripts::MANDELBROT, native::mandelbrot, &["48"], Cpu),
        w("nbody", scripts::NBODY, native::nbody, &["1500"], Cpu),
        w("binarytrees", scripts::BINARYTREES, native::binarytrees, &["12"], Memory),
        w("spectralnorm", scripts::SPECTRALNORM, native::spectralnorm, &["48", "4"], Cpu),
        w("dijkstra", scripts::DIJKSTRA, native::dijkstra, &["22"], Memory),
        w("wordcount", scripts::WORDCOUNT, native::wordcount, &["40000"], Cpu),
        w("histogram", scripts::HISTOGRAM, native::histogram, &["50000"], Memory),
        w("montecarlo", scripts::MONTECARLO, native::montecarlo, &["25000"], Cpu),
        w("strings", scripts::STRINGS, native::strings, &["2500"], Memory),
    ]
}

/// Looks up a workload by name.
pub fn find_workload(name: &str) -> Option<FaasWorkload> {
    faas_registry().into_iter().find(|w| w.name == name)
}

/// Quick-scale arguments for a suite workload (small enough for tests,
/// large enough that ratios are stable).
///
/// # Panics
///
/// Panics for unknown workload names.
pub fn heatmap_quick_args(name: &str) -> Vec<String> {
    let args: &[&str] = match name {
        "cpustress" => &["8000"],
        "memstress" => &["6"],
        "iostress" => &["2"],
        "logging" => &["150"],
        "factors" => &["360360"],
        "filesystem" => &["1"],
        "ack" => &["4", "16"],
        "fib" => &["13"],
        "primes" => &["4000"],
        "matrix" => &["12"],
        "quicksort" => &["600"],
        "mergesort" => &["600"],
        "base64" => &["1500"],
        "json" => &["40"],
        "checksum" => &["4000"],
        "compress" => &["4000"],
        "mandelbrot" => &["20"],
        "nbody" => &["200"],
        "binarytrees" => &["9"],
        "spectralnorm" => &["20", "2"],
        "dijkstra" => &["10"],
        "wordcount" => &["4000"],
        "histogram" => &["4000"],
        "montecarlo" => &["3000"],
        "strings" => &["400"],
        other => panic!("no quick args for {other}"),
    };
    args.iter().map(|s| (*s).to_owned()).collect()
}

fn w(
    name: &'static str,
    script: &'static str,
    native: NativeFn,
    default_args: &'static [&'static str],
    category: WorkloadCategory,
) -> FaasWorkload {
    FaasWorkload { name, script, native, default_args, category }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_25_unique_workloads() {
        let reg = faas_registry();
        assert_eq!(reg.len(), 25);
        let mut names: Vec<&str> = reg.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 25);
    }

    #[test]
    fn paper_headline_functions_present() {
        for name in
            ["cpustress", "memstress", "iostress", "logging", "factors", "filesystem", "ack"]
        {
            assert!(find_workload(name).is_some(), "{name} missing");
        }
        assert!(find_workload("nope").is_none());
    }

    #[test]
    fn categories_cover_all_classes() {
        use std::collections::HashSet;
        let cats: HashSet<_> = faas_registry().iter().map(|w| w.category()).collect();
        assert_eq!(cats.len(), 4, "all four categories represented");
    }

    #[test]
    fn every_workload_has_args_and_script() {
        for wl in faas_registry() {
            assert!(!wl.default_args().is_empty(), "{}", wl.name);
            assert!(wl.script().contains("result("), "{} script must emit a result", wl.name);
        }
    }
}
