//! Pieces every workload shares: the seeded input generator, the metric
//! sheet printed at the end of a run, order statistics, the benchmark-side
//! span recorder, the output digest and the cross-run repeat check.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use confbench_crypto::Sha256;

/// Directory (relative to the checkout root) the benchmark writes its span
/// dumps and repeat records to.
pub const OUT_DIR: &str = "perfbench/out";

/// SplitMix64: the benchmark's only source of input randomness, so one seed
/// always yields the same inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The metrics one run reports, by name, with their units.
#[derive(Default)]
pub struct Sheet {
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Sheet {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Names whose value is NaN or infinite (rendered as 0, which JSON
    /// can carry).
    pub fn non_finite(&self) -> Vec<String> {
        self.metrics.iter().filter(|(_, (v, _))| !v.is_finite()).map(|(n, _)| n.clone()).collect()
    }

    pub fn to_json(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        for (name, (value, unit)) in &self.metrics {
            let value = if value.is_finite() { *value } else { 0.0 };
            map.insert(name.clone(), serde_json::json!({ "value": value, "unit": unit }));
        }
        serde_json::Value::Object(map)
    }
}

/// Inclusive-linear percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// [`percentile`], or 0 when there are no samples.
pub fn percentile_or_zero(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, q)
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Microseconds of an `Instant` interval.
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Share of `items` equal to an earlier item.
pub fn repeated_share<T: Ord>(items: impl IntoIterator<Item = T>) -> f64 {
    let mut seen = std::collections::BTreeSet::new();
    let (mut total, mut repeated) = (0usize, 0usize);
    for item in items {
        total += 1;
        if !seen.insert(item) {
            repeated += 1;
        }
    }
    repeated as f64 / total.max(1) as f64
}

/// Whether each of `pairs` untraced/traced pairs runs traced, in ABBA
/// order, so a drift in machine speed during the run cancels out of the
/// tracing-overhead comparison.
pub fn abba(pairs: usize) -> impl Iterator<Item = bool> {
    (0..pairs).flat_map(|i| if i % 2 == 0 { [false, true] } else { [true, false] })
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SHA-256 over deterministic output records, in the order given.
pub fn digest(records: &[String]) -> String {
    let mut h = Sha256::new();
    for r in records {
        h.update(r.as_bytes());
        h.update(b"\n");
    }
    h.finalize().to_string()
}

/// One span recorded by the benchmark around a call into a layer.
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store for the traced run: spans are kept in memory and
/// written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("tracer lock");
        spans.push(Span { name: name.to_owned(), parent, start_ns, end_ns: start_ns });
        spans.len() - 1
    }

    /// Closes a span and returns its duration in microseconds.
    pub fn close(&self, id: usize) -> f64 {
        let end_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("tracer lock");
        spans[id].end_ns = end_ns;
        (end_ns - spans[id].start_ns) as f64 / 1e3
    }

    /// Runs `f` inside a span; returns its value and duration in µs.
    pub fn time<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent);
        let value = f();
        (value, self.close(id))
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer lock").len()
    }

    /// Writes every span as one JSON line (name, start, end, parent).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self.spans.lock().expect("tracer lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let line = serde_json::json!({
                "id": id, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                "parent": s.parent,
            });
            writeln!(out, "{}", serde_json::to_string(&line).expect("span renders"))?;
        }
        out.flush()
    }
}

/// SHA-256 of the running executable, shortened: identifies the build, so
/// repeat records of one build never meet the runs of another.
pub fn build_id() -> String {
    let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    let mut h = Sha256::new();
    h.update(&bytes);
    h.finalize().to_string()[..16].to_owned()
}

/// Compares this run's deterministic values with the ones an earlier run
/// of the same build, workload, seed and mode recorded in the checkout, and
/// records them when no earlier run did. Returns the names that differ.
pub fn repeat_check(key: &str, values: &BTreeMap<String, String>) -> Vec<String> {
    let path = PathBuf::from(OUT_DIR).join(format!("repeat-{key}.json"));
    let earlier: Option<BTreeMap<String, String>> =
        std::fs::read_to_string(&path).ok().and_then(|s| serde_json::from_str(&s).ok());
    match earlier {
        Some(earlier) => values
            .iter()
            .filter(|(name, value)| earlier.get(*name).is_some_and(|e| e != *value))
            .map(|(name, _)| name.clone())
            .collect(),
        None => {
            let json = serde_json::to_string(values).expect("string map serializes");
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("perfbench: cannot record {}: {e}", path.display());
            }
            Vec::new()
        }
    }
}

/// Git revision of the checkout, read from `.git` when there is one.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}
