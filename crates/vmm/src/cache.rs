//! A small two-level set-associative cache simulator.
//!
//! The paper observes (§IV-D) that a few workloads run *faster* inside the
//! confidential VM and traces this to differing cache-hit behaviour (cf. the
//! TDXdown caching studies it cites). We reproduce the causal channel: a
//! confidential guest's pages land in differently-colored host frames, so
//! the same guest access stream maps to different cache sets. The VM model
//! feeds every memory op through this simulator with a per-target page salt.
//!
//! # Layout
//!
//! Each level is one flat array of `sets × ways` tags. A set's slice is an
//! MRU-first stack padded with empty slots at its tail: a hit rotates the
//! tag to the front, a miss rotates the whole slice and overwrites the front
//! slot, dropping the least recently used tag (or an empty slot). That is
//! exact LRU, the same hits and misses as a per-set list.
//!
//! # Fixed-point replay
//!
//! A cell runs the same trace ten times on one VM. [`CacheSim::begin`] and
//! [`CacheSim::end`] bracket one execution, so the simulator sees when the
//! same touch sequence runs back to back, with nothing touching the cache in
//! between, and from the fourth such execution on it replays the third's
//! recorded per-touch [`CacheStats`] deltas instead of simulating.
//!
//! Replay is exact, not an approximation, because LRU is idempotent under a
//! repeated access sequence. Take one set and a sequence `A` of accesses.
//! Afterwards the set holds the distinct tags of `A` in order of last use,
//! followed by the tags it held before that `A` never used, in their old
//! order, cut to the number of ways: tags used in `A` are always more recent
//! than tags it did not use, and eviction takes the least recent. The state
//! before `A` matters only through that unused tail, and running `A` again
//! keeps the same tail, so a second pass leaves the set as the first did.
//! L1 therefore stops changing after one execution. L2 sees only L1's
//! misses, which are the same sequence from then on because L1 starts each
//! execution in the same state, so L2 stops changing after the second
//! execution. The third execution starts and ends in that fixed point, and
//! every later one repeats it touch for touch: same deltas, same state. The
//! arrays need no update while replaying.
//!
//! An execution that never reaches `end` (a fault cut it short) breaks the
//! run: its partial touches moved the state, so counting starts again. A
//! replay cut short simulates the touches it had handed back before the
//! cache is used again, so the arrays are where simulation would have left
//! them.

use confbench_types::{Op, OpTrace};

const LINE: u64 = 64;

/// Marks an unused way; real tags are line numbers, below `2^58`.
const EMPTY: u64 = u64::MAX;

/// Aggregate cache statistics for one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total line-granularity accesses.
    pub references: u64,
    /// L1 misses that hit in L2.
    pub l2_hits: u64,
    /// Misses in both levels (DRAM fills).
    pub misses: u64,
}

impl CacheStats {
    /// L1 hits (references minus everything that left L1).
    pub fn l1_hits(&self) -> u64 {
        self.references - self.l2_hits - self.misses
    }

    fn add(&mut self, other: CacheStats) {
        self.references += other.references;
        self.l2_hits += other.l2_hits;
        self.misses += other.misses;
    }
}

#[derive(Debug, Clone)]
struct Level<const WAYS: usize> {
    /// One MRU-first stack of tags per set, the sets back to back.
    sets: Vec<[u64; WAYS]>,
    set_mask: u64,
}

impl<const WAYS: usize> Level<WAYS> {
    fn new(size_bytes: u64) -> Self {
        let lines = size_bytes / LINE;
        let sets = (lines as usize / WAYS).max(1);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Level { sets: vec![[EMPTY; WAYS]; sets], set_mask: sets as u64 - 1 }
    }

    /// Accesses a *line number*; returns `true` on hit, inserting on miss.
    fn access(&mut self, line: u64) -> bool {
        let stack = &mut self.sets[(line & self.set_mask) as usize];
        // The full line number doubles as the tag.
        match stack.iter().position(|&t| t == line) {
            Some(pos) => {
                stack[..=pos].rotate_right(1);
                true
            }
            None => {
                stack.rotate_right(1);
                stack[0] = line;
                false
            }
        }
    }
}

/// One recorded touch: its arguments and the deltas it produced.
#[derive(Debug, Clone, Copy)]
struct Touch {
    addr: u64,
    bytes: u64,
    delta: CacheStats,
}

/// Back-to-back executions of one touch sequence after which the cache is
/// at a fixed point of it (see the module docs): one for L1, one for L2.
const SETTLING_RUNS: u32 = 2;

/// Where the simulator stands with respect to its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Memo {
    /// No usable record.
    Idle,
    /// Inside `begin`/`end`: simulating and recording, after this many
    /// back-to-back executions of the same touches.
    Recording(u32),
    /// The record is of the last execution, the given number of back-to-back
    /// executions of its touches, and nothing has touched the cache since.
    Recorded(u32),
    /// Inside `begin`/`end`: handing back the record, this many touches in.
    Replaying(usize),
}

/// A two-level (L1D + L2) cache with LRU replacement.
///
/// # Example
///
/// ```
/// use confbench_vmm::CacheSim;
///
/// let mut cache = CacheSim::new(0);
/// cache.touch(0x1000, 64, true);
/// let stats = cache.stats();
/// assert_eq!(stats.references, 1);
/// assert_eq!(stats.misses, 1); // cold miss
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    l1: Level<8>,
    l2: Level<16>,
    salt: u64,
    stats: CacheStats,
    memo: Memo,
    record: Vec<Touch>,
    /// Simulate every execution (the differential tests' reference path).
    #[cfg(test)]
    replay_off: bool,
}

/// Cap on simulated line touches per memory op; larger runs are sampled with
/// a stride and the counts scaled, keeping simulation time bounded while
/// preserving hit-rate structure.
const MAX_LINES_PER_OP: u64 = 4096;

/// The `(addr, bytes)` of a memory op, the only ops the cache sees.
fn mem_args(op: &Op) -> Option<(u64, u64)> {
    match *op {
        Op::MemRead { addr, bytes } | Op::MemWrite { addr, bytes } => Some((addr, bytes)),
        _ => None,
    }
}

impl CacheSim {
    /// Creates a 32-KiB/8-way L1D over a 1-MiB/16-way L2, with the given
    /// page-color `salt` (0 = identity frame mapping).
    pub fn new(salt: u64) -> Self {
        CacheSim {
            l1: Level::new(32 << 10),
            l2: Level::new(1 << 20),
            salt,
            stats: CacheStats::default(),
            memo: Memo::Idle,
            record: Vec::new(),
            #[cfg(test)]
            replay_off: false,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Turns replay off: every execution is simulated.
    #[cfg(test)]
    pub(crate) fn disable_replay(&mut self) {
        self.replay_off = true;
    }

    /// Whether the next execution of the recorded trace would replay.
    #[cfg(test)]
    pub(crate) fn at_fixed_point(&self) -> bool {
        matches!(self.memo, Memo::Recorded(runs) if runs > SETTLING_RUNS)
    }

    /// Opens one execution of `trace`, whose memory ops must follow as
    /// [`touch`](CacheSim::touch) calls in trace order before
    /// [`end`](CacheSim::end). Once the same touches have run back to back
    /// often enough to reach the cache's fixed point, they are answered from
    /// the record instead of simulated (see the module docs for why that is
    /// exact).
    pub fn begin(&mut self, trace: &OpTrace) {
        self.settle();
        #[cfg(test)]
        if self.replay_off {
            self.memo = Memo::Idle;
            return;
        }
        let runs = match self.memo {
            Memo::Recorded(runs) if self.replays(trace) => runs,
            _ => 0,
        };
        if runs > SETTLING_RUNS {
            self.memo = Memo::Replaying(0);
            return;
        }
        self.record.clear();
        self.memo = Memo::Recording(runs);
    }

    /// Closes the execution opened by [`begin`](CacheSim::begin). An
    /// execution that never reaches `end` (a fault cut it short) is never
    /// replayed.
    pub fn end(&mut self) {
        self.memo = match self.memo {
            Memo::Recording(runs) => Memo::Recorded(runs + 1),
            _ => {
                self.settle();
                self.memo
            }
        };
    }

    /// Whether `trace`'s memory ops are exactly the recorded touches.
    fn replays(&self, trace: &OpTrace) -> bool {
        let mut recorded = self.record.iter();
        trace.iter().filter_map(mem_args).all(|(addr, bytes)| {
            recorded.next().is_some_and(|t| (t.addr, t.bytes) == (addr, bytes))
        }) && recorded.next().is_none()
    }

    /// Leaves any open recording or replay: an aborted recording is dropped,
    /// and the touches an aborted replay handed back are simulated so the
    /// tag arrays match what simulation would have produced.
    fn settle(&mut self) {
        match self.memo {
            Memo::Recording(_) => self.memo = Memo::Idle,
            Memo::Replaying(cursor) if cursor == self.record.len() => {
                self.memo = Memo::Recorded(SETTLING_RUNS + 1);
            }
            Memo::Replaying(cursor) => {
                for i in 0..cursor {
                    let Touch { addr, bytes, .. } = self.record[i];
                    self.simulate(addr, bytes);
                }
                self.memo = Memo::Idle;
            }
            Memo::Idle | Memo::Recorded(_) => {}
        }
    }

    /// Feeds one sequential access run of `bytes` at `addr`. `_write` is
    /// kept for future dirty-line modelling; reads and writes currently cost
    /// the same. Returns (refs, l2_hits, misses) deltas for cost charging.
    pub fn touch(&mut self, addr: u64, bytes: u64, _write: bool) -> CacheStats {
        if let Memo::Replaying(cursor) = self.memo {
            match self.record.get(cursor) {
                Some(t) if (t.addr, t.bytes) == (addr, bytes) => {
                    let delta = t.delta;
                    self.memo = Memo::Replaying(cursor + 1);
                    self.stats.add(delta);
                    return delta;
                }
                _ => self.settle(),
            }
        }
        let delta = self.simulate(addr, bytes);
        self.stats.add(delta);
        match self.memo {
            Memo::Recording(_) => self.record.push(Touch { addr, bytes, delta }),
            // Touched outside `begin`/`end`: the run is broken.
            Memo::Recorded(_) => self.memo = Memo::Idle,
            Memo::Idle | Memo::Replaying(_) => {}
        }
        delta
    }

    /// Runs one access through both levels, returning its deltas.
    fn simulate(&mut self, addr: u64, bytes: u64) -> CacheStats {
        if bytes == 0 {
            return CacheStats::default();
        }
        let first = addr / LINE;
        let last = (addr + bytes - 1) / LINE;
        let total_lines = last - first + 1;
        let (stride, scale) = if total_lines > MAX_LINES_PER_OP {
            let stride = total_lines.div_ceil(MAX_LINES_PER_OP);
            (stride, stride)
        } else {
            (1, 1)
        };
        let mut delta = CacheStats::default();
        let mut line = first;
        // Lines of one 4-KiB page share a colour: `color_page(line >> 6)`
        // is the page's frame, `line & 63` the line within it.
        let mut page = u64::MAX;
        let mut frame_base = 0;
        while line <= last {
            if line >> 6 != page {
                page = line >> 6;
                frame_base = self.color_page(page) << 6;
            }
            let colored = frame_base | (line & 63);
            delta.references += scale;
            if !self.l1.access(colored) {
                if self.l2.access(colored) {
                    delta.l2_hits += scale;
                } else {
                    delta.misses += scale;
                }
            }
            line += stride;
        }
        delta
    }

    /// Replays an [`Op`]'s memory behaviour, ignoring non-memory ops.
    pub fn touch_op(&mut self, op: &Op) -> CacheStats {
        match mem_args(op) {
            Some((addr, bytes)) => self.touch(addr, bytes, matches!(op, Op::MemWrite { .. })),
            None => CacheStats::default(),
        }
    }

    /// Page-coloring transform: XOR a salt-derived color into the page
    /// number (the physical frame assignment differs in a confidential VM).
    fn color_page(&self, page: u64) -> u64 {
        if self.salt == 0 {
            return page;
        }
        // Mix the salt into low page bits, which select L2 sets.
        let color = (page.wrapping_mul(self.salt | 1) >> 7) & 0x1f;
        page ^ color
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_crypto::SplitMix64;

    #[test]
    fn repeated_touches_hit_l1() {
        let mut c = CacheSim::new(0);
        c.touch(0, 64, false);
        let d = c.touch(0, 64, false);
        assert_eq!(d.misses, 0);
        assert_eq!(c.stats().references, 2);
        assert_eq!(c.stats().l1_hits(), 1);
    }

    #[test]
    fn sequential_run_counts_lines() {
        let mut c = CacheSim::new(0);
        let d = c.touch(0, 640, false);
        assert_eq!(d.references, 10);
        assert_eq!(d.misses, 10);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut c = CacheSim::new(0);
        // Fill well beyond L1 (32 KiB) but within L2 (1 MiB).
        c.touch(0, 128 << 10, false);
        let before = c.stats();
        // Second pass: L1 can't hold it, L2 can.
        let d = c.touch(0, 128 << 10, false);
        assert!(d.l2_hits > d.misses, "second pass should mostly hit L2: {d:?}");
        assert!(before.misses > 0);
    }

    #[test]
    fn dram_misses_beyond_l2() {
        let mut c = CacheSim::new(0);
        c.touch(0, 8 << 20, false);
        let d = c.touch(0, 8 << 20, false);
        // 8 MiB cannot fit in 1 MiB L2: mostly DRAM again.
        assert!(d.misses > d.l2_hits);
    }

    #[test]
    fn sampling_preserves_reference_scale() {
        let mut c = CacheSim::new(0);
        let d = c.touch(0, 64 << 20, false); // 1M lines, sampled
        let lines = (64u64 << 20) / 64;
        // Scaled count within 1% of the true line count.
        assert!((d.references as f64 - lines as f64).abs() / (lines as f64) < 0.01);
    }

    #[test]
    fn salt_changes_set_mapping_not_volume() {
        let mut plain = CacheSim::new(0);
        let mut salted = CacheSim::new(0x5a5a_0001);
        // A strided pattern prone to set conflicts: 160 lines hammering few
        // L2 sets. Identity mapping thrashes; coloring spreads the sets.
        for _ in 0..2 {
            for i in 0..160u64 {
                plain.touch(i * 8192, 64, false);
                salted.touch(i * 8192, 64, false);
            }
        }
        let (p, s) = (plain.stats(), salted.stats());
        assert_eq!(p.references, s.references);
        // Coloring must change the miss pattern for this conflict-heavy
        // stream (direction depends on the pattern; inequality is the point).
        assert_ne!(p.misses, s.misses);
    }

    #[test]
    fn zero_byte_touch_is_noop() {
        let mut c = CacheSim::new(0);
        assert_eq!(c.touch(100, 0, true), CacheStats::default());
        assert_eq!(c.stats().references, 0);
    }

    #[test]
    fn touch_op_ignores_non_memory() {
        let mut c = CacheSim::new(0);
        assert_eq!(c.touch_op(&Op::Cpu(5)), CacheStats::default());
        let d = c.touch_op(&Op::MemRead { addr: 0, bytes: 64 });
        assert_eq!(d.references, 1);
    }

    /// The simulator as it was before the flat arrays: per-set `Vec` LRU
    /// stacks (most recent last) and a colour computed per line.
    struct VecLru {
        l1: Vec<Vec<u64>>,
        l2: Vec<Vec<u64>>,
        salt: u64,
    }

    impl VecLru {
        fn new(salt: u64) -> Self {
            VecLru { l1: vec![Vec::new(); 64], l2: vec![Vec::new(); 1024], salt }
        }

        fn access(sets: &mut [Vec<u64>], ways: usize, line: u64) -> bool {
            let set_mask = sets.len() as u64 - 1;
            let stack = &mut sets[(line & set_mask) as usize];
            if let Some(pos) = stack.iter().position(|&t| t == line) {
                let t = stack.remove(pos);
                stack.push(t);
                true
            } else {
                if stack.len() == ways {
                    stack.remove(0);
                }
                stack.push(line);
                false
            }
        }

        fn color(&self, addr: u64) -> u64 {
            if self.salt == 0 {
                return addr;
            }
            let page = addr >> 12;
            let color = (page.wrapping_mul(self.salt | 1) >> 7) & 0x1f;
            ((page ^ color) << 12) | (addr & 0xfff)
        }

        fn touch(&mut self, addr: u64, bytes: u64) -> CacheStats {
            if bytes == 0 {
                return CacheStats::default();
            }
            let first = addr / LINE;
            let last = (addr + bytes - 1) / LINE;
            let total_lines = last - first + 1;
            let (stride, scale) = if total_lines > MAX_LINES_PER_OP {
                let stride = total_lines.div_ceil(MAX_LINES_PER_OP);
                (stride, stride)
            } else {
                (1, 1)
            };
            let mut delta = CacheStats::default();
            let mut line = first;
            while line <= last {
                let colored = self.color(line * LINE) / LINE;
                delta.references += scale;
                if !Self::access(&mut self.l1, 8, colored) {
                    if Self::access(&mut self.l2, 16, colored) {
                        delta.l2_hits += scale;
                    } else {
                        delta.misses += scale;
                    }
                }
                line += stride;
            }
            delta
        }
    }

    /// A seeded touch stream: mostly short runs over a hot 256-KiB region
    /// and a cold 64-MiB one, plus some sampled runs of more than 4096
    /// lines.
    fn touch_stream(seed: u64, len: usize) -> Vec<(u64, u64)> {
        let mut rng = SplitMix64::new(seed);
        (0..len)
            .map(|_| match rng.next_below(10) {
                0..=5 => (rng.next_below(256 << 10), 1 + rng.next_below(512)),
                6..=8 => (rng.next_below(64 << 20), 1 + rng.next_below(4096)),
                _ => (rng.next_below(64 << 20), (4097 << 6) + rng.next_below(1 << 20)),
            })
            .collect()
    }

    #[test]
    fn flat_levels_match_the_vec_lru_per_touch() {
        for salt in [0, 0x5a5a_0001, 0x3c3c_0007] {
            for seed in [1, 2, 3] {
                let mut flat = CacheSim::new(salt);
                let mut reference = VecLru::new(salt);
                let stream = touch_stream(seed ^ salt, 2_000);
                assert!(stream.iter().any(|&(_, b)| b > MAX_LINES_PER_OP * LINE));
                for (i, &(addr, bytes)) in stream.iter().enumerate() {
                    assert_eq!(
                        flat.touch(addr, bytes, false),
                        reference.touch(addr, bytes),
                        "salt {salt:#x} seed {seed}: touch {i} ({addr:#x}, {bytes})"
                    );
                }
            }
        }
    }

    fn stream_trace(stream: &[(u64, u64)]) -> OpTrace {
        stream
            .iter()
            .enumerate()
            .flat_map(|(i, &(addr, bytes))| {
                let mem = if i % 2 == 0 {
                    Op::MemRead { addr, bytes }
                } else {
                    Op::MemWrite { addr, bytes }
                };
                [Op::Cpu(1), mem]
            })
            .collect()
    }

    /// Runs `trace` as one bracketed execution, returning its deltas.
    fn execute(c: &mut CacheSim, trace: &OpTrace) -> Vec<CacheStats> {
        c.begin(trace);
        let deltas = trace.iter().filter(|op| mem_args(op).is_some()).map(|op| c.touch_op(op));
        let deltas = deltas.collect();
        c.end();
        deltas
    }

    #[test]
    fn lru_reaches_its_fixed_point_in_two_back_to_back_runs() {
        for salt in [0, 0x5a5a_0001, 0x3c3c_0007] {
            for (seed, len) in [(5, 50), (6, 400), (7, 2_000)] {
                let stream = touch_stream(seed ^ salt, len);
                let run = |c: &mut CacheSim| {
                    for &(addr, bytes) in &stream {
                        c.touch(addr, bytes, false);
                    }
                };
                let mut c = CacheSim::new(salt);
                // Start from an unrelated warm state.
                for &(addr, bytes) in &touch_stream(seed + 100, 300) {
                    c.touch(addr, bytes, false);
                }
                run(&mut c);
                let l1 = c.l1.sets.clone();
                run(&mut c);
                assert_eq!(c.l1.sets, l1, "salt {salt:#x} seed {seed}: L1 after one run");
                let l2 = c.l2.sets.clone();
                run(&mut c);
                assert_eq!(c.l1.sets, l1, "salt {salt:#x} seed {seed}: L1 after three runs");
                assert_eq!(c.l2.sets, l2, "salt {salt:#x} seed {seed}: L2 after two runs");
            }
        }
    }

    #[test]
    fn l2_settles_one_run_after_l1() {
        // Nine lines that share an L1 set (64 lines apart) thrash its eight
        // ways. Line `a` starts in L1 but not in L2: L1 hits kept it there
        // while sixteen lines of its L2 set pushed it out of L2. The first
        // run hits `a` in L1; the second misses it in both levels and puts
        // it in L2; from the third on it hits L2.
        let a = 1u64 << 20;
        let line = |n: u64| (a + n * 64 * LINE, LINE);
        let mut warm: Vec<(u64, u64)> = vec![line(0)];
        for k in 1..=16 {
            warm.extend([line(16 * k), line(0)]);
        }
        let trace = stream_trace(&(0..9).map(line).collect::<Vec<_>>());
        let mut memo = CacheSim::new(0);
        let mut simulated = CacheSim::new(0);
        simulated.disable_replay();
        for &(addr, bytes) in &warm {
            memo.touch(addr, bytes, false);
            simulated.touch(addr, bytes, false);
        }
        let runs: Vec<Vec<CacheStats>> = (0..5).map(|_| execute(&mut simulated, &trace)).collect();
        let misses = |run: &[CacheStats]| run.iter().map(|d| d.misses).sum::<u64>();
        assert_eq!(misses(&runs[1]), misses(&runs[2]) + 1, "the second run misses `a` in L2");
        assert_eq!(runs[2], runs[3]);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(&execute(&mut memo, &trace), run, "run {i}");
        }
    }

    #[test]
    fn replayed_executions_match_simulated_ones() {
        let trace = stream_trace(&touch_stream(9, 300));
        let mut memo = CacheSim::new(0x5a5a_0001);
        let mut simulated = CacheSim::new(0x5a5a_0001);
        simulated.disable_replay();
        for round in 0..6 {
            assert_eq!(
                execute(&mut memo, &trace),
                execute(&mut simulated, &trace),
                "round {round}"
            );
            assert_eq!(memo.stats(), simulated.stats());
            assert_eq!(memo.l1.sets, simulated.l1.sets);
            assert_eq!(memo.l2.sets, simulated.l2.sets);
        }
        assert!(memo.at_fixed_point());
    }

    #[test]
    fn replay_needs_the_same_touches_and_an_untouched_cache() {
        let hot: Vec<(u64, u64)> = (0..64).map(|i| (i * 64, 64)).collect();
        let trace = stream_trace(&hot);
        let settle = |c: &mut CacheSim| {
            for _ in 0..=SETTLING_RUNS {
                assert!(!c.at_fixed_point());
                execute(c, &trace);
            }
            assert!(c.at_fixed_point());
        };
        let mut c = CacheSim::new(0);
        settle(&mut c);
        // A different trace starts a new run.
        let other = stream_trace(&hot[1..]);
        c.begin(&other);
        assert_eq!(c.memo, Memo::Recording(0));
        c.end();
        settle(&mut c);
        // So does a touch outside an execution.
        c.touch(1 << 30, 64, false);
        c.begin(&trace);
        assert_eq!(c.memo, Memo::Recording(0));
    }

    #[test]
    fn an_aborted_replay_leaves_the_simulated_state() {
        let stream = touch_stream(4, 200);
        let trace = stream_trace(&stream);
        let tail = stream_trace(&stream[150..]);
        let mut memo = CacheSim::new(0x5a5a_0001);
        let mut simulated = CacheSim::new(0x5a5a_0001);
        simulated.disable_replay();
        // Cut a replay short after 70 touches, once by a touch the record
        // does not hold and once by the next execution.
        for by_touch in [true, false] {
            for _ in 0..=SETTLING_RUNS {
                execute(&mut memo, &trace);
                execute(&mut simulated, &trace);
            }
            memo.begin(&trace);
            assert!(matches!(memo.memo, Memo::Replaying(0)), "fixed point reached");
            simulated.begin(&trace);
            for &(addr, bytes) in &stream[..70] {
                assert_eq!(memo.touch(addr, bytes, false), simulated.touch(addr, bytes, false));
            }
            if by_touch {
                let (addr, bytes) = stream[150];
                assert_eq!(memo.touch(addr, bytes, false), simulated.touch(addr, bytes, false));
            } else {
                assert_eq!(execute(&mut memo, &tail), execute(&mut simulated, &tail));
            }
            assert_eq!(memo.l1.sets, simulated.l1.sets);
            assert_eq!(memo.l2.sets, simulated.l2.sets);
            assert_eq!(memo.stats(), simulated.stats());
        }
    }
}
