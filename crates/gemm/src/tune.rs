//! Measured tuning of the blocking parameters and wisdom persistence
//! (paper §4.3.4) — offline, once per layer shape.
//!
//! The paper tunes by exhaustively measuring every candidate per exact
//! GEMM shape. Here measurement only *ranks*: [`tune_blocking`] times the
//! analytic cost model's top-K candidates ([`crate::GemmCostModel`],
//! `K =` [`TUNE_TOP_K`]) and keeps the fastest; [`tune_blocking_full`]
//! retains the exhaustive sweep for ablations and for the release-mode
//! guard test that the top-K set still contains the measured winner.
//!
//! Results persist in a [`Wisdom`] file keyed by **SIMD tier** and shape.
//! Two granularities coexist: *exact* entries win when the precise shape
//! was tuned, and *class* entries generalise each tuning to every shape in
//! the same geometric bucket (per-dimension `⌈log₂⌉`, see [`ShapeClass`]),
//! so an unseen-but-similar shape resolves instantly. The lookup ladder
//! ([`Wisdom::blocking_for`]) is exact hit → class hit → cost-model
//! argmin — never a measurement stall on the execute path.
//!
//! # Wisdom file format
//!
//! Line-oriented text, no external dependencies:
//!
//! ```text
//! # lowino wisdom v2
//! <tier> exact <t> <n> <c> <k> -> <n_blk> <c_blk> <k_blk> <row_blk> <col_blk>
//! <tier> class <tb> <nb> <cb> <kb> -> <n_blk> <c_blk> <k_blk> <row_blk> <col_blk>
//! ```
//!
//! where `<tier>` is a [`SimdTier::from_name`] spelling (`scalar`, `avx2`,
//! `avx512-vnni`), `exact` keys are the literal `t n c k` dimensions and
//! `class` keys are the per-dimension bucket exponents
//! (`bucket(x) = ⌈log₂ x⌉`). Blank lines and `#` comments are ignored;
//! anything else is rejected with its line number.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use lowino_parallel::StaticPool;
use lowino_simd::SimdTier;

use crate::cost::{candidate_lattice, GemmCostModel};
use crate::driver::{batched_gemm_u8i8, GemmShape};
use crate::kernel::Blocking;
use crate::panels::{UPanel, VPanel, ZPanel};

/// How many cost-model candidates [`tune_blocking`] measures.
pub const TUNE_TOP_K: usize = 5;

/// One measured tuning candidate.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The blocking that was measured.
    pub blocking: Blocking,
    /// Best-of-repeats wall time.
    pub time: Duration,
}

/// Where a seeded blocking came from (the payload of the `tune/seeded`
/// trace instant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSource {
    /// Exact-shape wisdom hit.
    Exact,
    /// Shape-class wisdom hit.
    Class,
    /// Cost-model argmin (no wisdom for the shape or its class).
    Model,
}

impl SeedSource {
    /// Stable numeric code for trace payloads.
    pub fn as_u64(self) -> u64 {
        match self {
            SeedSource::Exact => 0,
            SeedSource::Class => 1,
            SeedSource::Model => 2,
        }
    }
}

/// Measure `candidates` on synthetic operands of `shape` and return the
/// fastest (plus the full log). Every timed candidate is emitted as a
/// `tune/measurement` trace instant (payload: best-of-repeats ns) — the
/// zero-stall acceptance test greps for exactly this event to prove no
/// measurement ever runs on the execute path.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn measure_candidates(
    tier: SimdTier,
    shape: &GemmShape,
    candidates: &[Blocking],
    pool: &mut StaticPool,
    repeats: usize,
) -> (Blocking, Vec<Measurement>) {
    let mut v = VPanel::new(shape.t, shape.n, shape.c);
    // Deterministic non-trivial fill (content doesn't affect timing).
    for t in 0..shape.t {
        for n in 0..shape.n {
            for (c, x) in v.row_mut(t, n).iter_mut().enumerate() {
                *x = ((t * 31 + n * 7 + c) % 251) as u8;
            }
        }
    }
    let mut u = UPanel::new(shape.t, shape.c, shape.k);
    u.finalize_compensation();
    let mut z = ZPanel::new(shape.t, shape.n, shape.k);

    let mut log = Vec::with_capacity(candidates.len());
    let mut best: Option<(Duration, Blocking)> = None;
    for &b in candidates {
        // Warm-up once, then best-of-`repeats`.
        batched_gemm_u8i8(tier, shape, &b, &v, &u, &mut z, pool);
        let mut t_best = Duration::MAX;
        for _ in 0..repeats.max(1) {
            let start = Instant::now();
            batched_gemm_u8i8(tier, shape, &b, &v, &u, &mut z, pool);
            t_best = t_best.min(start.elapsed());
        }
        if best.as_ref().is_none_or(|(t, _)| t_best < *t) {
            best = Some((t_best, b));
        }
        lowino_trace::instant("tune/measurement", t_best.as_nanos() as u64);
        log.push(Measurement {
            blocking: b,
            time: t_best,
        });
    }
    (best.expect("non-empty candidate set").1, log)
}

/// Tune the blocking for a GEMM shape: the cost model ranks the full
/// candidate lattice and only its top-[`TUNE_TOP_K`] candidates are
/// measured. Returns the winner and the measurement log.
pub fn tune_blocking(
    tier: SimdTier,
    shape: &GemmShape,
    pool: &mut StaticPool,
    repeats: usize,
) -> (Blocking, Vec<Measurement>) {
    let model = GemmCostModel::new();
    let candidates = model.top_k(tier, shape, TUNE_TOP_K);
    measure_candidates(tier, shape, &candidates, pool, repeats)
}

/// Exhaustively measure the *entire* candidate lattice (the paper's
/// original sweep). Kept for the ablation bench and the guard test that
/// [`tune_blocking`]'s pruning never loses the winner.
pub fn tune_blocking_full(
    tier: SimdTier,
    shape: &GemmShape,
    pool: &mut StaticPool,
    repeats: usize,
) -> (Blocking, Vec<Measurement>) {
    let candidates = candidate_lattice(shape);
    measure_candidates(tier, shape, &candidates, pool, repeats)
}

/// Geometric shape bucket: each dimension maps to its `⌈log₂⌉` exponent,
/// so shapes within a power-of-two band share a class and one tuning
/// generalises across them (e.g. every `n ∈ 1025..=2048` buckets to 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShapeClass {
    /// `⌈log₂ t⌉`.
    pub t: u8,
    /// `⌈log₂ n⌉`.
    pub n: u8,
    /// `⌈log₂ c⌉`.
    pub c: u8,
    /// `⌈log₂ k⌉`.
    pub k: u8,
}

impl ShapeClass {
    /// The class of a shape.
    pub fn of(shape: &GemmShape) -> Self {
        fn bucket(x: usize) -> u8 {
            x.max(1).next_power_of_two().trailing_zeros() as u8
        }
        Self {
            t: bucket(shape.t),
            n: bucket(shape.n),
            c: bucket(shape.c),
            k: bucket(shape.k),
        }
    }
}

type ExactKey = (SimdTier, [usize; 4]);

fn exact_key(tier: SimdTier, shape: &GemmShape) -> ExactKey {
    (tier, [shape.t, shape.n, shape.c, shape.k])
}

/// Persistent tuning results (§4.3.4's wisdom file: tier-qualified exact
/// and shape-class entries). See the module docs for the on-disk format.
#[derive(Debug, Clone, Default)]
pub struct Wisdom {
    exact: HashMap<ExactKey, Blocking>,
    class: HashMap<(SimdTier, ShapeClass), Blocking>,
}

impl Wisdom {
    /// Empty wisdom.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of remembered exact shapes.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Whether nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.class.is_empty()
    }

    /// Exact-shape lookup.
    pub fn get(&self, tier: SimdTier, shape: &GemmShape) -> Option<Blocking> {
        self.exact.get(&exact_key(tier, shape)).copied()
    }

    /// Shape-class lookup for the shape's bucket.
    pub fn get_class(&self, tier: SimdTier, shape: &GemmShape) -> Option<Blocking> {
        self.class.get(&(tier, ShapeClass::of(shape))).copied()
    }

    /// Remember a tuned blocking: as the shape's exact entry *and* as its
    /// class's entry (latest tuning wins the class).
    pub fn insert(&mut self, tier: SimdTier, shape: &GemmShape, blocking: Blocking) {
        self.exact.insert(exact_key(tier, shape), blocking);
        self.class.insert((tier, ShapeClass::of(shape)), blocking);
    }

    /// The zero-stall resolution ladder: exact hit → class hit →
    /// cost-model argmin. Never measures, never returns a default guess
    /// when the model can do better.
    pub fn blocking_for(&self, tier: SimdTier, shape: &GemmShape) -> (Blocking, SeedSource) {
        if let Some(b) = self.get(tier, shape) {
            return (b, SeedSource::Exact);
        }
        if let Some(b) = self.get_class(tier, shape) {
            return (b, SeedSource::Class);
        }
        (GemmCostModel::new().seed(tier, shape), SeedSource::Model)
    }

    /// Serialise to the line format.
    pub fn to_string_format(&self) -> String {
        let fmt_b = |b: &Blocking| {
            format!(
                "{} {} {} {} {}",
                b.n_blk, b.c_blk, b.k_blk, b.row_blk, b.col_blk
            )
        };
        let mut lines: Vec<String> = Vec::with_capacity(self.len() + self.class.len());
        for ((tier, d), b) in &self.exact {
            lines.push(format!(
                "{} exact {} {} {} {} -> {}",
                tier.name(),
                d[0],
                d[1],
                d[2],
                d[3],
                fmt_b(b)
            ));
        }
        for ((tier, cls), b) in &self.class {
            lines.push(format!(
                "{} class {} {} {} {} -> {}",
                tier.name(),
                cls.t,
                cls.n,
                cls.c,
                cls.k,
                fmt_b(b)
            ));
        }
        lines.sort();
        format!("# lowino wisdom v2\n{}\n", lines.join("\n"))
    }

    /// Parse the line format; malformed lines are rejected with their
    /// line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut w = Wisdom::new();
        for (lineno, line) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, val) = line
                .split_once("->")
                .ok_or_else(|| format!("line {lineno}: missing '->'"))?;
            let parse_nums = |s: &str, want: usize| -> Result<Vec<usize>, String> {
                let nums: Result<Vec<usize>, _> =
                    s.split_whitespace().map(str::parse::<usize>).collect();
                let nums = nums.map_err(|e| format!("line {lineno}: {e}"))?;
                if nums.len() != want {
                    return Err(format!(
                        "line {lineno}: expected {want} numbers, got {}",
                        nums.len()
                    ));
                }
                Ok(nums)
            };
            let v = parse_nums(val, 5)?;
            let blocking = Blocking {
                n_blk: v[0],
                c_blk: v[1],
                k_blk: v[2],
                row_blk: v[3],
                col_blk: v[4],
            };
            let mut key_toks = key.split_whitespace();
            let first = key_toks
                .next()
                .ok_or_else(|| format!("line {lineno}: empty key"))?;
            let tier = SimdTier::from_name(first)
                .ok_or_else(|| format!("line {lineno}: unknown tier '{first}'"))?;
            let kind = key_toks
                .next()
                .ok_or_else(|| format!("line {lineno}: missing 'exact'/'class' tag"))?;
            let rest = key_toks.collect::<Vec<_>>().join(" ");
            let d = parse_nums(&rest, 4)?;
            match kind {
                "exact" => {
                    w.exact.insert((tier, [d[0], d[1], d[2], d[3]]), blocking);
                }
                "class" => {
                    let to_u8 = |x: usize| -> Result<u8, String> {
                        u8::try_from(x)
                            .map_err(|_| format!("line {lineno}: class exponent {x} out of range"))
                    };
                    let cls = ShapeClass {
                        t: to_u8(d[0])?,
                        n: to_u8(d[1])?,
                        c: to_u8(d[2])?,
                        k: to_u8(d[3])?,
                    };
                    w.class.insert((tier, cls), blocking);
                }
                other => {
                    return Err(format!(
                        "line {lineno}: expected 'exact' or 'class', got '{other}'"
                    ))
                }
            }
        }
        Ok(w)
    }

    /// Load from a wisdom file; a missing file yields empty wisdom.
    ///
    /// Bytes are decoded lossily (invalid UTF-8 becomes U+FFFD) so a
    /// corrupted file always reaches [`Wisdom::parse`] and every rejection
    /// carries the offending line number instead of an opaque decode error.
    pub fn load(path: &Path) -> Result<Self, String> {
        match std::fs::read(path) {
            Ok(bytes) => Self::parse(&String::from_utf8_lossy(&bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
        }
    }

    /// Save to a wisdom file, crash-safely.
    ///
    /// The bytes are written to `<path>.tmp` first and moved into place
    /// with an atomic rename, so an interruption at any point (crash,
    /// kill, disk-full error) leaves the previous wisdom file intact —
    /// never a truncated half-write. The `wisdom/save` fault site sits
    /// between the two halves of the write to let tests prove exactly
    /// that.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let bytes = self.to_string_format().into_bytes();
        let result = (|| -> Result<(), String> {
            let mut f = std::fs::File::create(&tmp)
                .map_err(|e| format!("creating {}: {e}", tmp.display()))?;
            let mid = bytes.len() / 2;
            f.write_all(&bytes[..mid])
                .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
            if lowino_testkit::faults::WISDOM_SAVE.fire() {
                // Simulated crash mid-write: the temp file is left
                // half-written and the rename never happens.
                return Err(format!(
                    "injected fault: wisdom/save (crash mid-write of {})",
                    tmp.display()
                ));
            }
            f.write_all(&bytes[mid..])
                .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
            f.sync_all()
                .map_err(|e| format!("syncing {}: {e}", tmp.display()))?;
            drop(f);
            std::fs::rename(&tmp, path).map_err(|e| {
                format!("renaming {} -> {}: {e}", tmp.display(), path.display())
            })?;
            // The rename is an update of the directory: sync it too, or a
            // power cut can bring the old entry back.
            let dir = parent_dir(path);
            std::fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| format!("syncing {}: {e}", dir.display()))
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }
}

/// The directory whose entry for `path` a rename updates: `.` for a bare
/// file name.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B1: Blocking = Blocking { n_blk: 96, c_blk: 256, k_blk: 256, row_blk: 6, col_blk: 4 };
    const B2: Blocking = Blocking { n_blk: 48, c_blk: 512, k_blk: 64, row_blk: 8, col_blk: 2 };

    #[test]
    fn tuner_returns_valid_blocking_from_topk() {
        let shape = GemmShape { t: 4, n: 64, c: 32, k: 64 };
        let mut pool = StaticPool::new(1);
        let (best, log) = tune_blocking(SimdTier::detect(), &shape, &mut pool, 1);
        assert!(best.validate().is_ok());
        assert!(!log.is_empty());
        assert!(log.len() <= TUNE_TOP_K, "tuner must only measure the top-K");
        // The winner is the measured minimum.
        let min = log.iter().map(|m| m.time).min().unwrap();
        assert_eq!(log.iter().find(|m| m.time == min).unwrap().blocking, best);
    }

    #[test]
    fn full_sweep_measures_the_whole_lattice() {
        let shape = GemmShape { t: 2, n: 32, c: 16, k: 64 };
        let mut pool = StaticPool::new(1);
        let (best, log) = tune_blocking_full(SimdTier::detect(), &shape, &mut pool, 1);
        assert!(best.validate().is_ok());
        assert_eq!(log.len(), crate::cost::candidate_lattice(&shape).len());
    }

    #[test]
    fn save_syncs_the_directory_that_holds_the_file() {
        assert_eq!(parent_dir(Path::new("wisdom.txt")), Path::new("."));
        assert_eq!(parent_dir(Path::new("a/b/wisdom.txt")), Path::new("a/b"));
        assert_eq!(parent_dir(Path::new("/wisdom.txt")), Path::new("/"));
        // Each form opens and syncs as a directory on this platform.
        for dir in [Path::new("."), Path::new("/")] {
            std::fs::File::open(dir).unwrap().sync_all().unwrap();
        }
        let dir = std::env::temp_dir().join(format!("lowino-dirsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.txt");
        let mut w = Wisdom::new();
        w.insert(SimdTier::Avx2, &GemmShape { t: 16, n: 64, c: 64, k: 64 }, B1);
        w.save(&path).unwrap();
        assert_eq!(Wisdom::load(&path).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wisdom_round_trip() {
        let mut w = Wisdom::new();
        let s1 = GemmShape { t: 16, n: 4096, c: 256, k: 256 };
        let s2 = GemmShape { t: 36, n: 1024, c: 512, k: 512 };
        w.insert(SimdTier::Avx512Vnni, &s1, B1);
        w.insert(SimdTier::Avx2, &s2, B2);
        let text = w.to_string_format();
        assert!(text.starts_with("# lowino wisdom v2\n"));
        let back = Wisdom::parse(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.class.len(), 2);
        assert_eq!(back.get(SimdTier::Avx512Vnni, &s1), Some(B1));
        assert_eq!(back.get(SimdTier::Avx2, &s2), Some(B2));
        assert_eq!(back.get(SimdTier::Avx2, &GemmShape { t: 1, n: 1, c: 1, k: 1 }), None);
    }

    #[test]
    fn wisdom_is_tier_keyed_and_never_reused_across_tiers() {
        // The satellite bugfix: a file tuned under one tier must not hand
        // its blocking to a different tier (neither exact nor class).
        let mut w = Wisdom::new();
        let s = GemmShape { t: 16, n: 1024, c: 256, k: 256 };
        w.insert(SimdTier::Avx512Vnni, &s, B1);
        assert_eq!(w.get(SimdTier::Avx512Vnni, &s), Some(B1));
        assert_eq!(w.get(SimdTier::Avx2, &s), None);
        assert_eq!(w.get(SimdTier::Scalar, &s), None);
        assert_eq!(w.get_class(SimdTier::Avx2, &s), None);
        // And the same holds after a disk round trip.
        let back = Wisdom::parse(&w.to_string_format()).unwrap();
        assert_eq!(back.get(SimdTier::Avx512Vnni, &s), Some(B1));
        assert_eq!(back.get(SimdTier::Avx2, &s), None);
        let (b, src) = back.blocking_for(SimdTier::Avx2, &s);
        assert_eq!(src, SeedSource::Model, "foreign tier must re-derive");
        assert!(b.validate().is_ok());
    }

    #[test]
    fn v1_line_is_rejected_with_its_line_number() {
        // The tierless `t n c k -> …` dialect is gone: such a line names no
        // tier, so it is malformed like any other.
        let text = "# lowino wisdom v1\n16 100 64 128 -> 48 64 128 4 4\n";
        let err = Wisdom::parse(text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn blocking_for_ladder_exact_class_model() {
        let mut w = Wisdom::new();
        let tuned = GemmShape { t: 16, n: 1000, c: 200, k: 200 };
        w.insert(SimdTier::Avx512Vnni, &tuned, B1);

        // Exact shape wins.
        let (b, src) = w.blocking_for(SimdTier::Avx512Vnni, &tuned);
        assert_eq!((b, src), (B1, SeedSource::Exact));

        // A different shape in the same class (same ⌈log₂⌉ buckets) gets
        // the class entry.
        let neighbour = GemmShape { t: 16, n: 513, c: 129, k: 129 };
        assert_eq!(ShapeClass::of(&neighbour), ShapeClass::of(&tuned));
        let (b, src) = w.blocking_for(SimdTier::Avx512Vnni, &neighbour);
        assert_eq!((b, src), (B1, SeedSource::Class));

        // A shape in a different class falls through to the cost model.
        let far = GemmShape { t: 16, n: 8192, c: 16, k: 1024 };
        let (b, src) = w.blocking_for(SimdTier::Avx512Vnni, &far);
        assert_eq!(src, SeedSource::Model);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn wisdom_parse_errors() {
        assert!(Wisdom::parse("1 2 3 4 5 6").is_err()); // no arrow
        assert!(Wisdom::parse("1 2 3 -> 1 2 3 4 5").is_err()); // short key
        assert!(Wisdom::parse("1 2 3 4 -> 1 2 3").is_err()); // short value
        assert!(Wisdom::parse("sse9 exact 1 2 3 4 -> 1 2 3 4 5").is_err()); // bad tier
        assert!(Wisdom::parse("avx2 blah 1 2 3 4 -> 1 2 3 4 5").is_err()); // bad tag
        assert!(Wisdom::parse("avx2 exact 1 2 3 -> 1 2 3 4 5").is_err()); // short key
        assert!(Wisdom::parse("avx2 class 1 2 3 999 -> 1 2 3 4 5").is_err()); // exponent range
        // Comments and blanks are fine.
        let w = Wisdom::parse("# comment\n\navx2 exact 1 2 3 4 -> 5 6 7 8 9\n").unwrap();
        assert_eq!(w.len(), 1);
    }

    /// Serialises the tests that call `Wisdom::save`: the `wisdom/save`
    /// fault site is process-global, so a concurrently-running save could
    /// otherwise consume (or trip over) an armed fault meant for another
    /// test.
    static SAVE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn wisdom_file_io() {
        let _guard = SAVE_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("lowino-wisdom-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.txt");
        let mut w = Wisdom::new();
        let s = GemmShape { t: 16, n: 100, c: 64, k: 128 };
        w.insert(SimdTier::Avx512Vnni, &s, B1);
        w.save(&path).unwrap();
        let back = Wisdom::load(&path).unwrap();
        assert_eq!(back.get(SimdTier::Avx512Vnni, &s), w.get(SimdTier::Avx512Vnni, &s));
        std::fs::remove_file(&path).ok();
        // Missing file -> empty wisdom, not an error.
        let empty = Wisdom::load(&path).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn save_crash_leaves_old_wisdom_intact() {
        use lowino_testkit::faults::WISDOM_SAVE;
        let _guard = SAVE_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!(
            "lowino-wisdom-crash-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.txt");

        // Persist a first generation of wisdom normally.
        let mut old = Wisdom::new();
        let s_old = GemmShape { t: 16, n: 100, c: 64, k: 128 };
        old.insert(SimdTier::Avx2, &s_old, B1);
        old.save(&path).unwrap();

        // A crash mid-save of a *new* generation must not corrupt it.
        let mut new = Wisdom::new();
        new.insert(SimdTier::Avx2, &GemmShape { t: 36, n: 1024, c: 512, k: 512 }, B2);
        WISDOM_SAVE.arm();
        let err = new.save(&path).expect_err("armed fault must fail the save");
        assert!(err.contains("injected fault: wisdom/save"), "got: {err}");
        assert!(!WISDOM_SAVE.is_armed(), "fault is one-shot");

        let back = Wisdom::load(&path).expect("old file must still parse");
        assert_eq!(back.len(), 1);
        assert_eq!(back.get(SimdTier::Avx2, &s_old), old.get(SimdTier::Avx2, &s_old));

        // Disarmed retry succeeds and replaces the file atomically.
        new.save(&path).expect("disarmed save succeeds");
        let back = Wisdom::load(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.get(SimdTier::Avx2, &s_old), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    use lowino_testkit::{prop_assert, property, vec_of};

    property! {
        #[cases(120)]
        fn wisdom_load_survives_random_byte_corruption(
            muts in vec_of((0usize..4096, 0u16..256), 1..9)
        ) {
            // Start from a valid file and flip 1–8 arbitrary bytes
            // (arbitrary values, including non-UTF-8 and control bytes).
            let mut w = Wisdom::new();
            w.insert(SimdTier::Avx512Vnni, &GemmShape { t: 16, n: 4096, c: 256, k: 256 }, B1);
            w.insert(SimdTier::Avx2, &GemmShape { t: 36, n: 1024, c: 512, k: 512 }, B2);
            let mut bytes = w.to_string_format().into_bytes();
            let len = bytes.len();
            for &(pos, byte) in &muts {
                bytes[pos % len] = byte as u8;
            }

            use std::sync::atomic::{AtomicU64, Ordering};
            static UNIQ: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "lowino-wisdom-fuzz-{}-{}.txt",
                std::process::id(),
                UNIQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&path, &bytes).unwrap();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Wisdom::load(&path)
            }));
            std::fs::remove_file(&path).ok();

            let result = match result {
                Ok(r) => r,
                Err(_) => {
                    prop_assert!(false, "Wisdom::load panicked on corrupt input");
                    return Ok(());
                }
            };
            if let Err(msg) = result {
                // Every rejection must name the offending line.
                let tail = match msg.split_once("line ") {
                    Some((_, tail)) => tail,
                    None => {
                        prop_assert!(false, "error without line number: {msg}");
                        return Ok(());
                    }
                };
                let digits: String =
                    tail.chars().take_while(|c| c.is_ascii_digit()).collect();
                let lineno: usize = match digits.parse() {
                    Ok(n) => n,
                    Err(_) => {
                        prop_assert!(false, "no line number after 'line ': {msg}");
                        return Ok(());
                    }
                };
                let line_count = String::from_utf8_lossy(&bytes).lines().count();
                prop_assert!(
                    lineno >= 1 && lineno <= line_count.max(1),
                    "line {lineno} out of range 1..={line_count}: {msg}"
                );
            }
        }
    }
}
