//! Deterministic fault injection ("chaos") for the hardened campaign
//! stack.
//!
//! The harness promises that campaigns survive panicking jobs, torn
//! checkpoint writes and full disks — promises that are worthless if no
//! test ever exercises the recovery paths. This module makes the fire
//! drill systematic:
//!
//! * [`FaultPlan`] — a seeded, rate-controlled decision source. Every
//!   would-be fault site in the harness asks the plan "does the fault at
//!   this *named site* fire?" and the answer is a pure function of the
//!   seed, the site name, and a site-local key, so two runs with the same
//!   `EMISSARY_CHAOS_SEED` inject the identical fault set.
//! * [`CkptIo`] — a small trait over the filesystem operations of the
//!   append-only log ([`crate::append_log`]) behind the campaign
//!   checkpoint. [`RealIo`] passes straight through to `std::fs`;
//!   [`ChaosIo`] wraps it and injects I/O errors, torn (partial) line
//!   writes, and failed rotations according to the plan.
//! * [`ChaosWriter`] — a `Write` adapter that injects I/O errors into
//!   arbitrary sinks (the per-job event-trace `JsonlSink`s), proving the
//!   sinks degrade gracefully instead of silently dropping events.
//! * Job faults — [`FaultPlan::job_fault`] injects panics and artificial
//!   stalls into simulation jobs, keyed by the job's config hash so the
//!   injected set is independent of worker-thread interleaving. A job
//!   runs once; the failed jobs are recovered by a resume with chaos off.
//!
//! Stopping a sweep needs no code here: SIGINT, SIGTERM and SIGKILL all
//! take the OS default and end the process. Every completed record is
//! already flushed to the checkpoint, so `EMISSARY_RESUME=1` picks the
//! campaign up byte-identically.
//!
//! Chaos is **off** unless `EMISSARY_CHAOS_SEED` is set. With chaos
//! enabled at rate 0 every decision is "no fault", and the harness is
//! byte-identical to an unchaosed run — the decision layer itself never
//! touches simulation state.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::checkpoint::fnv1a64;
use crate::FaultInjection;

/// Injection probability per fault site once `EMISSARY_CHAOS_SEED` is
/// set. At 0.02 a full sweep's checkpoint sees several torn appends and
/// a handful of its jobs fail, so one drill covers every recovery path.
pub const CHAOS_RATE: f64 = 0.02;

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Every shared-state lock in the campaign stack goes through this helper:
/// a job that panics under `catch_unwind` while holding (or racing) a memo
/// or log lock must not wedge the rest of the campaign. All guarded state
/// here is valid after an interrupted mutation (maps and vecs of owned
/// values; the worst case is one lost insertion), so adopting a poisoned
/// guard is safe.
pub fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// The fault plan
// ---------------------------------------------------------------------------

/// A seeded, deterministic fault-injection plan.
///
/// Each injection site is a short stable name (`"ckpt.append"`,
/// `"job.panic"`, …). Whether the fault at a site fires is a pure
/// function of `(seed, site, key)`; the key is either an explicit value
/// (job faults use the job's config hash)
/// or a per-site call counter (I/O faults), so the decision *sequence* at
/// every site is reproducible from the seed alone.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Probability scaled to parts-per-million.
    rate_ppm: u64,
    /// Per-site call counters. Each site's counter is gap-free (read and
    /// bumped under one lock), so the decision sequence per site is a
    /// pure function of the seed — only which caller observes which
    /// decision depends on scheduling.
    counters: Mutex<HashMap<String, u64>>,
    injected: AtomicU64,
}

/// SplitMix64 finalizer: a cheap, well-mixed u64 → u64 hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan injecting each site's fault with probability `rate`
    /// (clamped to `[0, 1]`), deterministically from `seed`.
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate_ppm = (rate.clamp(0.0, 1.0) * 1e6) as u64;
        Self {
            seed,
            rate_ppm,
            counters: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Pure decision function: does the fault at `site` fire for `key`?
    /// Two plans with equal seed and rate agree on every `(site, key)`.
    pub fn would_fire(&self, site: &str, key: u64) -> bool {
        let h = splitmix64(splitmix64(self.seed ^ fnv1a64(site.as_bytes())).wrapping_add(key));
        (h % 1_000_000) < self.rate_ppm
    }

    /// [`FaultPlan::would_fire`], counting the injection when it fires.
    pub fn fires_keyed(&self, site: &str, key: u64) -> bool {
        let fire = self.would_fire(site, key);
        if fire {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Counter-keyed decision: the `i`-th call for `site` uses key `i`.
    /// The decision sequence at each site is deterministic; which caller
    /// observes which decision depends on thread interleaving.
    pub fn fires(&self, site: &str) -> bool {
        let key = {
            let mut counters = lock_unpoisoned(&self.counters);
            let next = counters.entry(site.to_string()).or_insert(0);
            *next += 1;
            *next - 1
        };
        self.fires_keyed(site, key)
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The fault (if any) to inject into a simulation job: a panic or an
    /// artificial stall. Keyed by the job's stable config hash alone, so
    /// the injected job set is independent of worker scheduling.
    pub fn job_fault(&self, config_hash: u64) -> Option<FaultInjection> {
        // `+ 1` keeps the key earlier releases used for a job's first
        // run, so a given seed still fails the same jobs.
        let key = splitmix64(config_hash).wrapping_add(1);
        if self.fires_keyed("job.panic", key) {
            return Some(FaultInjection::Panic);
        }
        if self.fires_keyed("job.stall", key) {
            return Some(FaultInjection::Stall);
        }
        None
    }

    /// A chaos-injected I/O error naming its site.
    pub fn io_error(site: &str) -> io::Error {
        io::Error::other(format!("chaos: injected I/O error at {site}"))
    }
}

/// The process-wide plan `EMISSARY_CHAOS_SEED` describes, at
/// [`CHAOS_RATE`], built once. `None` when the seed is unset.
pub fn plan_from_env() -> Option<Arc<FaultPlan>> {
    static PLAN: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
    PLAN.get_or_init(|| {
        crate::scale::knobs()
            .chaos_seed
            .map(|seed| Arc::new(FaultPlan::new(seed, CHAOS_RATE)))
    })
    .clone()
}

// ---------------------------------------------------------------------------
// Append-log I/O indirection
// ---------------------------------------------------------------------------

/// The filesystem operations the append-only log ([`crate::append_log`])
/// performs for the campaign checkpoint, as a trait so chaos (and tests)
/// can interpose on every one of them.
pub trait CkptIo: Send + Sync + std::fmt::Debug {
    /// `fs::create_dir_all`.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// `fs::read_to_string` (salvage on open).
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Opens `path` for appending, creating it if missing.
    fn open_writer(&self, path: &Path) -> io::Result<fs::File>;

    /// Writes `line` plus a newline to `w` and flushes, so a killed
    /// process loses at most the line being written.
    fn append_line(&self, w: &mut dyn Write, line: &str) -> io::Result<()>;

    /// Atomically replaces `path` with `contents`: write a sibling temp
    /// file, fsync it, and rename it over `path` (segment rotation).
    fn replace_file(&self, path: &Path, contents: &str) -> io::Result<()>;
}

/// Plain `std::fs`-backed [`CkptIo`].
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl CkptIo for RealIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        fs::read_to_string(path)
    }

    fn open_writer(&self, path: &Path) -> io::Result<fs::File> {
        fs::OpenOptions::new().create(true).append(true).open(path)
    }

    fn append_line(&self, w: &mut dyn Write, line: &str) -> io::Result<()> {
        writeln!(w, "{line}")?;
        w.flush()
    }

    fn replace_file(&self, path: &Path, contents: &str) -> io::Result<()> {
        write_atomic(path, |out| out.write_all(contents.as_bytes()))
    }
}

/// Replaces `path` with what `write` produces, so that a reader (or a
/// process killed mid-write) sees either the old file or the new one,
/// never a torn one: `write` fills a sibling `<path>.tmp`, which is
/// fsynced and renamed over `path`.
pub fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut out = BufWriter::new(fs::File::create(&tmp)?);
    write(&mut out)?;
    out.into_inner()
        .map_err(io::IntoInnerError::into_error)?
        .sync_all()?;
    fs::rename(&tmp, path)
}

/// A [`CkptIo`] that injects faults per the plan: plain I/O errors at
/// `ckpt.mkdir` / `ckpt.read` / `ckpt.open` / `ckpt.rotate`, and torn
/// writes at `ckpt.append` (half the line reaches the file, then the
/// write "fails" — exactly what a crash or full disk leaves behind).
#[derive(Debug)]
pub struct ChaosIo {
    plan: Arc<FaultPlan>,
    inner: RealIo,
}

impl ChaosIo {
    /// Wraps [`RealIo`] with fault injection under `plan`.
    pub fn new(plan: Arc<FaultPlan>) -> Self {
        Self {
            plan,
            inner: RealIo,
        }
    }
}

impl CkptIo for ChaosIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        if self.plan.fires("ckpt.mkdir") {
            return Err(FaultPlan::io_error("ckpt.mkdir"));
        }
        self.inner.create_dir_all(dir)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        if self.plan.fires("ckpt.read") {
            return Err(FaultPlan::io_error("ckpt.read"));
        }
        self.inner.read_to_string(path)
    }

    fn open_writer(&self, path: &Path) -> io::Result<fs::File> {
        if self.plan.fires("ckpt.open") {
            return Err(FaultPlan::io_error("ckpt.open"));
        }
        self.inner.open_writer(path)
    }

    fn append_line(&self, w: &mut dyn Write, line: &str) -> io::Result<()> {
        if self.plan.fires("ckpt.append") {
            // Torn write: a prefix of the line lands on disk, no newline.
            let cut = line.len() / 2;
            let _ = w.write_all(&line.as_bytes()[..cut]);
            let _ = w.flush();
            return Err(FaultPlan::io_error("ckpt.append"));
        }
        self.inner.append_line(w, line)
    }

    fn replace_file(&self, path: &Path, contents: &str) -> io::Result<()> {
        if self.plan.fires("ckpt.rotate") {
            return Err(FaultPlan::io_error("ckpt.rotate"));
        }
        self.inner.replace_file(path, contents)
    }
}

/// The [`CkptIo`] the environment asks for: [`ChaosIo`] when chaos is
/// enabled, [`RealIo`] otherwise.
pub fn io_from_env() -> Box<dyn CkptIo> {
    match plan_from_env() {
        Some(plan) => Box::new(ChaosIo::new(plan)),
        None => Box::new(RealIo),
    }
}

// ---------------------------------------------------------------------------
// Chaos writer (trace sinks)
// ---------------------------------------------------------------------------

/// A `Write` adapter injecting I/O errors into an arbitrary sink,
/// exercising the sink's degradation path (e.g. `JsonlSink` downgrading
/// itself to a null writer after its first error).
#[derive(Debug)]
pub struct ChaosWriter<W: Write> {
    inner: W,
    plan: Arc<FaultPlan>,
    site: &'static str,
}

impl<W: Write> ChaosWriter<W> {
    /// Wraps `inner`, injecting errors at the named `site` per `plan`.
    pub fn new(inner: W, plan: Arc<FaultPlan>, site: &'static str) -> Self {
        Self { inner, plan, site }
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.plan.fires(self.site) {
            return Err(FaultPlan::io_error(self.site));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let a = FaultPlan::new(42, 0.25);
        let b = FaultPlan::new(42, 0.25);
        let decisions = |p: &FaultPlan| -> Vec<bool> {
            (0..64).map(|k| p.would_fire("ckpt.append", k)).collect()
        };
        assert_eq!(decisions(&a), decisions(&b));
        // Counter-keyed calls replay the same sequence.
        let seq_a: Vec<bool> = (0..64).map(|_| a.fires("ckpt.append")).collect();
        assert_eq!(seq_a, decisions(&b));
        // A different seed disagrees somewhere in 64 draws at rate 0.25.
        let c = FaultPlan::new(43, 0.25);
        assert_ne!(decisions(&a), decisions(&c));
    }

    #[test]
    fn concurrent_fires_consume_each_key_exactly_once() {
        // 8 threads × 32 calls share one site. The per-site atomic
        // counter must hand out keys 0..256 with no gaps or repeats, so
        // the *number* of injected faults equals the pure-function count
        // regardless of interleaving (schedule independence).
        let p = FaultPlan::new(9, 0.5);
        let hits: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..32).filter(|_| p.fires("ckpt.append")).count()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let expected = (0..256u64)
            .filter(|&k| p.would_fire("ckpt.append", k))
            .count();
        assert_eq!(hits, expected);
        assert_eq!(p.injected(), expected as u64);
    }

    #[test]
    fn rate_extremes() {
        let never = FaultPlan::new(7, 0.0);
        let always = FaultPlan::new(7, 1.0);
        for k in 0..128 {
            assert!(!never.would_fire("x", k));
            assert!(always.would_fire("x", k));
        }
        assert_eq!(never.injected(), 0);
    }

    #[test]
    fn sites_decide_independently() {
        let p = FaultPlan::new(1, 0.5);
        let a: Vec<bool> = (0..256).map(|k| p.would_fire("site.a", k)).collect();
        let b: Vec<bool> = (0..256).map(|k| p.would_fire("site.b", k)).collect();
        assert_ne!(a, b, "independent sites must not mirror each other");
        let hits = a.iter().filter(|&&x| x).count();
        assert!((64..192).contains(&hits), "rate 0.5 wildly off: {hits}/256");
    }

    #[test]
    fn job_faults_are_keyed_by_config() {
        let p = FaultPlan::new(5, 0.3);
        let q = FaultPlan::new(5, 0.3);
        let faults: Vec<_> = (0..64u64).map(|hash| p.job_fault(hash)).collect();
        // Same seed, same config → same fault, in any query order.
        let reversed: Vec<_> = (0..64u64).rev().map(|hash| q.job_fault(hash)).collect();
        assert!(faults.iter().eq(reversed.iter().rev()));
        // Re-querying a config (a second campaign in one process) gives
        // the same answer.
        assert_eq!(p.job_fault(9), p.job_fault(9));
        // The key is the config: at rate 0.3 some configs fail and some
        // do not.
        assert!(faults.iter().any(Option::is_some) && faults.iter().any(Option::is_none));
        // The first-run key of earlier releases, so seeds keep their jobs.
        for hash in 0..64u64 {
            let key = splitmix64(hash).wrapping_add(1);
            let expect = if p.would_fire("job.panic", key) {
                Some(FaultInjection::Panic)
            } else if p.would_fire("job.stall", key) {
                Some(FaultInjection::Stall)
            } else {
                None
            };
            assert_eq!(p.job_fault(hash), expect);
        }
    }

    #[test]
    fn injected_counts_fired_faults() {
        let p = FaultPlan::new(3, 1.0);
        assert!(p.fires("x"));
        assert!(p.fires("y"));
        assert_eq!(p.injected(), 2);
    }

    #[test]
    fn chaos_io_tears_the_line_midway() {
        let plan = Arc::new(FaultPlan::new(0, 1.0));
        let io = ChaosIo::new(plan);
        let mut buf: Vec<u8> = Vec::new();
        let err = io
            .append_line(&mut buf, "{\"record\":\"ckpt\"}")
            .expect_err("rate 1.0 must tear");
        assert!(err.to_string().contains("ckpt.append"));
        assert!(!buf.is_empty() && buf.len() < "{\"record\":\"ckpt\"}".len() + 1);
        assert!(!buf.ends_with(b"\n"));
    }

    #[test]
    fn real_io_replace_file_is_atomic_rename() {
        let dir = std::env::temp_dir().join(format!("emissary_chaos_io_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.jsonl");
        fs::write(&path, "old\n").unwrap();
        RealIo.replace_file(&path, "new contents\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "new contents\n");
        // No temp file left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_writer_injects_and_passes_through() {
        let plan = Arc::new(FaultPlan::new(11, 0.0));
        let mut w = ChaosWriter::new(Vec::new(), Arc::clone(&plan), "trace.write");
        w.write_all(b"hello").unwrap();
        assert_eq!(w.inner, b"hello");
        let hot = Arc::new(FaultPlan::new(11, 1.0));
        let mut w = ChaosWriter::new(Vec::new(), hot, "trace.write");
        assert!(w.write_all(b"hello").is_err());
        assert!(w.inner.is_empty());
    }
}
