//! Deterministic fault injection ("chaos") and the cooperative-shutdown
//! machinery behind the hardened campaign stack.
//!
//! The harness promises that campaigns survive panicking jobs, torn
//! checkpoint writes, full disks, and SIGINT — promises that are worthless
//! if no test ever exercises the recovery paths. This module makes the
//! fire drill systematic:
//!
//! * [`FaultPlan`] — a seeded, rate-controlled decision source. Every
//!   would-be fault site in the harness asks the plan "does the fault at
//!   this *named site* fire?" and the answer is a pure function of the
//!   seed, the site name, and a site-local key, so two runs with the same
//!   `EMISSARY_CHAOS_SEED` inject the identical fault set.
//! * [`CkptIo`] — a small trait over the filesystem operations of the
//!   append-only log ([`crate::append_log`]) behind the campaign
//!   checkpoint and the serve journal. [`RealIo`] passes straight through to `std::fs`;
//!   [`ChaosIo`] wraps it and injects I/O errors, torn (partial) line
//!   writes, and failed rotations according to the plan.
//! * [`ChaosWriter`] — a `Write` adapter that injects I/O errors into
//!   arbitrary sinks (the per-job event-trace `JsonlSink`s), proving the
//!   sinks degrade gracefully instead of silently dropping events.
//! * Job faults — [`FaultPlan::job_fault`] injects panics and artificial
//!   stalls into simulation jobs, keyed by the job's config hash and
//!   attempt number so the injected set is independent of worker-thread
//!   interleaving.
//! * Cooperative shutdown — a process-wide atomic flag raised by SIGINT /
//!   SIGTERM (installed via [`install_signal_handlers`]) or by
//!   [`request_shutdown`]. The pool stops scheduling new jobs when the
//!   flag is up; completed work is already flushed to the checkpoint, so
//!   `EMISSARY_RESUME=1` picks the campaign up byte-identically.
//!
//! Chaos is **off** unless `EMISSARY_CHAOS_SEED` is set. With chaos
//! enabled at rate 0 every decision is "no fault", and the harness is
//! byte-identical to an unchaosed run — the decision layer itself never
//! touches simulation state.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::checkpoint::fnv1a64;
use crate::shard::SlotRegistry;
use crate::FaultInjection;

/// Default injection probability per fault site when `EMISSARY_CHAOS_SEED`
/// is set but `EMISSARY_CHAOS_RATE` is not.
pub const DEFAULT_CHAOS_RATE: f64 = 0.01;

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
/// (job faults use the job's config hash mixed with the attempt number)
/// or a per-site call counter (I/O faults), so the decision *sequence* at
/// every site is reproducible from the seed alone.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Probability scaled to parts-per-million.
    rate_ppm: u64,
    /// Per-site call counters. A lock-free slot registry rather than a
    /// `Mutex<HashMap>`: with chaos enabled this sits on the fault-site
    /// path of *every* checkpoint/journal/trace I/O call, so workers
    /// must not serialize on it. Each site's counter stays gap-free
    /// (`fetch_add`), so the decision sequence per site is still a pure
    /// function of the seed — only which caller observes which decision
    /// depends on scheduling, exactly as before.
    counters: SlotRegistry,
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
            counters: SlotRegistry::new(),
            injected: AtomicU64::new(0),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's per-site fault probability.
    pub fn rate(&self) -> f64 {
        self.rate_ppm as f64 / 1e6
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
        let key = self.counters.fetch_add(site, 1);
        self.fires_keyed(site, key)
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The fault (if any) to inject into a simulation job: a panic or an
    /// artificial stall. Keyed by the job's stable config hash and the
    /// attempt number, so the injected job set is independent of worker
    /// scheduling and each retry rolls a fresh, deterministic decision.
    pub fn job_fault(&self, config_hash: u64, attempt: u32) -> Option<FaultInjection> {
        let key = splitmix64(config_hash).wrapping_add(u64::from(attempt));
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

/// The process-wide plan `EMISSARY_CHAOS_SEED` / `EMISSARY_CHAOS_RATE`
/// describe, built once. `None` when the seed is unset.
pub fn plan_from_env() -> Option<Arc<FaultPlan>> {
    static PLAN: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let k = crate::scale::knobs();
        k.chaos_seed
            .map(|seed| Arc::new(FaultPlan::new(seed, k.chaos_rate)))
    })
    .clone()
}

// ---------------------------------------------------------------------------
// Append-log I/O indirection
// ---------------------------------------------------------------------------

/// The filesystem operations the append-only log ([`crate::append_log`])
/// performs for the campaign checkpoint and the serve journal, as a
/// trait so chaos (and tests) can interpose on every one of them.
pub trait CkptIo: Send + Sync + std::fmt::Debug {
    /// `fs::create_dir_all`.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// `fs::read_to_string` (salvage on open).
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Opens `path` for writing: appending when `append`, truncating
    /// otherwise (creating it either way).
    fn open_writer(&self, path: &Path, append: bool) -> io::Result<fs::File>;

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

    fn open_writer(&self, path: &Path, append: bool) -> io::Result<fs::File> {
        fs::OpenOptions::new()
            .create(true)
            .append(append)
            .truncate(!append)
            .write(true)
            .open(path)
    }

    fn append_line(&self, w: &mut dyn Write, line: &str) -> io::Result<()> {
        writeln!(w, "{line}")?;
        w.flush()
    }

    fn replace_file(&self, path: &Path, contents: &str) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(contents.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }
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

    fn open_writer(&self, path: &Path, append: bool) -> io::Result<fs::File> {
        if self.plan.fires("ckpt.open") {
            return Err(FaultPlan::io_error("ckpt.open"));
        }
        self.inner.open_writer(path, append)
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

// ---------------------------------------------------------------------------
// Cooperative shutdown
// ---------------------------------------------------------------------------

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static SHUTDOWN_SIGNALS: AtomicU64 = AtomicU64::new(0);

/// Conventional exit code for a cooperative (first-signal) interrupt:
/// work stopped between jobs, checkpoint flushed, resume continues.
pub const EXIT_INTERRUPTED: i32 = 130;

/// Exit code for an **escalated** shutdown: a second SIGINT/SIGTERM
/// arrived while the first was still draining cooperatively, so the
/// process exited immediately instead of finishing in-flight work.
/// Still checkpoint-safe — every completed record was already flushed —
/// but distinct from [`EXIT_INTERRUPTED`] so wrappers can tell a clean
/// drain from a forced abort.
pub const EXIT_ESCALATED: i32 = 131;

/// Whether a cooperative shutdown (SIGINT/SIGTERM or
/// [`request_shutdown`]) has been requested. The pool polls this before
/// scheduling each job; checkpoint records are flushed per append, so
/// stopping between jobs loses nothing.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// How many shutdown signals (SIGINT/SIGTERM or [`note_shutdown_signal`])
/// have been observed. One means a cooperative drain is in progress; two
/// or more means the operator wants out *now* (see
/// [`spawn_escalation_watcher`]).
pub fn shutdown_signals() -> u64 {
    SHUTDOWN_SIGNALS.load(Ordering::SeqCst)
}

/// Raises the shutdown flag (what the signal handler does).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Records one shutdown signal and raises the flag — exactly what the
/// real handler does, callable from tests and in-process drills.
pub fn note_shutdown_signal() {
    SHUTDOWN_SIGNALS.fetch_add(1, Ordering::SeqCst);
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Clears the shutdown flag and signal count (tests; a real process
/// exits instead).
pub fn clear_shutdown() {
    SHUTDOWN.store(false, Ordering::SeqCst);
    SHUTDOWN_SIGNALS.store(0, Ordering::SeqCst);
}

/// Spawns a detached watcher that forces the process down when a
/// **second** shutdown signal arrives during a cooperative drain: it
/// prints one `{what} aborted:` summary line and exits with
/// [`EXIT_ESCALATED`]. Safe at any point — completed work is flushed to
/// the checkpoint per append, so the forced exit loses nothing that the
/// next `EMISSARY_RESUME=1` run cannot replay.
pub fn spawn_escalation_watcher(what: &'static str) {
    std::thread::Builder::new()
        .name("signal-escalation".into())
        .spawn(move || loop {
            if shutdown_signals() >= 2 {
                eprintln!(
                    "{what} aborted: second signal forced immediate exit; \
                     checkpoint flushed — rerun with EMISSARY_RESUME=1 to continue"
                );
                std::process::exit(EXIT_ESCALATED);
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        })
        .expect("spawn escalation watcher");
}

/// Deterministically jittered retry backoff for attempt `attempt`
/// (1-based) of the job identified by `key` (its config hash).
///
/// The sleep is `base_ms × attempt` split half-and-half into a fixed ramp
/// and a jitter term drawn from `splitmix64(seed ⊕ mix(key) + attempt)` —
/// a pure function of the chaos seed (0 when chaos is off), the job, and
/// the attempt, so reruns sleep identically while concurrent retries of
/// *different* jobs spread out instead of synchronizing into a thundering
/// herd. `base_ms = 0` disables the sleep.
pub fn retry_backoff(
    base_ms: u64,
    attempt: u32,
    key: u64,
    plan: Option<&FaultPlan>,
) -> std::time::Duration {
    let ramp = base_ms.saturating_mul(u64::from(attempt));
    if ramp == 0 {
        return std::time::Duration::ZERO;
    }
    let seed = plan.map(|p| p.seed()).unwrap_or(0);
    let draw = splitmix64(seed ^ splitmix64(key).wrapping_add(u64::from(attempt)));
    let half = ramp / 2;
    std::time::Duration::from_millis(half + draw % (ramp - half + 1))
}

#[cfg(unix)]
mod signals {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Async-signal-safe handler: two atomic ops (a count for drain
    /// escalation, the flag everything polls).
    extern "C" fn on_signal(_signum: i32) {
        super::SHUTDOWN_SIGNALS.fetch_add(1, Ordering::SeqCst);
        super::SHUTDOWN.store(true, Ordering::SeqCst);
    }

    // The C library is already linked by std; `signal` (glibc/musl
    // semantics: the handler persists) is all the cooperative flag needs
    // — no self-pipe required because nothing blocks indefinitely.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

/// Installs SIGINT/SIGTERM handlers that raise the cooperative-shutdown
/// flag and count signals (first signal: graceful stop; a second during
/// the drain escalates via [`spawn_escalation_watcher`]; the OS default
/// remains for SIGKILL). Idempotent; a no-op on non-unix targets.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    signals::install();
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
    fn job_faults_are_keyed_by_config_and_attempt() {
        let p = FaultPlan::new(5, 0.3);
        let q = FaultPlan::new(5, 0.3);
        for hash in 0..64u64 {
            for attempt in 1..4u32 {
                assert_eq!(p.job_fault(hash, attempt), q.job_fault(hash, attempt));
            }
        }
        // Scheduling order cannot matter: re-querying gives the same answer.
        assert_eq!(p.job_fault(9, 1), p.job_fault(9, 1));
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
    fn shutdown_flag_round_trips() {
        clear_shutdown();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        // Signals count for escalation; a plain request does not.
        assert_eq!(shutdown_signals(), 0);
        note_shutdown_signal();
        note_shutdown_signal();
        assert!(shutdown_requested());
        assert_eq!(shutdown_signals(), 2);
        clear_shutdown();
        assert!(!shutdown_requested());
        assert_eq!(shutdown_signals(), 0);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let plan = FaultPlan::new(42, 0.0);
        for attempt in 1..=4u32 {
            for key in [1u64, 0xdead_beef, u64::MAX] {
                let a = retry_backoff(25, attempt, key, Some(&plan));
                let b = retry_backoff(25, attempt, key, Some(&plan));
                assert_eq!(a, b, "same inputs must sleep identically");
                let ramp = 25 * u64::from(attempt);
                let ms = a.as_millis() as u64;
                assert!(
                    (ramp / 2..=ramp).contains(&ms),
                    "attempt {attempt}: {ms}ms outside [{}, {ramp}]",
                    ramp / 2
                );
            }
        }
        // Different jobs desynchronize somewhere across a handful of keys.
        let sleeps: Vec<_> = (0..8u64)
            .map(|k| retry_backoff(1000, 1, k, Some(&plan)))
            .collect();
        assert!(
            sleeps.iter().any(|s| s != &sleeps[0]),
            "jitter never varied across keys: {sleeps:?}"
        );
        // Zero base (EMISSARY_RETRY_BACKOFF_MS=0) disables the sleep.
        assert_eq!(
            retry_backoff(0, 3, 7, Some(&plan)),
            std::time::Duration::ZERO
        );
        // No chaos plan: still deterministic, seeded from 0.
        assert_eq!(retry_backoff(25, 1, 7, None), retry_backoff(25, 1, 7, None));
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
