//! The crash-recovery drill, in-process: build the exact on-disk state a
//! `kill -9` leaves behind (journal with a completed job, an
//! acknowledged-but-unstarted job, and a torn half-record; checkpoint
//! with the completed job's result), then start a real server on that
//! directory and verify the durability contract — the unstarted job
//! runs, the completed job replays byte-identically, and the torn line
//! is quarantined. The CI `serve-smoke` job runs the same drill with a
//! real SIGKILL against the release binary.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use emissary_bench::chaos::{CkptIo, RealIo};
use emissary_bench::checkpoint::{fingerprint, Campaign};
use emissary_bench::metrics::registry;
use emissary_bench::{run_job, PoolOptions};
use emissary_serve::journal::{Journal, JOURNAL_FILE, QUARANTINE_FILE};
use emissary_serve::{JobSpec, QueueLimits, ServeConfig, Server};

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emissary_serve_recovery_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let code = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    (
        code,
        raw.split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default(),
    )
}

fn wait_completed(addr: SocketAddr, id: &str) -> String {
    for _ in 0..600 {
        let (code, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(code, 200, "job {id} missing after recovery: {body}");
        if body.contains("\"status\":\"completed\"") {
            return body;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("job {id} never completed after recovery");
}

#[test]
fn killed_server_state_recovers_byte_identically() {
    let dir = tmpdir();

    let done_spec = JobSpec::parse(
        r#"{"benchmark":"xapian","policy":"M:1","warmup_instrs":1000,"measure_instrs":5000,"seed":11}"#,
    )
    .unwrap();
    let pending_spec = JobSpec::parse(
        r#"{"benchmark":"verilator","policy":"P(8):S&E&R(1/32)","warmup_instrs":1000,"measure_instrs":5000,"seed":12}"#,
    )
    .unwrap();
    let done_job = done_spec.build().unwrap();
    let pending_job = pending_spec.build().unwrap();

    // Phase 1 — what the killed process durably wrote: j1 completed
    // (checkpointed, `done` journaled), j2 acknowledged but unstarted,
    // plus a torn half-record from an append cut by the kill.
    let report_before = {
        let campaign = Campaign::begin_with("serve", &dir, true);
        let outcome = run_job(
            &done_job,
            &PoolOptions::with_workers(1),
            Some(&campaign),
            registry(),
            "phase1",
        );
        let report = outcome.run().expect("phase-1 run failed").report.to_json();
        let (journal, recovered) = Journal::open(&dir, Box::new(RealIo));
        assert!(recovered.is_empty());
        journal
            .append_job("j1", "public", &fingerprint(&done_job), &done_spec)
            .unwrap();
        journal.append_done("j1", "completed");
        journal
            .append_job("j2", "public", &fingerprint(&pending_job), &pending_spec)
            .unwrap();
        report
    };
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(JOURNAL_FILE))
        .unwrap();
    f.write_all(b"{\"record\":\"job\",\"id\":\"j3\",\"tenant\":\"pu")
        .unwrap();
    drop(f);

    // Phase 2 — a fresh server over the crashed state.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        dir: dir.clone(),
        limits: QueueLimits {
            depth: 8,
            tenant_inflight: 8,
        },
        max_conns: 32,
        max_body: 4096,
        io_timeout: Duration::from_secs(10),
        tokens: Vec::new(),
        pool: PoolOptions::with_workers(1),
    })
    .unwrap();
    let addr = server.addr();

    // j1 replays from the checkpoint without re-executing…
    let status = wait_completed(addr, "j1");
    assert!(status.contains("\"resumed\":true"), "{status}");
    assert!(status.contains("\"attempts\":0"), "{status}");
    // …byte-identically.
    let (code, report_after) = get(addr, "/jobs/j1/report");
    assert_eq!(code, 200);
    assert_eq!(report_after, report_before);

    // j2 — acknowledged before the kill — actually executes now.
    let status = wait_completed(addr, "j2");
    assert!(status.contains("\"resumed\":false"), "{status}");
    assert!(status.contains("\"attempts\":1"), "{status}");

    // The torn j3 record is quarantined, not silently dropped.
    let quarantine = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
    assert!(quarantine.contains("\"j3\""), "{quarantine}");

    // New ids never collide with journaled ones.
    let next = emissary_serve::JobsTable::new();
    next.reserve_ids_through(2);
    assert_eq!(next.next_id(), "j3");

    let summary = server.join();
    assert_eq!(summary.recovered, 2);
    assert_eq!(summary.quarantined, 1);
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.failed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second kill between the restart and j2's completion must converge to
/// the same state: restart again, everything replays, nothing re-runs
/// twice with different bytes.
#[test]
fn double_restart_converges() {
    let dir = std::env::temp_dir().join(format!(
        "emissary_serve_recovery_double_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let spec = JobSpec::parse(
        r#"{"benchmark":"xapian","policy":"M:1","warmup_instrs":1000,"measure_instrs":5000,"seed":21}"#,
    )
    .unwrap();
    let job = spec.build().unwrap();
    {
        let (journal, _) = Journal::open(&dir, Box::new(RealIo));
        journal
            .append_job("j1", "public", &fingerprint(&job), &spec)
            .unwrap();
    }

    let mut reports = Vec::new();
    for _ in 0..2 {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            dir: dir.clone(),
            limits: QueueLimits {
                depth: 8,
                tenant_inflight: 8,
            },
            max_conns: 32,
            max_body: 4096,
            io_timeout: Duration::from_secs(10),
            tokens: Vec::new(),
            pool: PoolOptions::with_workers(1),
        })
        .unwrap();
        wait_completed(server.addr(), "j1");
        let (code, report) = get(server.addr(), "/jobs/j1/report");
        assert_eq!(code, 200);
        reports.push(report);
        server.join();
    }
    assert_eq!(reports[0], reports[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`CkptIo`] whose first `append_line` is torn (half the line lands,
/// then the write fails, as on a full disk); everything else is real.
#[derive(Debug, Default)]
struct TearFirstAppend {
    torn: AtomicBool,
}

impl CkptIo for TearFirstAppend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealIo.create_dir_all(dir)
    }
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        RealIo.read_to_string(path)
    }
    fn open_writer(&self, path: &Path, append: bool) -> io::Result<std::fs::File> {
        RealIo.open_writer(path, append)
    }
    fn append_line(&self, w: &mut dyn Write, line: &str) -> io::Result<()> {
        if !self.torn.swap(true, Ordering::SeqCst) {
            w.write_all(&line.as_bytes()[..line.len() / 2])?;
            w.flush()?;
            return Err(io::Error::other("test: torn append"));
        }
        RealIo.append_line(w, line)
    }
    fn replace_file(&self, path: &Path, contents: &str) -> io::Result<()> {
        RealIo.replace_file(path, contents)
    }
}

/// A torn admission append (the server answers 503) must not swallow the
/// next admission (answered 201): that job's record has to start its own
/// line, survive the restart, and leave only the torn fragment in
/// quarantine.
#[test]
fn torn_append_does_not_lose_the_next_acknowledged_job() {
    let dir = std::env::temp_dir().join(format!(
        "emissary_serve_recovery_torn_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = JobSpec::parse(
        r#"{"benchmark":"xapian","policy":"M:1","warmup_instrs":1000,"measure_instrs":5000,"seed":31}"#,
    )
    .unwrap();
    let fp = fingerprint(&spec.build().unwrap());
    {
        let (journal, _) = Journal::open(&dir, Box::new(TearFirstAppend::default()));
        assert!(journal.append_job("j1", "public", &fp, &spec).is_err());
        journal.append_job("j2", "public", &fp, &spec).unwrap();
    }
    let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
    let fragment = text.lines().next().unwrap().to_string();
    assert!(fragment.contains("\"j1\""), "{text}");

    let (journal, recovered) = Journal::open(&dir, Box::new(RealIo));
    let ids: Vec<&str> = recovered.iter().map(|j| j.id.as_str()).collect();
    assert_eq!(ids, ["j2"], "journal was: {text}");
    assert_eq!(journal.quarantined(), 1);
    let quarantine = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
    assert_eq!(quarantine, format!("{fragment}\n"));
    drop(journal);

    let (journal, recovered) = Journal::open(&dir, Box::new(RealIo));
    assert_eq!(recovered.len(), 1);
    assert_eq!(journal.quarantined(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
