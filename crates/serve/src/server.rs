//! The daemon: listener, connection routing, worker loop, recovery, and
//! drain — the piece that ties queue, journal, state, and the existing
//! cost-aware worker stack into one crash-safe process.
//!
//! Ordering contract for `POST /jobs` (the durability core):
//!
//! 1. the spec is validated and resolved to a concrete job;
//! 2. the admission is appended to the journal — a failure here is a 503,
//!    nothing else has happened;
//! 3. the job is registered in the in-memory table, then offered to the
//!    fair-share queue — a typed refusal compensates with a `cancel`
//!    record and removes the table entry;
//! 4. only then is `201 Created` written to the socket.
//!
//! A crash between (2) and (4) leaves a journaled job whose client never
//! saw an ack: recovery re-queues and runs it, and if the client retries,
//! the duplicate replays instantly from the campaign checkpoint (results
//! are memoized by fingerprint), so the contract stays "at least once,
//! byte-identical".

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use emissary_bench::chaos::{self, lock_unpoisoned, FaultPlan};
use emissary_bench::checkpoint::{fingerprint, Campaign};
use emissary_bench::{run_job, JobOutcome, PoolOptions};
use emissary_obs::metrics::global;
use emissary_obs::{render_prometheus, JsonObject};

use crate::http::{read_request, write_response, write_stream_head, HttpError, Request};
use crate::jobspec::JobSpec;
use crate::journal::Journal;
use crate::metrics::{count_job, count_rejection, count_request, set_queue_gauges};
use crate::queue::{FairQueue, QueueLimits, Ticket};
use crate::state::{JobStatus, JobsTable};

/// Everything the daemon takes from its environment (see crate docs for
/// the knobs; [`emissary_bench::scale`] parses them).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`EMISSARY_SERVE_ADDR`; port 0 picks an ephemeral
    /// port, printed on the `serve: listening on` stderr line).
    pub addr: String,
    /// State directory for journal + checkpoint (`EMISSARY_SERVE_DIR`).
    pub dir: PathBuf,
    /// Admission bounds (`EMISSARY_SERVE_QUEUE_DEPTH`,
    /// `EMISSARY_SERVE_TENANT_INFLIGHT`).
    pub limits: QueueLimits,
    /// Concurrent connections before immediate 503 (`EMISSARY_SERVE_MAX_CONNS`).
    pub max_conns: usize,
    /// Request body cap in bytes (`EMISSARY_SERVE_MAX_BODY`).
    pub max_body: usize,
    /// Socket read/write timeout (`EMISSARY_SERVE_IO_TIMEOUT_MS`) — the
    /// backpressure bound: a reader that stalls longer is disconnected.
    pub io_timeout: Duration,
    /// `(tenant, token)` pairs from `EMISSARY_SERVE_TOKENS`
    /// (`tenant=token,...`); empty means a single anonymous `public`
    /// tenant with no authentication.
    pub tokens: Vec<(String, String)>,
    /// Worker stack options (threads, retry budget, backoff, chaos plan —
    /// the same envs batch campaigns use).
    pub pool: PoolOptions,
}

impl ServeConfig {
    /// The configuration the process's knobs describe.
    pub fn from_env() -> Self {
        let k = emissary_bench::scale::knobs();
        let tokens = k
            .serve_tokens
            .split(',')
            .filter_map(|pair| {
                let (tenant, token) = pair.trim().split_once('=')?;
                if tenant.is_empty() || token.is_empty() {
                    return None;
                }
                Some((tenant.to_string(), token.to_string()))
            })
            .collect();
        ServeConfig {
            addr: k.serve_addr.clone(),
            dir: k.serve_dir.clone(),
            limits: QueueLimits {
                depth: k.serve_queue_depth,
                tenant_inflight: k.serve_tenant_inflight,
            },
            max_conns: k.serve_max_conns,
            max_body: k.serve_max_body,
            io_timeout: Duration::from_millis(k.serve_io_timeout_ms),
            tokens,
            pool: PoolOptions::from_env(),
        }
    }
}

/// Lifetime totals, printed as the final `serve summary:` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs journaled and acknowledged with 201.
    pub accepted: u64,
    /// Jobs that reached `completed`.
    pub completed: u64,
    /// Jobs that reached `failed`.
    pub failed: u64,
    /// Jobs cancelled before execution.
    pub cancelled: u64,
    /// Typed admission rejections (429/503).
    pub rejected: u64,
    /// Jobs re-queued from the journal at startup.
    pub recovered: u64,
    /// Unusable journal lines quarantined at startup.
    pub quarantined: u64,
}

impl ServeSummary {
    /// The stable one-line rendering the smoke drill greps.
    pub fn line(&self) -> String {
        format!(
            "serve summary: accepted={} completed={} failed={} cancelled={} rejected={} \
             recovered={} quarantined={}",
            self.accepted,
            self.completed,
            self.failed,
            self.cancelled,
            self.rejected,
            self.recovered,
            self.quarantined
        )
    }
}

struct Shared {
    cfg: ServeConfig,
    queue: FairQueue,
    jobs: JobsTable,
    journal: Journal,
    campaign: Campaign,
    /// id → resolved spec, what workers rebuild jobs from.
    specs: Mutex<HashMap<String, JobSpec>>,
    stop: AtomicBool,
    conns: AtomicUsize,
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    recovered: u64,
    plan: Option<Arc<FaultPlan>>,
}

/// A running daemon: accept loop + worker threads over shared state.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers journaled work, and starts accept + worker
    /// threads. Prints `serve: listening on <addr>` to stderr once the
    /// socket is live (machine-parseable; supports port 0).
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let plan = chaos::plan_from_env();
        let campaign = Campaign::begin_with("serve", &cfg.dir, true);
        let (journal, recovered_jobs) = Journal::open(&cfg.dir, chaos::io_from_env());
        let queue = FairQueue::new(cfg.limits);
        let jobs = JobsTable::new();
        let mut specs = HashMap::new();

        // Recovery: every journaled job re-enters the table. Cancelled
        // jobs land terminal; everything else re-queues — jobs whose
        // `done` record survived replay instantly from the checkpoint
        // memo, so completed work stays addressable (and byte-identical)
        // across restarts.
        let mut max_id = 0u64;
        let mut recovered = 0u64;
        for rec in recovered_jobs {
            if let Ok(n) = rec.id.trim_start_matches('j').parse::<u64>() {
                max_id = max_id.max(n);
            }
            jobs.insert_queued(
                &rec.id,
                &rec.tenant,
                &rec.spec.benchmark,
                &rec.spec.policy,
                &rec.fingerprint,
                true,
            );
            if rec.cancelled {
                jobs.set_terminal(
                    &rec.id,
                    JobStatus::Cancelled,
                    "cancelled before execution (recovered)",
                    0,
                    false,
                    None,
                );
                continue;
            }
            specs.insert(rec.id.clone(), rec.spec.clone());
            queue.requeue(&rec.tenant, &rec.id);
            recovered += 1;
        }
        jobs.reserve_ids_through(max_id);
        if recovered > 0 || journal.quarantined() > 0 {
            eprintln!(
                "serve: recovered {recovered} job(s) from the journal ({} line(s) quarantined)",
                journal.quarantined()
            );
        }

        let worker_count = cfg.pool.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            queue,
            jobs,
            journal,
            campaign,
            specs: Mutex::new(specs),
            stop: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            recovered,
            plan,
        });

        let mut workers = Vec::new();
        for w in 0..worker_count {
            let shared = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || {
                        let name = format!("serve-{w}");
                        while let Some(ticket) = shared.queue.next() {
                            run_ticket(&shared, &ticket, &name);
                        }
                    })?,
            );
        }

        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener))?
        };

        eprintln!("serve: listening on {addr}");
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and admitting jobs; running jobs
    /// finish, queued jobs stay journaled for the next process.
    pub fn begin_drain(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue.drain();
    }

    /// Drains (if not already draining) and joins every thread, returning
    /// the lifetime totals.
    pub fn join(mut self) -> ServeSummary {
        self.begin_drain();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let s = &self.shared;
        ServeSummary {
            accepted: s.accepted.load(Ordering::SeqCst),
            completed: s.completed.load(Ordering::SeqCst),
            failed: s.failed.load(Ordering::SeqCst),
            cancelled: s.cancelled.load(Ordering::SeqCst),
            rejected: s.rejected.load(Ordering::SeqCst),
            recovered: s.recovered,
            quarantined: s.journal.quarantined(),
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Chaos site: the accept path itself fails — the peer
                // sees a dropped connection and must retry.
                if let Some(plan) = &shared.plan {
                    if plan.fires("serve.accept") {
                        drop(stream);
                        continue;
                    }
                }
                let active = shared.conns.fetch_add(1, Ordering::SeqCst) + 1;
                if active > shared.cfg.max_conns {
                    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
                    let mut out = stream;
                    let body = error_body("too many connections", Some("busy"));
                    let _ = write_response(
                        &mut out,
                        503,
                        "application/json",
                        &body,
                        &[("Retry-After", "1")],
                    );
                    count_rejection("busy");
                    count_request("conn", 503);
                    shared.conns.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                let conn_shared = Arc::clone(shared);
                let spawned =
                    thread::Builder::new()
                        .name("serve-conn".to_string())
                        .spawn(move || {
                            handle_conn(&conn_shared, stream);
                            conn_shared.conns.fetch_sub(1, Ordering::SeqCst);
                        });
                if spawned.is_err() {
                    shared.conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!("serve: accept failed: {e}");
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn error_body(message: &str, reason: Option<&str>) -> String {
    let mut o = JsonObject::new();
    o.field_str("error", message);
    if let Some(r) = reason {
        o.field_str("reason", r);
    }
    o.finish()
}

fn respond(out: &mut TcpStream, route: &str, code: u16, body: &str, extra: &[(&str, &str)]) {
    let _ = write_response(out, code, "application/json", body, extra);
    count_request(route, code);
}

fn authorize(shared: &Shared, req: &Request) -> Result<String, ()> {
    if shared.cfg.tokens.is_empty() {
        return Ok("public".to_string());
    }
    let presented = req
        .header("authorization")
        .map(|v| v.strip_prefix("Bearer ").unwrap_or(v))
        .unwrap_or("");
    shared
        .cfg
        .tokens
        .iter()
        .find(|(_, token)| token == presented)
        .map(|(tenant, _)| tenant.clone())
        .ok_or(())
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    // Chaos site: the read path fails before a request is parsed.
    if let Some(plan) = &shared.plan {
        if plan.fires("serve.read") {
            return;
        }
    }
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut out = stream;
    let req = match read_request(&mut reader, shared.cfg.max_body) {
        Ok(req) => req,
        Err(e) => {
            let code = e.status();
            if code != 0 {
                let reason = match e {
                    HttpError::TooLarge(_) => Some("body_too_large"),
                    _ => None,
                };
                respond(
                    &mut out,
                    "error",
                    code,
                    &error_body(&e.to_string(), reason),
                    &[],
                );
            }
            return;
        }
    };
    // Chaos site: the write path fails — the request was processed up to
    // routing but the peer never hears back.
    if let Some(plan) = &shared.plan {
        if plan.fires("serve.write") {
            return;
        }
    }
    route(shared, &req, &mut out);
}

fn route(shared: &Arc<Shared>, req: &Request, out: &mut TcpStream) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => respond(out, "/healthz", 200, "{\"status\":\"ok\"}", &[]),
        ("GET", ["readyz"]) => {
            let draining = shared.stop.load(Ordering::SeqCst) || shared.queue.draining();
            if draining || !shared.journal.persistent() {
                let reason = if draining {
                    "draining"
                } else {
                    "journal_unavailable"
                };
                respond(
                    out,
                    "/readyz",
                    503,
                    &error_body("not ready", Some(reason)),
                    &[],
                );
            } else {
                respond(out, "/readyz", 200, "{\"status\":\"ready\"}", &[]);
            }
        }
        ("GET", ["metrics"]) => {
            set_queue_gauges(shared.queue.queued(), shared.queue.running());
            let body = render_prometheus(&global().snapshot());
            let _ = write_response(out, 200, "text/plain; version=0.0.4", &body, &[]);
            count_request("/metrics", 200);
        }
        ("POST", ["jobs"]) => post_job(shared, req, out),
        ("GET", ["jobs"]) => respond(out, "/jobs", 200, &shared.jobs.list_json(), &[]),
        ("GET", ["jobs", id]) => match shared.jobs.status_json(id) {
            Some(body) => respond(out, "/jobs/{id}", 200, &body, &[]),
            None => respond(
                out,
                "/jobs/{id}",
                404,
                &error_body("no such job", None),
                &[],
            ),
        },
        ("GET", ["jobs", id, "report"]) => match shared.jobs.get(id) {
            None => respond(
                out,
                "/jobs/{id}/report",
                404,
                &error_body("no such job", None),
                &[],
            ),
            Some(entry) => match entry.report_json {
                // The raw report bytes, exactly as `SimReport::to_json`
                // produced them — the byte-identity drill compares these
                // across a kill -9 restart.
                Some(report) => respond(out, "/jobs/{id}/report", 200, &report, &[]),
                None => respond(
                    out,
                    "/jobs/{id}/report",
                    409,
                    &error_body("job has no report yet", Some(entry.status.name())),
                    &[],
                ),
            },
        },
        ("GET", ["jobs", id, "events"]) => stream_events(shared, id, out),
        ("DELETE", ["jobs", id]) => delete_job(shared, req, id, out),
        (_, ["jobs", ..]) | (_, ["healthz"]) | (_, ["readyz"]) | (_, ["metrics"]) => respond(
            out,
            "error",
            405,
            &error_body("method not allowed", None),
            &[],
        ),
        _ => respond(out, "error", 404, &error_body("no such route", None), &[]),
    }
}

fn post_job(shared: &Arc<Shared>, req: &Request, out: &mut TcpStream) {
    let Ok(tenant) = authorize(shared, req) else {
        respond(
            out,
            "/jobs",
            401,
            &error_body("missing or unknown token", Some("unauthorized")),
            &[],
        );
        return;
    };
    if shared.stop.load(Ordering::SeqCst) || shared.queue.draining() {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        count_rejection("draining");
        respond(
            out,
            "/jobs",
            503,
            &error_body("server is draining", Some("draining")),
            &[],
        );
        return;
    }
    if !shared.journal.persistent() {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        count_rejection("journal_unavailable");
        respond(
            out,
            "/jobs",
            503,
            &error_body(
                "journal unavailable; refusing non-durable work",
                Some("journal_unavailable"),
            ),
            &[("Retry-After", "1")],
        );
        return;
    }
    let job = match JobSpec::parse(&req.body).and_then(|spec| spec.build()) {
        Ok(job) => job,
        Err(e) => {
            respond(
                out,
                "/jobs",
                400,
                &error_body(&e.to_string(), Some("invalid_spec")),
                &[],
            );
            return;
        }
    };
    let fp = fingerprint(&job);
    let resolved = JobSpec::resolved(&job);
    let id = shared.jobs.next_id();

    // Durability gate: the admission must be journaled before anything is
    // acknowledged or enqueued.
    if let Err(e) = shared.journal.append_job(&id, &tenant, &fp, &resolved) {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        count_rejection("journal_unavailable");
        respond(
            out,
            "/jobs",
            503,
            &error_body(
                &format!("journal write failed: {e}"),
                Some("journal_unavailable"),
            ),
            &[("Retry-After", "1")],
        );
        return;
    }

    // Register before enqueueing so a worker claiming the id immediately
    // always finds its spec.
    lock_unpoisoned(&shared.specs).insert(id.clone(), resolved.clone());
    shared.jobs.insert_queued(
        &id,
        &tenant,
        &resolved.benchmark,
        &resolved.policy,
        &fp,
        false,
    );

    if let Err(e) = shared.queue.submit(&tenant, &id) {
        // Compensate: the journal gets a cancel record, the table entry
        // goes away, and the client gets the typed refusal.
        shared.journal.append_cancel(&id);
        lock_unpoisoned(&shared.specs).remove(&id);
        shared.jobs.remove(&id);
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        count_rejection(e.reason());
        let retry: &[(&str, &str)] = if e.status() == 429 {
            &[("Retry-After", "1")]
        } else {
            &[]
        };
        respond(
            out,
            "/jobs",
            e.status(),
            &error_body(&e.to_string(), Some(e.reason())),
            retry,
        );
        return;
    }

    shared.accepted.fetch_add(1, Ordering::SeqCst);
    let mut body = JsonObject::new();
    body.field_str("id", &id)
        .field_str("fingerprint", &fp)
        .field_str("status", "queued");
    respond(out, "/jobs", 201, &body.finish(), &[]);
}

fn delete_job(shared: &Arc<Shared>, req: &Request, id: &str, out: &mut TcpStream) {
    let Ok(tenant) = authorize(shared, req) else {
        respond(
            out,
            "/jobs/{id}",
            401,
            &error_body("missing or unknown token", Some("unauthorized")),
            &[],
        );
        return;
    };
    let Some(entry) = shared.jobs.get(id) else {
        respond(
            out,
            "/jobs/{id}",
            404,
            &error_body("no such job", None),
            &[],
        );
        return;
    };
    if entry.tenant != tenant {
        // Other tenants' jobs are indistinguishable from absent ones.
        respond(
            out,
            "/jobs/{id}",
            404,
            &error_body("no such job", None),
            &[],
        );
        return;
    }
    if shared.queue.cancel(&tenant, id) {
        shared.jobs.set_terminal(
            id,
            JobStatus::Cancelled,
            "cancelled by client",
            0,
            false,
            None,
        );
        shared.journal.append_cancel(id);
        lock_unpoisoned(&shared.specs).remove(id);
        shared.cancelled.fetch_add(1, Ordering::SeqCst);
        count_job("cancelled");
        let mut body = JsonObject::new();
        body.field_str("id", id).field_str("status", "cancelled");
        respond(out, "/jobs/{id}", 200, &body.finish(), &[]);
    } else {
        let status = shared
            .jobs
            .get(id)
            .map(|e| e.status.name())
            .unwrap_or("unknown");
        respond(
            out,
            "/jobs/{id}",
            409,
            &error_body("too late to cancel", Some(status)),
            &[],
        );
    }
}

fn stream_events(shared: &Arc<Shared>, id: &str, out: &mut TcpStream) {
    if shared.jobs.get(id).is_none() {
        respond(
            out,
            "/jobs/{id}/events",
            404,
            &error_body("no such job", None),
            &[],
        );
        return;
    }
    if write_stream_head(out, "application/jsonl").is_err() {
        return;
    }
    let mut cursor = 0usize;
    while let Some((events, terminal)) = shared.jobs.events_after(id, cursor) {
        for line in &events {
            // A stalled reader hits the socket write timeout and is
            // disconnected here — backpressure never propagates past this
            // connection's thread.
            if out
                .write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .is_err()
            {
                return;
            }
        }
        if !events.is_empty() && out.flush().is_err() {
            return;
        }
        cursor += events.len();
        if terminal {
            break;
        }
        if shared.stop.load(Ordering::SeqCst) {
            let mut o = JsonObject::new();
            o.field_str("record", "event")
                .field_str("id", id)
                .field_str("state", "detached")
                .field_str("reason", "draining");
            let _ = out.write_all(o.finish().as_bytes());
            let _ = out.write_all(b"\n");
            let _ = out.flush();
            break;
        }
        shared.jobs.wait_update(Duration::from_millis(200));
    }
    count_request("/jobs/{id}/events", 200);
}

fn run_ticket(shared: &Arc<Shared>, ticket: &Ticket, worker: &str) {
    let spec = lock_unpoisoned(&shared.specs).get(&ticket.id).cloned();
    let Some(spec) = spec else {
        // Cancelled in the instant between claim and lookup, or a
        // compensated admission — nothing to run.
        shared.queue.done(&ticket.tenant);
        return;
    };
    shared.jobs.set_running(&ticket.id);
    let job = match spec.build() {
        Ok(job) => job,
        Err(e) => {
            finish(
                shared,
                ticket,
                JobStatus::Failed,
                &format!("journaled spec no longer buildable: {e}"),
                0,
                false,
                None,
            );
            return;
        }
    };
    let hub = emissary_bench::metrics::worker_hub();
    let outcome = run_job(&job, &shared.cfg.pool, Some(&shared.campaign), &hub, worker);
    hub.drain_to(global());
    match &outcome {
        JobOutcome::Completed {
            run,
            resumed,
            attempts,
        } => finish(
            shared,
            ticket,
            JobStatus::Completed,
            "",
            *attempts,
            *resumed,
            Some(run.report.to_json()),
        ),
        JobOutcome::Interrupted { .. } => {
            // Shutdown raced the claim: the job never ran. It stays
            // journaled with no terminal record, so the next process
            // re-queues it — exactly the drain contract.
            shared.queue.done(&ticket.tenant);
        }
        _ => finish(
            shared,
            ticket,
            JobStatus::Failed,
            &outcome.describe(),
            outcome.attempts(),
            false,
            None,
        ),
    }
}

fn finish(
    shared: &Arc<Shared>,
    ticket: &Ticket,
    status: JobStatus,
    detail: &str,
    attempts: u32,
    resumed: bool,
    report_json: Option<String>,
) {
    shared
        .jobs
        .set_terminal(&ticket.id, status, detail, attempts, resumed, report_json);
    // Checkpoint-before-journal: this job's result must be in the
    // checkpoint before the journal records it `done` — otherwise a crash
    // in the gap would replay a "done" job with no memoized result.
    // `run_job` appended and flushed the record already; `sync()` keeps
    // the ordering explicit.
    shared.campaign.sync();
    shared.journal.append_done(&ticket.id, status.name());
    lock_unpoisoned(&shared.specs).remove(&ticket.id);
    shared.queue.done(&ticket.tenant);
    count_job(status.name());
    match status {
        JobStatus::Completed => shared.completed.fetch_add(1, Ordering::SeqCst),
        _ => shared.failed.fetch_add(1, Ordering::SeqCst),
    };
}
