//! `emissary-serve`: a crash-safe, backpressure-aware campaign job
//! server over the EMISSARY harness.
//!
//! The batch harness (`emissary-bench`) runs one campaign and exits; this
//! crate converts it into the long-running service the ROADMAP aims at:
//! a persistent daemon with a hand-rolled (std-only, thread-per-connection)
//! HTTP/JSONL API that accepts validated simulation job specs from many
//! tenants, schedules them through a fair-share queue over the existing
//! worker/retry/checkpoint stack, and survives `kill -9` without losing a
//! single acknowledged job.
//!
//! # API
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /jobs` | Submit a job spec (JSON body; per-tenant token). 201 + id, or typed 400/401/413/429/503. |
//! | `GET /jobs` | List all jobs with status counts. |
//! | `GET /jobs/<id>` | One job's status (report inline once completed). |
//! | `GET /jobs/<id>/report` | Exactly the completed run's report JSON bytes. |
//! | `GET /jobs/<id>/events` | Streaming JSONL lifecycle events until terminal. |
//! | `DELETE /jobs/<id>` | Cooperative cancellation (only before execution starts). |
//! | `GET /healthz` / `GET /readyz` | Liveness / readiness (503 while draining or degraded). |
//! | `GET /metrics` | Prometheus exposition of the process-global registry. |
//!
//! # Durability contract
//!
//! Every accepted job is journaled to an
//! [`emissary_bench::append_log::AppendLog`] — the campaign checkpoint's
//! file protocol — **before** the 201 acknowledgment leaves the socket
//! ([`journal`]); results land in the standard campaign checkpoint keyed
//! by config fingerprint. After `kill -9` + restart, journaled-but-
//! unstarted jobs re-queue, jobs that completed before the kill replay
//! byte-identically from the checkpoint, and corrupt journal lines are
//! quarantined exactly like a torn campaign checkpoint.
//!
//! # Environment knobs
//!
//! * `EMISSARY_SERVE_ADDR` — listen address (default `127.0.0.1:7464`;
//!   port `0` binds an ephemeral port, printed on stderr).
//! * `EMISSARY_SERVE_DIR` — journal/checkpoint directory (default
//!   `results`).
//! * `EMISSARY_SERVE_QUEUE_DEPTH` — max queued (not yet running) jobs
//!   before `429 queue_full` (default 256).
//! * `EMISSARY_SERVE_TENANT_INFLIGHT` — max unfinished (queued+running)
//!   jobs per tenant before `429 tenant_saturated` (default 8).
//! * `EMISSARY_SERVE_MAX_CONNS` — concurrent connection cap; excess
//!   connections get an immediate `503 busy` (default 64).
//! * `EMISSARY_SERVE_MAX_BODY` — request body byte cap, `413` beyond it
//!   (default 65536).
//! * `EMISSARY_SERVE_IO_TIMEOUT_MS` — per-connection read/write timeout;
//!   the backpressure bound on slow streaming readers (default 10000).
//! * `EMISSARY_SERVE_TOKENS` — `tenant=token,tenant2=token2` auth table;
//!   unset means a single anonymous `public` tenant.
//!
//! Worker count, retries, backoff, chaos, and checkpoint behaviour reuse
//! the campaign knobs (`EMISSARY_THREADS`, `EMISSARY_JOB_RETRIES`,
//! `EMISSARY_RETRY_BACKOFF_MS`, `EMISSARY_CHAOS_SEED`, …); the chaos
//! plan additionally drives the server-side fault sites `serve.accept`,
//! `serve.read` and `serve.write`; journal appends fail through the
//! checkpoint I/O sites (`ckpt.append` tears, `ckpt.open`).

pub mod http;
pub mod jobspec;
pub mod journal;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod state;

pub use jobspec::{JobSpec, SpecError};
pub use queue::{AdmitError, FairQueue, QueueLimits, Ticket};
pub use server::{ServeConfig, ServeSummary, Server};
pub use state::{JobStatus, JobsTable};
