//! Observability layer for the EMISSARY simulator.
//!
//! Four pieces, all dependency-free:
//!
//! 1. **Event tracing** — [`Tracer`] is a cheaply cloneable handle that the
//!    cache hierarchy, the EMISSARY replacement policy, and the core wire
//!    through their hot paths. Disabled (the default), every emit site costs
//!    one branch and allocates nothing; enabled, cycle-stamped
//!    [`TraceEvent`]s flow into a [`TraceSink`] — a bounded in-memory
//!    [`RingSink`] or a streaming [`JsonlSink`].
//! 2. **Interval sampling** — [`SampleSeries`] turns cumulative counters
//!    snapshotted every N committed instructions into per-interval
//!    [`IntervalSample`]s (IPC, L1I/L2I MPKI, starvation cycles, the
//!    per-set high-priority occupancy histogram): the time series behind
//!    Figure-8-style phase plots.
//! 3. **JSONL emission** — a small hand-rolled [`json`] writer (string
//!    escaping, non-finite f64 guards) used by the sinks and by the bench
//!    harness's `results/<name>.jsonl` reports.
//! 4. **Metrics** — [`MetricsRegistry`] records the harness's host-time
//!    counters under one mutex; each series round-trips as a `metric`
//!    JSONL record. [`Log2Hist`] bins the `emissary-inspect` trace
//!    analyzer's episode lengths.
//!
//! Observability must never perturb simulation: nothing in this crate
//! feeds back into simulated state, and a regression test in the `sim`
//! crate asserts bit-identical reports with tracing on and off.

pub mod event;
pub mod json;
pub mod metrics;
pub mod parse;
pub mod sample;
pub mod sink;
pub mod tracer;

pub use event::{Level, TraceEvent};
pub use json::JsonObject;
pub use metrics::{bucket_bound, bucket_index, Log2Hist, Metric, MetricsRegistry, HIST_BUCKETS};
pub use parse::{jsonl_lines, JsonParseError, JsonValue, JsonlLine};
pub use sample::{interval_chunks, IntervalSample, SampleCounters, SampleSeries};
pub use sink::{JsonlSink, NullSink, RingBuffer, RingSink, TraceSink};
pub use tracer::Tracer;
