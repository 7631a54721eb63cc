//! Server-side metric names and the tiny helpers that record them.
//!
//! Every helper records straight into the process-global registry, one
//! lock per update, once per request or scrape.

use emissary_obs::metrics::global;

/// Requests served, labelled by route class and status code.
pub const HTTP_REQUESTS: &str = "emissary_serve_http_requests_total";
/// Admission rejections, labelled by typed reason.
pub const REJECTIONS: &str = "emissary_serve_rejections_total";
/// Jobs reaching a terminal state, labelled by status.
pub const JOBS: &str = "emissary_serve_jobs_total";
/// Jobs currently queued (gauge).
pub const QUEUE_DEPTH: &str = "emissary_serve_queue_depth";
/// Jobs currently running (gauge).
pub const INFLIGHT: &str = "emissary_serve_inflight";

/// Records one completed HTTP exchange.
pub fn count_request(route: &str, code: u16) {
    global().add_counter(
        HTTP_REQUESTS,
        &[("route", route), ("code", &code.to_string())],
        1,
    );
}

/// Records one typed admission rejection.
pub fn count_rejection(reason: &str) {
    global().add_counter(REJECTIONS, &[("reason", reason)], 1);
}

/// Records one job reaching a terminal state.
pub fn count_job(status: &str) {
    global().add_counter(JOBS, &[("status", status)], 1);
}

/// Publishes the queue gauges (called on scrape, so they are exact at
/// observation time rather than sampled).
pub fn set_queue_gauges(queued: usize, running: usize) {
    global().set_gauge(QUEUE_DEPTH, &[], queued as f64);
    global().set_gauge(INFLIGHT, &[], running as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_land_in_the_global_registry() {
        count_request("/jobs", 201);
        count_rejection("queue_full");
        count_job("completed");
        set_queue_gauges(3, 1);
        let snap = global().snapshot();
        assert!(snap.iter().any(|m| m.name == HTTP_REQUESTS));
        assert!(snap.iter().any(|m| m.name == REJECTIONS));
        assert!(snap.iter().any(|m| m.name == JOBS));
        assert!(snap.iter().any(|m| m.name == QUEUE_DEPTH));
    }
}
