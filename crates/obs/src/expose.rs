//! Prometheus-text-format exposition for metric snapshots, plus a
//! minimal parser for the same format so `emissary-inspect` can read
//! back what a campaign wrote.
//!
//! The renderer emits the subset of the format we need: one `# TYPE`
//! line per family, counters/gauges as single samples, and log-2
//! histograms as cumulative `_bucket{le="..."}` samples followed by
//! `_sum` and `_count`. Snapshots are sorted before rendering, so
//! output is deterministic across runs.

use crate::metrics::{bucket_bound, Metric, MetricValue};

fn escape_label_into(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

fn write_labels(out: &mut String, labels: &[(&'static str, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label_into(out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label_into(out, v);
        out.push('"');
    }
    out.push('}');
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{}", v as i64));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else if v.is_nan() {
        out.push_str("NaN");
    } else if v > 0.0 {
        out.push_str("+Inf");
    } else {
        out.push_str("-Inf");
    }
}

/// Renders a metric snapshot (as produced by
/// [`crate::MetricsRegistry::snapshot`]) in Prometheus text format.
pub fn render_prometheus(metrics: &[Metric]) -> String {
    let mut out = String::new();
    let mut last_family: Option<(&str, &str)> = None;
    for m in metrics {
        let kind = m.value.kind();
        if last_family != Some((m.name, kind)) {
            out.push_str("# TYPE ");
            out.push_str(m.name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            last_family = Some((m.name, kind));
        }
        match &m.value {
            MetricValue::Counter(c) => {
                out.push_str(m.name);
                write_labels(&mut out, &m.labels, None);
                out.push(' ');
                out.push_str(&c.to_string());
                out.push('\n');
            }
            MetricValue::Gauge(g) => {
                out.push_str(m.name);
                write_labels(&mut out, &m.labels, None);
                out.push(' ');
                write_f64(&mut out, *g);
                out.push('\n');
            }
            MetricValue::Hist(h) => {
                let mut cumulative = 0u64;
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    cumulative += c;
                    out.push_str(m.name);
                    out.push_str("_bucket");
                    write_labels(
                        &mut out,
                        &m.labels,
                        Some(("le", &bucket_bound(i).to_string())),
                    );
                    out.push(' ');
                    out.push_str(&cumulative.to_string());
                    out.push('\n');
                }
                out.push_str(m.name);
                out.push_str("_bucket");
                write_labels(&mut out, &m.labels, Some(("le", "+Inf")));
                out.push(' ');
                out.push_str(&h.count.to_string());
                out.push('\n');
                out.push_str(m.name);
                out.push_str("_sum");
                write_labels(&mut out, &m.labels, None);
                out.push(' ');
                out.push_str(&h.sum.to_string());
                out.push('\n');
                out.push_str(m.name);
                out.push_str("_count");
                write_labels(&mut out, &m.labels, None);
                out.push(' ');
                out.push_str(&h.count.to_string());
                out.push('\n');
            }
        }
    }
    out
}

/// One sample parsed back from Prometheus text format. Histogram series
/// come back as their constituent `_bucket`/`_sum`/`_count` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Sample name as written (includes `_bucket`/`_sum`/`_count`
    /// suffixes for histogram series).
    pub name: String,
    /// Label pairs in file order (owned keys, unlike the write side).
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf`/`-Inf`/`NaN` map to the matching `f64`).
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse().ok(),
    }
}

fn parse_labels(s: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start_matches([',', ' ']);
        if rest.is_empty() {
            return Some(labels);
        }
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_string();
        rest = rest[eq + 1..].strip_prefix('"')?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let close;
        loop {
            let (i, c) = chars.next()?;
            match c {
                '\\' => match chars.next()?.1 {
                    'n' => value.push('\n'),
                    other => value.push(other),
                },
                '"' => {
                    close = i;
                    break;
                }
                other => value.push(other),
            }
        }
        labels.push((key, value));
        rest = &rest[close + 1..];
    }
}

/// Parses Prometheus text format into samples, skipping comments and
/// malformed lines.
pub fn parse_prometheus(text: &str) -> Vec<PromSample> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => continue,
        };
        let value = match parse_value(value.trim()) {
            Some(v) => v,
            None => continue,
        };
        let series = series.trim();
        let (name, labels) = match series.find('{') {
            Some(open) => {
                let close = match series.rfind('}') {
                    Some(c) if c > open => c,
                    _ => continue,
                };
                match parse_labels(&series[open + 1..close]) {
                    Some(labels) => (series[..open].to_string(), labels),
                    None => continue,
                }
            }
            None => (series.to_string(), Vec::new()),
        };
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn snapshot_of(f: impl FnOnce(&MetricsRegistry)) -> Vec<Metric> {
        let reg = MetricsRegistry::new();
        f(&reg);
        reg.snapshot()
    }

    #[test]
    fn renders_counters_and_gauges_with_type_lines() {
        let snap = snapshot_of(|m| {
            m.add_counter("jobs_total", &[("worker", "0")], 3);
            m.add_counter("jobs_total", &[("worker", "1")], 4);
            m.set_gauge("depth", &[], 2.5);
        });
        let text = render_prometheus(&snap);
        assert_eq!(
            text,
            "# TYPE depth gauge\n\
             depth 2.5\n\
             # TYPE jobs_total counter\n\
             jobs_total{worker=\"0\"} 3\n\
             jobs_total{worker=\"1\"} 4\n"
        );
    }

    #[test]
    fn renders_histogram_as_cumulative_buckets() {
        let snap = snapshot_of(|m| {
            m.observe("lat", &[], 0);
            m.observe("lat", &[], 1);
            m.observe("lat", &[], 3);
            m.observe("lat", &[], 3);
        });
        let text = render_prometheus(&snap);
        assert_eq!(
            text,
            "# TYPE lat histogram\n\
             lat_bucket{le=\"0\"} 1\n\
             lat_bucket{le=\"1\"} 2\n\
             lat_bucket{le=\"3\"} 4\n\
             lat_bucket{le=\"+Inf\"} 4\n\
             lat_sum 7\n\
             lat_count 4\n"
        );
    }

    #[test]
    fn parse_round_trips_rendered_output() {
        let snap = snapshot_of(|m| {
            m.add_counter("jobs_total", &[("worker", "0")], 3);
            m.set_gauge("util", &[("worker", "0")], 0.75);
            m.observe("lat", &[("stage", "measure")], 1000);
        });
        let text = render_prometheus(&snap);
        let samples = parse_prometheus(&text);
        let jobs = samples.iter().find(|s| s.name == "jobs_total").unwrap();
        assert_eq!(jobs.label("worker"), Some("0"));
        assert_eq!(jobs.value, 3.0);
        let util = samples.iter().find(|s| s.name == "util").unwrap();
        assert_eq!(util.value, 0.75);
        let count = samples.iter().find(|s| s.name == "lat_count").unwrap();
        assert_eq!(count.value, 1.0);
        let sum = samples.iter().find(|s| s.name == "lat_sum").unwrap();
        assert_eq!(sum.value, 1000.0);
        let inf = samples
            .iter()
            .find(|s| s.name == "lat_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 1.0);

        // Escaped label values survive the round trip, and the parse
        // yields every (name, labels, value) triple in file order.
        let snap = snapshot_of(|m| {
            m.add_counter("emissary_serve_jobs_total", &[("status", "completed")], 7);
            m.set_gauge("emissary_serve_queue_depth", &[], 3.0);
            m.observe("emissary_serve_job_wait_ns", &[("tenant", "a\"b\\c")], 1024);
        });
        let triples: Vec<_> = parse_prometheus(&render_prometheus(&snap))
            .into_iter()
            .map(|s| (s.name, s.labels, s.value))
            .collect();
        let labels = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        let tenant = ("tenant", "a\"b\\c");
        let wait = "emissary_serve_job_wait_ns";
        assert_eq!(
            triples,
            vec![
                (
                    format!("{wait}_bucket"),
                    labels(&[tenant, ("le", "2047")]),
                    1.0
                ),
                (
                    format!("{wait}_bucket"),
                    labels(&[tenant, ("le", "+Inf")]),
                    1.0
                ),
                (format!("{wait}_sum"), labels(&[tenant]), 1024.0),
                (format!("{wait}_count"), labels(&[tenant]), 1.0),
                (
                    "emissary_serve_jobs_total".to_string(),
                    labels(&[("status", "completed")]),
                    7.0
                ),
                ("emissary_serve_queue_depth".to_string(), Vec::new(), 3.0),
            ]
        );
    }

    #[test]
    fn parse_handles_escapes_and_garbage() {
        let text = "# comment\n\
                    weird{k=\"a\\\"b\\\\c\\nd\"} 1\n\
                    notasample\n\
                    badvalue{x=\"y\"} zzz\n\
                    inf_g +Inf\n";
        let samples = parse_prometheus(text);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].label("k"), Some("a\"b\\c\nd"));
        assert!(samples[1].value.is_infinite());
    }
}
