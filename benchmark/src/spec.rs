//! The metric registry: `BENCHMARK.json` at the repository root, compiled
//! in, so the names, units, directions and bounds the benchmark prints
//! and `compare` judges by cannot drift from the file.

use emissary_obs::JsonValue;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// `"better": "higher"`.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds of timed passes in every (non-`--quick`) run.
    pub run_seconds: f64,
    /// Metrics of the untraced run.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of the traced run.
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        Self::parse(BENCHMARK_JSON).expect("BENCHMARK.json is checked by the smoke test")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let root = JsonValue::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            let items = root
                .get(key)
                .and_then(JsonValue::as_array)
                .ok_or(format!("BENCHMARK.json: missing {key}"))?;
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .map(str::to_string)
                            .ok_or(format!("BENCHMARK.json: {key} entry without {f}"))
                    };
                    Ok(MetricDef {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run prints: per-layer when traced, else end-to-end.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
