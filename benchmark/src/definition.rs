//! `BENCHMARK.json`, compiled in: the single list of workloads and
//! metrics, with each metric's unit, direction and regression bound.
//! The benchmark reports exactly these names and `compare` judges by
//! these bounds.

use bpred_harness::manifest::Json;

use crate::stats::Better;

/// One metric the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change is a regression.
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Definition {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics an untraced run reports.
    pub end_to_end: Vec<Metric>,
    /// Metrics a traced run reports.
    pub per_layer: Vec<Metric>,
}

/// The definition this binary was built with.
///
/// # Panics
///
/// Panics if the compiled-in `BENCHMARK.json` is malformed, which the
/// unit tests rule out.
#[must_use]
pub fn definition() -> Definition {
    parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
}

fn parse(text: &str) -> Result<Definition, String> {
    let json = Json::parse(text)?;
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        json.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("`{key}` is not a list"))?
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
                Ok(Metric {
                    name: text("name").ok_or("metric without a name")?,
                    unit: text("unit").ok_or("metric without a unit")?,
                    better: text("better")
                        .as_deref()
                        .and_then(Better::parse)
                        .ok_or("metric without lower|higher")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Definition {
        run_seconds: json
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("no run_seconds")?,
        workloads: json
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("no workloads")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect(),
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_definition_is_well_formed() {
        let d = definition();
        assert_eq!(
            d.workloads,
            crate::workload::Workload::ALL.map(|w| w.name())
        );
        assert!(d
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = d
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        let widest = d
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        let mut names: Vec<&str> = d
            .end_to_end
            .iter()
            .chain(&d.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
    }

    #[test]
    fn every_experiment_has_a_per_layer_wall_time() {
        let d = definition();
        for name in bpred_harness::registry::names() {
            let metric = format!("exp.{name}.wall_s");
            assert!(
                d.per_layer.iter().any(|m| m.name == metric),
                "BENCHMARK.json lacks {metric}"
            );
        }
    }
}
