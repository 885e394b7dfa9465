//! Folding the children's reports into `results.json`, printing it, and
//! comparing two such files under the benchmark's own bounds.
//!
//! A metric's value is the median over the repetitions; percentiles were taken
//! inside each repetition. Exact counts must not differ between repetitions:
//! a run reduces the counts of one pass over its plan to one digest (and
//! fails if two of its passes differ), and every repetition must report the
//! same digest.

use std::collections::BTreeMap;

use crate::adapter::{Json, JsonError};
use crate::metrics::{self, Better, EndToEnd};
use crate::stats::{median, spread};
use crate::workloads::{host_cores, Workload};

fn digest_of(report: &Json) -> Result<u64, String> {
    report
        .get("digest")
        .and_then(Json::as_u64)
        .map_err(|e| e.to_string())
}

/// The one digest all of `runs` report, or what differs.
fn same_digest(what: &str, runs: &[u64]) -> Result<Option<u64>, String> {
    match runs.iter().position(|digest| *digest != runs[0]) {
        Some(index) => Err(format!(
            "{what}: exact counts differ between run 1 and run {}",
            index + 1
        )),
        None => Ok(runs.first().copied()),
    }
}

fn applies(metric: &EndToEnd, workload: Workload) -> bool {
    metric.only.is_none_or(|only| only.contains(&workload))
}

/// Builds `results.json` from the children's reports.
pub fn summarise(
    seed: u64,
    seconds: f64,
    workloads: &[Workload],
    reports: &BTreeMap<&'static str, Vec<Json>>,
    layers: &BTreeMap<&'static str, Json>,
) -> Result<Json, String> {
    let mut per_workload: BTreeMap<String, Json> = BTreeMap::new();
    let mut digests: BTreeMap<&'static str, u64> = BTreeMap::new();
    for &workload in workloads {
        let name = workload.name();
        let mut entry: BTreeMap<String, Json> = BTreeMap::new();
        if let Some(runs) = reports.get(name) {
            let mut end_to_end: BTreeMap<String, Json> = BTreeMap::new();
            for metric in metrics::END_TO_END.iter().filter(|m| applies(m, workload)) {
                let samples: Vec<f64> = runs
                    .iter()
                    .map(|run| {
                        run.get("metrics")
                            .and_then(|m| m.get(metric.name))
                            .and_then(Json::as_f64)
                            .map_err(|e| format!("{name}: {}: {e}", metric.name))
                    })
                    .collect::<Result<_, _>>()?;
                end_to_end.insert(
                    metric.name.to_string(),
                    Json::object([
                        ("unit", Json::Str(metric.unit.to_string())),
                        ("better", Json::Str(metric.better.as_str().to_string())),
                        ("bound", Json::Float(metric.bound)),
                        (
                            "median",
                            Json::Float(median(&samples).expect("at least one run")),
                        ),
                        (
                            "samples",
                            Json::Array(samples.into_iter().map(Json::Float).collect()),
                        ),
                    ]),
                );
            }
            entry.insert("end_to_end".to_string(), Json::Object(end_to_end));
            let all: Vec<u64> = runs.iter().map(digest_of).collect::<Result<_, _>>()?;
            if let Some(digest) = same_digest(name, &all)? {
                entry.insert("digest".to_string(), Json::UInt(digest));
                digests.insert(name, digest);
            }
            for key in ["attempted", "failed", "executions", "steps", "passes"] {
                let values = runs
                    .iter()
                    .map(|run| run.get(key).cloned().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
                entry.insert(key.to_string(), Json::Array(values));
            }
        }
        if let Some(layer) = layers.get(name) {
            entry.insert(
                "per_layer".to_string(),
                layer.get("per_layer").cloned().map_err(|e| e.to_string())?,
            );
        }
        per_workload.insert(name.to_string(), Json::Object(entry));
    }
    if let (Some(&serial), Some(&parallel)) =
        (digests.get("clean_sweep"), digests.get("clean_sweep_par"))
    {
        same_digest(
            "clean_sweep against clean_sweep_par (total steps and per-strategy rows)",
            &[serial, parallel],
        )?;
    }
    Ok(Json::object([
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Float(seconds)),
        ("host_cores", Json::UInt(host_cores() as u64)),
        ("workloads", Json::Object(per_workload)),
    ]))
}

fn object(json: &Json) -> Result<&BTreeMap<String, Json>, String> {
    match json {
        Json::Object(map) => Ok(map),
        _ => Err("expected an object".to_string()),
    }
}

/// Prints every metric of `results` by name, with its unit.
pub fn print(results: &Json) -> Result<(), String> {
    let err = |e: JsonError| e.to_string();
    println!(
        "\nseed {}, {} s per run, {} cores",
        results.get("seed").and_then(Json::as_u64).map_err(err)?,
        results.get("seconds").and_then(Json::as_f64).map_err(err)?,
        results
            .get("host_cores")
            .and_then(Json::as_u64)
            .map_err(err)?,
    );
    for (name, entry) in object(results.get("workloads").map_err(err)?)? {
        println!("\n== {name}");
        if let Ok(end_to_end) = entry.get("end_to_end") {
            let passes = entry.get("passes").and_then(Json::as_array).map_err(err)?;
            println!(
                "   end to end, median of {} runs (passes per run {}, operations per pass {}, failed {})",
                passes.len(),
                Json::Array(passes.to_vec()).to_string_compact(),
                entry.get("attempted").map_err(err)?.to_string_compact(),
                entry.get("failed").map_err(err)?.to_string_compact()
            );
            for (metric, value) in object(end_to_end)? {
                let samples: Vec<f64> = value
                    .get("samples")
                    .and_then(Json::as_array)
                    .map_err(err)?
                    .iter()
                    .map(|s| s.as_f64().map_err(err))
                    .collect::<Result<_, _>>()?;
                println!(
                    "   {metric:<24} {:>16.4} {:<6} spread {}",
                    value.get("median").and_then(Json::as_f64).map_err(err)?,
                    value.get("unit").and_then(Json::as_str).map_err(err)?,
                    spread(&samples).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
                );
            }
            println!("   exact counts: identical in every pass of every run");
        }
        if let Ok(layers) = entry.get("per_layer") {
            println!("   per layer (one traced run)");
            let values = object(layers)?;
            for metric in metrics::per_layer() {
                let value = values
                    .get(&metric.name)
                    .ok_or(format!("{name}: no {}", metric.name))?;
                println!(
                    "   {:<44} {:>16.4} {:<10} ({} is better)",
                    metric.name,
                    value.as_f64().map_err(err)?,
                    metric.unit,
                    metric.better.as_str()
                );
            }
        }
    }
    Ok(())
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn samples_of(value: &Json) -> Result<Vec<f64>, String> {
    value
        .get("samples")
        .and_then(Json::as_array)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|s| s.as_f64().map_err(|e| e.to_string()))
        .collect()
}

/// `--compare A.json B.json`: B against A under each metric's bound. A metric
/// whose runs spread wider than its bound, in either file, is listed as
/// unresolved unless every run of B is better than every run of A. Fails when
/// a median is worse by more than its bound, or an exact count differs.
pub fn files(a_path: &str, b_path: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_seed = a.get("seed").ok() == b.get("seed").ok();
    let workloads_a = object(a.get("workloads").map_err(|e| e.to_string())?)?;
    let workloads_b = object(b.get("workloads").map_err(|e| e.to_string())?)?;
    let mut disagreements: Vec<String> = Vec::new();
    let mut unresolved: Vec<String> = Vec::new();
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for (name, entry_a) in workloads_a {
        let Some(entry_b) = workloads_b.get(name) else {
            continue;
        };
        if let (Ok(e2e_a), Ok(e2e_b)) = (entry_a.get("end_to_end"), entry_b.get("end_to_end")) {
            for (metric, value_a) in object(e2e_a)? {
                let Ok(value_b) = e2e_b.get(metric) else {
                    continue;
                };
                let spec = metrics::end_to_end(metric).ok_or(format!("unknown metric {metric}"))?;
                let (runs_a, runs_b) = (samples_of(value_a)?, samples_of(value_b)?);
                let (mid_a, mid_b) = (
                    median(&runs_a).ok_or("no samples")?,
                    median(&runs_b).ok_or("no samples")?,
                );
                // Both zero (failed_share on a clean run): nothing got worse.
                let worse = if mid_a == mid_b {
                    0.0
                } else {
                    worsening(spec.better, mid_a, mid_b)
                };
                let widest = spread(&runs_a)
                    .unwrap_or(0.0)
                    .max(spread(&runs_b).unwrap_or(0.0));
                let b_always_better = runs_b.iter().all(|&y| {
                    runs_a.iter().all(|&x| match spec.better {
                        Better::Lower => y < x,
                        Better::Higher => y > x,
                    })
                });
                let verdict = if worse > spec.bound {
                    disagreements.push(format!("{name}.{metric}: worse by {:.1}%", worse * 100.0));
                    "WORSE"
                } else if widest > spec.bound && !b_always_better {
                    unresolved.push(format!("{name}.{metric}: spread {:.1}%", widest * 100.0));
                    "unresolved"
                } else {
                    "ok"
                };
                println!(
                    "{name:<16} {metric:<22} {mid_a:>14.4} {mid_b:>14.4} {:>7.1}% {:>6.0}%  {verdict}",
                    worse * 100.0,
                    spec.bound * 100.0
                );
            }
        }
        if same_seed {
            if let (Ok(da), Ok(db)) = (digest_of(entry_a), digest_of(entry_b)) {
                if let Err(message) = same_digest(name, &[da, db]) {
                    disagreements.push(message);
                }
            }
            if let (Ok(layers_a), Ok(layers_b)) =
                (entry_a.get("per_layer"), entry_b.get("per_layer"))
            {
                for metric in metrics::per_layer().iter().filter(|m| metrics::is_exact(m)) {
                    let (x, y) = (
                        layers_a.get(&metric.name).ok(),
                        layers_b.get(&metric.name).ok(),
                    );
                    if x != y {
                        disagreements.push(format!(
                            "{name}.{}: exact count differs: {} against {}",
                            metric.name,
                            x.map_or("-".to_string(), Json::to_string_compact),
                            y.map_or("-".to_string(), Json::to_string_compact)
                        ));
                    }
                }
            }
        }
    }
    if !same_seed {
        println!("\nthe two files were run with different seeds: exact counts are not compared");
    }
    if !unresolved.is_empty() {
        println!("\nunresolved (run-to-run spread wider than the bound):");
        for line in &unresolved {
            println!("  {line}");
        }
    }
    if disagreements.is_empty() {
        println!("\nthe two sets of runs agree within the bounds");
        Ok(())
    } else {
        println!("\ndisagreements:");
        for line in &disagreements {
            println!("  {line}");
        }
        Err(format!("{} metrics disagree", disagreements.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_digest_names_the_run_that_differs() {
        assert_eq!(same_digest("w", &[7, 7, 7]), Ok(Some(7)));
        assert_eq!(same_digest("w", &[]), Ok(None));
        let message = same_digest("w", &[7, 7, 8]).expect_err("run 3 differs");
        assert!(message.contains("run 3"), "{message}");
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }
}
