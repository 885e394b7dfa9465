//! Every metric the benchmark reports: name, unit, which direction is better,
//! and — for end-to-end metrics — the share of the baseline's median by which
//! it may get worse before that counts as a regression. `BENCHMARK.json` lists
//! the same; `tests::benchmark_json_agrees` keeps the two in step.

use crate::cases::{CRATES, STRATEGY_LABELS};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// `None`: reported on every workload, and listed in `BENCHMARK.json`.
    /// `Some`: a reading of the run that only these workloads have; the full
    /// run and `--compare` report it, the driver's runs do not.
    pub only: Option<&'static [Workload]>,
}

const HUNT: &[Workload] = &[Workload::BugHunt];
const SHRINK: &[Workload] = &[Workload::ShrinkReplay];

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        only: None,
    },
    EndToEnd {
        name: "steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        only: None,
    },
    EndToEnd {
        name: "execs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        only: None,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        only: None,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        only: Some(&crate::workloads::ALL),
    },
    EndToEnd {
        name: "hunt_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        only: Some(HUNT),
    },
    EndToEnd {
        name: "time_to_bug_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        only: Some(HUNT),
    },
    EndToEnd {
        name: "time_to_bug_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        only: Some(HUNT),
    },
    EndToEnd {
        name: "execs_to_bug_gmean",
        unit: "count",
        better: Better::Lower,
        bound: 0.20,
        only: Some(HUNT),
    },
    EndToEnd {
        name: "shrink_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        only: Some(SHRINK),
    },
    EndToEnd {
        name: "min_ndc_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        only: Some(SHRINK),
    },
    // Any increase is a regression: the bound is zero.
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        only: Some(&crate::workloads::ALL),
    },
];

/// The end-to-end metrics the driver's runs report: those defined on every
/// workload.
pub fn contract_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|metric| metric.only.is_none())
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|metric| metric.name == name)
}

#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Every per-layer metric, in output order. A traced run reports all of them
/// on every workload; one that a workload does not exercise reads zero.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut all: Vec<PerLayer> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        all.push(PerLayer { name, unit, better });
    };
    for (name, unit, better) in [
        ("engine.overhead_ns_per_exec", "ns/exec", Lower),
        ("engine.first_exec_ms", "ms", Lower),
        ("engine.reset_ns_per_exec", "ns/exec", Lower),
        ("engine.setup_ns_per_exec", "ns/exec", Lower),
        ("engine.setup_calls", "count", Lower),
        ("engine.par_efficiency", "ratio", Higher),
        ("scheduler.build_ns", "ns/exec", Lower),
        ("runtime.run_ns_per_step", "ns/step", Lower),
        ("runtime.self_ns_per_step", "ns/step", Lower),
        ("runtime.allocs_per_exec", "count", Lower),
        ("runtime.alloc_bytes_per_exec", "bytes/exec", Lower),
        ("machines.handler_ns_per_step", "ns/step", Lower),
        ("runtime.steps_per_exec", "count", Lower),
        ("runtime.enabled_width_mean", "count", Lower),
        ("trace.decisions_per_exec", "count", Lower),
        ("fault.injected_per_exec", "count", Lower),
        ("runtime.snapshot_us", "us", Lower),
        ("runtime.restore_ns_per_exec", "ns/exec", Lower),
        ("runtime.dirty_per_fork", "count", Lower),
        ("scheduler.pick_ns_per_step", "ns/step", Lower),
        ("scheduler.note_ns_per_step", "ns/step", Lower),
        ("scheduler.fault_ns_per_step", "ns/step", Lower),
        ("scheduler.choice_ns_per_call", "ns", Lower),
        ("scheduler.share_of_run", "ratio", Lower),
    ] {
        add(name.to_string(), unit, better);
    }
    for label in STRATEGY_LABELS {
        add(format!("scheduler.{label}.ns_per_step"), "ns/step", Lower);
        add(
            format!("scheduler.{label}.run_ns_per_step"),
            "ns/step",
            Lower,
        );
        add(
            format!("scheduler.{label}.execs_to_bug_gmean"),
            "count",
            Lower,
        );
        add(format!("scheduler.{label}.miss_share"), "ratio", Lower);
    }
    for (name, unit, better) in [
        ("scheduler.sleep-set.pruned_per_exec", "count", Higher),
        ("scheduler.dpor.pruned_per_exec", "count", Higher),
        ("scheduler.dpor.races_per_exec", "count", Higher),
        ("scheduler.dpor.backtracks_per_exec", "count", Higher),
        ("trace.take_ns_per_exec", "ns/exec", Lower),
        ("trace.full_mode_overhead_pct", "%", Lower),
        ("trace.json_roundtrip_ms", "ms", Lower),
    ] {
        add(name.to_string(), unit, better);
    }
    for krate in CRATES {
        add(format!("{krate}.run_ns_per_step"), "ns/step", Lower);
        add(format!("{krate}.setup_us"), "us", Lower);
        add(format!("{krate}.steps_per_exec"), "count", Lower);
    }
    for (name, unit, better) in [
        ("shrink.candidates_per_bug", "count", Lower),
        ("shrink.candidate_us", "us", Lower),
        ("shrink.accept_share", "ratio", Higher),
        ("shrink.strict_replay_us_per_bug", "us", Lower),
        ("shrink.min_ndc_ratio", "ratio", Lower),
        ("hunt.execs_to_bug_gmean", "count", Lower),
        ("hunt.miss_share", "ratio", Lower),
        ("clean.excluded_violation_share", "ratio", Lower),
        ("host.cores", "count", Higher),
        ("host.calib_ns", "ns", Lower),
        ("host.clock_ns", "ns", Lower),
        ("bench.trace_overhead_pct", "%", Lower),
    ] {
        add(name.to_string(), unit, better);
    }
    all
}

/// Whether a per-layer metric is an exact count: a function of the seed
/// alone, identical in every run of the same code.
pub fn is_exact(metric: &PerLayer) -> bool {
    const TIMED_OR_HOST: [&str; 4] = [
        "engine.par_efficiency",
        "scheduler.share_of_run",
        "runtime.allocs_per_exec",
        "host.cores",
    ];
    ["count", "ratio"].contains(&metric.unit) && !TIMED_OR_HOST.contains(&metric.name.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .chain(layers.iter().map(|m| (m.name.clone(), m.unit)))
            .chain(crate::workloads::ALL.map(|w| (w.name().to_string(), "s")))
        {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        for metric in END_TO_END {
            assert!((0.0..=0.25).contains(&metric.bound), "{}", metric.name);
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics the driver's runs print.
    #[test]
    fn benchmark_json_agrees() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<Json> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("a list")
                .to_vec()
        };
        let field = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .expect(key)
                .to_string()
        };

        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let expected: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);

        let end_to_end = listed("end_to_end");
        let contract: Vec<&EndToEnd> = contract_end_to_end().collect();
        assert_eq!(end_to_end.len(), contract.len());
        for (entry, metric) in end_to_end.iter().zip(contract) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit, "{}", metric.name);
            assert_eq!(
                field(entry, "better"),
                metric.better.as_str(),
                "{}",
                metric.name
            );
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert_eq!(bound, metric.bound, "{}", metric.name);
        }

        let layers = listed("per_layer");
        let expected = per_layer();
        assert_eq!(layers.len(), expected.len());
        for (entry, metric) in layers.iter().zip(&expected) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit, "{}", metric.name);
            assert_eq!(
                field(entry, "better"),
                metric.better.as_str(),
                "{}",
                metric.name
            );
        }
    }
}
