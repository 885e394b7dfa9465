//! The trace of a traced run: spans held in memory and written out once, at
//! the end.
//!
//! `workload → hunt|sweep|shrink → exec → {sched_build, reset|restore, setup,
//! run, take_trace}`. Every span has a name, a start and an end (nanoseconds
//! since the traced pass began), its parent's id, and the id of the hunt or
//! sweep it belongs to. What happens inside `run` — scheduler calls, handler
//! calls — is far too frequent for a span each and is kept as `(count, total
//! ns)` per name. Per-execution spans are kept for the first
//! [`EXEC_SPAN_LIMIT`] executions of a workload; later executions are folded
//! into the same kind of aggregate, under their span names.

use std::collections::BTreeMap;

use crate::adapter::{ExecRecord, Json, PHASES};

/// Executions whose spans are kept one by one.
pub const EXEC_SPAN_LIMIT: usize = 2_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The hunt, sweep or shrink this span is part of (its span id).
    pub group: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    aggregates: BTreeMap<String, (u64, u64)>,
    execs_kept: usize,
    execs_folded: u64,
}

impl Trace {
    /// Opens a span and returns its id; close it with [`Trace::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        group: Option<u64>,
        start_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            group,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u64, end_ns: u64) {
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Adds to the `(count, total ns)` aggregate `name`.
    pub fn aggregate(&mut self, name: &str, count: u64, total_ns: u64) {
        if count == 0 {
            return;
        }
        let entry = self.aggregates.entry(name.to_string()).or_default();
        entry.0 += count;
        entry.1 += total_ns;
    }

    /// Records one execution under the hunt or sweep span `group`: an `exec`
    /// span with one child per phase that ran, or the same as aggregates once
    /// the per-execution limit is reached. The scheduler's calls are always
    /// aggregates.
    pub fn exec(&mut self, group: u64, record: &ExecRecord) {
        let ran: Vec<usize> = (0..PHASES.len())
            .filter(|&phase| record.phases[phase] != (0, 0))
            .collect();
        let start = ran.iter().map(|&p| record.phases[p].0).min().unwrap_or(0);
        let end = ran.iter().map(|&p| record.phases[p].1).max().unwrap_or(0);
        if self.execs_kept < EXEC_SPAN_LIMIT {
            self.execs_kept += 1;
            let exec = self.open("exec", Some(group), Some(group), start);
            self.close(exec, end);
            for phase in ran {
                let (from, to) = record.phases[phase];
                let span = self.open(PHASES[phase], Some(exec), Some(group), from);
                self.close(span, to);
            }
        } else {
            self.execs_folded += 1;
            self.aggregate("exec", 1, end - start);
            for phase in ran {
                self.aggregate(PHASES[phase], 1, record.phase_ns(phase));
            }
        }
        let calls = &record.scheduler;
        self.aggregate(
            "run/scheduler.next_machine",
            calls.pick_calls,
            calls.pick_ns,
        );
        self.aggregate(
            "run/scheduler.note_footprint",
            calls.note_calls,
            calls.note_ns,
        );
        self.aggregate(
            "run/scheduler.next_fault",
            calls.fault_calls,
            calls.fault_ns,
        );
        self.aggregate(
            "run/scheduler.next_bool|int",
            calls.choice_calls,
            calls.choice_ns,
        );
        if record.snapshot_ns > 0 {
            self.aggregate("setup/runtime.snapshot", 1, record.snapshot_ns);
        }
    }

    /// Self time of span `id`: its duration minus what its children cover.
    #[cfg(test)]
    pub fn self_ns(&self, id: u64) -> u64 {
        let span = &self.spans[id as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|child| child.parent == Some(id))
            .map(|child| child.end_ns - child.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let optional = |id: Option<u64>| id.map_or(Json::Null, Json::UInt);
        let spans = self
            .spans
            .iter()
            .map(|span| {
                Json::object([
                    ("id", Json::UInt(span.id)),
                    ("parent", optional(span.parent)),
                    ("group", optional(span.group)),
                    ("name", Json::Str(span.name.to_string())),
                    ("start_ns", Json::UInt(span.start_ns)),
                    ("end_ns", Json::UInt(span.end_ns)),
                ])
            })
            .collect();
        let aggregates = self
            .aggregates
            .iter()
            .map(|(name, &(count, total_ns))| {
                (
                    name.clone(),
                    Json::object([
                        ("count", Json::UInt(count)),
                        ("total_ns", Json::UInt(total_ns)),
                    ]),
                )
            })
            .collect();
        Json::object([
            ("workload", Json::Str(workload.to_string())),
            ("exec_spans_kept", Json::UInt(self.execs_kept as u64)),
            (
                "execs_folded_into_aggregates",
                Json::UInt(self.execs_folded),
            ),
            ("spans", Json::Array(spans)),
            ("aggregates", Json::Object(aggregates)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{RESET, RUN, SCHED_BUILD, SETUP};

    fn record(offset: u64) -> ExecRecord {
        let mut record = ExecRecord::default();
        record.phases[SCHED_BUILD] = (offset, offset + 10);
        record.phases[RESET] = (offset + 10, offset + 30);
        record.phases[SETUP] = (offset + 30, offset + 70);
        record.phases[RUN] = (offset + 70, offset + 170);
        record.scheduler.pick_calls = 5;
        record.scheduler.pick_ns = 40;
        record
    }

    #[test]
    fn exec_spans_nest_and_fold_after_the_limit() {
        let mut trace = Trace::default();
        let root = trace.open("workload", None, None, 0);
        let sweep = trace.open("sweep", Some(root), None, 0);
        for index in 0..EXEC_SPAN_LIMIT as u64 + 3 {
            trace.exec(sweep, &record(index * 200));
        }
        trace.close(sweep, 1_000_000);
        trace.close(root, 1_000_000);
        // One exec span and four phase spans per kept execution.
        assert_eq!(trace.spans.len(), 2 + EXEC_SPAN_LIMIT * 5);
        assert_eq!(trace.execs_folded, 3);
        assert_eq!(trace.aggregates["exec"], (3, 3 * 170));
        assert_eq!(trace.aggregates["run"], (3, 300));
        assert_eq!(
            trace.aggregates["run/scheduler.next_machine"],
            (
                (EXEC_SPAN_LIMIT as u64 + 3) * 5,
                (EXEC_SPAN_LIMIT as u64 + 3) * 40
            )
        );
        let first_exec = trace
            .spans
            .iter()
            .find(|s| s.name == "exec")
            .expect("an exec span");
        assert_eq!(first_exec.parent, Some(sweep));
        assert_eq!(
            trace.self_ns(first_exec.id),
            0,
            "the phases cover the execution"
        );
        assert_eq!(trace.self_ns(root), 0);
        let json = trace.to_json("step_loop").to_string_compact();
        assert!(Json::parse(&json).is_ok());
    }
}
