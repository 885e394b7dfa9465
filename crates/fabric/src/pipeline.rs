//! A small CScale-like stream-processing pipeline built from two chained
//! Fabric services communicating via modeled RPCs (§5 of the paper).
//!
//! Stage one receives raw records, aggregates them and forwards derived
//! records to stage two, which maintains a windowed sum. Stage two needs a
//! configuration message before it can process records; the seeded defect
//! ([`crate::cluster::FabricBugs::uninitialized_pipeline_config`]) makes stage
//! one start forwarding records before the configuration was delivered, so
//! stage two dereferences an uninitialized option — the
//! `NullReferenceException`-style bug of the paper, surfacing as a panic.

use psharp::prelude::*;

/// A raw input record for stage one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRecord {
    /// The record's value.
    pub value: i64,
}

/// A derived record forwarded from stage one to stage two (the modeled RPC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerivedRecord {
    /// The derived (scaled) value.
    pub value: i64,
}

/// Configuration for stage two; must arrive before any derived record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageConfig {
    /// The window size used for aggregation.
    pub window: usize,
}

/// First pipeline stage: scales raw records and forwards them downstream.
#[derive(Clone)]
pub struct StageOne {
    downstream: MachineId,
    scale: i64,
    forwarded: usize,
}

impl StageOne {
    /// Creates the stage with its downstream peer.
    pub fn new(downstream: MachineId, scale: i64) -> Self {
        StageOne {
            downstream,
            scale,
            forwarded: 0,
        }
    }

    /// Number of records forwarded (exposed for tests).
    pub fn forwarded(&self) -> usize {
        self.forwarded
    }
}

impl Machine for StageOne {
    fn handle(&mut self, ctx: &mut Context<'_>, event: Event) {
        if let Some(record) = event.downcast_ref::<RawRecord>() {
            self.forwarded += 1;
            ctx.send(
                self.downstream,
                Event::new(DerivedRecord {
                    value: record.value * self.scale,
                }),
            );
        }
    }

    fn name(&self) -> &str {
        "StageOne"
    }

    psharp::impl_machine_snapshot!();
}

/// Second pipeline stage: windows and sums the derived records.
#[derive(Clone)]
pub struct StageTwo {
    config: Option<StageConfig>,
    buffer_until_configured: bool,
    pending: Vec<i64>,
    window_values: Vec<i64>,
    window_sums: Vec<i64>,
}

impl StageTwo {
    /// Creates the stage. The fixed implementation buffers records that
    /// arrive before the configuration; the buggy one assumes the
    /// configuration is always there and dereferences it unconditionally.
    pub fn new(buffer_until_configured: bool) -> Self {
        StageTwo {
            config: None,
            buffer_until_configured,
            pending: Vec::new(),
            window_values: Vec::new(),
            window_sums: Vec::new(),
        }
    }

    /// The completed window sums (exposed for tests).
    pub fn window_sums(&self) -> &[i64] {
        &self.window_sums
    }

    fn process(&mut self, value: i64) {
        let window = self
            .config
            .expect("stage two received a record before its configuration")
            .window;
        self.window_values.push(value);
        if self.window_values.len() >= window {
            self.window_sums.push(self.window_values.iter().sum());
            self.window_values.clear();
        }
    }
}

impl Machine for StageTwo {
    fn handle(&mut self, _ctx: &mut Context<'_>, event: Event) {
        if let Some(config) = event.downcast_ref::<StageConfig>() {
            self.config = Some(*config);
            for value in std::mem::take(&mut self.pending) {
                self.process(value);
            }
        } else if let Some(record) = event.downcast_ref::<DerivedRecord>() {
            if self.config.is_none() && self.buffer_until_configured {
                // Fixed behaviour: hold early records until configured.
                self.pending.push(record.value);
            } else {
                // BUG path (when `buffer_until_configured` is false and the
                // configuration has not arrived yet): the unconditional
                // dereference panics — the analogue of the
                // NullReferenceException found by the P# Fabric model.
                self.process(record.value);
            }
        }
    }

    fn name(&self) -> &str {
        "StageTwo"
    }

    psharp::impl_machine_snapshot!();
}

/// Configures stage two from a separate machine, so whether the
/// configuration arrives before or after the first derived record depends on
/// the interleaving the scheduler picks.
#[derive(Clone)]
pub struct Configurator {
    stage_two: MachineId,
    window: usize,
}

impl Configurator {
    /// Creates the configurator.
    pub fn new(stage_two: MachineId, window: usize) -> Self {
        Configurator { stage_two, window }
    }
}

impl Machine for Configurator {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(
            self.stage_two,
            Event::new(StageConfig {
                window: self.window,
            }),
        );
        ctx.halt();
    }

    fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}

    fn name(&self) -> &str {
        "Configurator"
    }

    psharp::impl_machine_snapshot!();
}

/// Drives the pipeline: feeds raw records into stage one while the
/// [`Configurator`] races to deliver stage two's configuration.
#[derive(Clone)]
pub struct PipelineDriver {
    stage_one: MachineId,
    records: usize,
}

impl PipelineDriver {
    /// Creates the driver.
    pub fn new(stage_one: MachineId, records: usize) -> Self {
        PipelineDriver { stage_one, records }
    }
}

impl Machine for PipelineDriver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for index in 0..self.records {
            ctx.send(
                self.stage_one,
                Event::new(RawRecord {
                    value: index as i64 + 1,
                }),
            );
        }
        ctx.halt();
    }

    fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}

    fn name(&self) -> &str {
        "PipelineDriver"
    }

    psharp::impl_machine_snapshot!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use psharp::runtime::{Runtime, RuntimeConfig};
    use psharp::scheduler::RoundRobinScheduler;

    fn build(rt: &mut Runtime, records: usize, buffer_until_configured: bool) -> MachineId {
        let stage_two = rt.create_machine(StageTwo::new(buffer_until_configured));
        let stage_one = rt.create_machine(StageOne::new(stage_two, 10));
        rt.create_machine(Configurator::new(stage_two, 2));
        rt.create_machine(PipelineDriver::new(stage_one, records));
        stage_two
    }

    #[test]
    fn configured_pipeline_produces_window_sums() {
        let mut rt = Runtime::new(
            Box::new(RoundRobinScheduler::new(0)),
            RuntimeConfig::default(),
            0,
        );
        let stage_two = build(&mut rt, 4, true);
        let outcome = rt.run();
        assert!(
            !matches!(outcome, ExecutionOutcome::BugFound(_)),
            "unexpected violation: {outcome:?}"
        );
        let stage = rt.machine_ref::<StageTwo>(stage_two).expect("stage two");
        // Records 1..=4 scaled by 10, windowed in pairs: 10+20, 30+40.
        assert_eq!(stage.window_sums(), &[30, 70]);
    }

    #[test]
    fn fixed_pipeline_never_panics_even_with_late_configuration() {
        let engine = TestEngine::new(TestConfig::new().with_iterations(200).with_seed(5));
        let report = engine.run(|rt| {
            build(rt, 3, true);
        });
        assert!(!report.found_bug());
    }

    #[test]
    fn unconfigured_pipeline_is_found_by_the_engine() {
        let engine = TestEngine::new(TestConfig::new().with_iterations(200).with_seed(5));
        let report = engine.run(|rt| {
            build(rt, 3, false);
        });
        let bug = report.bug.expect("the uninitialized-config panic");
        assert_eq!(bug.bug.kind, BugKind::Panic);
        assert!(bug.bug.message.contains("configuration"));
    }
}
