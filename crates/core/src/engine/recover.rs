//! Recovering single-device driver: barrier checkpointing, deterministic
//! fault injection, rollback/replay with bounded retries, and sequential
//! graceful degradation.
//!
//! The only live state at a superstep barrier is the vertex values, the
//! active flags and the step index (message buffers are rebuilt every
//! superstep), so a snapshot is a versioned, checksummed image of exactly
//! that. Faults are *transient fail-stop*: a detected fault discards the
//! dirty engine and rolls back to the newest valid snapshot (a corrupt one
//! is rejected by checksum for the one before it), bounded by the retry
//! budget with exponential backoff; past it the sequential engine finishes
//! from the last good barrier — slower, never wrong.
//!
//! A single device is the one-rank launch of the fabric's rollback driver
//! (`engine/failover.rs`): one rank with a snapshot store and no links,
//! which is what runs the integrity layers in its step (`engine/rank.rs`).

use crate::api::VertexProgram;
use crate::engine::config::{EngineConfig, ExecMode};
use crate::engine::failover::run_rollback;
use crate::metrics::RunOutput;
use phigraph_comm::PcieLink;
use phigraph_device::DeviceSpec;
use phigraph_graph::state::PodState;
use phigraph_graph::Csr;
use phigraph_partition::DevicePartition;
use phigraph_recover::{CheckpointStore, FailoverStats};

/// Run `program` on a single device with checkpointing and recovery.
///
/// Behaves like [`run_single`](crate::engine::run_single) for the
/// framework modes, plus:
///
/// * every `RecoveryPolicy::checkpoint_every` supersteps the barrier state
///   is snapshotted into `store`;
/// * faults from [`EngineConfig::fault_plan`] fire at their injection
///   sites; each detected fault rolls the run back to the newest valid
///   checkpoint and replays (bounded retries, exponential backoff);
/// * after the retry budget the run degrades to the sequential engine from
///   the last good barrier (`RecoveryStats::degraded`);
/// * with `resume = true`, the run starts from the newest valid snapshot
///   already in `store` instead of from `init` (the CLI's `--resume`).
///
/// All recovery events are surfaced in `RunReport::recovery` and the
/// per-step checkpoint counters.
pub fn run_recoverable<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
    store: &mut dyn CheckpointStore,
    resume: bool,
) -> RunOutput<P::Value>
where
    P::Value: PodState,
{
    assert!(
        matches!(config.mode, ExecMode::Locking | ExecMode::Pipelined),
        "the recovering driver runs the framework modes; use run_single for flat/seq"
    );
    let mut out = run_rollback(
        program,
        graph,
        &DevicePartition::single_device(graph.num_vertices(), 0),
        &[spec],
        std::slice::from_ref(config),
        PcieLink::ideal(),
        None,
        vec![store],
        resume,
    );
    // A single device keeps no liveness accounting, and its one device
    // report is the run report.
    out.report.failover = FailoverStats::default();
    out.device_reports = vec![out.report.clone()];
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{GenContext, MsgSink};
    use crate::engine::run_single;
    use phigraph_graph::generators::small::chain;
    use phigraph_graph::VertexId;
    use phigraph_recover::{FaultKind, FaultPlan, MemStore, Snapshot};
    use phigraph_simd::Min;

    struct Sssp;
    impl VertexProgram for Sssp {
        type Msg = f32;
        type Reduce = Min;
        type Value = f32;
        const NAME: &'static str = "sssp";
        fn init(&self, v: VertexId, _g: &Csr) -> (f32, bool) {
            if v == 0 {
                (0.0, true)
            } else {
                (f32::INFINITY, false)
            }
        }
        fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
            let my = *ctx.value(v);
            for e in ctx.graph.edge_range(v) {
                ctx.send(ctx.graph.targets[e], my + ctx.graph.weight(e));
            }
        }
        fn update(&self, _v: VertexId, msg: f32, value: &mut f32, _g: &Csr) -> bool {
            if msg < *value {
                *value = msg;
                true
            } else {
                false
            }
        }
    }

    /// SSSP whose invariant auditor raises an alarm at one superstep
    /// whatever the state, so that step is always replayed from its
    /// barrier image (rung 2).
    struct Alarmed(usize);
    impl VertexProgram for Alarmed {
        type Msg = f32;
        type Reduce = Min;
        type Value = f32;
        const NAME: &'static str = "sssp";
        fn init(&self, v: VertexId, g: &Csr) -> (f32, bool) {
            Sssp.init(v, g)
        }
        fn generate<S: MsgSink<f32>>(&self, v: VertexId, ctx: &mut GenContext<'_, f32, S>) {
            Sssp.generate(v, ctx)
        }
        fn update(&self, v: VertexId, msg: f32, value: &mut f32, g: &Csr) -> bool {
            Sssp.update(v, msg, value, g)
        }
        fn audit_step(&self, step: usize, _: &[f32], _: &[f32], _: usize) -> Option<String> {
            (step == self.0).then(|| "alarm".to_string())
        }
    }

    fn cfg() -> EngineConfig {
        EngineConfig::locking()
            .with_checkpoint_every(2)
            .with_backoff_ms(0)
    }

    #[test]
    fn fault_free_recoverable_matches_plain_run() {
        let g = chain(20);
        let spec = DeviceSpec::xeon_e5_2680();
        let plain = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        let mut store = MemStore::new();
        let out = run_recoverable(&Sssp, &g, spec, &cfg(), &mut store, false);
        assert_eq!(out.values, plain.values);
        assert!(out.report.recovery.checkpoints_written > 0);
        assert_eq!(out.report.recovery.rollbacks, 0);
        assert_eq!(
            out.report.total_checkpoints(),
            out.report.recovery.checkpoints_written
        );
        // Bounded storage: the keep window holds.
        assert!(store.list().len() <= cfg().recovery.keep_snapshots);
    }

    #[test]
    fn kill_worker_rolls_back_and_replays_identically() {
        let g = chain(20);
        let spec = DeviceSpec::xeon_e5_2680();
        let clean = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        for kind in [
            FaultKind::KillWorker,
            FaultKind::KillMover,
            FaultKind::PoisonInsert,
        ] {
            let plan = FaultPlan::single(7, kind);
            let config = cfg().with_fault_plan(plan.injector());
            let mut store = MemStore::new();
            let out = run_recoverable(&Sssp, &g, spec.clone(), &config, &mut store, false);
            assert_eq!(out.values, clean.values, "bit-identical after {kind:?}");
            assert_eq!(out.report.recovery.rollbacks, 1);
            assert_eq!(out.report.recovery.retries, 1);
            assert_eq!(out.report.recovery.faults_injected, 1);
            assert!(!out.report.recovery.degraded);
            // Replayed steps get fresh reports: indices stay monotone.
            for w in out.report.steps.windows(2) {
                assert_eq!(w[1].step, w[0].step + 1);
            }
        }
    }

    #[test]
    fn fault_before_first_checkpoint_restarts_from_scratch() {
        let g = chain(12);
        let spec = DeviceSpec::xeon_e5_2680();
        let plan = FaultPlan::single(0, FaultKind::KillWorker);
        let config = cfg().with_fault_plan(plan.injector());
        let mut store = MemStore::new();
        let out = run_recoverable(&Sssp, &g, spec, &config, &mut store, false);
        for v in 0..12 {
            assert_eq!(out.values[v], v as f32);
        }
        assert_eq!(out.report.recovery.rollbacks, 1);
        assert_eq!(out.report.steps[0].step, 0);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_for_previous_valid_one() {
        let g = chain(20);
        let spec = DeviceSpec::xeon_e5_2680();
        let clean = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        // checkpoint_every=2 writes snapshot 4 during step 3 — corrupt it,
        // then kill a worker at step 5: recovery must reject snapshot 4 by
        // checksum and roll back to snapshot 2.
        let plan = FaultPlan::new()
            .with(3, FaultKind::CorruptCheckpoint, 0)
            .with(5, FaultKind::KillWorker, 0);
        let config = cfg().with_fault_plan(plan.injector());
        let mut store = MemStore::new();
        let out = run_recoverable(&Sssp, &g, spec, &config, &mut store, false);
        assert_eq!(out.values, clean.values);
        assert_eq!(out.report.recovery.corrupt_snapshots_rejected, 1);
        assert_eq!(out.report.recovery.rollbacks, 1);
        assert_eq!(out.report.recovery.faults_injected, 2);
    }

    #[test]
    fn degrades_to_sequential_after_retry_budget() {
        let g = chain(20);
        let spec = DeviceSpec::xeon_e5_2680();
        let clean = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        // Three distinct faults with a budget of one retry: the second
        // replay attempt's fault exhausts the budget mid-run.
        let plan = FaultPlan::new()
            .with(3, FaultKind::KillWorker, 0)
            .with(5, FaultKind::KillMover, 0)
            .with(7, FaultKind::PoisonInsert, 0);
        let config = cfg().with_fault_plan(plan.injector()).with_max_retries(1);
        let mut store = MemStore::new();
        let out = run_recoverable(&Sssp, &g, spec, &config, &mut store, false);
        assert_eq!(out.values, clean.values, "degraded run still correct");
        assert!(out.report.recovery.degraded);
        assert_eq!(out.report.recovery.retries, 1);
        assert!(out.report.summary().contains("DEGRADED->seq"));
        for w in out.report.steps.windows(2) {
            assert_eq!(w[1].step, w[0].step + 1);
        }
    }

    #[test]
    fn resume_continues_from_stored_snapshot() {
        let g = chain(12);
        let spec = DeviceSpec::xeon_e5_2680();
        let mut store = MemStore::new();
        // Phase 1: run the first 5 supersteps, checkpointing every step.
        let phase1 = EngineConfig::locking()
            .with_checkpoint_every(1)
            .with_max_supersteps(5);
        let _ = run_recoverable(&Sssp, &g, spec.clone(), &phase1, &mut store, false);
        assert!(store.list().contains(&5));
        // Phase 2: resume and finish.
        let out = run_recoverable(
            &Sssp,
            &g,
            spec,
            &EngineConfig::locking().with_checkpoint_every(1),
            &mut store,
            true,
        );
        assert_eq!(out.report.steps[0].step, 5, "resumed at the snapshot");
        for v in 0..12 {
            assert_eq!(out.values[v], v as f32);
        }
    }

    #[test]
    fn resume_rejects_snapshots_from_another_app() {
        let g = chain(6);
        let spec = DeviceSpec::xeon_e5_2680();
        let foreign = Snapshot {
            superstep: 4,
            app: "pagerank".to_string(),
            value_size: 4,
            values: vec![0u8; 6 * 4],
            active: vec![0u8; 6],
        };
        // A mismatched app snapshot, and one that does not decode at all,
        // is rejected; with nothing else stored the run starts fresh.
        for bytes in [foreign.encode(), b"junk".to_vec()] {
            let mut store = MemStore::new();
            store.save(4, &bytes).unwrap();
            let out = run_recoverable(
                &Sssp,
                &g,
                spec.clone(),
                &EngineConfig::locking().with_checkpoint_every(0),
                &mut store,
                true,
            );
            assert_eq!(out.report.steps[0].step, 0);
            assert_eq!(out.report.recovery.corrupt_snapshots_rejected, 1);
            for v in 0..6 {
                assert_eq!(out.values[v], v as f32);
            }
        }
    }

    #[test]
    fn pipelined_mode_recovers_too() {
        let g = chain(16);
        let spec = DeviceSpec::xeon_e5_2680();
        let clean = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        let plan = FaultPlan::single(4, FaultKind::KillMover);
        let config = EngineConfig::pipelined()
            .with_host_threads(4)
            .with_checkpoint_every(2)
            .with_backoff_ms(0)
            .with_fault_plan(plan.injector());
        let mut store = MemStore::new();
        let out = run_recoverable(&Sssp, &g, spec, &config, &mut store, false);
        assert_eq!(out.values, clean.values);
        assert_eq!(out.report.recovery.rollbacks, 1);
        assert_eq!(out.report.mode, "pipe");
    }

    #[test]
    fn replayed_step_that_matches_is_a_false_positive() {
        let g = chain(12);
        let spec = DeviceSpec::xeon_e5_2680();
        let clean = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        let config = cfg().with_integrity(phigraph_recover::IntegrityMode::Full);
        let mut store = MemStore::new();
        let out = run_recoverable(&Alarmed(3), &g, spec, &config, &mut store, false);
        assert_eq!(out.values, clean.values);
        let i = out.report.integrity;
        assert_eq!((i.audit_violations, i.step_replays), (1, 1));
        assert_eq!(i.false_positive_audits, 1);
        assert_eq!(out.report.recovery.rollbacks, 0);
    }

    #[test]
    fn replayed_step_that_differs_and_still_violates_rolls_back() {
        let g = chain(12);
        let spec = DeviceSpec::xeon_e5_2680();
        let clean = run_single(&Sssp, &g, spec.clone(), &EngineConfig::locking());
        // Below `full` the group audit is off, so a message flip at step 2
        // reaches the state. The app audit on the scrub step replays the
        // step, the clean replay differs and the alarm persists: rollback.
        // The rollback's replay of step 2 then matches, a false positive.
        let config = cfg()
            .with_integrity(phigraph_recover::IntegrityMode::Frames)
            .with_scrub_every(2)
            .with_fault_plan(FaultPlan::single(2, FaultKind::BitFlipMessage).injector());
        let mut store = MemStore::new();
        let out = run_recoverable(&Alarmed(2), &g, spec, &config, &mut store, false);
        assert_eq!(out.values, clean.values);
        let i = out.report.integrity;
        assert_eq!((i.audit_violations, i.step_replays), (2, 2));
        assert_eq!(i.false_positive_audits, 1);
        let r = out.report.recovery;
        assert_eq!((r.rollbacks, r.faults_injected), (1, 2), "{r:?}");
    }
}
