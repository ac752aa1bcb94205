//! Heterogeneous N-rank execution (§IV.A / §IV.E, generalized).
//!
//! "The system is built using MPI symmetric computing, with CPU being Rank
//! 0, and MIC being Rank 1." [`run_ranks`] launches the one CSB rank loop
//! (`engine/rank.rs`) on every rank of an all-to-all link
//! mesh: between generation and processing each rank buckets its remote
//! buffer per destination rank, combines each bucket per destination, and
//! exchanges the combined payloads over its per-peer links in ascending
//! peer order. The classic 2-device CPU+MIC topology is the `N = 2` case
//! of this one code path, and a single device (`run_single`) is the
//! `N = 1` case with no links.

use crate::api::VertexProgram;
use crate::engine::config::EngineConfig;
use crate::engine::rank::{launch_plain, merge_owned};
use crate::metrics::{combine_ranks, RunOutput, RunReport};
use phigraph_comm::PcieLink;
use phigraph_device::DeviceSpec;
use phigraph_graph::Csr;
use phigraph_partition::DevicePartition;

/// Run `program` across `specs.len()` ranks. `specs`/`configs` are indexed
/// by rank (0 = CPU, 1.. = accelerators); `partition` assigns vertices.
///
/// # Panics
/// Panics if an injected fault stops a rank (a dropped exchange, a crash
/// or a hang) — install the fault plan under
/// [`run_ranks_failover`](crate::engine::run_ranks_failover) instead, which
/// rolls back, migrates and degrades.
pub fn run_ranks<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    partition: &DevicePartition,
    specs: &[DeviceSpec],
    configs: &[EngineConfig],
    link: PcieLink,
) -> RunOutput<P::Value> {
    assert_eq!(partition.assign.len(), graph.num_vertices());
    assert!(specs.len() >= 2, "heterogeneous runs need at least 2 ranks");
    assert_eq!(specs.len(), configs.len(), "one config per rank");
    let assign = &partition.assign;
    let outs = launch_plain(program, graph, Some(assign), specs, configs, link);
    let mut values = Vec::with_capacity(outs.len());
    let mut reports = Vec::with_capacity(outs.len());
    for (r, o) in outs.into_iter().enumerate() {
        values.push((r, o.values));
        reports.push(RunReport {
            app: P::NAME.to_string(),
            device: specs[r].name.to_string(),
            mode: "cpu-mic".to_string(),
            steps: o.steps,
            wall: o.wall,
            integrity: o.integ,
            ..Default::default()
        });
    }
    RunOutput {
        values: merge_owned(values, assign),
        report: combine_ranks(P::NAME, &reports),
        device_reports: reports,
    }
}

/// Run `program` across both devices of the classic CPU+MIC pair — the
/// `N = 2` case of [`run_ranks`].
///
/// # Panics
/// Panics if an injected fault stops a rank — install the fault plan under
/// [`run_hetero_failover`](crate::engine::run_hetero_failover) instead.
pub fn run_hetero<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    partition: &DevicePartition,
    specs: [DeviceSpec; 2],
    configs: [EngineConfig; 2],
    link: PcieLink,
) -> RunOutput<P::Value> {
    run_ranks(program, graph, partition, &specs, &configs, link)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{GenContext, MsgSink};
    use crate::engine::run_single;
    use phigraph_graph::generators::small::chain;
    use phigraph_graph::VertexId;
    use phigraph_partition::{partition, partition_n, PartitionScheme, Ratio, Shares};
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

    #[test]
    fn hetero_matches_single_device_on_chain() {
        let g = chain(40);
        let p = partition(&g, PartitionScheme::RoundRobin, Ratio::even(), 0);
        let out = run_hetero(
            &Sssp,
            &g,
            &p,
            [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()],
            [
                EngineConfig::locking(),
                EngineConfig::pipelined().with_host_threads(4),
            ],
            PcieLink::gen2_x16(),
        );
        let single = run_single(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        assert_eq!(out.values, single.values);
        assert_eq!(out.report.device, "CPU-MIC");
        // Round-robin on a chain: every edge crosses devices.
        assert!(out.report.sim_comm() > 0.0);
        assert!(out.report.total_comm_bytes() > 0);
    }

    #[test]
    fn three_and_four_rank_fabrics_match_single_device() {
        let g = chain(40);
        let single = run_single(
            &Sssp,
            &g,
            DeviceSpec::xeon_e5_2680(),
            &EngineConfig::locking(),
        );
        for n in [3usize, 4] {
            let p = partition_n(&g, PartitionScheme::RoundRobin, &Shares::even(n), 0);
            let specs: Vec<DeviceSpec> = (0..n)
                .map(|r| {
                    if r == 0 {
                        DeviceSpec::xeon_e5_2680()
                    } else {
                        DeviceSpec::xeon_phi_se10p()
                    }
                })
                .collect();
            let configs = vec![EngineConfig::locking(); n];
            let out = run_ranks(&Sssp, &g, &p, &specs, &configs, PcieLink::gen2_x16());
            assert_eq!(out.values, single.values, "{n} ranks");
            assert_eq!(out.device_reports.len(), n);
            assert_eq!(out.report.device, format!("CPU-MICx{}", n - 1));
            assert!(out.report.total_comm_bytes() > 0, "{n} ranks");
        }
    }

    #[test]
    fn recovering_driver_without_faults_is_plain_hetero() {
        use crate::engine::run_hetero_failover;
        use phigraph_recover::{FailoverConfig, MemStore};
        let g = chain(24);
        let p = partition(&g, PartitionScheme::Continuous, Ratio::even(), 0);
        let specs = [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()];
        let configs = [EngineConfig::locking(), EngineConfig::locking()];
        let plain = run_hetero(
            &Sssp,
            &g,
            &p,
            specs.clone(),
            configs.clone(),
            PcieLink::ideal(),
        );
        let (mut s0, mut s1) = (MemStore::new(), MemStore::new());
        let out = run_hetero_failover(
            &Sssp,
            &g,
            &p,
            specs,
            configs,
            PcieLink::ideal(),
            &FailoverConfig::default(),
            [&mut s0, &mut s1],
            false,
        );
        assert_eq!(out.values, plain.values);
        // The failover driver checkpoints every run; nothing else may fire.
        let r = &out.report.recovery;
        assert_eq!((r.rollbacks, r.retries, r.faults_injected), (0, 0, 0));
        assert!(!r.degraded);
        assert!(!out.report.failover.any());
    }

    #[test]
    fn hetero_reports_per_device() {
        let g = chain(20);
        let p = partition(&g, PartitionScheme::Continuous, Ratio::even(), 0);
        let out = run_hetero(
            &Sssp,
            &g,
            &p,
            [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()],
            [EngineConfig::locking(), EngineConfig::locking()],
            PcieLink::gen2_x16(),
        );
        assert_eq!(out.device_reports.len(), 2);
        // Continuous split of a chain: exactly one cross edge, so exactly
        // one remote message crosses in one superstep of the whole run.
        let total_remote: u64 = out.device_reports[0]
            .steps
            .iter()
            .chain(&out.device_reports[1].steps)
            .map(|s| s.counters.remote_after_combine)
            .sum();
        assert_eq!(total_remote, 1);
    }

    #[test]
    #[should_panic(expected = "run_ranks_failover")]
    fn dropped_exchange_without_failover_panics_naming_the_failover_driver() {
        use phigraph_recover::{FaultKind, FaultPlan};
        let g = chain(30);
        let p = partition(&g, PartitionScheme::RoundRobin, Ratio::even(), 0);
        let inj = FaultPlan::single(2, FaultKind::DropExchange).injector();
        run_hetero(
            &Sssp,
            &g,
            &p,
            [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()],
            [
                EngineConfig::locking().with_fault_plan(inj.clone()),
                EngineConfig::locking().with_fault_plan(inj),
            ],
            PcieLink::gen2_x16(),
        );
    }
}
