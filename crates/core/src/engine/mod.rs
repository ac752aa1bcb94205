//! Execution engines.
//!
//! The CSB drivers — [`run_single`] (locking and pipelined modes),
//! [`run_ranks`]/[`run_hetero`], [`run_ranks_failover`] and
//! [`run_recoverable`] — all launch the one rank loop (`engine/rank.rs`)
//! over a set of ranks: a single device is the one-rank case with no links,
//! and the last two share one rollback driver. The flat (`omp`) and
//! sequential engines and the object-message path ([`obj`]) are separate
//! engines with their own loops.

pub mod config;
pub mod device;
pub mod failover;
pub mod flat;
pub mod hetero;
pub mod integrity;
pub mod obj;
mod rank;
pub mod recover;
pub mod seq;

pub use config::{EngineConfig, ExecMode};
pub use device::DeviceEngine;
pub use failover::{run_hetero_failover, run_ranks_failover};
pub use flat::run_flat;
pub use hetero::{run_hetero, run_ranks};
pub use integrity::{framed_exchange, BarrierImage, IntegrityCtx};
pub use recover::run_recoverable;
pub use seq::{run_seq, run_seq_resume};

use crate::api::VertexProgram;
use crate::metrics::{RunOutput, RunReport};
use phigraph_comm::PcieLink;
use phigraph_device::DeviceSpec;
use phigraph_graph::Csr;
use rank::launch_plain;

/// Run `program` to completion on a single device with any execution mode.
///
/// # Re-entrancy
///
/// Every driver borrows the graph (`&Csr`) and allocates all mutable run
/// state — values, CSB arenas, queues, counters — per call, so any number
/// of runs may execute concurrently against one shared CSR (e.g. behind an
/// `Arc<Csr>`). The serving daemon in `phigraph-serve` relies on this:
/// one loaded graph, many concurrent per-tenant jobs.
///
/// # Cancellation
///
/// When [`EngineConfig::cancel`] holds a token, the drivers poll it at
/// superstep phase boundaries (including *inside* a superstep, between
/// generate/process/update) and stop cleanly at the first boundary after
/// it fires, returning the partial output computed so far. Each poll ticks
/// the token's embedded heartbeat, so a watchdog can distinguish a slow
/// run (heartbeat advancing) from a hung one.
pub fn run_single<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
) -> RunOutput<P::Value> {
    match config.mode {
        ExecMode::Flat => run_flat(program, graph, spec, config),
        ExecMode::Sequential => run_seq(program, graph, spec, config),
        ExecMode::Locking | ExecMode::Pipelined => {
            let out = launch_plain(
                program,
                graph,
                None,
                std::slice::from_ref(&spec),
                std::slice::from_ref(config),
                PcieLink::ideal(),
            )
            .pop()
            .expect("one rank");
            let report = RunReport {
                app: P::NAME.to_string(),
                device: spec.name.to_string(),
                mode: config.mode.name().to_string(),
                steps: out.steps,
                wall: out.wall,
                ..Default::default()
            };
            RunOutput {
                values: out.values,
                device_reports: vec![report.clone()],
                report,
            }
        }
    }
}
