//! Benchmark-owned superstep loops that time each layer from outside.
//!
//! [`single_rank`] drives one `DeviceEngine` through the same calls, in the
//! same order, as `run_single` does for the locking and pipelined modes;
//! [`two_rank`] drives two engines, the message combiner and the exchange
//! endpoints the way `run_ranks` does. Each public layer call is wrapped in
//! an `Instant` pair, so the engine itself carries no extra timers. Both
//! loops return the final values, so their checksums can be compared with
//! the untraced drivers' (parity).

use phigraph_comm::message::wire_bytes;
use phigraph_comm::{combine_messages, mesh, PcieLink, WireMsg};
use phigraph_core::engine::{DeviceEngine, EngineConfig};
use phigraph_core::VertexProgram;
use phigraph_device::cost::PhaseTimes;
use phigraph_device::{CostModel, DeviceSpec, StepCounters};
use phigraph_graph::Csr;
use phigraph_partition::DevicePartition;
use phigraph_simd::MsgValue;
use std::time::Instant;

/// Per-layer wall times and counters of one traced single-rank run.
#[derive(Clone, Debug, Default)]
pub struct SingleTrace {
    /// Wall of the whole loop, engine construction included.
    pub wall: f64,
    /// `DeviceEngine::new`.
    pub new_s: f64,
    /// `begin_step`, summed over supersteps.
    pub begin_s: f64,
    /// `generate` plus `finalize_insertion_stats`.
    pub generate_s: f64,
    /// `process`.
    pub process_s: f64,
    /// `update`.
    pub update_s: f64,
    /// Wall of each superstep.
    pub step_walls: Vec<f64>,
    /// Messages generated.
    pub msgs: u64,
    /// Reduced rows and the messages in them, with the lane count, for
    /// the CSB lane fill.
    pub proc_rows: u64,
    pub proc_msgs: u64,
    pub lanes: u64,
    /// CSB cells reset by `begin_step`.
    pub reset_cells: u64,
    /// Pipelined transport: batches flushed, messages in them, full-queue
    /// spins and empty mover polls.
    pub flush_batches: u64,
    pub batched_msgs: u64,
    pub full_spins: u64,
    pub idle_polls: u64,
}

impl SingleTrace {
    /// Loop wall not spent inside a timed layer call.
    pub fn glue_s(&self) -> f64 {
        self.wall - self.new_s - self.begin_s - self.generate_s - self.process_s - self.update_s
    }
}

/// Superstep cap as the engines compute it.
fn cap(program_cap: Option<usize>, config_cap: Option<usize>) -> usize {
    match (program_cap, config_cap) {
        (Some(a), Some(b)) => a.min(b),
        (a, b) => a.or(b).unwrap_or(usize::MAX),
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The drivers price every superstep with the cost model and keep its
/// counters in the run report; doing the same keeps the loops' glue and
/// memory footprint equal to theirs.
fn keep_step(kept: &mut Vec<(PhaseTimes, StepCounters)>, times: PhaseTimes, mut c: StepCounters) {
    c.gen_chunks.clear();
    c.proc_chunks.clear();
    kept.push((times, c));
}

/// Run `program` to completion on one device, timing each layer call.
pub fn single_rank<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    spec: DeviceSpec,
    config: &EngineConfig,
) -> (Vec<P::Value>, SingleTrace) {
    let mut tr = SingleTrace::default();
    let loop_start = Instant::now();
    let cost = CostModel::new(spec.clone());
    let t = Instant::now();
    let mut engine = DeviceEngine::new(program, graph, spec.clone(), config.clone(), 0, None);
    tr.new_s = secs(t);
    tr.lanes = engine.layout().lanes as u64;
    let vectorized = config.vectorized && P::SIMD_REDUCIBLE;
    let mut kept = Vec::new();
    for _ in 0..cap(program.max_supersteps(), config.max_supersteps) {
        let step_start = Instant::now();
        let t = Instant::now();
        let mut c = engine.begin_step();
        tr.begin_s += secs(t);
        let t = Instant::now();
        let remote = engine.generate(&mut c);
        engine.finalize_insertion_stats(&mut c);
        tr.generate_s += secs(t);
        assert!(
            remote.is_empty(),
            "single-rank run produced remote messages"
        );
        let t = Instant::now();
        engine.process(&mut c);
        tr.process_s += secs(t);
        let t = Instant::now();
        engine.update(&mut c);
        tr.update_s += secs(t);
        let msgs = c.msgs_total();
        tr.msgs += msgs;
        tr.proc_rows += c.proc_rows;
        tr.proc_msgs += c.proc_msgs;
        tr.reset_cells += c.reset_cells;
        tr.flush_batches += c.flush_batches;
        tr.batched_msgs += c.batched_msgs;
        tr.full_spins += c.queue_full_spins;
        tr.idle_polls += c.mover_idle_polls;
        let times = cost.step_times(&c, config.gen_mode(&spec), P::Msg::SIZE, vectorized);
        keep_step(&mut kept, times, c);
        tr.step_walls.push(secs(step_start));
        if msgs == 0 {
            break;
        }
    }
    tr.wall = secs(loop_start);
    (engine.values, tr)
}

/// Per-layer wall times and counters of one traced two-rank run. Times
/// are summed over supersteps; where both ranks do the work in parallel,
/// the step's slower rank counts.
#[derive(Clone, Debug, Default)]
pub struct FabricTrace {
    /// Wall of the whole run, engine construction included.
    pub wall: f64,
    /// Bucketing and per-destination combining of the remote buffer.
    pub combine_s: f64,
    /// Exchange calls, excluding the wait for the slower rank.
    pub exchange_s: f64,
    /// Inserting received messages (`absorb_remote`).
    pub absorb_s: f64,
    /// Idle gap of the rank that reached the exchange first.
    pub wait_s: f64,
    /// Remote messages before and after combining.
    pub remote_before: u64,
    pub remote_after: u64,
    /// Bytes that crossed the link, both directions.
    pub bytes: u64,
}

/// One rank's record of one superstep.
#[derive(Clone, Copy, Default)]
struct RankStep {
    /// Seconds since the run's origin when the rank reached the exchange.
    arrive: f64,
    combine: f64,
    exchange: f64,
    absorb: f64,
    before: u64,
    after: u64,
    bytes: u64,
}

/// Run `program` across two ranks, timing the combine, exchange and absorb
/// layers.
pub fn two_rank<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    partition: &DevicePartition,
    specs: &[DeviceSpec; 2],
    configs: &[EngineConfig; 2],
    link: PcieLink,
) -> (Vec<P::Value>, FabricTrace) {
    let origin = Instant::now();
    let cap = cap(
        program.max_supersteps(),
        configs.iter().filter_map(|c| c.max_supersteps).min(),
    );
    let assign = &partition.assign[..];
    let sides = mesh::<WireMsg<P::Msg>>(link, &[0, 1]);
    let outs: Vec<(Vec<P::Value>, Vec<RankStep>)> = std::thread::scope(|s| {
        let handles: Vec<_> = sides
            .into_iter()
            .enumerate()
            .map(|(rank, eps)| {
                let (spec, config) = (specs[rank].clone(), configs[rank].clone());
                s.spawn(move || {
                    let dev = rank as u8;
                    let cost = CostModel::new(spec.clone());
                    let mut engine = DeviceEngine::new(
                        program,
                        graph,
                        spec.clone(),
                        config.clone(),
                        dev,
                        Some(assign),
                    );
                    let vectorized = config.vectorized && P::SIMD_REDUCIBLE;
                    let ep = &eps[0];
                    let mut steps = Vec::new();
                    let mut kept = Vec::new();
                    for _ in 0..cap {
                        let mut rs = RankStep::default();
                        let mut c = engine.begin_step();
                        let remote = engine.generate(&mut c);
                        let t = Instant::now();
                        rs.before = remote.len() as u64;
                        // One peer, so one bucket: the copy `run_ranks`
                        // makes when it buckets by destination rank.
                        let mut bucket: Vec<WireMsg<P::Msg>> = Vec::new();
                        for m in remote {
                            bucket.push(m);
                        }
                        let (combined, _) = combine_messages::<P::Msg, P::Reduce>(bucket);
                        rs.after = combined.len() as u64;
                        rs.combine = secs(t);
                        let my_any = c.msgs_total() > 0;
                        let bytes_out = wire_bytes::<P::Msg>(combined.len());
                        let t = Instant::now();
                        rs.arrive = t.duration_since(origin).as_secs_f64();
                        let (incoming, peer_any, x) = ep.exchange(combined, bytes_out, my_any);
                        rs.exchange = secs(t);
                        rs.bytes = x.bytes_sent + x.bytes_recv;
                        let t = Instant::now();
                        engine.absorb_remote(&incoming, &mut c);
                        engine.finalize_insertion_stats(&mut c);
                        rs.absorb = secs(t);
                        engine.process(&mut c);
                        engine.update(&mut c);
                        let times =
                            cost.step_times(&c, config.gen_mode(&spec), P::Msg::SIZE, vectorized);
                        keep_step(&mut kept, times, c);
                        steps.push(rs);
                        if !my_any && !peer_any {
                            break;
                        }
                    }
                    (engine.values, steps)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank loop panicked"))
            .collect()
    });
    let wall = secs(origin);

    let mut outs = outs.into_iter();
    let (mut values, steps0) = outs.next().expect("rank 0 output");
    let (values1, steps1) = outs.next().expect("rank 1 output");
    for (v, val) in values1.into_iter().enumerate() {
        if assign[v] == 1 {
            values[v] = val;
        }
    }
    let mut tr = FabricTrace {
        wall,
        ..Default::default()
    };
    for (a, b) in steps0.iter().zip(&steps1) {
        let gap = (a.arrive - b.arrive).abs();
        tr.combine_s += a.combine.max(b.combine);
        tr.absorb_s += a.absorb.max(b.absorb);
        // The rank that arrived first spends the gap waiting inside its
        // exchange call; the later rank's call is the handoff itself.
        tr.exchange_s += if a.arrive <= b.arrive {
            b.exchange
        } else {
            a.exchange
        };
        tr.wait_s += gap;
        tr.remote_before += a.before + b.before;
        tr.remote_after += a.after + b.after;
        tr.bytes += a.bytes;
    }
    (values, tr)
}
