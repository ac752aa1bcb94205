//! The rollback driver over 1..N ranks, and live failover for the fabric.
//!
//! The driver launches the one CSB rank loop (`engine/rank.rs`) with a
//! [`Barrier`] over one snapshot store per rank and acts on how the launch
//! ended. `run_recoverable` is its one-rank launch (no links, no failover
//! config). [`run_ranks_failover`] launches the live membership with a
//! deadline and a watchdog:
//!
//! * **Liveness**: each rank ticks a [`Heartbeat`] at every phase
//!   boundary, a watchdog thread polls those beacons against the configured
//!   deadline, and every per-link exchange carries a timeout — nothing in
//!   this driver blocks unboundedly.
//! * **Detection**: a crashed rank tears all its link endpoints down (every
//!   peer sees `PeerDead` immediately); a hung rank keeps its channels
//!   alive but goes silent (peers see a timeout after the deadline, and the
//!   watchdog records the detection latency).
//! * **Eviction & migration** (the default policy): the failed ranks are
//!   evicted from the membership at the failure barrier `s*`. With one
//!   survivor left, the driver relaunches the rank loop over the *old*
//!   membership and assignment, faults disarmed, and replays to completion
//!   — every engine reduces in its original order, so the result is
//!   bit-identical by construction, including order-sensitive `f32`
//!   combiners. With two or more survivors, the driver reconstructs the
//!   exact barrier state at `s*` (the same relaunch, stopped at `s*`, when
//!   the newest common snapshot is older), re-splits the dead ranks'
//!   partition over the survivors proportionally to their shares, and
//!   continues live — so a second (or third) failure later in the run
//!   cascades through the same machinery onto any survivor subset.
//! * **Verdict sync on link partitions**: when a *link* dies but both of
//!   its ends are alive, exactly one deterministic side — the higher rank —
//!   is evicted, so survivors re-anchor on the smallest live rank instead
//!   of splitting into two mutually-suspicious halves.
//! * **Rebalancing**: a rank that merely *slows down* (a straggler, not a
//!   corpse) is detected from the per-superstep simulated step times every
//!   rank piggybacks on every exchange; after `rebalance_after` consecutive
//!   lopsided barriers all ranks leave the loop at the same barrier and the
//!   live ranks' shares are re-derived proportionally to the observed
//!   throughputs.
//! * **Rollback**: a dropped exchange or a fault exit rolls every rank back
//!   to the newest common valid snapshot, under the retry budget with
//!   backoff; past it the sequential engine finishes the run.
//!   [`FailoverPolicy::Retry`] applies the same rollback to a lost rank.
//!
//! [`run_hetero_failover`] is the N = 2 form of [`run_ranks_failover`].
//!
//! [`Heartbeat`]: phigraph_device::Heartbeat

use crate::api::VertexProgram;
use crate::engine::config::EngineConfig;
use crate::engine::device::DeviceEngine;
use crate::engine::integrity::BarrierImage;
use crate::engine::rank::{
    agreed_cap, launch, merge_owned, Barrier, Exit, Launch, LoopOut, ResumePair,
};
use crate::engine::seq::run_seq_resume;
use crate::metrics::{combine_ranks, RunOutput, RunReport, StepReport};
use phigraph_comm::PcieLink;
use phigraph_device::{DeviceSpec, StepCounters};
use phigraph_graph::state::{decode_state_slice, encode_state_slice, PodState};
use phigraph_graph::Csr;
use phigraph_partition::{partition_n, DevicePartition, Shares};
use phigraph_recover::{
    CheckpointStore, FailoverConfig, FailoverPolicy, FailoverStats, FaultKind, IntegrityStats,
    RecoveryStats, Snapshot,
};
use phigraph_trace::{Phase, ThreadTracer};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seed for straggler-driven re-partitioning (matches the CLI default).
const REBALANCE_SEED: u64 = 7;

type MergedState<V> = (usize, Vec<V>, Vec<u8>);

/// The encoded snapshot of the barrier state superstep `step` starts from.
fn snapshot_bytes<P: VertexProgram>(step: usize, values: &[P::Value], flags: &[u8]) -> Vec<u8>
where
    P::Value: PodState,
{
    Snapshot {
        superstep: step as u64,
        app: P::NAME.to_string(),
        value_size: P::Value::STATE_SIZE as u16,
        values: encode_state_slice(values),
        active: flags.to_vec(),
    }
    .encode()
}

/// The driver's [`Barrier`]: each rank writes into its own store, and the
/// integrity layers read state through [`PodState`].
struct RankStores<'s>(Vec<Mutex<&'s mut dyn CheckpointStore>>);

impl<P: VertexProgram> Barrier<P> for RankStores<'_>
where
    P::Value: PodState,
{
    /// Save one rank's snapshot into its store, honoring the keep window
    /// and the `CorruptCheckpoint` site of the engine's own config. The
    /// fault flips payload bytes *after* encoding (the write path breaks,
    /// not the engine), so only the checksum finds it on the way back. A
    /// failed save is not fatal: the previous snapshot still protects.
    fn checkpoint(&self, rank: usize, e: &DeviceEngine<'_, P>, step: usize, c: &mut StepCounters) {
        let mut bytes = snapshot_bytes::<P>(step + 1, &e.values, e.active_flags());
        let plan = e.config.fault_plan.as_ref();
        if plan.is_some_and(|i| i.fire(step as u64, FaultKind::CorruptCheckpoint, rank as u8)) {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            let last = bytes.len() - 1;
            bytes[last] ^= 0xAA;
            c.faults_injected += 1;
        }
        let keep = e.config.recovery.keep_snapshots;
        let mut s = self.0[rank].lock().expect("checkpoint store poisoned");
        if s.save(step as u64 + 1, &bytes).is_ok() {
            c.checkpoints_written += 1;
            c.checkpoint_bytes += bytes.len() as u64;
            if keep > 0 {
                let _ = s.retain_newest(keep);
            }
        }
    }

    fn capture(&self, e: &DeviceEngine<'_, P>) -> BarrierImage<P::Value> {
        BarrierImage::capture(e)
    }

    fn audit_state(&self, img: &BarrierImage<P::Value>, e: &DeviceEngine<'_, P>) -> Vec<usize> {
        img.audit_state(e)
    }

    fn flip_state_bit(&self, e: &mut DeviceEngine<'_, P>, seed: u64) -> bool {
        e.flip_state_bit(seed).is_some()
    }

    fn encode(&self, values: &[P::Value]) -> Vec<u8> {
        encode_state_slice(values)
    }
}

/// Load the newest barrier state valid in *every* `membership` rank's
/// store, merged by `assign`. Corrupt or mismatched snapshots are skipped
/// (counted into `rstats`) in favor of an older common barrier.
fn load_merged<P: VertexProgram>(
    stores: &[Mutex<&mut dyn CheckpointStore>],
    membership: &[usize],
    assign: &[u8],
    rstats: &mut RecoveryStats,
) -> Option<MergedState<P::Value>>
where
    P::Value: PodState,
{
    let n = assign.len();
    let lists: Vec<Vec<u64>> = membership
        .iter()
        .map(|&r| stores[r].lock().expect("checkpoint store poisoned").list())
        .collect();
    let common = lists[0]
        .iter()
        .filter(|s| lists.iter().all(|l| l.contains(s)));
    'barrier: for &k in common.rev() {
        let mut vals = Vec::with_capacity(membership.len());
        let mut flags = Vec::with_capacity(membership.len());
        for &r in membership {
            let bytes = stores[r].lock().expect("checkpoint store poisoned").load(k);
            let Some(s) = bytes.ok().and_then(|b| Snapshot::decode(&b).ok()) else {
                rstats.corrupt_snapshots_rejected += 1;
                continue 'barrier;
            };
            let valid = s.app == P::NAME
                && s.value_size as usize == P::Value::STATE_SIZE
                && s.active.len() == n
                && s.superstep == k;
            let decoded = decode_state_slice::<P::Value>(&s.values, n).filter(|_| valid);
            let Some(v) = decoded else {
                rstats.corrupt_snapshots_rejected += 1;
                continue 'barrier;
            };
            vals.push((r, v));
            flags.push((r, s.active));
        }
        return Some((
            k as usize,
            merge_owned(vals, assign),
            merge_owned(flags, assign),
        ));
    }
    None
}

/// Clear the `membership` ranks' stores and save `state` as the single
/// barrier snapshot in each (used after a rebalance or an eviction, when
/// older snapshots were written under a now-stale assignment). With no
/// state (a failure before the first snapshot) the stores stay empty.
fn reset_stores_with<P: VertexProgram>(
    stores: &[Mutex<&mut dyn CheckpointStore>],
    membership: &[usize],
    step: usize,
    state: Option<&(Vec<P::Value>, Vec<u8>)>,
) where
    P::Value: PodState,
{
    let bytes = state.map(|(values, flags)| snapshot_bytes::<P>(step, values, flags));
    for &r in membership {
        let mut s = stores[r].lock().expect("checkpoint store poisoned");
        for k in s.list() {
            let _ = s.remove(k);
        }
        if let Some(b) = &bytes {
            let _ = s.save(step as u64, b);
        }
    }
}

/// Fold one launch into the driver's state: each rank's step reports
/// replace its reports from `from` on, and the values and active flags are
/// merged by `assign`. Integrity counters, injected faults and checkpoint
/// writes are counted for every step the launch ran, including steps a
/// later rollback discards.
fn splice<P: VertexProgram>(
    outs: Vec<LoopOut<P>>,
    ranks: &[usize],
    from: usize,
    assign: &[u8],
    dev_steps: &mut [Vec<StepReport>],
    istats: &mut IntegrityStats,
    rstats: &mut RecoveryStats,
) -> (Vec<P::Value>, Vec<u8>) {
    let mut vals = Vec::with_capacity(outs.len());
    let mut flags = Vec::with_capacity(outs.len());
    for (o, &r) in outs.into_iter().zip(ranks) {
        istats.accumulate(&o.integ);
        rstats.faults_injected += o.faults;
        for s in &o.steps {
            rstats.checkpoints_written += s.counters.checkpoints_written;
            rstats.checkpoint_bytes += s.counters.checkpoint_bytes;
        }
        dev_steps[r].retain(|s| s.step < from);
        dev_steps[r].extend(o.steps);
        vals.push((r, o.values));
        flags.push((r, o.flags));
    }
    (merge_owned(vals, assign), merge_owned(flags, assign))
}

/// Run `program` across an N-rank device fabric with live failover.
///
/// Behaves exactly like [`run_ranks`] when nothing fails. Each rank writes
/// barrier snapshots into its own `stores` slot at the
/// `configs[0].recovery.checkpoint_every` cadence. On a detected rank loss
/// the driver applies `fcfg.policy`: under `Migrate` the dead ranks are
/// evicted and their partition re-split over the survivors (a lone
/// survivor replays everything in lockstep; two or more survivors
/// reconstruct the failure barrier and continue live, so later failures
/// cascade onto any survivor subset). A severed link evicts its higher
/// end. A dropped exchange rolls every rank back to the newest common
/// snapshot, and a detected straggler rebalances the live shares once.
/// With `resume = true` the run starts from the newest snapshot common to
/// all stores.
///
/// All liveness events land in the combined report's
/// [`RunReport::failover`] and per-step counters; rollback/degradation
/// accounting stays in [`RunReport::recovery`].
///
/// [`run_ranks`]: crate::engine::hetero::run_ranks
#[allow(clippy::too_many_arguments)]
pub fn run_ranks_failover<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    partition_in: &DevicePartition,
    specs: &[DeviceSpec],
    configs: &[EngineConfig],
    link: PcieLink,
    fcfg: &FailoverConfig,
    stores: Vec<&mut dyn CheckpointStore>,
    resume: bool,
) -> RunOutput<P::Value>
where
    P::Value: PodState,
{
    assert!(specs.len() >= 2, "a rank fabric needs at least two devices");
    run_rollback(
        program,
        graph,
        partition_in,
        specs,
        configs,
        link,
        Some(fcfg),
        stores,
        resume,
    )
}

/// The one rollback driver, over 1..N ranks. It launches the rank loop
/// with a [`Barrier`] over `stores` and acts on how the launch ended:
/// rank losses by `fcfg`'s policy, dropped exchanges and fault exits by a
/// rollback under the retry budget, a straggler by a rebalance, and a
/// spent budget by the sequential engine. Without `fcfg` (a single
/// device) there is no deadline, no watchdog and no straggler detection,
/// and a lost rank is rolled back like any other transient fault.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rollback<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    partition_in: &DevicePartition,
    specs: &[DeviceSpec],
    configs: &[EngineConfig],
    link: PcieLink,
    fcfg: Option<&FailoverConfig>,
    stores: Vec<&mut dyn CheckpointStore>,
    resume: bool,
) -> RunOutput<P::Value>
where
    P::Value: PodState,
{
    let n = specs.len();
    assert_eq!(configs.len(), n, "one config per rank");
    assert_eq!(stores.len(), n, "one checkpoint store per rank");
    assert_eq!(partition_in.assign.len(), graph.num_vertices());
    assert!(
        partition_in.assign.iter().all(|&d| (d as usize) < n),
        "partition names a rank outside the fabric"
    );
    let policy = configs[0].recovery;
    let cap = agreed_cap(program, configs);
    let stores = RankStores(stores.into_iter().map(Mutex::new).collect());
    let barrier: &dyn Barrier<P> = &stores;
    let stores = &stores.0;
    // Migration replays relaunch the rank loop with every fault disarmed.
    let disarmed: Vec<EngineConfig> = configs
        .iter()
        .map(|c| EngineConfig {
            fault_plan: None,
            ..c.clone()
        })
        .collect();

    let mut fstats = FailoverStats::default();
    let mut rstats = RecoveryStats::default();
    let mut istats = IntegrityStats::default();
    let mut part = partition_in.clone();
    let mut live: Vec<usize> = (0..n).collect();
    let mut dev_steps: Vec<Vec<StepReport>> = vec![Vec::new(); n];
    let mut start_step = 0usize;
    let mut resume_state: ResumePair<P::Value> = None;
    let mut slowed = vec![false; n];
    let mut rebalance_enabled = true;
    let mut retry = 0u32;
    let mut last_resume: Option<usize> = None;
    // Driver-thread track: migrations and rebalances happen here, outside
    // any rank loop (and only under a failover config).
    let drv_tracer = fcfg.map_or_else(ThreadTracer::disabled, |_| configs[0].tracer("driver", 900));
    let wall_start = Instant::now();

    if resume {
        if let Some((k, vals, flags)) = load_merged::<P>(stores, &live, &part.assign, &mut rstats) {
            start_step = k;
            resume_state = Some((vals, flags));
        }
    }

    // Assemble the final output from per-rank step report vecs (ragged
    // after evictions: an evicted rank's reports simply stop at its
    // eviction barrier). A single device reports under its own mode.
    let finish = |dev_steps: Vec<Vec<StepReport>>,
                  values: Vec<P::Value>,
                  rstats: RecoveryStats,
                  mut fstats: FailoverStats,
                  istats: IntegrityStats,
                  last_resume: Option<usize>,
                  wall: f64|
     -> RunOutput<P::Value> {
        let total = dev_steps
            .iter()
            .filter_map(|s| s.last())
            .map(|s| s.step as u64 + 1)
            .max()
            .unwrap_or(0);
        fstats.supersteps_total = total;
        if let Some(k) = last_resume {
            fstats.resume_step = k as u64;
            fstats.supersteps_replayed = total.saturating_sub(k as u64);
        }
        let own = configs[0].mode.name();
        let mode = if n > 1 { "cpu-mic" } else { own };
        let reports: Vec<RunReport> = dev_steps
            .into_iter()
            .enumerate()
            .map(|(r, steps)| RunReport {
                app: P::NAME.to_string(),
                device: specs[r].name.to_string(),
                mode: mode.to_string(),
                steps,
                wall,
                ..Default::default()
            })
            .collect();
        let mut report = match &reports[..] {
            [one] => one.clone(),
            _ => combine_ranks(P::NAME, &reports),
        };
        report.recovery = rstats;
        report.failover = fstats;
        report.integrity = istats;
        RunOutput {
            values,
            report,
            device_reports: reports,
        }
    };

    // Degrade to the sequential engine on one rank from the last barrier.
    macro_rules! degrade_seq {
        ($survivor:expr) => {{
            rstats.degraded = true;
            fstats.degraded_single = true;
            let merged = load_merged::<P>(stores, &live, &part.assign, &mut rstats);
            if let Some((k, _, _)) = &merged {
                last_resume = Some(*k);
            }
            let sd: usize = $survivor;
            let mut out = run_seq_resume(program, graph, specs[sd].clone(), &configs[sd], merged);
            fstats.supersteps_total = out.report.steps.last().map_or(0, |s| s.step as u64 + 1);
            if let Some(k) = last_resume {
                fstats.resume_step = k as u64;
                fstats.supersteps_replayed = fstats.supersteps_total.saturating_sub(k as u64);
            }
            out.report.recovery = rstats;
            out.report.failover = fstats;
            out.report.integrity.accumulate(&istats);
            return out;
        }};
    }

    // Transient-fault model: roll every rank back to the newest common
    // barrier and retry in lock-step with the membership unchanged, or
    // degrade to `$survivor` once the retry budget is spent.
    macro_rules! roll_back {
        ($survivor:expr) => {{
            rstats.rollbacks += 1;
            if retry >= policy.max_retries {
                degrade_seq!($survivor);
            }
            retry += 1;
            rstats.retries += 1;
            let backoff = policy.backoff_ms(retry - 1);
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
            let (k, state) = match load_merged::<P>(stores, &live, &part.assign, &mut rstats) {
                Some((k, vals, flags)) => (k, Some((vals, flags))),
                None => (0, None),
            };
            start_step = k;
            resume_state = state;
            last_resume = Some(k);
            continue;
        }};
    }

    loop {
        let outs = launch(
            &Launch {
                program,
                graph,
                // One rank owns every vertex: its engine needs no owner map.
                assign: (n > 1).then_some(&part.assign[..]),
                ranks: &live,
                specs,
                configs,
                link,
                cap,
                start_step,
                barrier: Some(barrier),
                fcfg,
                rebalance: rebalance_enabled,
                slowed: &slowed,
            },
            resume_state.take(),
        );
        let exits: Vec<Exit> = outs.iter().map(|o| o.exit).collect();
        let mut sim_adv: Vec<f64> = Vec::with_capacity(outs.len());
        for (o, &r) in outs.iter().zip(&live) {
            slowed[r] = o.slowed;
            sim_adv.push(o.sim_adv_total);
            if let Some(lat) = o.detect_ms {
                fstats.watchdog_latency_ms = fstats.watchdog_latency_ms.max(lat);
            }
        }
        let (values, flags) = splice(
            outs,
            &live,
            start_step,
            &part.assign,
            &mut dev_steps,
            &mut istats,
            &mut rstats,
        );

        // Eviction verdict: self-reported crash/hang exits mark their rank
        // lost; otherwise a reported link partition evicts exactly its
        // higher end (verdict sync — survivors re-anchor on the smallest
        // live rank). `PeerDead`/`PeerTimeout` observations from healthy
        // ranks never evict anyone on their own.
        let lost: Vec<usize> = exits
            .iter()
            .zip(&live)
            .filter(|(e, _)| e.lost())
            .map(|(_, &r)| r)
            .collect();
        let linkpart = exits.iter().find_map(|e| match e {
            Exit::LinkPartitioned(s, _, hi) => Some((*s, *hi as usize)),
            _ => None,
        });
        let evict: Option<(Vec<usize>, usize)> = if !lost.is_empty() {
            let mut s_star = usize::MAX;
            for e in &exits {
                match e {
                    Exit::Crashed(s) => {
                        fstats.crash_detections += 1;
                        rstats.faults_injected += 1;
                        s_star = s_star.min(*s);
                    }
                    Exit::Hung(s) => {
                        fstats.hang_detections += 1;
                        rstats.faults_injected += 1;
                        s_star = s_star.min(*s);
                    }
                    Exit::PeerTimeout(..) => fstats.exchange_timeouts += 1,
                    _ => {}
                }
            }
            Some((lost, s_star))
        } else if let Some((s, hi)) = linkpart {
            fstats.link_partitions += 1;
            rstats.faults_injected += 1;
            Some((vec![hi], s))
        } else {
            None
        };

        if let Some((evict_set, s_star)) = evict {
            let survivors: Vec<usize> = live
                .iter()
                .copied()
                .filter(|r| !evict_set.contains(r))
                .collect();
            // With every rank gone there is nothing to migrate onto; the
            // sequential engine takes over from the last barrier.
            let survivor = survivors.first().copied().unwrap_or(live[0]);
            match fcfg.map_or(FailoverPolicy::Retry, |f| f.policy) {
                FailoverPolicy::Migrate if !survivors.is_empty() => {
                    fstats.migrations += 1;
                    rstats.rollbacks += 1;
                    for &r in &evict_set {
                        fstats.evicted_ranks |= 1u64 << r;
                    }
                    let merged = load_merged::<P>(stores, &live, &part.assign, &mut rstats);
                    let (k, mut state) = match merged {
                        Some((k, vals, flags)) => (k, Some((vals, flags))),
                        None => (0, None),
                    };
                    last_resume = Some(k);
                    // Terminal: a lone survivor relaunches every current
                    // engine under the *current* assignment to the end, so
                    // each engine reduces in its original order — that is
                    // what makes the result bit-identical. Elastic: two or
                    // more survivors reconstruct the exact barrier state at
                    // s* the same way (stopping at s*) when the newest
                    // common snapshot is older, then re-split the dead
                    // ranks' partition and continue live — later failures
                    // cascade through this same arm.
                    let terminal = survivors.len() == 1;
                    let _mig =
                        drv_tracer.span(Phase::Migrate, (if terminal { k } else { s_star }) as u32);
                    if terminal || k < s_star {
                        let outs = launch(
                            &Launch {
                                program,
                                graph,
                                assign: Some(&part.assign),
                                ranks: &live,
                                specs,
                                configs: &disarmed,
                                link,
                                cap: if terminal { cap } else { s_star },
                                start_step: k,
                                barrier: Some(barrier),
                                fcfg: None,
                                rebalance: false,
                                slowed: &[],
                            },
                            state,
                        );
                        debug_assert!(outs.iter().all(|o| o.exit == Exit::Done));
                        let (vals, flags) = splice(
                            outs,
                            &live,
                            k,
                            &part.assign,
                            &mut dev_steps,
                            &mut istats,
                            &mut rstats,
                        );
                        if terminal {
                            fstats.degraded_single = true;
                            return finish(
                                dev_steps,
                                vals,
                                rstats,
                                fstats,
                                istats,
                                last_resume,
                                wall_start.elapsed().as_secs_f64(),
                            );
                        }
                        state = Some((vals, flags));
                    }
                    part = part.redistribute(&evict_set, &survivors);
                    live = survivors;
                    start_step = s_star;
                    // Older snapshots were written under the stale
                    // assignment: replace them with the barrier state the
                    // survivors resume from (none when the failure struck
                    // at step 0 before any snapshot: restart fresh).
                    reset_stores_with::<P>(stores, &live, s_star, state.as_ref());
                    resume_state = state;
                    continue;
                }
                FailoverPolicy::Retry => roll_back!(survivor),
                _ => degrade_seq!(survivor),
            }
        }

        if exits.iter().all(|e| *e == Exit::Done) {
            return finish(
                dev_steps,
                values,
                rstats,
                fstats,
                istats,
                last_resume,
                wall_start.elapsed().as_secs_f64(),
            );
        }

        if exits.iter().all(|e| matches!(e, Exit::Rebalance(_))) {
            let Exit::Rebalance(sr) = exits[0] else {
                unreachable!()
            };
            debug_assert!(
                exits.iter().all(|e| *e == Exit::Rebalance(sr)),
                "rebalance barriers must agree: {exits:?}"
            );
            let _rb = drv_tracer.span(Phase::Rebalance, sr as u32);
            fstats.rebalances += 1;
            // New shares proportional to the live ranks' observed
            // throughputs (dead ranks keep a zero share); re-derive the
            // partition with the same scheme.
            let live_shares =
                Shares::new(live.iter().map(|&r| part.shares.part(r).max(1)).collect());
            let rebal = live_shares.rebalanced(&sim_adv);
            let mut parts = vec![0u32; part.shares.num_ranks()];
            for (i, &r) in live.iter().enumerate() {
                parts[r] = rebal.part(i);
            }
            part = partition_n(graph, part.scheme, &Shares::new(parts), REBALANCE_SEED);
            // Older snapshots were written under the stale assignment:
            // replace them with the merged barrier state.
            start_step = sr + 1;
            resume_state = Some((values, flags));
            reset_stores_with::<P>(stores, &live, start_step, resume_state.as_ref());
            rebalance_enabled = false; // one rebalance per run
            continue;
        }

        // A dropped exchange is observed by both ends of the faulted link
        // at the same barrier; other ranks see dead links as the pair tears
        // down. A fault exit (one rank, no links) is the same transient
        // event. Roll everyone back together.
        if let Some(e) = exits
            .iter()
            .find(|e| matches!(e, Exit::ExchangeDrop(_) | Exit::Fault(_)))
        {
            if matches!(e, Exit::ExchangeDrop(_)) {
                fstats.exchange_drops += 1;
            }
            rstats.faults_injected += 1;
            roll_back!(live[0]);
        }

        // Any remaining mix (peer-dead/timeout without a lost rank or a
        // reported partition) is a race we cannot attribute; degrade
        // rather than guess.
        debug_assert!(false, "inconsistent rank exits: {exits:?}");
        degrade_seq!(live[0]);
    }
}

/// Run `program` across both devices with live failover — the N = 2 form
/// of [`run_ranks_failover`], kept for the classic CPU+MIC topology.
#[allow(clippy::too_many_arguments)]
pub fn run_hetero_failover<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    partition_in: &DevicePartition,
    specs: [DeviceSpec; 2],
    configs: [EngineConfig; 2],
    link: PcieLink,
    fcfg: &FailoverConfig,
    stores: [&mut dyn CheckpointStore; 2],
    resume: bool,
) -> RunOutput<P::Value>
where
    P::Value: PodState,
{
    let [s0, s1] = stores;
    run_ranks_failover(
        program,
        graph,
        partition_in,
        &specs,
        &configs,
        link,
        fcfg,
        vec![s0, s1],
        resume,
    )
}
