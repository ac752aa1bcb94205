//! The CSB rank loop: the one superstep loop every CSB driver launches.
//!
//! "The system is built using MPI symmetric computing, with CPU being Rank
//! 0, and MIC being Rank 1." Every device runs the same superstep, so a
//! single device is a one-rank job. Each CSB driver is a [`launch`] of
//! [`rank_loop`] over a set of ranks:
//!
//! * `run_single` launches one rank with no links;
//! * `run_ranks` launches N ranks over an all-to-all link mesh;
//! * `run_ranks_failover` launches the live membership, and replays a
//!   migration by relaunching the old membership with faults disarmed.
//!
//! What a rank does beyond generate → process → update comes from the
//! inputs it is given, not from flags:
//!
//! * **Links.** With none, every message is local: there is no
//!   bucket/combine/exchange/insert block, and the rank polls cancellation
//!   at step start and after generation. With links, the remote buffer is
//!   bucketed per destination rank, each bucket is combined per
//!   destination, and the payloads are exchanged one link at a time in
//!   ascending peer order. Sends never block, so the mesh schedule is
//!   deadlock-free.
//! * **Barrier.** With none, no snapshots are written. A rank with a
//!   [`Barrier`] and no links also runs the integrity layers in its step:
//!   the fail-stop and SDC injection sites, the state and group audits with
//!   rung-1 heals, and the app audit with a rung-2 replay of the step. What
//!   they cannot heal ends the rank with [`Exit::Fault`] for the driver to
//!   roll back. A linked rank's messages cross the wire, which
//!   `framed_exchange` guards instead.
//! * **Failover config.** With none, exchanges wait without a deadline, no
//!   straggler vector is kept and no watchdog thread runs.
//!
//! Global termination is a superstep in which no rank generated any
//! message. Each rank sees its own flag plus every peer's, so all ranks
//! reach the same decision at the same barrier. Rank 0 of a launch runs on
//! the calling thread and the others on scoped threads, so a one-rank
//! launch spawns nothing.

use crate::api::VertexProgram;
use crate::engine::config::EngineConfig;
use crate::engine::device::DeviceEngine;
use crate::engine::integrity::{framed_exchange, BarrierImage, IntegrityCtx};
use crate::metrics::StepReport;
use phigraph_comm::message::wire_bytes;
use phigraph_comm::{combine_messages, mesh, Endpoint, ExchangeError, PcieLink, WireMsg};
use phigraph_device::{CostModel, DeviceSpec, Heartbeat, StepCounters};
use phigraph_graph::Csr;
use phigraph_recover::{FailoverConfig, FaultKind, IntegrityStats};
use phigraph_simd::MsgValue;
use phigraph_trace::{HistKind, Phase, ThreadTracer, Trace};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sentinel for "not detected" in the watchdog's latency slots.
const UNDETECTED: u64 = u64::MAX;

/// Values and active flags to restore every rank's engine from.
pub(crate) type ResumePair<V> = Option<(Vec<V>, Vec<u8>)>;

/// A recovering driver's hold on every rank's barrier: the snapshot
/// writer, and the state codec of the integrity layers. Both need
/// `P::Value: PodState`, which the plain drivers do not ask of a program.
pub(crate) trait Barrier<P: VertexProgram>: Sync {
    /// Write `rank`'s snapshot of the state superstep `step + 1` starts from.
    fn checkpoint(&self, rank: usize, e: &DeviceEngine<'_, P>, step: usize, c: &mut StepCounters);
    /// Image the engine's barrier state.
    fn capture(&self, e: &DeviceEngine<'_, P>) -> BarrierImage<P::Value>;
    /// The vertex groups whose state no longer matches `img`.
    fn audit_state(&self, img: &BarrierImage<P::Value>, e: &DeviceEngine<'_, P>) -> Vec<usize>;
    /// Flip one seeded bit of the barrier state; `false` if nothing flipped.
    fn flip_state_bit(&self, e: &mut DeviceEngine<'_, P>, seed: u64) -> bool;
    /// The values as bytes, to tell a replayed state from the first one.
    fn encode(&self, values: &[P::Value]) -> Vec<u8>;
}

/// How one rank loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Exit {
    /// Global termination (or the superstep cap) reached.
    Done,
    /// An injected `CrashDevice`/`CrashRank` fault: all links torn down.
    Crashed(usize),
    /// An injected `HangDevice` fault: links stay open but silent.
    Hung(usize),
    /// A peer's link disappeared (that peer crashed).
    PeerDead(usize),
    /// A peer went silent past the deadline (that peer hung); the second
    /// field is the wait in milliseconds.
    PeerTimeout(usize, u64),
    /// The exchange was dropped on a link (both ends observe this).
    ExchangeDrop(usize),
    /// A fail-stop fault site fired, or an integrity layer could not heal
    /// what it detected, on a rank with a barrier and no links.
    Fault(usize),
    /// An injected `PartitionLink` severed the link `(low, high)`; the
    /// lower rank armed the fault and names the pair so the driver can
    /// evict the deterministic side.
    LinkPartitioned(usize, u8, u8),
    /// Straggler threshold reached; all ranks leave at the same barrier.
    Rebalance(usize),
}

impl Exit {
    /// Only a self-reported crash/hang marks the rank itself as lost;
    /// `PeerDead`/`PeerTimeout` from healthy ranks are observations.
    pub(crate) fn lost(&self) -> bool {
        matches!(self, Exit::Crashed(_) | Exit::Hung(_))
    }
}

/// Everything one rank loop hands back to its driver.
pub(crate) struct LoopOut<P: VertexProgram> {
    pub(crate) values: Vec<P::Value>,
    pub(crate) flags: Vec<u8>,
    pub(crate) steps: Vec<StepReport>,
    pub(crate) exit: Exit,
    /// Whether a `SlowDevice` fault latched on this rank (persists across
    /// relaunches so the straggler stays slow after a rollback/rebalance).
    pub(crate) slowed: bool,
    /// Sum of the advertised (straggler-model) step times.
    pub(crate) sim_adv_total: f64,
    /// Integrity counters: frame checks on a linked rank, the layers'
    /// audits and heals on a rank with a barrier and no links.
    pub(crate) integ: IntegrityStats,
    /// Faults injected on this rank, counted from every step's counters,
    /// including the steps a rung-2 replay redoes or a fault exit cuts off.
    pub(crate) faults: u64,
    /// Host seconds from engine construction to the loop's end.
    pub(crate) wall: f64,
    /// For a lost rank under a watchdog: milliseconds past the deadline
    /// before its silence was noticed.
    pub(crate) detect_ms: Option<u64>,
    /// A hung rank's links, held until every rank of the launch has
    /// returned so that peers observe silence rather than a dead channel.
    _keep_alive: Vec<Endpoint<WireMsg<P::Msg>>>,
}

/// What one launch of [`rank_loop`] shares across its ranks. `specs`,
/// `configs` and `slowed` are indexed by rank id.
pub(crate) struct Launch<'a, P: VertexProgram> {
    pub(crate) program: &'a P,
    pub(crate) graph: &'a Csr,
    /// Vertex owner per vertex; `None` for a one-rank launch, in which
    /// every vertex is local.
    pub(crate) assign: Option<&'a [u8]>,
    /// The ranks taking part, ascending.
    pub(crate) ranks: &'a [usize],
    pub(crate) specs: &'a [DeviceSpec],
    pub(crate) configs: &'a [EngineConfig],
    pub(crate) link: PcieLink,
    /// Every rank stops before this superstep.
    pub(crate) cap: usize,
    pub(crate) start_step: usize,
    pub(crate) barrier: Option<&'a dyn Barrier<P>>,
    pub(crate) fcfg: Option<&'a FailoverConfig>,
    /// Whether straggler detection may end the launch (needs `fcfg`).
    pub(crate) rebalance: bool,
    /// Ranks already slowed by a latched `SlowDevice` fault (may be empty).
    pub(crate) slowed: &'a [bool],
}

/// Run every rank of `l` to its exit, each restored from `resume` when
/// given, and return their outputs in `l.ranks` order.
pub(crate) fn launch<P: VertexProgram>(
    l: &Launch<'_, P>,
    resume: ResumePair<P::Value>,
) -> Vec<LoopOut<P>> {
    let m = l.ranks.len();
    let hb: Vec<Heartbeat> = (0..m).map(|_| Heartbeat::new()).collect();
    let finished: Vec<AtomicBool> = (0..m).map(|_| AtomicBool::new(false)).collect();
    let detected: Vec<AtomicU64> = (0..m).map(|_| AtomicU64::new(UNDETECTED)).collect();
    let stop = AtomicBool::new(false);
    let resumes = vec![resume; m];
    let sides = mesh::<WireMsg<P::Msg>>(l.link, l.ranks);

    let mut outs: Vec<LoopOut<P>> = std::thread::scope(|s| {
        let watchdog = l.fcfg.map(|f| {
            let (hb, finished, stop, detected) = (&hb, &finished, &stop, &detected);
            let trace = l.configs[0].trace.as_ref();
            s.spawn(move || {
                watchdog_loop(hb, finished, stop, f.deadline(), detected, l.ranks, trace)
            })
        });
        let mut sides = sides.into_iter().zip(resumes).enumerate();
        let (_, (eps0, resume0)) = sides.next().expect("a launch needs a rank");
        let handles: Vec<_> = sides
            .map(|(i, (eps, resume))| {
                let (hb, finished) = (&hb[i], &finished[i]);
                s.spawn(move || rank_loop(l, i, eps, resume, hb, finished))
            })
            .collect();
        let mut outs = vec![rank_loop(l, 0, eps0, resume0, &hb[0], &finished[0])];
        outs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("rank loop panicked")),
        );
        stop.store(true, Ordering::Release);
        if let Some(w) = watchdog {
            w.join().expect("watchdog panicked");
        }
        outs
    });

    // Detection latency for every rank that went silent (the final read
    // covers the race where all loops returned before the watchdog's next
    // sweep).
    if let Some(f) = l.fcfg {
        for (i, o) in outs.iter_mut().enumerate() {
            if o.exit.lost() {
                o.detect_ms = Some(match detected[i].load(Ordering::Acquire) {
                    UNDETECTED => {
                        hb[i].since_last().saturating_sub(f.deadline()).as_millis() as u64
                    }
                    lat => lat,
                });
            }
        }
    }
    outs
}

/// Merge per-rank full-length vectors by ownership: entry `x` is taken
/// from the rank that `assign[x]` names. `parts` are `(rank, vector)`.
pub(crate) fn merge_owned<T>(
    parts: impl IntoIterator<Item = (usize, Vec<T>)>,
    assign: &[u8],
) -> Vec<T> {
    let mut parts = parts.into_iter();
    let (_, mut merged) = parts.next().expect("at least one rank");
    for (r, v) in parts {
        for (x, val) in v.into_iter().enumerate() {
            if assign[x] == r as u8 {
                merged[x] = val;
            }
        }
    }
    merged
}

/// Launch `specs.len()` ranks with no barrier, no deadline and no
/// watchdog — the plain drivers. A rank that ends with anything but
/// global termination is a fault this launch cannot survive.
pub(crate) fn launch_plain<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    assign: Option<&[u8]>,
    specs: &[DeviceSpec],
    configs: &[EngineConfig],
    link: PcieLink,
) -> Vec<LoopOut<P>> {
    let ranks: Vec<usize> = (0..specs.len()).collect();
    let outs = launch(
        &Launch {
            program,
            graph,
            assign,
            ranks: &ranks,
            specs,
            configs,
            link,
            cap: agreed_cap(program, configs),
            start_step: 0,
            barrier: None,
            fcfg: None,
            rebalance: false,
            slowed: &[],
        },
        None,
    );
    for (r, o) in outs.iter().enumerate() {
        assert!(
            o.exit == Exit::Done,
            "rank {r} stopped with {:?} and no failover driver installed; \
             install the fault plan under run_ranks_failover",
            o.exit
        );
    }
    outs
}

/// The superstep cap every rank of a launch agrees on (the lock-step
/// exchange deadlocks otherwise).
pub(crate) fn agreed_cap<P: VertexProgram>(program: &P, configs: &[EngineConfig]) -> usize {
    crate::engine::flat::run_cap(
        program.max_supersteps(),
        configs.iter().filter_map(|c| c.max_supersteps).min(),
    )
}

/// One rank's superstep loop. Besides the phases it ticks a heartbeat at
/// every phase boundary and hosts the step-start crash/hang/slow injection
/// sites, link-partition arming on the lower end of each link, per-link
/// exchanges (with a deadline under a failover config), barrier snapshots,
/// the integrity layers of a rank with a barrier and no links, and
/// symmetric straggler detection from the N-vector of step times
/// piggybacked on every exchange.
fn rank_loop<P: VertexProgram>(
    l: &Launch<'_, P>,
    pos: usize,
    eps: Vec<Endpoint<WireMsg<P::Msg>>>,
    resume: ResumePair<P::Value>,
    hb: &Heartbeat,
    finished: &AtomicBool,
) -> LoopOut<P> {
    let rank = l.ranks[pos];
    let dev = rank as u8;
    let (spec, config) = (&l.specs[rank], &l.configs[rank]);
    let cost = CostModel::new(spec.clone());
    let mut engine = DeviceEngine::new(
        l.program,
        l.graph,
        spec.clone(),
        config.clone(),
        dev,
        l.assign,
    );
    if let Some((vals, flags)) = resume {
        engine.restore(vals, &flags);
    }
    let wall_start = Instant::now();
    let tracer = config.tracer(&format!("dev{dev}"), dev as u32 * 1000);
    let deadline = l.fcfg.map(FailoverConfig::deadline);
    let straggler = l.fcfg.filter(|f| l.rebalance && f.rebalance_after > 0);
    let vectorized = config.vectorized && P::SIMD_REDUCIBLE;
    // A rank with a barrier and no links runs the integrity layers; the
    // barrier image they audit and heal from is kept when an audit reads it.
    let layers = l.barrier.filter(|_| eps.is_empty());
    let mut integ = IntegrityCtx::new(config);
    engine.set_integrity_audit(layers.is_some() && integ.audits_messages());
    let mut image = layers
        .filter(|_| integ.needs_image())
        .map(|b| b.capture(&engine));
    // Destination rank -> outgoing link index (links are peer-ascending).
    let mut bucket_of = vec![usize::MAX; eps.iter().map(|e| e.peer + 1).max().unwrap_or(0)];
    for (i, ep) in eps.iter().enumerate() {
        bucket_of[ep.peer] = i;
    }
    let mut steps: Vec<StepReport> = Vec::new();
    let mut slowed = l.slowed.get(rank).copied().unwrap_or(false);
    let mut prev_adv = 0.0f64;
    let mut base_times: Option<Vec<f64>> = None;
    let mut consec_slow = 0u32;
    let mut sim_adv_total = 0.0f64;
    let mut faults = 0u64;
    let mut exit = Exit::Done;
    let mut keep_alive = Vec::new();

    let mut step = l.start_step;
    'run: while step < l.cap {
        // A rank with no peers owns the whole run, so it alone decides to
        // stop at a cancelled barrier.
        if eps.is_empty() && config.cancelled() {
            break;
        }
        hb.tick();
        let mut hb_count = 1u64;
        if let Some(inj) = &config.fault_plan {
            if inj.fire(step as u64, FaultKind::CrashDevice, dev)
                || inj.fire(step as u64, FaultKind::CrashRank(dev), 0)
            {
                // Fail-stop: returning drops every link, so each peer's
                // next exchange observes a dead channel.
                exit = Exit::Crashed(step);
                break 'run;
            }
            if inj.fire(step as u64, FaultKind::HangDevice, dev) {
                // Hang: the rank goes silent but its links stay open; only
                // a deadline can tell this apart from "slow" (without one,
                // the links close as in a crash so no peer waits forever).
                exit = Exit::Hung(step);
                if deadline.is_some() {
                    keep_alive = eps;
                }
                break 'run;
            }
            if inj.fire(step as u64, FaultKind::SlowDevice, dev) {
                slowed = true;
            }
        }
        // The layers' injection sites (fire-once, so a replay runs clean).
        let inj = config.fault_plan.as_ref().filter(|_| layers.is_some());
        let fires = |k: FaultKind| inj.is_some_and(|i| i.fire(step as u64, k, dev));
        let t0 = Instant::now();
        let _step_span = tracer.span(Phase::Superstep, step as u32);
        let mut peer_any = false;
        let mut peer_times: Vec<(usize, f64)> = Vec::with_capacity(eps.len());
        let mut comm_time = 0.0f64;
        // The first run's state while a rung-2 replay of the step runs.
        let mut suspect: Option<Vec<u8>> = None;
        let (mut c, my_any) = loop {
            let mut c = engine.begin_step();
            // A fault the layers cannot heal: drop the step, roll back.
            macro_rules! fault {
                () => {{
                    faults += c.faults_injected;
                    exit = Exit::Fault(step);
                    break 'run;
                }};
            }
            // SDC site: a bit of barrier state rots between barriers.
            if fires(FaultKind::BitFlipState)
                && layers.is_some_and(|b| b.flip_state_bit(&mut engine, step as u64 ^ 0x5DC1_57A7))
            {
                c.faults_injected += 1;
            }
            // State digest audit (every step in full mode, scrub boundaries
            // otherwise). Rung 1: heal rotted groups straight from the image.
            let audit = image.as_ref().filter(|_| integ.audits_state(step));
            if let (Some(b), Some(img)) = (layers, audit) {
                integ.stats.state_checks += 1;
                integ.stats.scrub_passes += u64::from(integ.is_scrub_step(step));
                let bad = b.audit_state(img, &engine);
                if !bad.is_empty() {
                    integ.stats.state_detections += bad.len() as u64;
                    integ.stats.quarantined_groups += bad.len() as u64;
                    engine.heal_state_groups(&bad, &img.values, &img.flags);
                    if !b.audit_state(img, &engine).is_empty() {
                        // The image cannot reproduce its own digest.
                        fault!();
                    }
                    integ.stats.group_heals += bad.len() as u64;
                }
            }
            // Fail-stop site: a worker dies during generation (seen at join).
            if fires(FaultKind::KillWorker) {
                fault!();
            }
            let remote = {
                let _g = tracer.span(Phase::Generate, step as u32);
                engine.generate(&mut c)
            };
            hb.tick();
            hb_count += 1;
            let my_any = c.msgs_total() > 0;

            if eps.is_empty() {
                debug_assert!(
                    remote.is_empty(),
                    "a rank with no peers sent remote messages"
                );
                // SDC site: a buffered message bit flips inside the CSB.
                if fires(FaultKind::BitFlipMessage)
                    && engine
                        .corrupt_message_cell(step as u64 ^ 0x0B17_F117)
                        .is_some()
                {
                    c.faults_injected += 1;
                }
                // Fail-stop site: a mover dies while draining its queues.
                if fires(FaultKind::KillMover) {
                    fault!();
                }
                engine.finalize_insertion_stats(&mut c);
                // Mid-superstep cancellation point: the partial step is
                // abandoned (values still hold the last completed barrier).
                if config.cancelled() {
                    faults += c.faults_injected;
                    break 'run;
                }
                // Fail-stop site: a poisoned insert surfaces at finalization.
                if fires(FaultKind::PoisonInsert) {
                    fault!();
                }
                // Group checksum audit between the insert barrier and
                // processing. Rung 1: quarantine the mismatched groups and
                // regenerate only them.
                if let Some(img) = image.as_ref().filter(|_| integ.audits_messages()) {
                    integ.stats.group_checks += 1;
                    let bad = engine.audit_message_groups();
                    if !bad.is_empty() {
                        integ.stats.group_detections += bad.len() as u64;
                        integ.stats.quarantined_groups += bad.len() as u64;
                        engine.reset_message_groups(&bad);
                        engine.regenerate_groups(&bad, &img.values, &img.flags);
                        engine.finalize_insertion_stats(&mut c);
                        if !engine.audit_message_groups().is_empty() {
                            fault!();
                        }
                        integ.stats.group_heals += bad.len() as u64;
                    }
                }
            } else {
                let assign = l.assign.expect("a rank with peers needs an assignment");
                c.remote_before_combine = remote.len() as u64;
                // Bucket by destination rank (generation order preserved
                // within a bucket), then combine per link ("the combination
                // result is sent to the other device as a single MPI
                // message").
                let mut buckets: Vec<Vec<WireMsg<P::Msg>>> =
                    (0..eps.len()).map(|_| Vec::new()).collect();
                for msg in remote {
                    buckets[bucket_of[assign[msg.dst as usize] as usize]].push(msg);
                }
                let mut outgoing: Vec<Vec<WireMsg<P::Msg>>> = Vec::with_capacity(eps.len());
                for b in buckets {
                    let (combined, _) = combine_messages::<P::Msg, P::Reduce>(b);
                    c.remote_after_combine += combined.len() as u64;
                    outgoing.push(combined);
                }
                // Arm injected link faults before exchanging. A partition is
                // armed by the lower end of the link (fire-once, so exactly
                // one side arms) and remembered so the resulting drop is
                // attributed to the partition, not a generic exchange fault.
                let mut partitioned: Option<usize> = None;
                if let Some(inj) = &config.fault_plan {
                    if inj.fire(step as u64, FaultKind::DropExchange, dev) {
                        eps[0].inject_fault();
                    }
                    for ep in &eps {
                        if ep.peer > rank
                            && inj.fire(
                                step as u64,
                                FaultKind::partition_link(dev, ep.peer as u8),
                                0,
                            )
                        {
                            ep.inject_fault();
                            partitioned = Some(ep.peer);
                        }
                    }
                }
                let x0 = Instant::now();
                let xspan = tracer.span(Phase::Exchange, step as u32);
                let mut incoming_all: Vec<Vec<WireMsg<P::Msg>>> = Vec::with_capacity(eps.len());
                let mut fail: Option<Exit> = None;
                // Frame integrity (when configured) seals, verifies and heals
                // corrupt frames with a bounded verdict-synced re-exchange;
                // with integrity off this is the plain lock-step exchange.
                for (ep, out) in eps.iter().zip(outgoing) {
                    let bytes_out = wire_bytes::<P::Msg>(out.len());
                    let res = framed_exchange(
                        ep,
                        out,
                        bytes_out,
                        my_any,
                        prev_adv,
                        deadline,
                        step as u64,
                        dev,
                        config.integrity,
                        config.fault_plan.as_ref(),
                        &mut integ.stats,
                    );
                    match res {
                        Ok((incoming, peer, xstats)) => {
                            peer_any |= peer.any_active;
                            peer_times.push((ep.peer, peer.step_time));
                            c.comm_bytes += xstats.bytes_sent + xstats.bytes_recv;
                            comm_time += xstats.sim_time;
                            incoming_all.push(incoming);
                        }
                        Err(e) => {
                            fail = Some(match e {
                                ExchangeError::Dropped(_) if partitioned == Some(ep.peer) => {
                                    Exit::LinkPartitioned(step, dev, ep.peer as u8)
                                }
                                ExchangeError::Dropped(_) => Exit::ExchangeDrop(step),
                                ExchangeError::Timeout(t) => Exit::PeerTimeout(step, t.waited_ms),
                                ExchangeError::PeerDead => Exit::PeerDead(step),
                            });
                            break;
                        }
                    }
                }
                drop(xspan);
                config.record_hist(HistKind::ExchangeRttUs, x0.elapsed().as_micros() as u64);
                hb.tick();
                hb_count += 1;
                if let Some(f) = fail {
                    exit = f;
                    break 'run;
                }
                // Insert received messages (per peer, ascending).
                let _i = tracer.span(Phase::Insert, step as u32);
                for incoming in &incoming_all {
                    engine.absorb_remote(incoming, &mut c);
                }
                engine.finalize_insertion_stats(&mut c);
            }
            {
                let _p = tracer.span(Phase::Process, step as u32);
                engine.process(&mut c);
            }
            {
                let _u = tracer.span(Phase::Update, step as u32);
                engine.update(&mut c);
            }
            // App invariant audit (the semantic safety net). A violation is
            // rung 2: restore the barrier image and replay the whole step
            // once. A bit-identical replay means the invariant fired on
            // clean data (a false positive) and the result stands; a replay
            // that differs and still violates it is a fault.
            if let (Some(b), Some(img)) = (layers, &image) {
                let stride = integ.app_stride(step);
                let violated =
                    |v: &[_]| l.program.audit_step(step, &img.values, v, stride).is_some();
                if let Some(first) = suspect.take() {
                    if b.encode(&engine.values) == first {
                        integ.stats.false_positive_audits += 1;
                    } else if violated(&engine.values) {
                        fault!();
                    }
                } else if integ.audits_app(step) {
                    integ.stats.audits_run += 1;
                    if violated(&engine.values) {
                        integ.stats.audit_violations += 1;
                        integ.stats.step_replays += 1;
                        suspect = Some(b.encode(&engine.values));
                        engine.restore(img.values.clone(), &img.flags);
                        faults += c.faults_injected;
                        continue;
                    }
                }
            }
            break (c, my_any);
        };
        hb.tick();
        hb_count += 1;
        c.heartbeats = hb_count;

        let times = cost.step_times(&c, config.gen_mode(spec), P::Msg::SIZE, vectorized);
        // Advertised step time: the simulated compute time, inflated by the
        // straggler model when a SlowDevice fault has latched.
        let adv = times.total
            * match (slowed, l.fcfg) {
                (true, Some(f)) => f.slow_time_factor,
                _ => 1.0,
            };
        sim_adv_total += adv;

        // Symmetric straggler detection: at this barrier every rank saw the
        // identical N-vector of previous-step times (its own plus each
        // peer's piggybacked advertisement), so all ranks keep the same
        // consecutive-slow counter and leave at the same barrier when it
        // trips. The devices are *naturally* asymmetric, so raw times are
        // useless — the first fully-populated barrier calibrates the
        // healthy per-rank baselines, and a straggler is a max/min drift of
        // the normalized times beyond `slow_factor`.
        if let Some(f) = straggler {
            let mut t = vec![0.0f64; l.ranks.len()];
            t[pos] = prev_adv;
            for &(peer, pt) in &peer_times {
                if let Some(i) = l.ranks.iter().position(|&r| r == peer) {
                    t[i] = pt;
                }
            }
            if t.iter().all(|&x| x > 0.0) {
                match &base_times {
                    None => base_times = Some(t),
                    Some(base) => {
                        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
                        for (x, b) in t.iter().zip(base) {
                            lo = lo.min(x / b);
                            hi = hi.max(x / b);
                        }
                        if hi / lo > f.slow_factor {
                            consec_slow += 1;
                        } else {
                            consec_slow = 0;
                        }
                    }
                }
            }
        }
        prev_adv = adv;

        // The barrier after update is the consistency point: snapshot the
        // state step `step + 1` will start from.
        if let Some(b) = l.barrier {
            if config.recovery.is_checkpoint_step(step as u64 + 1) {
                let ck0 = Instant::now();
                let _ck = tracer.span(Phase::Checkpoint, step as u32);
                b.checkpoint(rank, &engine, step, &mut c);
                config.record_hist(
                    HistKind::CheckpointWriteUs,
                    ck0.elapsed().as_micros() as u64,
                );
            }
        }
        faults += c.faults_injected;
        steps.push(StepReport::new(step, times, comm_time, t0, c));

        // Global termination: nobody generated messages this superstep.
        if !my_any && !peer_any {
            break 'run;
        }
        if straggler.is_some_and(|f| consec_slow >= f.rebalance_after) {
            exit = Exit::Rebalance(step);
            break 'run;
        }
        // The barrier after update is the next step's reference state.
        if let (Some(b), Some(img)) = (layers, image.as_mut()) {
            *img = b.capture(&engine);
        }
        step += 1;
    }

    // A rank that crashed or hung never reports itself finished — that is
    // exactly the silence the watchdog is built to notice.
    if !exit.lost() {
        finished.store(true, Ordering::Release);
    }
    LoopOut {
        flags: engine.active_flags().to_vec(),
        values: engine.values,
        steps,
        exit,
        slowed,
        sim_adv_total,
        integ: integ.stats,
        faults,
        wall: wall_start.elapsed().as_secs_f64(),
        detect_ms: None,
        _keep_alive: keep_alive,
    }
}

/// The watchdog: polls every rank's heartbeat against the deadline and
/// records the detection latency (milliseconds past the deadline) for any
/// rank that goes silent without reporting itself finished.
fn watchdog_loop(
    hb: &[Heartbeat],
    finished: &[AtomicBool],
    stop: &AtomicBool,
    deadline: Duration,
    detected: &[AtomicU64],
    ranks: &[usize],
    trace: Option<&Trace>,
) {
    let tracer = match trace {
        Some(t) => t.thread("watchdog", 9000),
        None => ThreadTracer::disabled(),
    };
    let poll = (deadline / 8).clamp(Duration::from_millis(1), Duration::from_millis(25));
    while !stop.load(Ordering::Acquire) {
        let sweep0 = tracer.now_ns();
        for (d, h) in hb.iter().enumerate() {
            if finished[d].load(Ordering::Acquire)
                || detected[d].load(Ordering::Acquire) != UNDETECTED
            {
                continue;
            }
            if h.is_stalled(deadline) {
                let lat = h.since_last().saturating_sub(deadline).as_millis() as u64;
                detected[d].store(lat, Ordering::Release);
                // One Watchdog span per detection (the sweep that noticed
                // the silence), tagged with the dead rank's id.
                tracer.record_closing(Phase::Watchdog, ranks[d] as u32, sweep0);
                if let Some(t) = trace {
                    t.record_hist(HistKind::WatchdogLatencyMs, lat);
                }
            }
        }
        std::thread::sleep(poll);
    }
}
