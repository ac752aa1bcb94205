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
//! * **Checkpoint writer.** With none, no barrier snapshots are written.
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
use crate::engine::integrity::framed_exchange;
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

/// Writes one rank's barrier snapshot: `(rank, engine, step, counters)`.
pub(crate) type Checkpointer<'a, P> =
    dyn Fn(usize, &DeviceEngine<'_, P>, usize, &mut StepCounters) + Sync + 'a;

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
    /// Frame-integrity counters from this rank's exchanges.
    pub(crate) integ: IntegrityStats,
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
    pub(crate) checkpoint: Option<&'a Checkpointer<'a, P>>,
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

/// Launch `specs.len()` ranks with no checkpoints, no deadline and no
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
            checkpoint: None,
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
/// exchanges (with a deadline under a failover config), barrier snapshots
/// and symmetric straggler detection from the N-vector of step times
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
    let mut integ = IntegrityStats::default();
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
        let t0 = Instant::now();
        let _step_span = tracer.span(Phase::Superstep, step as u32);
        let mut c = engine.begin_step();
        let remote = {
            let _g = tracer.span(Phase::Generate, step as u32);
            engine.generate(&mut c)
        };
        hb.tick();
        hb_count += 1;
        let my_any = c.msgs_total() > 0;
        let mut peer_any = false;
        let mut peer_times: Vec<(usize, f64)> = Vec::with_capacity(eps.len());
        let mut comm_time = 0.0f64;

        if eps.is_empty() {
            debug_assert!(
                remote.is_empty(),
                "a rank with no peers sent remote messages"
            );
            engine.finalize_insertion_stats(&mut c);
            // Mid-superstep cancellation point: the partial step is
            // abandoned (values still hold the last completed barrier).
            if config.cancelled() {
                break;
            }
        } else {
            let assign = l.assign.expect("a rank with peers needs an assignment");
            c.remote_before_combine = remote.len() as u64;
            // Bucket by destination rank (generation order preserved within
            // a bucket), then combine per link ("the combination result is
            // sent to the other device as a single MPI message").
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
            // armed by the lower end of the link (fire-once, so exactly one
            // side arms) and remembered so the resulting drop is attributed
            // to the partition, not a generic exchange fault.
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
            // corrupt frames with a bounded verdict-synced re-exchange; with
            // integrity off this is the plain lock-step exchange.
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
                    &mut integ,
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
        if let Some(write) = l.checkpoint {
            if config.recovery.is_checkpoint_step(step as u64 + 1) {
                let ck0 = Instant::now();
                let _ck = tracer.span(Phase::Checkpoint, step as u32);
                write(rank, &engine, step, &mut c);
                config.record_hist(
                    HistKind::CheckpointWriteUs,
                    ck0.elapsed().as_micros() as u64,
                );
            }
        }
        steps.push(StepReport::new(step, times, comm_time, t0, c));

        // Global termination: nobody generated messages this superstep.
        if !my_any && !peer_any {
            break 'run;
        }
        if straggler.is_some_and(|f| consec_slow >= f.rebalance_after) {
            exit = Exit::Rebalance(step);
            break 'run;
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
        integ,
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
