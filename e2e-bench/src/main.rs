//! End-to-end benchmark of the phigraph engines.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload pagerank-pokec --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Generates the workload's inputs from `--seed`, then runs complete
//! applications one at a time (closed loop) for `--seconds`, cycling
//! through the five engine configurations in a rotating order so host
//! drift hits all of them alike. Every run is checked against the
//! sequential reference in `phigraph_apps::reference`. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` runs the benchmark's own traced
//! loops next to the untraced drivers and prints the per-layer metrics.
//! The last line of standard output is one JSON object; a readable table
//! goes before it. See `README.md` in this directory.

mod stats;
mod traced;
mod workloads;

use stats::{median, off_mode, peak_rss_mb, tail};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traced::{FabricTrace, SingleTrace};
use workloads::{set_up, Case, Engine, Run, Traced, WORKLOADS};

/// Set-ups per benchmark run, `setup_s` being their median: at least
/// `MIN_SETUPS`, and more while the set-ups so far took under
/// `SETUP_BUDGET_S`, up to `MAX_SETUPS`.
const MIN_SETUPS: usize = 2;
const MAX_SETUPS: usize = 5;
const SETUP_BUDGET_S: f64 = 4.0;
/// Within a round, an engine whose run is shorter than this repeats until
/// its runs add up to it, so short runs get enough samples for a steady
/// median.
const SLICE_S: f64 = 0.1;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    let workloads = match WORKLOADS.iter().find(|&&w| w == workload) {
        Some(&w) => vec![w],
        None if workload == "all" => WORKLOADS.to_vec(),
        None => {
            return Err(format!(
                "unknown workload {workload:?}; one of {WORKLOADS:?} or \"all\""
            ))
        }
    };
    Ok(Args {
        workloads,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order: name, value, unit, and a note for the table.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str, String)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.note(name, value, unit, String::new());
    }

    fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit, note));
    }
}

/// Every checked run of one benchmark invocation.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn count(&mut self, run: &Run) {
        self.attempted += 1;
        self.failed += usize::from(!run.correct);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for e in Engine::ALL {
        assert!(
            e.host_threads() <= nproc,
            "{} would run {} host threads on {nproc} cores",
            e.name(),
            e.host_threads()
        );
    }

    for workload in &args.workloads {
        bench(workload, &args, nproc);
    }
    ExitCode::SUCCESS
}

/// Set up and measure one workload, then print its table and JSON line.
fn bench(workload: &str, args: &Args, nproc: usize) {
    let mut setup = set_up(workload, args.seed).expect("workload name was validated");
    let mut setup_times = vec![setup.total_s()];
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS && setup_times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous set-up first so set-ups do not stack in memory.
        drop(setup);
        setup = set_up(workload, args.seed).expect("workload name was validated");
        setup_times.push(setup.total_s());
    }
    let case = setup.case.as_ref();

    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut runs: Vec<Vec<Run>> = vec![Vec::new(); Engine::ALL.len()];
    if args.trace {
        m.put("graph.build_s", setup.graph_s, "s");
        m.put("partition.build_s", setup.partition_s, "s");
        m.put("partition.cut_frac", setup.cut_frac, "ratio");
        trace_metrics(case, budget, &mut tally, &mut runs, &mut m);
    } else {
        let rss = run_loop(case, budget, &mut tally, &mut runs);
        end_to_end(&setup_times, &runs, &mut m);
        m.put("peak_rss_mb", rss, "MiB");
    }
    let failed_frac = tally.failed as f64 / tally.attempted as f64;
    let nondet_frac = nondet_frac(&runs);
    if args.trace {
        m.put("check.failed_frac", failed_frac, "ratio");
        m.put("check.nondet_frac", nondet_frac, "ratio");
    } else {
        m.put("pass_frac", 1.0 - failed_frac, "ratio");
        m.put("det_frac", 1.0 - nondet_frac, "ratio");
    }

    println!(
        "# workload={workload} seed={} seconds={} trace={} nproc={nproc} runs={} failed={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tally.attempted,
        tally.failed
    );
    for (name, value, unit, note) in &m.0 {
        println!("# {name:<32} {value:>14.6} {unit:<6} {note}");
    }
    println!("{}", json(&tally, &m));
}

/// Share of runs whose checksum differs from the most common one of the
/// same engine, averaged over the engines that ran (each engine weighs the
/// same however many runs it made).
fn nondet_frac(runs: &[Vec<Run>]) -> f64 {
    let per_engine: Vec<f64> = runs
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| {
            let sums: Vec<u64> = r.iter().map(|x| x.checksum).collect();
            off_mode(&sums) as f64 / r.len() as f64
        })
        .collect();
    per_engine.iter().sum::<f64>() / per_engine.len().max(1) as f64
}

/// Closed loop over the engines until `budget` has passed, rotating the
/// start of each round. Always completes at least one round. Returns the
/// peak RSS after the first round: set-up plus one run of every engine.
/// Later rounds only add allocator fragmentation, which varies from run
/// to run.
fn run_loop(case: &dyn Case, budget: Duration, tally: &mut Tally, runs: &mut [Vec<Run>]) -> f64 {
    let start = Instant::now();
    let mut rss = 0.0;
    for round in 0.. {
        for i in 0..Engine::ALL.len() {
            let e = Engine::ALL[(round + i) % Engine::ALL.len()];
            let mut spent = 0.0;
            while spent < SLICE_S {
                let run = case.run(e);
                tally.count(&run);
                spent += run.wall;
                runs[e.index()].push(run);
            }
        }
        if round == 0 {
            rss = peak_rss_mb();
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    rss
}

fn walls(runs: &[Run]) -> Vec<f64> {
    runs.iter().map(|r| r.wall).collect()
}

fn end_to_end(setup_times: &[f64], runs: &[Vec<Run>], m: &mut Metrics) {
    m.note(
        "setup_s",
        median(setup_times),
        "s",
        format!("median of {}", setup_times.len()),
    );
    for e in Engine::ALL {
        let w = walls(&runs[e.index()]);
        m.note(
            format!("{}.run_s", e.name()),
            median(&w),
            "s",
            format!("n={}", w.len()),
        );
    }
    for e in [Engine::Lock, Engine::Pipe, Engine::Fabric2] {
        let (v, pct, n) = tail(&walls(&runs[e.index()]));
        m.note(
            format!("{}.run_s_tail", e.name()),
            v,
            "s",
            format!("p{pct:.1} of n={n}"),
        );
    }
    for e in [Engine::Lock, Engine::Pipe, Engine::Fabric2] {
        m.put(
            format!("{}.sim_s", e.name()),
            med(&runs[e.index()], |r| r.sim_s),
            "s",
        );
    }
}

/// Median over runs of `f`.
fn med<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&xs.iter().map(f).collect::<Vec<_>>())
}

/// The traced run: every round runs lock, pipe and fabric2 once untraced
/// and once through the benchmark's loops, alternating which goes first.
fn trace_metrics(
    case: &dyn Case,
    budget: Duration,
    tally: &mut Tally,
    runs: &mut [Vec<Run>],
    m: &mut Metrics,
) {
    const TRACED: [Engine; 3] = [Engine::Lock, Engine::Pipe, Engine::Fabric2];
    let mut singles: Vec<Vec<SingleTrace>> = vec![Vec::new(); Engine::ALL.len()];
    let mut fabric: Vec<FabricTrace> = Vec::new();
    let mut traced_walls: Vec<Vec<f64>> = vec![Vec::new(); Engine::ALL.len()];
    let mut parity_failures = 0usize;
    let start = Instant::now();
    for round in 0.. {
        for i in 0..TRACED.len() {
            let e = TRACED[(round + i) % TRACED.len()];
            let mut pair = [None, None];
            for j in 0..2 {
                if (round + j) % 2 == 0 {
                    let run = case.run(e);
                    tally.count(&run);
                    pair[0] = Some(run.checksum);
                    runs[e.index()].push(run);
                } else if let Some(t) = case.traced(e) {
                    let run = match t {
                        Traced::Single(run, tr) => {
                            singles[e.index()].push(tr);
                            run
                        }
                        Traced::Fabric(run, tr) => {
                            fabric.push(tr);
                            run
                        }
                    };
                    tally.count(&run);
                    traced_walls[e.index()].push(run.wall);
                    pair[1] = Some(run.checksum);
                }
            }
            // Pipe (one worker, one mover) and fabric2 (one thread per
            // rank) are deterministic: the traced loop must reproduce the
            // driver's values bit for bit.
            if let [Some(a), Some(b)] = pair {
                if e != Engine::Lock && a != b {
                    parity_failures += 1;
                }
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    tally.failed += parity_failures;
    m.put("trace.parity_failures", parity_failures as f64, "count");

    for e in [Engine::Lock, Engine::Pipe] {
        let tr = &singles[e.index()];
        let s = e.name();
        m.put(format!("engine.new_s.{s}"), med(tr, |t| t.new_s), "s");
        m.put(format!("engine.begin_s.{s}"), med(tr, |t| t.begin_s), "s");
        m.put(
            format!("engine.generate_s.{s}"),
            med(tr, |t| t.generate_s),
            "s",
        );
        m.put(
            format!("engine.process_s.{s}"),
            med(tr, |t| t.process_s),
            "s",
        );
        m.put(format!("engine.update_s.{s}"), med(tr, |t| t.update_s), "s");
        m.put(
            format!("engine.glue_s.{s}"),
            med(tr, SingleTrace::glue_s),
            "s",
        );
        m.put(format!("engine.wall_s.{s}"), med(tr, |t| t.wall), "s");
        let steps: Vec<f64> = tr
            .iter()
            .flat_map(|t| t.step_walls.iter().copied())
            .collect();
        m.note(
            format!("engine.step_s_p50.{s}"),
            median(&steps),
            "s",
            format!("n={}", steps.len()),
        );
        let (v, pct, n) = tail(&steps);
        m.note(
            format!("engine.step_s_tail.{s}"),
            v,
            "s",
            format!("p{pct:.1} of n={n}"),
        );
        m.put(
            format!("engine.ns_per_msg.{s}"),
            med(tr, |t| 1e9 * t.generate_s / t.msgs.max(1) as f64),
            "ns",
        );
        m.put(
            format!("engine.msgs.{s}"),
            med(tr, |t| t.msgs as f64),
            "count",
        );
        m.put(
            format!("csb.lane_fill.{s}"),
            med(tr, |t| {
                t.proc_msgs as f64 / (t.proc_rows * t.lanes).max(1) as f64
            }),
            "ratio",
        );
        m.put(
            format!("csb.reset_cells.{s}"),
            med(tr, |t| t.reset_cells as f64),
            "count",
        );
    }
    let pipe = &singles[Engine::Pipe.index()];
    m.put(
        "queues.msgs_per_flush",
        med(pipe, |t| {
            t.batched_msgs as f64 / t.flush_batches.max(1) as f64
        }),
        "count",
    );
    m.put(
        "queues.full_spins",
        med(pipe, |t| t.full_spins as f64),
        "count",
    );
    m.put(
        "queues.idle_polls",
        med(pipe, |t| t.idle_polls as f64),
        "count",
    );

    // The mailbox path has no benchmark loop; its exchange is read from the
    // driver's per-rank reports instead.
    let fab = &runs[Engine::Fabric2.index()];
    m.put("comm.combine_s", med(&fabric, |t| t.combine_s), "s");
    m.put("comm.exchange_s", med(&fabric, |t| t.exchange_s), "s");
    m.put("comm.absorb_s", med(&fabric, |t| t.absorb_s), "s");
    m.put("comm.wait_s", med(&fabric, |t| t.wait_s), "s");
    let (ratio, bytes) = if fabric.is_empty() {
        (
            med(fab, |r| {
                r.remote_after as f64 / r.remote_before.max(1) as f64
            }),
            med(fab, |r| r.comm_bytes as f64 / 2.0),
        )
    } else {
        (
            med(&fabric, |t| {
                t.remote_after as f64 / t.remote_before.max(1) as f64
            }),
            med(&fabric, |t| t.bytes as f64),
        )
    };
    m.put("comm.combine_ratio", ratio, "ratio");
    m.put("comm.bytes", bytes, "bytes");

    for e in [Engine::Lock, Engine::Pipe] {
        let r = &runs[e.index()];
        let s = e.name();
        m.put(
            format!("device.sim_generate_s.{s}"),
            med(r, |x| x.sim_generate_s),
            "s",
        );
        m.put(
            format!("device.sim_process_s.{s}"),
            med(r, |x| x.sim_process_s),
            "s",
        );
        m.put(
            format!("device.sim_update_s.{s}"),
            med(r, |x| x.sim_update_s),
            "s",
        );
    }
    m.put("device.sim_comm_s", med(fab, |r| r.sim_comm_s), "s");

    for e in [Engine::Lock, Engine::Pipe] {
        let s = e.name();
        let (step_p50, ns) = if singles[e.index()].is_empty() {
            let r = &runs[e.index()];
            let steps: Vec<f64> = r
                .iter()
                .flat_map(|x| x.step_walls.iter().copied())
                .collect();
            (
                median(&steps),
                med(r, |x| 1e9 * x.wall / x.msgs.max(1) as f64),
            )
        } else {
            (0.0, 0.0)
        };
        m.put(format!("obj.step_s_p50.{s}"), step_p50, "s");
        m.put(format!("obj.ns_per_msg.{s}"), ns, "ns");
    }

    for e in TRACED {
        let untraced = median(&walls(&runs[e.index()]));
        let traced = median(&traced_walls[e.index()]);
        let frac = if traced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        };
        m.put(format!("trace.overhead_frac.{}", e.name()), frac, "ratio");
    }
}

fn json(tally: &Tally, m: &Metrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit, _)) in m.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
