//! The four workloads, the five engine configurations, and the reference
//! check every run goes through.

use crate::stats::Fnv;
use crate::traced::{single_rank, two_rank, FabricTrace, SingleTrace};
use phigraph_apps::reference::bfs::bfs_reference;
use phigraph_apps::reference::pagerank::pagerank_reference;
use phigraph_apps::reference::semicluster::semicluster_reference;
use phigraph_apps::reference::toposort::kahn_levels;
use phigraph_apps::semicluster::SemiCluster;
use phigraph_apps::toposort::TopoValue;
use phigraph_apps::workloads::{dblp_like, pokec_like, toposort_dag, Scale};
use phigraph_apps::{Bfs, PageRank, SemiClustering, TopoSort};
use phigraph_comm::PcieLink;
use phigraph_core::engine::obj::{run_obj_hetero, run_obj_single};
use phigraph_core::engine::{run_flat, run_ranks, run_seq, run_single, EngineConfig};
use phigraph_core::metrics::{RunOutput, RunReport, StepReport};
use phigraph_core::VertexProgram;
use phigraph_device::DeviceSpec;
use phigraph_graph::generators::grid::grid;
use phigraph_graph::Csr;
use phigraph_partition::{partition, DevicePartition, PartitionScheme, PartitionStats, Ratio};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "pagerank-pokec",
    "bfs-grid",
    "toposort-dag",
    "semicluster-dblp",
];

/// PageRank iterations on pagerank-pokec.
const PAGERANK_ITERS: usize = 10;
/// Semi-Clustering superstep cap on semicluster-dblp.
const SEMICLUSTER_ITERS: usize = 12;
/// Largest relative difference a PageRank value may show against the
/// sequential reference. Engines sum f32 shares in other orders than the
/// reference does; over 10 iterations that moves values by ~1e-6.
pub const PAGERANK_REL_TOL: f32 = 1e-4;

/// One engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `run_seq`: the one-thread baseline.
    Seq,
    /// `run_flat` on two threads.
    Omp,
    /// `run_single`, locking insertion, two threads.
    Lock,
    /// `run_single`, pipelined insertion: one worker and one mover.
    Pipe,
    /// `run_ranks` over CPU + MIC, 1:1 hybrid partition, one locking
    /// thread per rank.
    Fabric2,
}

impl Engine {
    pub const ALL: [Engine; 5] = [
        Engine::Seq,
        Engine::Omp,
        Engine::Lock,
        Engine::Pipe,
        Engine::Fabric2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Engine::Seq => "seq",
            Engine::Omp => "omp",
            Engine::Lock => "lock",
            Engine::Pipe => "pipe",
            Engine::Fabric2 => "fabric2",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// The per-rank engine configurations (one entry for single-device
    /// runs, one per rank for fabric2).
    pub fn configs(self) -> Vec<EngineConfig> {
        match self {
            Engine::Seq => vec![EngineConfig::sequential()],
            Engine::Omp => vec![EngineConfig::flat().with_host_threads(2)],
            Engine::Lock => vec![EngineConfig::locking().with_host_threads(2)],
            Engine::Pipe => vec![EngineConfig::pipelined().with_host_threads(2)],
            Engine::Fabric2 => vec![EngineConfig::locking().with_host_threads(1); 2],
        }
    }

    /// Host threads the configuration computes on at once. The pipelined
    /// engine always runs at least one worker and one mover.
    pub fn host_threads(self) -> usize {
        self.configs()
            .iter()
            .map(|c| {
                let h = c.resolve_host_threads();
                if self == Engine::Pipe {
                    let movers = (h / 4).max(1);
                    movers + h.saturating_sub(movers).max(1)
                } else {
                    h
                }
            })
            .sum()
    }
}

fn cpu() -> DeviceSpec {
    DeviceSpec::xeon_e5_2680()
}

fn specs() -> [DeviceSpec; 2] {
    [DeviceSpec::xeon_e5_2680(), DeviceSpec::xeon_phi_se10p()]
}

fn link() -> PcieLink {
    PcieLink::gen2_x16()
}

/// One complete, checked application run, with what the metrics need
/// from the driver's report.
#[derive(Clone, Debug, Default)]
pub struct Run {
    pub wall: f64,
    pub checksum: u64,
    pub correct: bool,
    /// Simulated device seconds: total, and the generate, process, update
    /// and exchange parts.
    pub sim_s: f64,
    pub sim_generate_s: f64,
    pub sim_process_s: f64,
    pub sim_update_s: f64,
    pub sim_comm_s: f64,
    /// Host wall of each superstep, as the driver recorded it.
    pub step_walls: Vec<f64>,
    /// Messages the run sent.
    pub msgs: u64,
    /// Remote messages before and after combining, and bytes exchanged,
    /// summed over ranks (each rank counts what it sent and received).
    pub remote_before: u64,
    pub remote_after: u64,
    pub comm_bytes: u64,
}

impl Run {
    fn new(wall: f64, checksum: u64, correct: bool, report: &RunReport) -> Self {
        let sum = |f: fn(&StepReport) -> f64| report.steps.iter().map(f).sum::<f64>();
        let count = |f: fn(&StepReport) -> u64| report.steps.iter().map(f).sum::<u64>();
        Run {
            wall,
            checksum,
            correct,
            sim_s: report.sim_total(),
            sim_generate_s: sum(|s| s.times.gen),
            sim_process_s: sum(|s| s.times.process),
            sim_update_s: sum(|s| s.times.update),
            sim_comm_s: report.sim_comm(),
            step_walls: report.steps.iter().map(|s| s.wall).collect(),
            msgs: report.total_msgs(),
            remote_before: count(|s| s.counters.remote_before_combine),
            remote_after: count(|s| s.counters.remote_after_combine),
            comm_bytes: report.total_comm_bytes(),
        }
    }
}

/// A benchmark-owned traced run: its checked outcome plus the layer trace.
pub enum Traced {
    Single(Run, SingleTrace),
    Fabric(Run, FabricTrace),
}

/// A workload after set-up: graph, program, partition and reference.
pub trait Case {
    /// One complete untraced run of `engine`, timed from outside.
    fn run(&self, engine: Engine) -> Run;
    /// One traced run through the benchmark's own loops, for the engines
    /// that have one on this workload's path.
    fn traced(&self, _engine: Engine) -> Option<Traced> {
        None
    }
}

/// Accepts or rejects one run's final values against the reference.
type Check<V> = Box<dyn Fn(&[V]) -> bool>;

/// A workload on the CSB (plain-old-data message) path.
struct PodCase<P: VertexProgram> {
    graph: Csr,
    program: P,
    partition: DevicePartition,
    check: Check<P::Value>,
    word: fn(&P::Value) -> u64,
}

impl<P: VertexProgram> PodCase<P> {
    fn outcome(&self, values: &[P::Value], wall: f64, report: &RunReport) -> Run {
        let checksum = values
            .iter()
            .fold(Fnv::new(), |h, v| h.word((self.word)(v)))
            .finish();
        let correct = values.len() == self.graph.num_vertices() && (self.check)(values);
        Run::new(wall, checksum, correct, report)
    }
}

impl<P: VertexProgram> Case for PodCase<P> {
    fn run(&self, engine: Engine) -> Run {
        let (p, g) = (&self.program, &self.graph);
        let cfgs = engine.configs();
        let t = Instant::now();
        let out: RunOutput<P::Value> = match engine {
            Engine::Seq => run_seq(p, g, cpu(), &cfgs[0]),
            Engine::Omp => run_flat(p, g, cpu(), &cfgs[0]),
            Engine::Lock | Engine::Pipe => run_single(p, g, cpu(), &cfgs[0]),
            Engine::Fabric2 => run_ranks(p, g, &self.partition, &specs(), &cfgs, link()),
        };
        let wall = t.elapsed().as_secs_f64();
        self.outcome(&out.values, wall, &out.report)
    }

    fn traced(&self, engine: Engine) -> Option<Traced> {
        let (p, g) = (&self.program, &self.graph);
        let cfgs = engine.configs();
        match engine {
            Engine::Lock | Engine::Pipe => {
                let (values, tr) = single_rank(p, g, cpu(), &cfgs[0]);
                let run = self.outcome(&values, tr.wall, &RunReport::default());
                Some(Traced::Single(run, tr))
            }
            Engine::Fabric2 => {
                let cfgs = [cfgs[0].clone(), cfgs[1].clone()];
                let (values, tr) = two_rank(p, g, &self.partition, &specs(), &cfgs, link());
                let run = self.outcome(&values, tr.wall, &RunReport::default());
                Some(Traced::Fabric(run, tr))
            }
            Engine::Seq | Engine::Omp => None,
        }
    }
}

/// Semi-Clustering on the object-message (mailbox) path. The mailbox
/// engine has no public phase calls, so it has no traced loop; its layers
/// come from the untraced runs' step reports.
struct ObjCase {
    graph: Csr,
    program: SemiClustering,
    partition: DevicePartition,
    reference: Vec<Vec<SemiCluster>>,
}

impl Case for ObjCase {
    fn run(&self, engine: Engine) -> Run {
        let (p, g) = (&self.program, &self.graph);
        let cfgs = engine.configs();
        let t = Instant::now();
        let out = match engine {
            Engine::Fabric2 => run_obj_hetero(
                p,
                g,
                &self.partition,
                specs(),
                [cfgs[0].clone(), cfgs[1].clone()],
                link(),
            ),
            _ => run_obj_single(p, g, cpu(), &cfgs[0]),
        };
        let wall = t.elapsed().as_secs_f64();
        let mut h = Fnv::new();
        for clusters in &out.values {
            h = h.word(clusters.len() as u64);
            for c in clusters {
                h = h
                    .word(c.members.len() as u64)
                    .word(c.inner.to_bits() as u64)
                    .word(c.boundary.to_bits() as u64);
                for &m in &c.members {
                    h = h.word(m as u64);
                }
            }
        }
        Run::new(wall, h.finish(), out.values == self.reference, &out.report)
    }
}

/// A set-up workload and what each part of its set-up took.
pub struct Setup {
    pub case: Box<dyn Case>,
    /// Graph generation plus program construction.
    pub graph_s: f64,
    /// Hybrid partitioning for fabric2.
    pub partition_s: f64,
    /// Share of edges that cross the fabric2 partition.
    pub cut_frac: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.graph_s + self.partition_s
    }
}

/// The fabric2 partition and what building it took.
struct Hybrid {
    partition: DevicePartition,
    secs: f64,
    cut_frac: f64,
}

/// The paper's hybrid scheme, 256 blocks, dealt 1:1 to CPU and MIC.
fn hybrid(g: &Csr, seed: u64) -> Hybrid {
    let t = Instant::now();
    let scheme = PartitionScheme::Hybrid { blocks: 256 };
    let partition = partition(g, scheme, Ratio::new(1, 1), seed);
    let secs = t.elapsed().as_secs_f64();
    let cut_frac = PartitionStats::compute(g, &partition).cross_fraction();
    Hybrid {
        partition,
        secs,
        cut_frac,
    }
}

/// Generate `workload`'s inputs from `seed` (`None` for an unknown name).
pub fn set_up(workload: &str, seed: u64) -> Option<Setup> {
    let t = Instant::now();
    let setup = match workload {
        "pagerank-pokec" => {
            let graph = pokec_like(Scale::Medium, seed);
            let program = PageRank {
                damping: 0.85,
                iterations: PAGERANK_ITERS,
            };
            let graph_s = t.elapsed().as_secs_f64();
            let reference = pagerank_reference(&graph, 0.85, PAGERANK_ITERS);
            let check = move |vals: &[f32]| {
                vals.iter()
                    .zip(&reference)
                    .all(|(&a, &b)| (a - b).abs() <= PAGERANK_REL_TOL * b.abs().max(1.0))
            };
            pod(graph, program, graph_s, seed, check, |v| v.to_bits() as u64)
        }
        "bfs-grid" => {
            let graph = grid(256, 256, true);
            let corners = [0, 255, 256 * 255, 256 * 256 - 1];
            let program = Bfs {
                source: corners[(seed % 4) as usize],
            };
            let graph_s = t.elapsed().as_secs_f64();
            let reference = bfs_reference(&graph, program.source);
            let check = move |vals: &[i32]| vals == reference.as_slice();
            pod(graph, program, graph_s, seed, check, |v| *v as u32 as u64)
        }
        "toposort-dag" => {
            let graph = toposort_dag(Scale::Medium, seed);
            let program = TopoSort::new(&graph);
            let graph_s = t.elapsed().as_secs_f64();
            let reference = kahn_levels(&graph).expect("toposort_dag generates an acyclic graph");
            let check = move |vals: &[TopoValue]| {
                vals.iter()
                    .zip(&reference)
                    .all(|(v, &l)| v.remaining == 0 && v.level == l)
            };
            pod(graph, program, graph_s, seed, check, |v| {
                (v.remaining as u64) << 32 | v.level as u64
            })
        }
        "semicluster-dblp" => {
            let (graph, _labels) = dblp_like(Scale::Small, seed);
            let program = SemiClustering {
                iterations: SEMICLUSTER_ITERS,
                ..Default::default()
            };
            let graph_s = t.elapsed().as_secs_f64();
            let reference = semicluster_reference(&program, &graph);
            let h = hybrid(&graph, seed);
            Setup {
                graph_s,
                partition_s: h.secs,
                cut_frac: h.cut_frac,
                case: Box::new(ObjCase {
                    graph,
                    program,
                    partition: h.partition,
                    reference,
                }),
            }
        }
        _ => return None,
    };
    Some(setup)
}

/// Partition a CSB-path workload and wrap it with its reference check and
/// the per-value checksum word.
fn pod<P: VertexProgram>(
    graph: Csr,
    program: P,
    graph_s: f64,
    seed: u64,
    check: impl Fn(&[P::Value]) -> bool + 'static,
    word: fn(&P::Value) -> u64,
) -> Setup {
    let h = hybrid(&graph, seed);
    Setup {
        graph_s,
        partition_s: h.secs,
        cut_frac: h.cut_frac,
        case: Box::new(PodCase {
            graph,
            program,
            partition: h.partition,
            check: Box::new(check),
            word,
        }),
    }
}
