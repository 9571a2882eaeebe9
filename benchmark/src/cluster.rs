//! The three cluster workloads: the paper's 48-rank sweep with sizes
//! only, and the 512-rank byte-materialized run with a hard node
//! failure, on one and on two threads.
//!
//! None of them takes input from `--seed`: the applications are fixed
//! synthetic shapes and the failure is scripted, so every repetition
//! simulates exactly the same thing and the virtual-clock results are
//! compared with `expected_virtual.json` bit for bit.

use crate::bench::{
    best_of, harness_layers, Bench, Layer, Rep, Section, Stopwatch, Tally, REP_SPAN, TRACED_REP,
};
use crate::spans::Spans;
use cluster_sim::{
    Cluster, ClusterConfig, FailureEvent, FailureKind, FailureSchedule, RecoverySource,
    RemoteConfig, RunOptions, RunOutcome, RunResult, UniformWorkload, Workload,
};
use hpc_workloads::SyntheticApp;
use nvm_chkpt::{EngineConfig, Materialization, PrecopyPolicy};
use nvm_emu::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The virtual-clock results of one simulated run that must never
/// change without an explicit `--bless-virtual`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VirtualRow {
    /// `app/policy`, or the 512-rank run's name.
    pub run: String,
    /// `RunResult::total_time`, nanoseconds.
    pub total_time_ns: u64,
    /// `engine_stats.coordinated_time` summed over ranks — the paper's
    /// blocking checkpoint time — nanoseconds.
    pub ckpt_blocked_ns: u64,
    /// `RunResult::peak_link_bytes()`.
    pub peak_link_bytes: f64,
    /// Coordinated local checkpoints taken.
    pub local_checkpoints: u64,
    /// Remote checkpoints committed.
    pub remote_checkpoints: u64,
    /// Bytes moved by background pre-copy.
    pub precopied_bytes: u64,
    /// Bytes moved inside blocking checkpoints.
    pub coordinated_bytes: u64,
    /// Pre-copied bytes invalidated by a later write.
    pub wasted_precopy_bytes: u64,
    /// Protection faults taken.
    pub faults: u64,
}

impl VirtualRow {
    fn of(run: &str, r: &RunResult) -> Self {
        VirtualRow {
            run: run.to_string(),
            total_time_ns: r.total_time.as_nanos(),
            ckpt_blocked_ns: r.engine_stats.coordinated_time.as_nanos(),
            peak_link_bytes: r.peak_link_bytes(),
            local_checkpoints: r.local_checkpoints,
            remote_checkpoints: r.remote_checkpoints,
            precopied_bytes: r.engine_stats.precopied_bytes,
            coordinated_bytes: r.engine_stats.coordinated_bytes,
            wasted_precopy_bytes: r.engine_stats.wasted_precopy_bytes,
            faults: r.engine_stats.faults,
        }
    }
}

/// `expected_virtual.json`: the blessed rows of both cluster shapes.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExpectedVirtual {
    /// The twelve runs of `hpc_model48`, in sweep order.
    pub hpc_model48: Vec<VirtualRow>,
    /// The one run `ranks512_bytes_t1` and `_t2` share.
    pub ranks512_bytes: Vec<VirtualRow>,
}

impl ExpectedVirtual {
    /// The rows compiled into this binary.
    pub fn blessed() -> Self {
        serde_json::from_str(include_str!("../expected_virtual.json"))
            .expect("benchmark/expected_virtual.json parses")
    }
}

/// Which cluster the workload simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 4 x 12 ranks, paper sizes, synthetic materialization.
    Hpc48,
    /// 64 x 8 ranks, real bytes, on this many threads.
    Ranks512 {
        /// Rank-execution worker threads.
        threads: usize,
    },
}

const APPS: [&str; 3] = ["gtc", "lammps", "cm1"];
const POLICIES: [(PrecopyPolicy, &str); 4] = [
    (PrecopyPolicy::None, "none"),
    (PrecopyPolicy::Cpc, "cpc"),
    (PrecopyPolicy::Dcpc, "dcpc"),
    (PrecopyPolicy::Dcpcp, "dcpcp"),
];

const HPC_NODES: usize = 4;
const HPC_RANKS_PER_NODE: usize = 12;
const HPC_ITERATIONS: u64 = 24;
/// Two version slots of ~460 MB of chunks plus allocator slack — the
/// sizing the repository's own paper preset uses.
const HPC_CONTAINER_BYTES: usize = (460 << 20) * 2 + (8 << 20);

const BIG_RANKS: usize = 512;
const BIG_RANKS_PER_NODE: usize = 8;
const BIG_CHUNKS: usize = 4;
const BIG_CHUNK_BYTES: usize = 64 << 10;
const BIG_ITERATIONS: u64 = 8;
/// Node 1 dies after the first remote boundary (t = 10 s), so its
/// ranks come back from the buddy's images.
const BIG_FAILURE_AT_S: u64 = 11;

fn hpc_config(policy: PrecopyPolicy) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(HPC_NODES)
        .ranks_per_node(HPC_RANKS_PER_NODE)
        .container_bytes(HPC_CONTAINER_BYTES)
        .engine(
            EngineConfig::builder()
                .materialization(Materialization::Synthetic)
                .checksums(false)
                .node_concurrency(HPC_RANKS_PER_NODE)
                .precopy(policy)
                .build()
                .expect("valid hpc engine config"),
        )
        .local_interval(Some(SimDuration::from_secs(40)))
        .remote(RemoteConfig::infiniband(
            SimDuration::from_secs(80),
            policy.enabled(),
        ))
        .iterations(HPC_ITERATIONS)
        .threads(1)
        .build()
        .expect("valid hpc cluster config")
}

fn hpc_app(app: &str) -> Box<dyn Workload> {
    let a = match app {
        "gtc" => SyntheticApp::gtc(),
        "lammps" => SyntheticApp::lammps(),
        "cm1" => SyntheticApp::cm1(),
        other => unreachable!("unknown app {other}"),
    };
    Box::new(a.with_compute(SimDuration::from_secs(10)))
}

fn big_config(threads: usize) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(BIG_RANKS / BIG_RANKS_PER_NODE)
        .ranks_per_node(BIG_RANKS_PER_NODE)
        .container_bytes(BIG_CHUNKS * BIG_CHUNK_BYTES * 2 + (1 << 20))
        .engine(
            EngineConfig::builder()
                .materialization(Materialization::Bytes)
                .checksums(true)
                .precopy(PrecopyPolicy::Dcpcp)
                .node_concurrency(BIG_RANKS_PER_NODE)
                .build()
                .expect("valid 512-rank engine config"),
        )
        .local_interval(Some(SimDuration::from_secs(5)))
        .remote(RemoteConfig::infiniband(SimDuration::from_secs(10), true))
        .iterations(BIG_ITERATIONS)
        .threads(threads)
        .schedule(FailureSchedule::from_events(vec![FailureEvent {
            at: SimTime::from_secs(BIG_FAILURE_AT_S),
            kind: FailureKind::Hard,
            node: 1,
        }]))
        .build()
        .expect("valid 512-rank cluster config")
}

fn big_app(_rank: u64) -> Box<dyn Workload> {
    Box::new(UniformWorkload::new(
        BIG_CHUNKS,
        BIG_CHUNK_BYTES,
        SimDuration::from_secs(2),
        BIG_CHUNK_BYTES as u64,
    ))
}

/// One sweep's worth of finished runs.
struct Sweep {
    /// One section per run.
    sections: Vec<Section>,
    rank_iterations: u64,
    runs: Vec<(String, RunOutcome)>,
}

impl Sweep {
    fn wall_s(&self) -> f64 {
        self.sections.iter().map(|s| s.secs).sum()
    }

    fn into_rep(self) -> Rep {
        Rep {
            sections: self.sections,
            work: self.rank_iterations as f64,
        }
    }
}

/// A cluster workload.
pub struct ClusterBench {
    shape: Shape,
    expected: Vec<VirtualRow>,
    /// The latest checked run's `RunResult` as JSON (512 ranks only):
    /// what `finish` compares the other thread count against.
    last_json: Option<String>,
}

impl ClusterBench {
    /// The workload for `shape`, checked against the blessed rows.
    pub fn new(shape: Shape) -> Self {
        let blessed = ExpectedVirtual::blessed();
        ClusterBench {
            shape,
            expected: match shape {
                Shape::Hpc48 => blessed.hpc_model48,
                Shape::Ranks512 { .. } => blessed.ranks512_bytes,
            },
            last_json: None,
        }
    }

    /// Run the whole sweep once on `threads` threads with `opts`.
    fn sweep(&self, spans: &mut Spans, opts: &RunOptions, threads: usize) -> Sweep {
        let rep = spans.enter(REP_SPAN);
        let mut watch = Stopwatch::start();
        let mut runs = Vec::new();
        match self.shape {
            Shape::Hpc48 => {
                for app in APPS {
                    for (policy, pname) in POLICIES {
                        let cluster = Cluster::new(hpc_config(policy), move |_| hpc_app(app));
                        let (out, _) = spans.time("cluster-sim.run", || cluster.run(opts.clone()));
                        watch.lap(true);
                        runs.push((format!("{app}/{pname}"), out));
                    }
                }
            }
            Shape::Ranks512 { .. } => {
                let cluster = Cluster::new(big_config(threads), big_app);
                let (out, _) = spans.time("cluster-sim.run", || cluster.run(opts.clone()));
                watch.lap(true);
                runs.push(("ranks512_bytes".to_string(), out));
            }
        }
        spans.exit(rep);
        let ranks = match self.shape {
            Shape::Hpc48 => HPC_NODES * HPC_RANKS_PER_NODE,
            Shape::Ranks512 { .. } => BIG_RANKS,
        } as u64;
        let mut done = Vec::new();
        let mut rank_iterations = 0;
        for (name, out) in runs {
            match out {
                Ok(out) => {
                    rank_iterations += ranks * out.result.iterations_executed;
                    done.push((name, out));
                }
                Err(e) => eprintln!("CHECK FAILED: run {name}: {e}"),
            }
        }
        Sweep {
            sections: watch.finish(),
            rank_iterations,
            runs: done,
        }
    }

    /// Check one sweep's outputs: every run finished, its virtual
    /// numbers equal the blessed row, and (512 ranks) every chunk of
    /// the failed node came back from the buddy, bit-verified.
    fn check(&mut self, sweep: &Sweep, tally: &mut Tally) {
        tally.check(sweep.runs.len() == self.expected.len(), || {
            format!(
                "{} of {} runs finished",
                sweep.runs.len(),
                self.expected.len()
            )
        });
        for (name, out) in &sweep.runs {
            let got = VirtualRow::of(name, &out.result);
            let want = self.expected.iter().find(|r| &r.run == name);
            tally.check(want == Some(&got), || {
                format!("virtual results of {name} changed: got {got:?}, blessed {want:?}")
            });
            if matches!(self.shape, Shape::Ranks512 { .. }) {
                check_buddy_recovery(&out.result, tally);
                self.last_json = Some(result_json(&out.result));
            }
        }
    }

    fn own_threads(&self) -> usize {
        match self.shape {
            Shape::Hpc48 => 1,
            Shape::Ranks512 { threads } => threads,
        }
    }

    /// The rows a `--bless-virtual` writes for this shape.
    pub fn measure_virtual(shape: Shape) -> Vec<VirtualRow> {
        let bench = ClusterBench {
            shape,
            expected: Vec::new(),
            last_json: None,
        };
        let sweep = bench.sweep(
            &mut Spans::new(false),
            &RunOptions::new(),
            bench.own_threads(),
        );
        sweep
            .runs
            .iter()
            .map(|(name, out)| VirtualRow::of(name, &out.result))
            .collect()
    }
}

fn result_json(result: &RunResult) -> String {
    serde_json::to_string(result).expect("RunResult serializes")
}

/// The failed node's eight ranks hold four 64 KiB chunks each.
const RECOVERED_CHUNKS: u64 = (BIG_RANKS_PER_NODE * BIG_CHUNKS) as u64;

fn check_buddy_recovery(result: &RunResult, tally: &mut Tally) {
    tally.check(result.recovery.len() == 1, || {
        format!("{} recoveries, expected 1", result.recovery.len())
    });
    for rec in &result.recovery {
        tally.check(rec.source == RecoverySource::RemoteBuddy, || {
            format!("node {} recovered from {}", rec.node, rec.source.name())
        });
        tally.check(
            rec.verified_chunks == RECOVERED_CHUNKS && rec.chunks.len() as u64 == RECOVERED_CHUNKS,
            || {
                format!(
                    "{} chunks verified, {} recorded, expected {RECOVERED_CHUNKS}",
                    rec.verified_chunks,
                    rec.chunks.len()
                )
            },
        );
        for c in &rec.chunks {
            tally.check(c.len == BIG_CHUNK_BYTES as u64, || {
                format!("rank {} chunk {} restored {} bytes", c.rank, c.name, c.len)
            });
        }
    }
}

impl Bench for ClusterBench {
    fn setup(&mut self, tally: &mut Tally) {
        let warm = self.sweep(
            &mut Spans::new(false),
            &RunOptions::new(),
            self.own_threads(),
        );
        self.check(&warm, tally);
    }

    fn rep(&mut self, spans: &mut Spans, tally: &mut Tally) -> Rep {
        let sweep = self.sweep(spans, &RunOptions::new(), self.own_threads());
        self.check(&sweep, tally);
        sweep.into_rep()
    }

    /// 512 ranks: the same run on the other thread count must
    /// serialize to the same bytes.
    fn finish(&mut self, tally: &mut Tally) {
        let Shape::Ranks512 { threads } = self.shape else {
            return;
        };
        let other = if threads == 1 { 2 } else { 1 };
        let sweep = self.sweep(&mut Spans::new(false), &RunOptions::new(), other);
        let theirs = sweep.runs.first().map(|(_, out)| result_json(&out.result));
        tally.check(theirs.is_some() && theirs == self.last_json, || {
            format!("RunResult JSON differs between {threads} and {other} threads")
        });
    }

    fn layers(&mut self, spans: &mut Spans, plain_wall_s: f64, tally: &mut Tally, out: &mut Layer) {
        let threads = self.own_threads();
        spans.set_rep(TRACED_REP);
        let capture = RunOptions::new()
            .with_profile(true)
            .with_metrics(true)
            .with_trace(true);
        let traced = self.sweep(spans, &capture, threads);
        self.check(&traced, tally);
        harness_layers(spans, traced.wall_s(), plain_wall_s, out);

        // Product capture, one option at a time, against the plain wall.
        let overhead = |opts: RunOptions| {
            let s = self.sweep(&mut Spans::new(false), &opts, threads);
            (s.wall_s() / plain_wall_s - 1.0) * 100.0
        };
        out.set(
            "nvm-trace.capture_overhead_pct",
            overhead(RunOptions::new().with_trace(true)),
        );
        out.set(
            "nvm-metrics.capture_overhead_pct",
            overhead(RunOptions::new().with_metrics(true)),
        );

        // Measured, not projected: wall on one thread over twice the
        // wall on two.
        if let Shape::Ranks512 { threads } = self.shape {
            let other = if threads == 1 { 2 } else { 1 };
            let reps: Vec<Rep> = (0..3)
                .map(|_| {
                    self.sweep(&mut Spans::new(false), &RunOptions::new(), other)
                        .into_rep()
                })
                .collect();
            let (other_wall_s, _) = best_of(&reps);
            let (t1, t2) = if threads == 1 {
                (plain_wall_s, other_wall_s)
            } else {
                (other_wall_s, plain_wall_s)
            };
            out.set("cluster-sim.parallel_efficiency", t1 / (2.0 * t2));
        }

        let mb = 1e6;
        let (mut rank_busy, mut merge_busy, mut coordinator) = (0u64, 0u64, 0u64);
        let (mut events, mut barriers) = (0u64, 0u64);
        let (mut exposed, mut hidden, mut wasted_ns) = (0u64, 0u64, 0u64);
        let (mut virt_wall, mut peak_link) = (0u64, 0f64);
        let mut engine = nvm_chkpt::EngineStats::default();
        let (mut helper_bytes, mut helper_util, mut helpers) = (0u64, 0f64, 0usize);
        let (mut fetched, mut verified) = (0u64, 0u64);
        let (mut spill_peak, mut spill_resident) = (0u64, 0u64);
        let mut analyze_s = 0.0;
        for (_, run) in &traced.runs {
            if let Some(p) = &run.profile {
                rank_busy += p.total_rank_busy_ns();
                merge_busy += p.total_merge_busy_ns();
                coordinator += p.coordinator_ns();
            }
            if let Some(s) = &run.spill {
                spill_peak += s.peak_bytes;
                spill_resident += s.resident_bytes;
            }
            let r = &run.result;
            events += r.trace.len() as u64;
            let (report, took) = spans.time("nvm-obs.analyze", || {
                nvm_obs::analyze(&r.trace, nvm_obs::DEFAULT_BUCKET_NS)
            });
            analyze_s += took.as_secs_f64();
            barriers += report.blame.barriers;
            exposed += report.blame.exposed_checkpoint_ns;
            hidden += report.blame.hidden_precopy_ns;
            wasted_ns += report.blame.wasted_precopy_ns;
            virt_wall += r.total_time.as_nanos();
            peak_link = peak_link.max(r.peak_link_bytes());
            engine += &r.engine_stats;
            helper_bytes += r.helper_stats.iter().map(|h| h.bytes_copied).sum::<u64>();
            helper_util += r.helper_utilization.iter().sum::<f64>();
            helpers += r.helper_utilization.len();
            fetched += r.recovery.iter().map(|x| x.bytes_fetched).sum::<u64>();
            verified += r.recovery.iter().map(|x| x.verified_chunks).sum::<u64>();
        }
        out.set("cluster-sim.rank_busy_ms", rank_busy as f64 / 1e6);
        out.set("cluster-sim.merge_busy_ms", merge_busy as f64 / 1e6);
        out.set("cluster-sim.coordinator_ms", coordinator as f64 / 1e6);
        out.set("cluster-sim.barriers", barriers as f64);
        out.set("workloads.sweep_runs", traced.runs.len() as f64);
        out.set_engine(&engine);
        out.set("nvm-emu.spill_peak_mb", spill_peak as f64 / mb);
        out.set("nvm-emu.spill_resident_mb", spill_resident as f64 / mb);
        out.set("rdma-sim.helper_bytes_copied", helper_bytes as f64);
        out.set(
            "rdma-sim.helper_utilization",
            helper_util / helpers.max(1) as f64,
        );
        out.set("rdma-sim.recovery_bytes_fetched", fetched as f64);
        out.set("rdma-sim.recovery_chunks_verified", verified as f64);
        out.set("nvm-trace.events", events as f64);
        out.set(
            "nvm-obs.analyze_mevents_s",
            events as f64 / 1e6 / analyze_s.max(f64::MIN_POSITIVE),
        );
        out.set("nvm-obs.exposed_ckpt_ms", exposed as f64 / 1e6);
        out.set("nvm-obs.hidden_precopy_ms", hidden as f64 / 1e6);
        out.set("nvm-obs.wasted_precopy_ms", wasted_ns as f64 / 1e6);
        out.set("virt.wall_s", virt_wall as f64 / 1e9);
        out.set("virt.peak_link_mb", peak_link / mb);
    }
}
