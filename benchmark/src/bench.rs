//! What a workload implements, and the loop that measures it.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::{host, probes, stats};
use nvm_chkpt::{EngineStats, StoreStats};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Repetitions the timed pass never goes below, however slow the host.
pub const MIN_REPS: usize = 3;

/// Operations attempted and failed (or wrong) so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Runs, kv operations, chunk verifications, output comparisons.
    pub attempted: u64,
    /// Those that failed or produced a wrong result.
    pub failed: u64,
}

impl Tally {
    /// Count one check; a miss is reported on stderr with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Count `n` operations of which `wrong` failed; misses are
    /// reported on stderr as one line naming `what`.
    pub fn batch(&mut self, n: u64, wrong: u64, what: &str) {
        self.attempted += n;
        self.failed += wrong;
        if wrong > 0 {
            eprintln!("CHECK FAILED: {wrong} of {n} {what}");
        }
    }
}

/// One timed section of a repetition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Section {
    /// Host seconds it took.
    pub secs: f64,
    /// Whether it is the foreground work `work_per_s` counts (serving,
    /// simulating, committing, restarting) as opposed to the rest of
    /// the repetition (kv recovery, the store workload's byte fill).
    pub work: bool,
}

/// One measured repetition: its sections, in order, tiling the
/// measured part; every repetition of a workload has the same ones.
#[derive(Clone, Debug)]
pub struct Rep {
    /// The timed sections.
    pub sections: Vec<Section>,
    /// Units of work done (see the workload's `work_per_s` definition).
    pub work: f64,
}

impl Rep {
    /// Host seconds the whole repetition took.
    pub fn wall_s(&self) -> f64 {
        self.sections.iter().map(|s| s.secs).sum()
    }
}

/// Splits a repetition into [`Section`]s: each `lap` closes the
/// section that began at the previous one.
pub struct Stopwatch {
    last: Instant,
    sections: Vec<Section>,
}

impl Stopwatch {
    /// Start the first section now.
    pub fn start() -> Self {
        Stopwatch {
            last: Instant::now(),
            sections: Vec::new(),
        }
    }

    /// Close the current section and start the next.
    pub fn lap(&mut self, work: bool) {
        let now = Instant::now();
        self.sections.push(Section {
            secs: now.duration_since(self.last).as_secs_f64(),
            work,
        });
        self.last = now;
    }

    /// The sections closed so far.
    pub fn finish(self) -> Vec<Section> {
        self.sections
    }
}

/// `(wall_s, work_s)` of the best repetition that could be assembled
/// from `reps`: each section at the fastest any repetition ran it.
///
/// Interference on a shared host is one-sided — neighbours only ever
/// add time — and comes in bursts of a fraction of a second to a few
/// seconds. A median over repetitions measures the code plus whatever
/// the neighbours did during the run (run-to-run spread of the median
/// reached 37 % on the builder's host); the per-section minimum
/// measures the code, and needs only one quiet moment per section
/// across all repetitions rather than one entirely quiet repetition.
pub fn best_of(reps: &[Rep]) -> (f64, f64) {
    let sections = reps.iter().map(|r| r.sections.len()).min().unwrap_or(0);
    let (mut wall_s, mut work_s) = (0.0, 0.0);
    for i in 0..sections {
        let best = reps
            .iter()
            .map(|r| r.sections[i].secs)
            .fold(f64::INFINITY, f64::min);
        wall_s += best;
        if reps[0].sections[i].work {
            work_s += best;
        }
    }
    (wall_s, work_s)
}

/// Per-layer values gathered by the traced pass; unset names read 0.
#[derive(Default)]
pub struct Layer(BTreeMap<&'static str, f64>);

impl Layer {
    /// Record `name = value`. Panics on a name the catalog lacks, so a
    /// typo cannot silently drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The `chkpt.*` counts, from one engine's (or a whole sweep's
    /// summed) statistics.
    pub fn set_engine(&mut self, e: &EngineStats) {
        self.set("chkpt.precopied_bytes", e.precopied_bytes as f64);
        self.set("chkpt.coordinated_bytes", e.coordinated_bytes as f64);
        self.set("chkpt.wasted_precopy_bytes", e.wasted_precopy_bytes as f64);
        self.set(
            "chkpt.wasted_ratio",
            e.wasted_precopy_bytes as f64 / (e.precopied_bytes as f64).max(1.0),
        );
        self.set("chkpt.precopy_fraction", e.precopy_fraction());
        self.set("chkpt.faults", e.faults as f64);
        self.set("virt.ckpt_blocked_s", e.coordinated_time.as_secs_f64());
    }

    /// The `nvm-store.*` counts and the write amplification over
    /// `user_bytes` handed to the engine.
    pub fn set_store(&mut self, s: &StoreStats, user_bytes: u64) {
        self.set("nvm-store.bytes_written", s.bytes_written as f64);
        self.set("nvm-store.fsyncs", s.fsyncs as f64);
        self.set("nvm-store.commits", s.commits as f64);
        self.set(
            "user.write_amp",
            s.bytes_written as f64 / (user_bytes as f64).max(1.0),
        );
    }
}

/// A workload: fixtures, one repetition, output checks, and the traced
/// pass that attributes its time to layers.
pub trait Bench {
    /// Build what the first repetition needs and run a warm-up, so
    /// caches are filled and lazy set-up has finished. Timed from
    /// process start as one `setup_s` sample.
    fn setup(&mut self, tally: &mut Tally);

    /// Fresh processes that repeat the set-up besides this one;
    /// `setup_s` is the fastest of them all (see [`best_of`] for why
    /// not the median).
    fn setup_children(&self) -> usize {
        2
    }

    /// One repetition with its output checks.
    fn rep(&mut self, spans: &mut Spans, tally: &mut Tally) -> Rep;

    /// Checks that need more than one repetition; runs once, untimed.
    fn finish(&mut self, _tally: &mut Tally) {}

    /// The traced pass: one repetition under `spans`, product capture
    /// where the workload has any, and the counts behind the per-layer
    /// metrics. `plain_wall_s` is the untraced [`best_of`] wall to
    /// compare with.
    fn layers(&mut self, spans: &mut Spans, plain_wall_s: f64, tally: &mut Tally, out: &mut Layer);
}

/// Everything one invocation was asked to do.
pub struct Ctx {
    /// `--workload`.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the repetition loop measures.
    pub seconds: f64,
    /// Where span files go.
    pub out_dir: PathBuf,
    /// Scratch directory for container, spill and store files; removed
    /// on exit.
    pub tmp: PathBuf,
}

/// What one invocation found.
pub struct Outcome {
    /// Checks made and missed.
    pub tally: Tally,
    /// Metric name to value: the end-to-end set, or the per-layer set
    /// for a traced invocation.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), serde_json::to_value(&value).unwrap()),
                        ("unit".to_string(), Value::String(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.tally.failed == 0)),
            (
                "attempted".to_string(),
                serde_json::to_value(&self.tally.attempted).unwrap(),
            ),
            (
                "failed".to_string(),
                serde_json::to_value(&self.tally.failed).unwrap(),
            ),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("result serializes")
    }
}

/// Repeat `bench.rep` until `seconds` have passed and at least
/// `min_reps` repetitions are in.
fn measure(
    bench: &mut dyn Bench,
    spans: &mut Spans,
    tally: &mut Tally,
    seconds: f64,
    min_reps: usize,
) -> Vec<Rep> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || t0.elapsed().as_secs_f64() < seconds {
        reps.push(bench.rep(spans, tally));
    }
    reps
}

/// Seconds from process start to ready-to-measure, as reported by a
/// fresh child process running only the set-up of the same workload.
fn setup_in_child(ctx: &Ctx) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &ctx.workload])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--out", &ctx.out_dir.to_string_lossy()])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.trim().parse::<f64>().ok())
        .ok_or_else(|| "set-up child printed no time".to_string())
}

/// The timed pass: set-up (here and in fresh children), repetitions
/// for `ctx.seconds`, output checks; reports the end-to-end metrics.
pub fn timed_pass(bench: &mut dyn Bench, ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    // Children first, one at a time, so nothing competes with them or
    // with the measurement below.
    let mut setups = Vec::new();
    for _ in 0..bench.setup_children() {
        match setup_in_child(ctx) {
            Ok(s) => setups.push(s),
            Err(e) => tally.check(false, || e),
        }
    }
    let own = Instant::now();
    bench.setup(&mut tally);
    setups.push(own.elapsed().as_secs_f64());

    let mut spans = Spans::new(false);
    let reps = measure(bench, &mut spans, &mut tally, ctx.seconds, MIN_REPS);
    bench.finish(&mut tally);

    let walls: Vec<f64> = reps.iter().map(Rep::wall_s).collect();
    let (wall_s, work_s) = best_of(&reps);
    let (lo, hi) = stats::min_max(&walls);
    eprintln!(
        "{}: {} reps of {} sections, wall_s best-of {wall_s:.4} (whole reps: median {:.4}, min {lo:.4}, \
         max {hi:.4}) {walls:.3?}; set-ups {setups:.3?}",
        ctx.workload,
        reps.len(),
        reps[0].sections.len(),
        stats::median(&walls),
    );
    let value = |name: &str| match name {
        "setup_s" => stats::min_max(&setups).0,
        "wall_s" => wall_s,
        "work_per_s" => reps[0].work / work_s,
        "peak_rss_mb" => host::peak_rss_bytes() as f64 / 1e6,
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    Outcome {
        tally,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect(),
    }
}

/// The set-up alone, for [`setup_in_child`]: prints the seconds it
/// took and returns whether every check passed.
pub fn setup_only(bench: &mut dyn Bench) -> bool {
    let mut tally = Tally::default();
    let t0 = Instant::now();
    bench.setup(&mut tally);
    println!("{}", t0.elapsed().as_secs_f64());
    tally.failed == 0
}

/// The traced pass: plain repetitions for half of `ctx.seconds` as the
/// baseline, one repetition under harness spans and product capture,
/// then the probes; reports the per-layer metrics and writes the span
/// file.
pub fn traced_pass(bench: &mut dyn Bench, ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    bench.setup(&mut tally);
    let mut off = Spans::new(false);
    let plain = measure(bench, &mut off, &mut tally, ctx.seconds / 2.0, 2);
    let (plain_wall_s, _) = best_of(&plain);

    let mut layer = Layer::default();
    let mut spans = Spans::new(true);
    bench.layers(&mut spans, plain_wall_s, &mut tally, &mut layer);
    probes::run_all(&ctx.tmp, &mut layer);

    let path = span_file(&ctx.out_dir, &ctx.workload);
    if let Err(e) = spans.write_jsonl(&path) {
        tally.check(false, || format!("write {}: {e}", path.display()));
    }
    for (name, t) in spans.totals(TRACED_REP) {
        eprintln!(
            "{}: span {name}: n={} total {:.3} ms self {:.3} ms",
            ctx.workload,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Outcome {
        tally,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, layer.get(m.name), m.unit))
            .collect(),
    }
}

/// Repetition id the traced repetition's spans carry.
pub const TRACED_REP: u32 = 1;

/// Name of the span that brackets a repetition's measured section.
pub const REP_SPAN: &str = "harness.rep";

/// Where the traced pass writes a workload's spans.
pub fn span_file(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("{workload}.spans.jsonl"))
}

/// Fill the three harness metrics every workload reports from its
/// traced repetition: `rep_wall_s` is the traced repetition's wall as
/// the repetition timer saw it.
pub fn harness_layers(spans: &Spans, rep_wall_s: f64, plain_wall_s: f64, out: &mut Layer) {
    out.set(
        "harness.span_coverage",
        spans.self_ns_under(REP_SPAN, TRACED_REP) as f64 / 1e9 / rep_wall_s,
    );
    out.set(
        "harness.span_overhead_pct",
        (rep_wall_s / plain_wall_s - 1.0) * 100.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &Value) -> Vec<String> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    /// The result line carries exactly the contract's four keys and
    /// exactly the metric names `BENCHMARK.json` lists, each with a
    /// value and its unit.
    #[test]
    fn result_line_has_exactly_the_benchmark_json_metrics() {
        let listed: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let line_of = |metrics: Vec<(&'static str, f64, &'static str)>| -> Value {
            let outcome = Outcome {
                tally: Tally {
                    attempted: 7,
                    failed: 0,
                },
                metrics,
            };
            serde_json::from_str(&outcome.to_json()).expect("result line parses")
        };
        let timed = line_of(END_TO_END.iter().map(|m| (m.name, 1.5, m.unit)).collect());
        let traced = line_of(PER_LAYER.iter().map(|m| (m.name, 0.0, m.unit)).collect());
        for (line, key) in [(&timed, "end_to_end"), (&traced, "per_layer")] {
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get("metrics").unwrap().as_object().unwrap();
            let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(got, names(listed.get(key).unwrap()));
            for (m, listed) in metrics
                .iter()
                .zip(listed.get(key).unwrap().as_array().unwrap())
            {
                assert!(matches!(m.1.get("value"), Some(Value::Number(_))));
                assert_eq!(m.1.get("unit"), listed.get("unit"));
            }
        }
        assert_eq!(timed.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            timed.get("attempted"),
            Some(&serde_json::to_value(&7u64).unwrap())
        );
    }

    #[test]
    fn best_of_takes_each_section_at_its_fastest() {
        let rep = |a: f64, b: f64, c: f64| Rep {
            sections: vec![
                Section {
                    secs: a,
                    work: true,
                },
                Section {
                    secs: b,
                    work: false,
                },
                Section {
                    secs: c,
                    work: true,
                },
            ],
            work: 10.0,
        };
        let reps = [rep(1.0, 5.0, 3.0), rep(2.0, 4.0, 2.5), rep(1.5, 6.0, 9.0)];
        assert_eq!(best_of(&reps), (1.0 + 4.0 + 2.5, 1.0 + 2.5));
        assert_eq!(reps[0].wall_s(), 9.0);
    }

    #[test]
    fn stopwatch_laps_tile_the_elapsed_time() {
        let t0 = Instant::now();
        let mut w = Stopwatch::start();
        std::hint::black_box((0..10_000u64).sum::<u64>());
        w.lap(true);
        w.lap(false);
        let sections = w.finish();
        let total = t0.elapsed().as_secs_f64();
        assert_eq!(sections.len(), 2);
        assert!(sections[0].work && !sections[1].work);
        let sum: f64 = sections.iter().map(|s| s.secs).sum();
        assert!(sum > 0.0 && sum <= total);
    }

    #[test]
    fn tally_counts_misses() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "expected miss".to_string());
        t.batch(10, 2, "things");
        assert_eq!((t.attempted, t.failed), (12, 3));
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn layer_rejects_unknown_names() {
        Layer::default().set("no.such_metric", 1.0);
    }
}
