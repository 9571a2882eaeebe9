//! Experiment scale presets.
//!
//! Every experiment runs at one of two scales:
//!
//! * **paper** — the evaluation setup of the paper: 8 nodes x 12
//!   cores, full per-core checkpoint sizes (~400-433 MB), 40 s local
//!   checkpoint interval. All time is virtual, so this completes in
//!   seconds of wall time.
//! * **quick** — a scaled-down variant (fewer ranks, a few percent of
//!   the data size) for smoke runs and CI.
//!
//! `run_all --quick` selects the small preset.

use nvm_emu::SimDuration;

/// Scale preset for cluster experiments.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Cluster nodes.
    pub nodes: usize,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// Chunk-size scale relative to the paper (1.0 = full size).
    pub size_scale: f64,
    /// Iterations to run.
    pub iterations: u64,
    /// Compute time per iteration.
    pub compute_per_iter: SimDuration,
    /// Local checkpoint interval (the paper sets 40 s).
    pub local_interval: SimDuration,
    /// Worker threads for rank execution (`--threads N`; 1 = serial).
    /// Results are bit-identical at any thread count — this only
    /// changes wall-clock time.
    pub threads: usize,
}

impl Scale {
    /// The paper's evaluation scale.
    pub fn paper() -> Self {
        Scale {
            nodes: 4,
            ranks_per_node: 12, // 48 MPI processes, as in Figs. 7/8
            size_scale: 1.0,
            iterations: 24,
            compute_per_iter: SimDuration::from_secs(10),
            local_interval: SimDuration::from_secs(40),
            threads: 1,
        }
    }

    /// The 8-node remote-checkpoint scale (Figs. 9/10, Table V).
    fn paper_remote() -> Self {
        Scale {
            nodes: 8,
            ..Self::paper()
        }
    }

    /// Small smoke-test scale.
    pub fn quick() -> Self {
        Scale {
            nodes: 2,
            ranks_per_node: 2,
            size_scale: 0.05,
            iterations: 8,
            compute_per_iter: SimDuration::from_secs(5),
            local_interval: SimDuration::from_secs(10),
            threads: 1,
        }
    }

    /// Override the worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Container bytes per rank needed for this scale (two version
    /// slots for ~440 MB of chunks, plus allocator slack).
    pub fn container_bytes(&self) -> usize {
        let data = (460.0 * self.size_scale * (1 << 20) as f64) as usize;
        data * 2 + (8 << 20)
    }

    /// Total ranks.
    pub fn total_ranks(&self) -> usize {
        self.nodes * self.ranks_per_node
    }
}

/// Command-line arguments of the experiment binary, parsed strictly:
/// an unknown flag, a missing value, or an invalid value is an error
/// rather than a silently-applied default.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunArgs {
    /// `--quick`: run the reduced CI-friendly presets.
    pub quick: bool,
    /// `--threads N` / `--threads=N`: rank-execution worker threads
    /// (`None` = serial; results are bit-identical either way).
    pub threads: Option<usize>,
    /// `--trace PATH` / `--trace=PATH`: write the observed run's
    /// merged event stream to PATH (`.jsonl` for line-delimited JSON,
    /// anything else for Chrome `trace_event` JSON). `--trace`,
    /// `--metrics` and `--analyze` share one simulation.
    pub trace: Option<String>,
    /// `--metrics PATH` / `--metrics=PATH`: write the observed run's
    /// metrics report to PATH as stable-ordered JSON, plus Prometheus
    /// text exposition alongside it (`<path>.prom`).
    pub metrics: Option<String>,
    /// `--analyze PATH` / `--analyze=PATH`: write the `nvm-obs`
    /// analyzer's blame + rollup report of the observed run to PATH as
    /// stable-ordered JSON, plus a folded-stack flamegraph alongside
    /// it (`<path>.folded`).
    pub analyze: Option<String>,
    /// `--analyze-from TRACE` / `--analyze-from=TRACE`: analyze a
    /// previously recorded JSONL trace instead of running a
    /// simulation; the report lands at `TRACE.analysis.json` with the
    /// flamegraph beside it (`TRACE.analysis.folded`). Rejects traces with a newer schema
    /// version.
    pub analyze_from: Option<String>,
    /// `--store DIR` / `--store=DIR`: run the durable-store recovery
    /// experiment — a store-attached cluster run leaving one container
    /// file per rank under DIR, then per-rank recovery from those
    /// files alone. The observed run of `--trace` / `--metrics` /
    /// `--analyze` attaches no store.
    pub store: Option<String>,
    /// `--measure`: Figure 4 also runs real copies on this host.
    pub measure: bool,
    /// `--real`: the MADBench experiment also measures real
    /// memcpy-vs-tmpfs on this host.
    pub real: bool,
    /// Positional arguments: the experiments to run, by name (none =
    /// the full suite). `run_all` checks them against its table.
    pub experiments: Vec<String>,
}

/// Usage string printed when strict parsing fails.
pub const USAGE: &str = "usage: [EXPERIMENT...] [--quick] [--threads N] [--trace PATH] \
[--metrics PATH] [--analyze PATH] [--analyze-from TRACE] [--store DIR] [--measure] [--real]";

impl RunArgs {
    /// Parse an argument list (`args[0]` is the binary name and is
    /// skipped). Errors carry a human-readable message; callers add
    /// [`USAGE`].
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = RunArgs::default();
        let mut it = args.iter().skip(1);
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            let value = |it: &mut dyn Iterator<Item = &String>| -> Result<String, String> {
                match inline.clone() {
                    Some(v) if !v.is_empty() => Ok(v),
                    Some(_) => Err(format!("{flag} requires a value")),
                    None => it
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .cloned()
                        .ok_or_else(|| format!("{flag} requires a value")),
                }
            };
            match flag {
                "--quick" if inline.is_none() => out.quick = true,
                "--measure" if inline.is_none() => out.measure = true,
                "--real" if inline.is_none() => out.real = true,
                "--threads" => {
                    let v = value(&mut it)?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("invalid --threads value {v:?}"))?;
                    if n == 0 {
                        return Err("--threads must be >= 1".to_string());
                    }
                    out.threads = Some(n);
                }
                "--trace" => out.trace = Some(value(&mut it)?),
                "--metrics" => out.metrics = Some(value(&mut it)?),
                "--analyze" => out.analyze = Some(value(&mut it)?),
                "--analyze-from" => out.analyze_from = Some(value(&mut it)?),
                "--store" => out.store = Some(value(&mut it)?),
                name if !name.starts_with('-') && inline.is_none() => {
                    out.experiments.push(name.to_string())
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(out)
    }

    /// Parse the process arguments; on error print the message plus
    /// [`USAGE`] to stderr and exit with status 2.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        match Self::parse(&args) {
            Ok(parsed) => parsed,
            Err(msg) => {
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Worker-thread count (1 when `--threads` was not given).
    pub fn thread_count(&self) -> usize {
        self.threads.unwrap_or(1)
    }

    /// The local-cluster scale these arguments select.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::paper()
        }
        .with_threads(self.thread_count())
    }

    /// The remote-checkpoint scale these arguments select (8 nodes at
    /// paper scale).
    pub fn remote_scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::paper_remote()
        }
        .with_threads(self.thread_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let p = Scale::paper();
        assert_eq!(p.total_ranks(), 48);
        assert_eq!(Scale::paper_remote().total_ranks(), 96);
        let q = Scale::quick();
        assert!(q.container_bytes() < p.container_bytes());
        assert!(q.size_scale < 1.0);
        assert_eq!(p.threads, 1);
        assert_eq!(q.with_threads(4).threads, 4);
        assert_eq!(q.with_threads(0).threads, 1);
    }

    fn parse(v: &[&str]) -> Result<RunArgs, String> {
        let args: Vec<String> = std::iter::once("bin")
            .chain(v.iter().copied())
            .map(|s| s.to_string())
            .collect();
        RunArgs::parse(&args)
    }

    #[test]
    fn parses_defaults_and_all_flags() {
        assert_eq!(parse(&[]).unwrap(), RunArgs::default());
        let full = parse(&[
            "--quick",
            "--threads",
            "8",
            "--trace",
            "t.jsonl",
            "--metrics",
            "m.json",
        ])
        .unwrap();
        assert!(full.quick);
        assert_eq!(full.thread_count(), 8);
        assert_eq!(full.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(full.metrics.as_deref(), Some("m.json"));
        // Inline `=` forms.
        let inline = parse(&["--threads=4", "--metrics=out.json"]).unwrap();
        assert_eq!(inline.threads, Some(4));
        assert_eq!(inline.metrics.as_deref(), Some("out.json"));
    }

    #[test]
    fn positionals_name_experiments_around_the_flags() {
        let args = parse(&["scaling_ranks", "--threads", "2", "kv_serving", "--real"]).unwrap();
        assert_eq!(args.experiments, ["scaling_ranks", "kv_serving"]);
        assert_eq!(args.threads, Some(2));
        assert!(args.real && !args.measure);
    }

    #[test]
    fn scale_selection_follows_flags() {
        let quick = parse(&["--quick", "--threads", "3"]).unwrap();
        assert_eq!(quick.scale().nodes, Scale::quick().nodes);
        assert_eq!(quick.scale().threads, 3);
        assert_eq!(quick.remote_scale().nodes, Scale::quick().nodes);
        let paper = parse(&[]).unwrap();
        assert_eq!(paper.scale().nodes, Scale::paper().nodes);
        assert_eq!(paper.remote_scale().nodes, Scale::paper_remote().nodes);
        assert_eq!(paper.scale().threads, 1);
    }

    #[test]
    fn rejects_unknown_and_malformed_flags() {
        assert!(parse(&["--qick"]).unwrap_err().contains("unknown argument"));
        assert!(parse(&["-x"]).unwrap_err().contains("unknown argument"));
        assert!(parse(&["a=b"]).unwrap_err().contains("unknown argument"));
        assert!(parse(&["--threads"]).unwrap_err().contains("value"));
        assert!(parse(&["--threads", "zero"])
            .unwrap_err()
            .contains("invalid"));
        assert!(parse(&["--threads", "0"]).unwrap_err().contains(">= 1"));
        assert!(parse(&["--trace", "--quick"])
            .unwrap_err()
            .contains("value"));
        assert!(parse(&["--trace="]).unwrap_err().contains("value"));
        assert!(parse(&["--metrics"]).unwrap_err().contains("value"));
        assert!(parse(&["--quick=yes"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn analyze_flags_parse_in_both_forms() {
        let live = parse(&["--quick", "--analyze", "a.json"]).unwrap();
        assert_eq!(live.analyze.as_deref(), Some("a.json"));
        assert!(live.analyze_from.is_none());
        // Analysis flags set no capture path; the analyzer run traces
        // internally.
        assert!(live.trace.is_none() && live.metrics.is_none());
        let inline = parse(&["--analyze=a.json", "--analyze-from=t.jsonl"]).unwrap();
        assert_eq!(inline.analyze.as_deref(), Some("a.json"));
        assert_eq!(inline.analyze_from.as_deref(), Some("t.jsonl"));
        assert!(parse(&["--analyze"]).unwrap_err().contains("value"));
        assert!(parse(&["--analyze-from"]).unwrap_err().contains("value"));
        assert!(parse(&["--analyze", "--quick"])
            .unwrap_err()
            .contains("value"));
    }

    #[test]
    fn store_flag_parses_and_combines_with_trace() {
        let args = parse(&["--quick", "--store", "out/stores"]).unwrap();
        assert_eq!(args.store.as_deref(), Some("out/stores"));
        let inline = parse(&["--store=d"]).unwrap();
        assert_eq!(inline.store.as_deref(), Some("d"));
        assert!(parse(&["--store"]).unwrap_err().contains("value"));
        // --store and --trace parse together in either order (the
        // store experiment and the observed run stay separate runs).
        for v in [
            &["--store", "d", "--trace", "t.jsonl"][..],
            &["--trace", "t.jsonl", "--store", "d"][..],
        ] {
            let both = parse(v).unwrap();
            assert_eq!(both.store.as_deref(), Some("d"));
            assert_eq!(both.trace.as_deref(), Some("t.jsonl"));
        }
        // --store alongside the other flags stays fine.
        let full = parse(&["--quick", "--metrics", "m.json", "--store", "d"]).unwrap();
        assert_eq!(full.metrics.as_deref(), Some("m.json"));
        assert_eq!(full.store.as_deref(), Some("d"));
    }
}
