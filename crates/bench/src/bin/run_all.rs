//! The one experiment binary. With no positional argument it runs
//! every experiment in sequence and emits all tables + JSON; naming
//! experiments (`run_all fig7_lammps_local kv_serving`, see
//! [`EXPERIMENTS`]) runs just those. `scaling_ranks` runs only when
//! named: it must have the process to itself.
//! `--quick` runs the reduced presets (CI-friendly); `--threads N`
//! runs cluster simulations on N rank-execution worker threads
//! (results are bit-identical at any thread count).
//! `--trace PATH`, `--metrics PATH` and `--analyze PATH` are views of
//! one observed run (`observe`): a traced, metered GTC simulation,
//! run and blamed once however many of the three are given.
//! `--trace` writes its event stream to PATH (`.jsonl` for
//! line-delimited JSON, anything else for Chrome `trace_event` JSON
//! viewable in chrome://tracing or Perfetto); `--metrics` writes its
//! metrics report as stable-ordered JSON plus a Prometheus text
//! exposition alongside it; `--analyze` writes the critical-path
//! blame + rollup report as stable JSON plus a folded-stack
//! flamegraph alongside it. `--analyze-from TRACE` analyzes a
//! previously recorded JSONL trace instead, into
//! `TRACE.analysis.json` and `TRACE.analysis.folded` (the report is a
//! pure function of the stream, so the output matches the live run
//! the trace came from byte for byte). `--store DIR` runs the
//! durable-store recovery experiment, leaving one container file per
//! rank under DIR and timing per-rank recovery from those files
//! alone; the observed run attaches no store. `--measure` adds a real
//! host memcpy curve to Figure 4 and `--real` a live memcpy-vs-tmpfs
//! run to the MADBench experiment.
//! Unknown flags and unknown experiment names abort with usage; an
//! artifact that could not be written, or an `--analyze-from` input
//! that does not parse, is reported once everything else has run and
//! makes the exit status 1.
use nvm_bench::experiments::*;
use nvm_bench::report::write_json;
use nvm_bench::scale::{RunArgs, USAGE};
use std::io;

/// Runs one experiment: prints its tables, writes its JSON.
type Stanza = fn(&RunArgs) -> io::Result<()>;

/// Every experiment by the name that selects it, in full-run order.
const EXPERIMENTS: &[(&str, Stanza)] = &[
    ("table1_device_params", |_| {
        let t1 = table1::run();
        table1::render(&t1).print();
        write_json("table1_device_params", &t1)
    }),
    ("fig4_parallel_memcpy", |args| {
        let f4 = fig4::run(args.measure);
        for t in fig4::render(&f4) {
            t.print();
        }
        write_json("fig4_parallel_memcpy", &f4)
    }),
    ("madbench_ramdisk_vs_memory", madbench_ramdisk_vs_memory),
    ("table4_chunk_distribution", |_| {
        let t4 = table4::run();
        table4::render(&t4).print();
        write_json("table4_chunk_distribution", &t4)
    }),
    ("fig7_lammps_local", |args| {
        local_checkpoint(args, "fig7_lammps_local", "lammps", "Figure 7 — LAMMPS")
    }),
    ("fig8_gtc_local", |args| {
        local_checkpoint(args, "fig8_gtc_local", "gtc", "Figure 8 — GTC")
    }),
    ("cm1_local", |args| {
        local_checkpoint(args, "cm1_local", "cm1", "CM1")
    }),
    ("fig9_gtc_remote_efficiency", |args| {
        let f9 = fig9::run(&args.remote_scale());
        fig9::render(&f9).print();
        let (pre, nopre) = fig9::average_overheads(&f9);
        println!(
            "\naverage overhead: pre-copy {:.1}% vs no-pre-copy {:.1}% ({:.0}% reduction)",
            pre * 100.0,
            nopre * 100.0,
            (1.0 - pre / nopre) * 100.0
        );
        write_json("fig9_gtc_remote_efficiency", &f9)
    }),
    ("fig10_peak_interconnect", |args| {
        let f10 = fig10::run(&args.remote_scale());
        fig10::render(&f10).print();
        println!("\n{}", fig10::summary(&f10));
        write_json("fig10_peak_interconnect", &f10)
    }),
    ("table5_helper_cpu", |args| {
        let t5 = table5::run(&args.remote_scale());
        table5::render(&t5).print();
        write_json("table5_helper_cpu", &t5)
    }),
    ("model_validation", model_validation),
    ("multilevel_recovery", |args| {
        let ml = multilevel_recovery::run(&args.scale());
        for t in multilevel_recovery::render(&ml) {
            t.print();
        }
        if !ml.serial_threaded_identical {
            eprintln!("WARNING: remote-buddy recovery differed serial vs threaded");
        }
        write_json("multilevel_recovery", &ml)
    }),
    ("scaling_threads", |args| {
        let sc = scaling::run(&args.scale());
        scaling::render(&sc).print();
        write_json("scaling_threads", &sc)
    }),
    (FRESH_PROCESS_ONLY, scaling_ranks),
    ("ablations", ablations),
    ("blame", |args| {
        let bl = blame::run(&args.scale());
        blame::render(&bl).print();
        println!(
            "\nexposed checkpoint time on the critical path: dcpcp {:.1} ms vs cpc {:.1} ms",
            blame::exposed(&bl, "dcpcp") as f64 / 1e6,
            blame::exposed(&bl, "cpc") as f64 / 1e6,
        );
        write_json("blame", &bl)
    }),
    ("kv_serving", |args| {
        let kv = kv_serving::run(&args.remote_scale());
        kv_serving::render(&kv).print();
        println!(
            "\nexposed checkpoint time on the serving path: dcpcp {:.1} ms vs stop-the-world {:.1} ms",
            kv_serving::exposed(&kv, "dcpcp") as f64 / 1e6,
            kv_serving::exposed(&kv, "none") as f64 / 1e6,
        );
        write_json("kv_serving", &kv)
    }),
];

/// The rank-scaling sweep runs only when named: its peak-RSS column
/// reads the process-wide VmHWM, which cannot reset below the residue
/// the experiments before it leave behind, so it must run in a fresh
/// process to measure anything.
const FRESH_PROCESS_ONLY: &str = "scaling_ranks";

fn madbench_ramdisk_vs_memory(args: &RunArgs) -> io::Result<()> {
    let mad = madbench::run();
    madbench::render(
        "MADBench2 — ramdisk vs in-memory checkpoint (cost model)",
        &mad,
    )
    .print();
    write_json("madbench_ramdisk_vs_memory", &mad)?;
    if args.real {
        let real = madbench::run_real();
        if real.is_empty() {
            eprintln!("real mode unavailable (no writable tmpfs)");
        } else {
            madbench::render("MADBench2 — measured on this host", &real).print();
            write_json("madbench_real", &real)?;
        }
    }
    Ok(())
}

/// Figures 7 / 8 and the CM1 text result: one application's local
/// checkpoint under each policy.
fn local_checkpoint(args: &RunArgs, json: &str, app: &str, title: &str) -> io::Result<()> {
    let rows = local::run(app, &args.scale());
    local::render(&format!("{title} local checkpoint"), &rows).print();
    write_json(json, &rows)
}

fn model_validation(_: &RunArgs) -> io::Result<()> {
    let mv = model_val::run();
    model_val::render(&mv).print();
    let rel = cluster_sim::ReliabilityParams::zheng_ftc_charm();
    println!(
        "\nbuddy-pair reliability (Zheng et al. configuration): P(unrecoverable) = {:.6}% \
(paper quotes 0.000977%), ~{:.0} recoverable single-node failures over the run",
        cluster_sim::unrecoverable_probability(&rel) * 100.0,
        cluster_sim::expected_failures(&rel),
    );
    write_json("model_validation", &mv)
}

fn scaling_ranks(args: &RunArgs) -> io::Result<()> {
    let out = scaling_ranks::run(&args.scale());
    scaling_ranks::render(&out).print();
    println!(
        "\nrecovery probe at {} ranks: source {}, {} chunks bit-verified, {:.2} MB fetched",
        out.recovery.ranks,
        out.recovery.source,
        out.recovery.verified_chunks,
        out.recovery.bytes_fetched_mb
    );
    write_json("scaling_ranks", &out)
}

fn ablations(args: &RunArgs) -> io::Result<()> {
    let scale = args.scale();
    let g = ablations::run_granularity(&scale);
    ablations::render_granularity(&g).print();
    write_json("ablation_granularity", &g)?;
    let p = ablations::run_prediction(&scale);
    ablations::render_prediction(&p).print();
    write_json("ablation_prediction", &p)?;
    let v = ablations::run_versioning(&scale);
    ablations::render_versioning(&v).print();
    write_json("ablation_versions", &v)?;
    let s = ablations::run_serialized(&scale);
    ablations::render_serialized(&s).print();
    write_json("ablation_serialized_copy", &s)
}

/// Write the analysis view to `path`, its flamegraph alongside, and
/// print the summary table.
fn write_analysis(obs: &observe::Observation, path: &str) -> io::Result<()> {
    let folded = obs.write_analysis(path)?;
    analyze::render(&obs.analysis, path).print();
    println!("folded-stack flamegraph written to {folded}.");
    Ok(())
}

fn main() {
    let args = RunArgs::from_env();
    let known = |name: &String| EXPERIMENTS.iter().any(|(n, _)| n == name);
    if let Some(name) = args.experiments.iter().find(|name| !known(name)) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "error: unknown experiment {name:?}; known: {}\n{USAGE}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let scale = args.scale();
    let threads = args.thread_count();

    if args.experiments.is_empty() {
        println!(
            "# NVM-checkpoints — full experiment suite ({}, {} rank-execution thread{})",
            if args.quick {
                "quick preset"
            } else {
                "paper preset"
            },
            threads,
            if threads == 1 { "" } else { "s" }
        );
    }
    // What was asked for and not produced: the run goes on, the exit
    // status reports it.
    let mut failed: Vec<String> = Vec::new();
    let mut check = |what: &str, result: io::Result<()>| {
        if let Err(e) = result {
            eprintln!("error: {what}: {e}");
            failed.push(what.to_string());
        }
    };
    for (name, stanza) in EXPERIMENTS {
        let selected = match args.experiments.as_slice() {
            [] => *name != FRESH_PROCESS_ONLY,
            named => named.iter().any(|n| n == name),
        };
        if selected {
            check(name, stanza(&args));
        }
    }

    // One simulation, one blame pass: every requested flag writes a
    // view of the same observation.
    if args.trace.is_some() || args.metrics.is_some() || args.analyze.is_some() {
        let obs = observe::run(&scale);
        if let Some(path) = &args.trace {
            let summary = nvm_trace::summarize(&obs.events);
            let written = obs.write_trace(path).and_then(|()| {
                tracing::render(&summary, path).print();
                write_json("trace_summary", &summary)
            });
            check(&format!("--trace {path}"), written);
        }
        if let Some(path) = &args.analyze {
            check(&format!("--analyze {path}"), write_analysis(&obs, path));
        }
        if let Some(path) = &args.metrics {
            let written = obs.write_metrics(path).map(|prom| {
                let report = obs.metrics.as_ref().expect("a live observation is metered");
                metrics::render(report, &obs.analysis.blame, path).print();
                println!("Prometheus exposition written to {prom}.");
            });
            check(&format!("--metrics {path}"), written);
        }
    }

    if let Some(trace_path) = &args.analyze_from {
        // The analysis lands at `<trace_path>.analysis.json`.
        let written = std::fs::read_to_string(trace_path).and_then(|text| {
            let obs = observe::from_recorded(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            write_analysis(&obs, &format!("{trace_path}.analysis.json"))
        });
        check(&format!("--analyze-from {trace_path}"), written);
    }

    if let Some(dir) = &args.store {
        let rows = store::run(&scale, std::path::Path::new(dir));
        store::render(&rows).print();
        check("store_recovery", write_json("store_recovery", &rows));
        println!("per-rank container files left under {dir}.");
    }

    if !failed.is_empty() {
        eprintln!("\nerror: not written: {}", failed.join(", "));
        std::process::exit(1);
    }
    println!("\nJSON written to experiments/ under the working directory.");
}
