//! Boundaries no type holds, read off the sources: each test names every line that crosses
//! one. This file states the patterns, so no check reads it.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::OnceLock;

/// Line `n` of `path` as written (`text`), less `//` comments and string literals as far as
/// one line shows (`code`, empty outside `.rs`), and whether a column-0 `#[cfg(test)]` is above.
struct Line {
    path: String,
    n: usize,
    text: String,
    code: String,
    test: bool,
}

/// Every line under `crates`, `tests`, `examples` and `benchmark/src` but this file's, read once.
fn workspace() -> &'static [Line] {
    static LINES: OnceLock<Vec<Line>> = OnceLock::new();
    LINES.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let dirs = ["crates", "tests", "examples", "benchmark/src"];
        let (mut files, mut lines): (Vec<_>, _) = (dirs.map(|d| root.join(d)).into(), Vec::new());
        while let Some(file) = files.pop() {
            if let Ok(dir) = std::fs::read_dir(&file) {
                files.extend(dir.map(|entry| entry.unwrap().path()));
                continue;
            }
            let path = file.strip_prefix(root).unwrap().display().to_string();
            if path == "tests/boundaries.rs" {
                continue;
            }
            let text = String::from_utf8_lossy(&std::fs::read(&file).unwrap()).into_owned();
            let (rs, mut test) = (path.ends_with(".rs"), false);
            for (n, text) in (1..).zip(text.lines()) {
                test |= text.starts_with("#[cfg(test)]");
                let code = text.split("//").next().filter(|_| rs).unwrap_or("");
                lines.push(Line {
                    path: path.clone(),
                    n,
                    text: text.into(),
                    code: code.split('"').step_by(2).collect(),
                    test,
                });
            }
        }
        lines
    })
}

/// Panics naming each line of the workspace that `crosses`.
fn deny(crosses: impl Fn(&Line) -> bool) {
    let show = |l: &Line| format!("{}:{}: {}", l.path, l.n, l.text);
    let hits = workspace().iter().filter(|l| crosses(l));
    let hits: Vec<_> = hits.map(show).collect();
    assert!(hits.is_empty(), "boundary crossed:\n{}", hits.join("\n"));
}

fn has(line: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| line.contains(n))
}

fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !c.is_alphanumeric() && c != '_')
}

/// The name a `pub fn` in a crate's product code declares on `l`, if one does.
fn pub_fn(l: &Line) -> Option<&str> {
    let product = l.path.starts_with("crates/") && l.path.contains("/src/") && !l.test;
    let c = l.code.trim_start().strip_prefix("pub ")?;
    let c = (c.strip_prefix("const ").or(c.strip_prefix("unsafe "))).unwrap_or(c);
    let c = c.strip_prefix("fn ").filter(|_| product)?;
    c.split(['(', '<']).next()
}

/// The scheduler decides *when*, not *what* (DESIGN.md §3); the CRC kernel has no knob (§11).
#[test]
fn the_scheduler_and_the_checksum_choose_from_their_inputs() {
    let scheduler = ["crates/chkpt/src/precopy.rs", "crates/chkpt/src/predict.rs"];
    let owners = ["NvmHeap", "Persistence", "MemoryDevice", "MetadataRegion"];
    deny(|l| scheduler.contains(&&*l.path) && !l.test && has(&l.code, &owners));
    let knobs = ["cfg(feature", "env::var", "env!"];
    deny(|l| l.path == "crates/chkpt/src/checksum.rs" && has(&l.text, &knobs));
}

/// In `run`, recovery alone rebuilds or wipes, the pool alone spawns (DESIGN.md §12).
#[test]
fn only_recovery_rebuilds_and_only_the_pool_spawns() {
    let run = |l: &Line| !l.test && l.path.starts_with("crates/cluster-sim/src/run");
    let rebuilds = ["restart_from_", "fetch_with_retry", ".destroy()"];
    deny(|l| run(l) && has(&l.code, &rebuilds) && !l.path.ends_with("run/recover.rs"));
    deny(|l| run(l) && l.code.contains("thread::scope") && !l.path.ends_with("run/pool.rs"));
}

/// Retired designs stay gone (DESIGN.md §9, §13, §16); each name here is one of them.
#[test]
fn retired_designs_stay_gone() {
    let names = ["kv_index_g", "index_gen", "BufferSink", "with_flight"];
    deny(|l| has(&l.text, &names));
    deny(|l| l.path.starts_with("crates/nvm-kv/src/") && !l.test && l.code.contains("nvdelete"));
    let key = ["committed_epoch", r#"\":"#].concat();
    deny(|l| l.text.contains(&key) && l.path != "crates/nvm-paging/src/metadata.rs");
}

/// The `ProcessMetadata` derive is the chunk-table encoder's oracle, not a path (DESIGN.md §13).
#[test]
fn no_product_code_serializes_a_process_metadata() {
    let src = |p: &str| p.starts_with("crates/") && p.contains("/src/");
    let product = |l: &Line| !l.test && (src(&l.path) || l.path.starts_with("examples/"));
    let names = |l: &&Line| product(l) && l.code.contains("ProcessMetadata");
    let naming: HashSet<_> = workspace().iter().filter(names).map(|l| &l.path).collect();
    deny(|l| product(l) && naming.contains(&l.path) && l.code.contains("serde_json::to_"));
}

/// Capture shares no state; `Metrics` is only a pinned probe's shim (DESIGN.md §9).
#[test]
fn capture_shares_no_state() {
    let locks = |w: &str| ["Mutex", "Arc"].contains(&w);
    let trace = |l: &Line| l.path == "crates/nvm-trace/src/lib.rs" && !l.test;
    deny(|l| trace(l) && words(&l.code).any(|w| locks(w) || w == "VecDeque"));
    let atomic = |w: &str| w.starts_with("Atomic") && w.chars().all(char::is_alphanumeric);
    let metrics = |l: &Line| l.path.starts_with("crates/nvm-metrics/src/");
    deny(|l| metrics(l) && !l.test && words(&l.code).any(|w| locks(w) || atomic(w)));
    let shim = |w: &str| ["Metrics", "CounterHandle", "HistogramHandle"].contains(&w);
    deny(|l| !l.path.starts_with("benchmark/") && !metrics(l) && words(&l.code).any(shim));
}

/// The device's one window onto the host's memory holds all of `nvm-emu`'s `unsafe` (DESIGN.md §14).
#[test]
fn nvm_emu_is_unsafe_only_in_hostmem() {
    let emu = |l: &Line| l.path.starts_with("crates/nvm-emu/");
    let hostmem = |l: &Line| l.path == "crates/nvm-emu/src/hostmem.rs";
    deny(|l| emu(l) && !hostmem(l) && words(&l.code).any(|w| w == "unsafe"));
}

/// A product `pub fn` is named in another `.rs` file, or it goes.
#[test]
fn every_product_pub_fn_is_named_in_another_file() {
    let names = workspace().iter().filter_map(pub_fn);
    let mut files_naming: HashMap<_, HashSet<&str>> = names.map(|f| (f, HashSet::new())).collect();
    let rs = workspace().iter().filter(|l| l.path.ends_with(".rs"));
    for (l, w) in rs.flat_map(|l| words(&l.text).map(move |w| (l, w))) {
        if let Some(files) = files_naming.get_mut(w) {
            files.insert(&l.path);
        }
    }
    let alone = |name: &str, l: &Line| files_naming[name].iter().all(|f| *f == l.path);
    deny(|l| pub_fn(l).is_some_and(|name| alone(name, l)));
}
