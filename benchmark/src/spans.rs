//! Harness-side spans: one record per call into a layer, held in
//! memory and written out when the run ends.
//!
//! Spans are recorded from outside the product — around calls into
//! each crate's public functions — so a layer's *self time* is its
//! span's duration minus the part its child spans cover. The recorder
//! is off for the end-to-end pass (one branch per call site) and on
//! for the traced pass; the difference between the two passes is the
//! tracing overhead the benchmark reports.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call` name, e.g. `chkpt.nvchkptall`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Spans::enter`]; pass it back to
/// [`Spans::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus children).
    pub self_ns: u64,
}

/// The span recorder.
pub struct Spans {
    on: bool,
    epoch: Instant,
    rep: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tag subsequent spans with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span. Off: one branch, no clock read.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Spans::enter`]. Spans close in LIFO
    /// order (they bracket nested calls).
    #[inline]
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a leaf span and return its result with the host
    /// time it took. The duration is measured whether or not spans are
    /// recorded — the few call sites that need it (commit and restart
    /// bandwidth) are far too coarse for two clock reads to matter.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.enter(name);
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        self.exit(open);
        (out, took)
    }

    /// Durations of every span called `name` in repetition `rep`.
    pub fn durations_ns(&self, name: &str, rep: u32) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.rep == rep)
            .map(Span::duration_ns)
            .collect()
    }

    /// Per-name totals for repetition `rep`.
    pub fn totals(&self, rep: u32) -> BTreeMap<&'static str, Totals> {
        let selfs = self_times_ns(&self.spans);
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            if span.rep != rep {
                continue;
            }
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Self time, summed over the first span called `root` in
    /// repetition `rep` and everything beneath it. Equals the root's
    /// duration when every child lies inside its parent.
    pub fn self_ns_under(&self, root: &str, rep: u32) -> u64 {
        let selfs = self_times_ns(&self.spans);
        let mut inside = vec![false; self.spans.len()];
        let mut found = false;
        let mut sum = 0;
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = match s.parent {
                Some(p) => inside[p as usize],
                None => !found && s.name == root && s.rep == rep,
            };
            found |= inside[i];
            if inside[i] {
                sum += selfs[i];
            }
        }
        sum
    }

    /// Write one JSON object per span. A name with more than
    /// [`FOLD_ABOVE`] spans (the per-operation spans of the kv
    /// workloads, hundreds of thousands of them) is folded into one
    /// line per parent carrying the count and the summed duration, so
    /// self times can still be computed from the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut per_name: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.spans {
            *per_name.entry(s.name).or_default() += 1;
        }
        let mut folded: BTreeMap<(&str, Option<u32>, u32), (u64, u64)> = BTreeMap::new();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let parent = |p: Option<u32>| p.map_or("null".to_string(), |p| p.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            if per_name[s.name] > FOLD_ABOVE {
                let f = folded.entry((s.name, s.parent, s.rep)).or_default();
                f.0 += 1;
                f.1 += s.duration_ns();
                continue;
            }
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rep\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent(s.parent),
                s.rep
            )?;
        }
        for ((name, p, rep), (count, total_ns)) in folded {
            writeln!(
                w,
                "{{\"name\":\"{name}\",\"folded\":{count},\"total_ns\":{total_ns},\"parent\":{},\"rep\":{rep}}}",
                parent(p)
            )?;
        }
        w.flush()
    }
}

/// Spans of one name above which [`Spans::write_jsonl`] folds them.
pub const FOLD_ABOVE: usize = 10_000;

/// Self time of every span: its duration minus the durations of its
/// direct children. Children bracket nested calls on one thread, so
/// they never overlap each other and never leave their parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p as usize] = selfs[p as usize].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_totals_by_name() {
        let mut s = Spans::new(true);
        s.set_rep(3);
        let rep = s.enter("rep");
        for _ in 0..2 {
            let (v, took) = s.time("leaf", || 7);
            assert_eq!(v, 7);
            assert!(took.as_nanos() > 0);
        }
        s.exit(rep);
        assert_eq!(s.spans.len(), 3);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        let totals = s.totals(3);
        assert_eq!(totals["leaf"].count, 2);
        assert_eq!(
            totals["rep"].self_ns + totals["leaf"].self_ns,
            s.spans[0].duration_ns()
        );
        assert!(s.totals(0).is_empty());
        assert_eq!(s.durations_ns("leaf", 3).len(), 2);
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut s = Spans::new(false);
        let open = s.enter("rep");
        let (_, took) = s.time("leaf", || std::hint::black_box(1 + 1));
        s.exit(open);
        assert!(s.spans.is_empty());
        assert!(took.as_nanos() > 0);
    }
}
