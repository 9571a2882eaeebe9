//! Reporting helpers: markdown tables and JSON result emission.

use serde::Serialize;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple markdown table builder used by every experiment binary.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render as a markdown string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}\n", self.title);
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(line, " {c:<w$} |");
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<1$}|", "", w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Write a serializable result to `experiments/<name>.json` under the
/// workspace root.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(|p| p.join("experiments"))
        .unwrap_or_else(|| Path::new("experiments").to_path_buf());
    write_json_in(&dir, name, value)
}

/// Write a serializable result to `<dir>/<name>.json`, creating `dir`
/// if needed.
fn write_json_in<T: Serialize>(dir: &Path, name: &str, value: &T) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let json = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
    std::fs::write(dir.join(format!("{name}.json")), json)
}

/// Format bytes as MB with one decimal.
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("Demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| a | bb |"));
        assert!(s.contains("| 1 | 2  |"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Table::new("x", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn write_json_reports_an_unwritable_directory() {
        // A regular file where the directory should be: unwritable
        // for any user, root included.
        let td = nvm_emu::TempDir::new("nvm_bench_report").unwrap();
        let blocker = td.join("blocker");
        std::fs::write(&blocker, b"").unwrap();
        let result = write_json_in(&blocker.join("experiments"), "rows", &[1u32, 2]);
        assert!(result.is_err(), "a failed write must not be swallowed");
    }
    #[test]
    fn helpers_format() {
        assert_eq!(mb(1 << 20), "1.0");
        assert_eq!(pct(0.465), "46.5%");
    }
}
