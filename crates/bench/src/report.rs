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

/// Where [`write_json`] puts results: relative, so resolved against
/// the working directory at run time, as every path given on the
/// command line is. A binary copied into another tree writes that
/// tree's artifacts; `run_all` is run from the repository root.
const EXPERIMENTS: &str = "experiments";

/// Write a serializable result to `experiments/<name>.json` under the
/// working directory.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> io::Result<()> {
    write_json_in(Path::new(EXPERIMENTS), name, value)
}

/// Write a serializable result to `<dir>/<name>.json`, creating `dir`
/// if needed.
fn write_json_in<T: Serialize>(dir: &Path, name: &str, value: &T) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let json = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
    std::fs::write(dir.join(format!("{name}.json")), json)
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
    fn write_json_writes_under_the_directory_it_is_given() {
        assert!(Path::new(EXPERIMENTS).is_relative());
        let td = nvm_emu::TempDir::new("nvm_bench_report").unwrap();
        let dir = td.join(EXPERIMENTS);
        write_json_in(&dir, "rows", &[1u32, 2]).unwrap();
        let written = std::fs::read_to_string(dir.join("rows.json")).unwrap();
        assert_eq!(written, serde_json::to_string_pretty(&[1u32, 2]).unwrap());
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
}
