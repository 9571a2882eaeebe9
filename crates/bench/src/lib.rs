//! Benchmark harness for the NVM-checkpoints reproduction.
//!
//! Each paper table/figure has a module under [`experiments`] exposing
//! `run(...)` (serializable rows) and `render(...)` (markdown table).
//! The one binary, `run_all`, executes everything — or the experiments
//! named on its command line — and drops JSON into `experiments/` at
//! the workspace root.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod scale;
