//! Experiment harness for the HiNFS reproduction.
//!
//! Each `figNN` function in [`figs`] regenerates one figure of the paper's
//! evaluation (see `DESIGN.md` for the index) and returns a [`table::Table`]
//! with the same rows/series the paper reports. The `experiments` binary
//! prints them and can emit the `EXPERIMENTS.md` data sections. [`diff`]
//! gates a run of the repo benchmark against the committed `BENCH.tsv`.
//!
//! All experiments run in deterministic virtual time; the Criterion
//! benches under `benches/` exercise the same code on the spin-mode
//! (busy-wait) emulator.

pub mod common;
pub mod diff;
pub mod figs;
pub mod table;

pub use common::Scale;
pub use table::Table;
