//! faultfs: crash-point enumeration with a durability oracle and fault
//! injection, across every file system in the workspace.
//!
//! The paper's central claim — that HiNFS hides NVMM write latency behind
//! a DRAM buffer *without giving up the consistency of PMFS* — is only
//! testable by crashing the stack on purpose. This crate makes that a
//! first-class, deterministic operation:
//!
//! - [`script`]: tiny replayable operation sequences (and a seeded random
//!   generator) over a flat namespace;
//! - [`oracle`]: the durability judgment — what **must**, **may**, and
//!   **must not** survive a crash, per file system semantics (eager PMFS,
//!   lazy HiNFS data, jbd-committed EXT4 namespace);
//! - [`harness`]: records the numbered *crash schedule* of persistence
//!   boundaries a replay crosses, then re-runs it crashing at each one
//!   (plus torn-store variants and soft-fault injections), remounting and
//!   oracle-checking every time.
//!
//! Every image is formatted and remounted by the evaluation's own system
//! factory, [`workloads::setups`], and named by its [`SystemKind`]. The
//! differential checks run on all seven kinds; the crash oracle judges
//! one kind per durability model, [`CRASH_KINDS`].
//!
//! ```
//! use faultfs::{Harness, Script, SweepConfig};
//! use workloads::setups::SystemKind;
//!
//! let h = Harness::new();
//! let script = Script::random(7, 6);
//! let cfg = SweepConfig { max_points: 8, ..SweepConfig::default() };
//! let out = h.sweep(SystemKind::Pmfs, &script, cfg);
//! assert!(out.violations.is_empty(), "{:?}", out.violations);
//! ```

pub mod fuzz;
pub mod harness;
pub mod model;
pub mod oracle;
pub mod script;

pub use fuzz::{
    differential, first_refusal, shrink_differential, FuzzConfig, FuzzOutcome, Fuzzer, Refusal,
    Repro,
};
pub use harness::{exec_op, Harness, RunOutcome, SweepConfig, SweepOutcome};
pub use model::{ModelBug, RefModel};
pub use nvmm::InjectedFault;
pub use oracle::{CheckReport, Oracle};
pub use script::{dir_path, file_path, Op, Script};
pub use workloads::setups::SystemKind as FsKind;
use workloads::setups::SystemKind;

/// The kinds the crash oracle judges, one per durability model: eager
/// PMFS, lazily buffered HiNFS and jbd-committed ext4 (ext2 has no
/// journal to recover from). In the fuzzer's coverage-context order.
pub const CRASH_KINDS: [SystemKind; 3] = [SystemKind::Hinfs, SystemKind::Pmfs, SystemKind::Ext4Bd];

obsv::counter_set! {
    /// Counters exported by the fault-injection harness.
    pub struct FaultStats, snapshot FaultSnapshot, prefix "faultfs_" {
        /// Simulated power failures injected (clean and torn).
        pub crashes_injected,
        /// Soft faults injected (journal-full, ENOSPC, writeback stalls).
        pub faults_injected,
        /// Undo transactions rolled back during recoveries.
        pub txs_undone,
        /// Journal entries undone (undo) or replayed (redo) in recoveries.
        pub entries_undone,
        /// Individual durability-oracle assertions evaluated.
        pub oracle_checks,
        /// Oracle violations detected (must stay zero).
        pub oracle_violations,
        /// Successful remount + recovery cycles.
        pub recoveries,
    }
}
