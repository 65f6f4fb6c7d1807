//! Carrier crash drill: a lazy-persistent write that grows a file leaves
//! its inode update to a *carrier*, a dirty buffered block over a hole.
//! Flushing any carrier maps it, which persists the in-DRAM core, and the
//! transaction that core is persisted under must then wait for every other
//! block of the file still dirty below the size it persisted.
//!
//! The script gives `f1` a mapped tail block whose bytes past end of file
//! are a recycled block's poison (`f0` poisons a block per allocator
//! shard and is unlinked, as in `tests/fill_before_link.rs`), then a lazy
//! append over that tail plus three hole blocks, with no transaction. A
//! rewrite of the tail moves it off the LRW end; `f2` then fills the
//! 1 MiB buffer to its low watermark, and `f1`'s next write stalls and
//! evicts `f1`'s oldest block, a hole block, on its own. That flush
//! persists the core at the appended size while the tail is still dirty
//! in DRAM. The last op, an fsync of a third file, is crashed at every
//! persistence boundary, clean and torn: a transaction that committed
//! after its own block alone would let the recovered size cover the
//! poison.
//!
//! The script is committed as `tests/repro/carrier_flush_hinfs.repro`,
//! so `tests/fuzz_regress.rs` replays it too (the harness's default
//! buffer is the 1 MiB the script is sized for).

mod common;

use faultfs::{exec_op, Harness, Op, Script};
use workloads::setups::{self, SystemKind};

const OPS: &[&str] = &[
    "create f0",
    "write f0 0 12288 165",
    "write f0 12288 12288 165",
    "write f0 24576 8192 165",
    "fsync f0",
    "unlink f0",
    "create f1",
    "write f1 0 1000 7",
    "sync",
    "append f1 11289 9",
    "write f1 2000 100 9",
    "create f3",
    "write f3 0 100 3",
    "create f2",
    "write f2 0 978944 11",
    "write f1 16384 53248 5",
    "fsync f3",
];

fn script() -> Script {
    Script {
        ops: OPS
            .iter()
            .map(|l| Op::parse(l).unwrap_or_else(|| panic!("bad op {l:?}")))
            .collect(),
    }
}

/// A drill that never takes the path is no drill: replayed on the
/// harness's geometry (8 MiB device, 64 journal blocks, 128 inodes, 1 MiB
/// buffer), the script's stall flushes `f1`'s hole block alone, and the
/// core that flush persisted says the appended size while `f1`'s
/// transaction is still open.
#[test]
fn the_stall_flushes_one_hole_block_under_an_open_transaction() {
    let sys = setups::build(SystemKind::Hinfs, Harness::new().config()).unwrap();
    let fs = sys.hinfs.clone().unwrap();
    let s = script();
    for op in &s.ops[..s.ops.len() - 1] {
        exec_op(&*sys.fs, &sys.env, op).unwrap();
    }
    assert_eq!(fs.stats().snapshot().foreground_stalls, 1);
    let st = sys.fs.stat("/f1").unwrap();
    assert_eq!(st.size, 16384 + 53248);
    let mut core = [0u8; pmfs::inode::INODE_CORE];
    sys.dev
        .peek(fs.pmfs().layout().inode_off(st.ino), &mut core);
    let on_nvmm = pmfs::inode::InodeMem::decode(&core).unwrap().unwrap();
    assert_eq!(
        (on_nvmm.size, on_nvmm.blocks),
        (1000 + 11289, 2),
        "the carrier's flush persisted the appended size and its block"
    );
    // f1's and f2's (the background reclaim mapped part of f2): f1's
    // waits for its tail and its other two hole blocks.
    assert_eq!(fs.pmfs().journal().open_txs(), 2);
    assert!(obsv::Introspect::audit(&*fs).is_clean());
}

#[test]
fn a_carried_size_never_commits_ahead_of_its_data() {
    let h = Harness::new();
    let s = script();
    let points = h.last_op_boundaries(SystemKind::Hinfs, &s);
    assert!(points.len() >= 4, "the fsync maps a block: {points:?}");
    let (mut violations, mut undone) = (Vec::new(), 0);
    for &k in &points {
        for torn in [None, Some(0xCA11 ^ k)] {
            let out = h.crash_run(SystemKind::Hinfs, &s, k, torn);
            assert!(out.crashed_mid_op, "boundary {k} is inside the fsync");
            undone += u64::from(out.txs_undone > 0);
            let how = if torn.is_some() { " torn" } else { "" };
            violations.extend(
                out.violations
                    .into_iter()
                    .map(|v| format!("[k={k}{how}] {v}")),
            );
        }
    }
    assert!(violations.is_empty(), "{violations:#?}");
    assert_eq!(undone, 2 * points.len() as u64, "f1's transaction is open");
}

/// The committed fixture is this drill's script and lists every boundary
/// of its last op, so the corpus replay crashes there too.
#[test]
fn the_fixture_carries_the_drill() {
    let r = common::fixture("carrier_flush_hinfs");
    assert_eq!(r.kind, Some(SystemKind::Hinfs));
    assert_eq!(r.script, script(), "ops");
    let h = Harness::new();
    assert_eq!(
        r.boundaries,
        h.last_op_boundaries(SystemKind::Hinfs, &r.script),
        "update the `boundaries:` line"
    );
}
