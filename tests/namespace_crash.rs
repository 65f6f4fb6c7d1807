//! Namespace crash drill: create, unlink, rename, mkdir and rmdir on PMFS
//! and HiNFS, with the entry first, in the middle and last in a one-block
//! directory, plus the create that grows the (empty) root by a block.
//!
//! Entry edits find their slot through the DRAM name index and journal
//! only the header whose `rec_len` they rewrite (a rename in place: the
//! header and the new name); the parent's mtime is an unjournaled 8-byte
//! store. Each case crashes at **every** persistence
//! boundary of its last op, clean and with the volatile store buffer
//! torn. After each recovery the harness checks that the root's dirent
//! chain parses (the oracle's `readdir /`), that the exact oracle is
//! clean, and — with the name index the oracle's walk built from the
//! recovered blocks — that the auditor's `namei.index` finds it equal to
//! a fresh build from the media, slots and free-space summaries included.
//!
//! The grow case and the rename case are committed as fixtures
//! (`tests/repro/namespace_*.repro`), so `tests/fuzz_regress.rs` replays
//! them too.

mod common;

use common::fixture;
use faultfs::{Harness, Op, Script};
use workloads::setups::SystemKind;

/// A case: the ops before the one under test, then that op, as text.
struct Case {
    name: &'static str,
    ops: &'static [&'static str],
}

const CASES: &[Case] = &[
    // The root has no block yet: its first entry appends one.
    Case {
        name: "create grows the directory",
        ops: &["create f0"],
    },
    Case {
        name: "create lands last",
        ops: &["create f0", "create f1", "create f2"],
    },
    Case {
        name: "create reuses a freed first entry",
        ops: &["create f0", "create f1", "unlink f0", "create f2"],
    },
    Case {
        name: "create lands in the middle",
        ops: &[
            "create f0",
            "create f1",
            "create f2",
            "unlink f1",
            "create f3",
        ],
    },
    Case {
        name: "unlink first",
        ops: &["create f0", "create f1", "create f2", "unlink f0"],
    },
    Case {
        name: "unlink middle",
        ops: &["create f0", "create f1", "create f2", "unlink f1"],
    },
    Case {
        name: "unlink last",
        ops: &["create f0", "create f1", "create f2", "unlink f2"],
    },
    Case {
        name: "rename first",
        ops: &["create f0", "create f1", "create f2", "rename f0 f3"],
    },
    Case {
        name: "rename middle",
        ops: &["create f0", "create f1", "create f2", "rename f1 f3"],
    },
    Case {
        name: "rename last",
        ops: &["create f0", "create f1", "create f2", "rename f2 f3"],
    },
    // The source follows a freed entry: removing it first would merge
    // it into a record the new name then lands in, over its header. The
    // script's names are all one length, so each rename here rewrites
    // its record in place; pmfs's own tests crash the add-then-remove
    // rename a longer name takes.
    Case {
        name: "rename after a freed entry",
        ops: &[
            "create f0",
            "create f1",
            "create f2",
            "unlink f1",
            "rename f2 f3",
        ],
    },
    Case {
        name: "rename over an existing file",
        ops: &["create f0", "create f1", "create f2", "rename f0 f2"],
    },
    Case {
        name: "mkdir lands last",
        ops: &["create f0", "create f1", "mkdir d0"],
    },
    Case {
        name: "rmdir first",
        ops: &["mkdir d0", "create f0", "create f1", "rmdir d0"],
    },
    Case {
        name: "rmdir middle",
        ops: &["create f0", "mkdir d0", "create f1", "rmdir d0"],
    },
    Case {
        name: "rmdir last",
        ops: &["create f0", "create f1", "mkdir d0", "rmdir d0"],
    },
];

fn script(ops: &[&str]) -> Script {
    Script {
        ops: ops
            .iter()
            .map(|l| Op::parse(l).unwrap_or_else(|| panic!("bad op {l:?}")))
            .collect(),
    }
}

/// Crashes `s` at every boundary of its last op, clean and torn; returns
/// the violations and how many recoveries rolled a transaction back.
fn crash_everywhere(h: &Harness, kind: SystemKind, name: &str, s: &Script) -> (Vec<String>, u64) {
    let points = h.last_op_boundaries(kind, s);
    assert!(!points.is_empty(), "{name}: the op persists nothing");
    let (mut violations, mut undone) = (Vec::new(), 0);
    for &k in &points {
        for torn in [None, Some(0x5107 ^ k)] {
            let out = h.crash_run(kind, s, k, torn);
            assert!(out.crashed_mid_op, "{name}: boundary {k} is inside the op");
            undone += u64::from(out.txs_undone > 0);
            let how = if torn.is_some() { " torn" } else { "" };
            violations.extend(
                out.violations
                    .into_iter()
                    .map(|v| format!("[{} {name} k={k}{how}] {v}", kind.label())),
            );
        }
    }
    (violations, undone)
}

fn drill(kind: SystemKind) {
    let h = Harness::new();
    let (mut violations, mut undone) = (Vec::new(), 0);
    for case in CASES {
        let (v, u) = crash_everywhere(&h, kind, case.name, &script(case.ops));
        violations.extend(v);
        undone += u;
    }
    assert!(violations.is_empty(), "{violations:#?}");
    assert!(undone > 0, "no crash landed inside a transaction");
}

#[test]
fn pmfs_namespace_ops_survive_a_crash_at_every_boundary() {
    drill(SystemKind::Pmfs);
}

#[test]
fn hinfs_namespace_ops_survive_a_crash_at_every_boundary() {
    drill(SystemKind::Hinfs);
}

/// The committed fixtures are the drill's grow and rename cases, and
/// list every boundary of their last op, so the corpus replay crashes
/// there too.
#[test]
fn fixtures_carry_the_drills_grow_and_rename_cases() {
    let h = Harness::new();
    for (name, case) in [
        ("namespace_grow_hinfs", "create grows the directory"),
        ("namespace_rename_pmfs", "rename after a freed entry"),
    ] {
        let r = fixture(name);
        let case = CASES.iter().find(|c| c.name == case).unwrap();
        assert_eq!(r.script, script(case.ops), "{name}: ops");
        let kind = r.kind.expect("fixture names its kind");
        assert_eq!(
            r.boundaries,
            h.last_op_boundaries(kind, &r.script),
            "{name}: update the `boundaries:` line"
        );
    }
}
