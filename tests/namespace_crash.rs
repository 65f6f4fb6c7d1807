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
//! A slot-reuse drill unlinks a file that holds blocks and creates one in
//! its inode slot, whose freed core keeps its tail on the media (only
//! word 0, the liveness word, is journaled and cleared): crashed at every
//! boundary of both ops, the slot must decode as the file the recovered
//! tree names there, or as free, and the dead file's blocks must be free.
//!
//! The grow case and the rename case are committed as fixtures
//! (`tests/repro/namespace_*.repro`), so `tests/fuzz_regress.rs` replays
//! them too.

mod common;

use std::cell::Cell;

use common::fixture;
use faultfs::{Harness, Op, Script};
use fskit::FsError;
use pmfs::inode::{InodeMem, INODE_CORE, LIVENESS};
use workloads::setups::{System, SystemKind};

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
    crash_at(h, kind, name, s, &points, &|_| Vec::new())
}

/// Crashes `s` at each of `points`, clean and torn, and adds what
/// `inspect` finds in each recovered system to the violations.
fn crash_at(
    h: &Harness,
    kind: SystemKind,
    name: &str,
    s: &Script,
    points: &[u64],
    inspect: &dyn Fn(&System) -> Vec<String>,
) -> (Vec<String>, u64) {
    let (mut violations, mut undone) = (Vec::new(), 0);
    for &k in points {
        for torn in [None, Some(0x5107 ^ k)] {
            let out = h.crash_run_then(kind, s, k, torn, inspect);
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

/// The slot-reuse drill's script: f0 gets synced blocks and is unlinked,
/// and f1 takes its inode slot.
const REUSE: &[&str] = &[
    "create f0",
    "write f0 0 9000 7",
    "fsync f0",
    "unlink f0",
    "create f1",
];

/// Free blocks a recovery counts after a crash past the end of `ops`.
fn free_after(h: &Harness, kind: SystemKind, ops: &[&str]) -> u64 {
    let free = Cell::new(None);
    let out = h.crash_run_then(kind, &script(ops), u64::MAX, None, |sys| {
        free.set(sys.pmfs.as_ref().map(|p| p.free_blocks()));
        Vec::new()
    });
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
    free.get().expect("a PMFS-family kind")
}

/// What the recovered tree names in slot `ino` ("f0", "f1" or nothing)
/// must be what the slot decodes as, and the blocks f0 held are free
/// unless f0 is still named.
fn check_slot(sys: &System, ino: u64, (with_f0, without_f0): (u64, u64)) -> Vec<String> {
    let Some(pmfs) = sys.pmfs.as_ref() else {
        return vec!["no PMFS under the system".into()];
    };
    let mut core = [0u8; INODE_CORE];
    sys.dev.peek(pmfs.layout().inode_off(ino), &mut core);
    let slot = InodeMem::decode(&core);
    let named = |path: &str| match sys.fs.stat(path) {
        Ok(st) => Ok(Some(st.ino)),
        Err(FsError::NotFound) => Ok(None),
        Err(e) => Err(e),
    };
    let (f0, f1) = (named("/f0"), named("/f1"));
    let fits = match (&f0, &f1, &slot) {
        (Ok(Some(i)), Ok(None), Ok(Some(m))) => *i == ino && (m.size, m.nlink) == (9000, 1),
        (Ok(None), Ok(Some(i)), Ok(Some(m))) => {
            *i == ino && (m.size, m.blocks, m.tree_root, m.nlink) == (0, 0, 0, 1)
        }
        (Ok(None), Ok(None), Ok(None)) => true,
        _ => false,
    };
    let mut violations = Vec::new();
    if !fits {
        violations.push(format!(
            "slot {ino} decodes as {slot:?}; /f0 is {f0:?}, /f1 is {f1:?}"
        ));
    }
    let named_f0 = matches!(f0, Ok(Some(_)));
    let (free, want) = (
        pmfs.free_blocks(),
        if named_f0 { with_f0 } else { without_f0 },
    );
    if free != want {
        violations.push(format!(
            "{free} free blocks, {want} expected (/f0 is {f0:?})"
        ));
    }
    violations
}

fn reuse_drill(kind: SystemKind) {
    let h = Harness::new();
    let s = script(REUSE);
    // The precondition: f1 lands in f0's slot, over its dead tail.
    let sys = workloads::setups::build(kind, h.config()).unwrap();
    let mut ino = 0;
    for (i, op) in s.ops.iter().enumerate() {
        faultfs::exec_op(&*sys.fs, &sys.env, op).unwrap();
        match i {
            2 => ino = sys.fs.stat("/f0").unwrap().ino,
            3 => {
                let mut core = [0u8; INODE_CORE];
                let pmfs = sys.pmfs.as_ref().unwrap();
                sys.dev.peek(pmfs.layout().inode_off(ino), &mut core);
                let (word, tail) = core.split_at(LIVENESS);
                assert!(word.iter().all(|&b| b == 0), "the freed slot's word 0");
                assert!(tail.iter().any(|&b| b != 0), "no dead tail");
            }
            _ => {}
        }
    }
    assert_eq!(sys.fs.stat("/f1").unwrap().ino, ino, "f1 reuses f0's slot");
    let free = (
        free_after(&h, kind, &REUSE[..3]),
        free_after(&h, kind, &REUSE[..4]),
    );
    assert!(free.0 < free.1, "f0 holds blocks");

    // Every boundary of the unlink, then of the create.
    let mut points = h.last_op_boundaries(kind, &script(&REUSE[..4]));
    points.extend(h.last_op_boundaries(kind, &s));
    let check = |sys: &System| check_slot(sys, ino, free);
    let (violations, undone) = crash_at(&h, kind, "slot reuse", &s, &points, &check);
    assert!(violations.is_empty(), "{violations:#?}");
    assert!(undone > 0, "no crash landed inside a transaction");
}

#[test]
fn pmfs_a_reused_slot_is_free_or_whole_at_every_boundary() {
    reuse_drill(SystemKind::Pmfs);
}

#[test]
fn hinfs_a_reused_slot_is_free_or_whole_at_every_boundary() {
    reuse_drill(SystemKind::Hinfs);
}
