//! Directed crash test for fill-before-link (`tests/repro/fill_before_link_*`).
//!
//! A block enters a file's tree with an unjournaled 8-byte pointer
//! persist, so it must hold its final content *before* the pointer does:
//! zeroes where a reader can reach and nothing was written, the new bytes
//! elsewhere. The two fixtures recycle poisoned blocks into a hole inside
//! EOF — through HiNFS's allocate-on-flush and through PMFS's direct
//! write — and this test crashes at **every** persistence boundary of the
//! mapping operation, clean and with the volatile store buffer torn. The
//! oracle accepts a zero, the synced image or a pending write's fill for
//! each byte; the poison is none of those.

use faultfs::{Harness, Repro, Script};

fn load(name: &str) -> Repro {
    let path = format!("{}/tests/repro/{name}.repro", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Repro::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The 1-based boundaries the script's last op crosses.
fn boundaries_of_last_op(h: &Harness, r: &Repro) -> Vec<u64> {
    let kind = r.kind.expect("fixture names its kind");
    let numbered = |s: &Script| {
        h.record_schedule(kind, s)
            .iter()
            .filter(|b| b.index != 0)
            .count() as u64
    };
    let prefix = Script {
        ops: r.script.ops[..r.script.ops.len() - 1].to_vec(),
    };
    (numbered(&prefix) + 1..=numbered(&r.script)).collect()
}

fn crash_everywhere(name: &str) {
    let h = Harness::new();
    let r = load(name);
    let kind = r.kind.unwrap();
    let points = boundaries_of_last_op(&h, &r);
    assert!(points.len() >= 4, "{name}: the op maps a block: {points:?}");
    let mut violations = Vec::new();
    for &k in &points {
        for torn in [None, Some(0xF111 ^ k)] {
            let out = h.crash_run(kind, &r.script, k, torn);
            assert!(out.crashed_mid_op, "{name}: boundary {k} is inside the op");
            let how = if torn.is_some() { " torn" } else { "" };
            violations.extend(
                out.violations
                    .into_iter()
                    .map(|v| format!("[k={k}{how}] {v}")),
            );
        }
    }
    assert!(violations.is_empty(), "{name}: {violations:#?}");
}

#[test]
fn hinfs_flush_never_exposes_a_recycled_blocks_content() {
    crash_everywhere("fill_before_link_hinfs");
}

#[test]
fn pmfs_write_never_exposes_a_recycled_blocks_content() {
    crash_everywhere("fill_before_link_pmfs");
}

/// The committed fixtures list exactly those boundaries, so the corpus
/// replay (`tests/fuzz_regress.rs`) crashes there too.
#[test]
fn fixtures_carry_every_boundary_of_the_mapping_op() {
    let h = Harness::new();
    for name in ["fill_before_link_hinfs", "fill_before_link_pmfs"] {
        let r = load(name);
        assert_eq!(
            r.boundaries,
            boundaries_of_last_op(&h, &r),
            "{name}: update the `boundaries:` line"
        );
    }
}
