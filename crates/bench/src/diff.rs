//! Bench-regression attribution: diff two `BENCH_*.json` documents and
//! decompose a Δops_per_s or Δp99 into ranked span-phase, lock-site and
//! fence-count deltas — a machine-generated "blame table" instead of a
//! bare pass/fail gate.
//!
//! The parser reads only the flat one-key-per-line families the emitter
//! guarantees (`headline::`, `tail::`, `span::`, `lock::`, `fence::`,
//! and, since schema v4, `waf::` and `lag::`), so it needs no JSON
//! library and tolerates any schema's nested sections. An older baseline
//! (a v2 doc without `tail::`/`span::` keys, or a v3 doc without
//! `waf::`/`lag::` keys) still diffs cleanly: headline deltas always
//! print, and each missing family is reported as a note instead of a
//! blame ranking.
//!
//! Output is stable and greppable: human-readable `bench_diff:` lines
//! plus `blame::<cell>::<family> <rank> <name> <delta>` lines, ranked
//! largest mover first, so the same table explains a regression and a
//! gain — `verify.sh` plants a synthetic span-phase regression and
//! asserts the blame table names it at rank 1.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The flat key families the diff understands.
const FAMILIES: [&str; 7] = [
    "headline::",
    "tail::",
    "span::",
    "lock::",
    "fence::",
    "waf::",
    "lag::",
];

/// Span/lock deltas below this many ns per op are noise, not blame.
const MIN_NS_PER_OP: f64 = 0.05;

/// Blame rows printed per family per cell.
const TOP_BLAME: usize = 5;

/// A parsed flat-key document: key → numeric value, plus the scale's
/// thread count (for labeling) and total ops per cell (for per-op
/// normalization).
#[derive(Debug, Default)]
pub struct FlatDoc {
    /// Every `<family>::…` key with its numeric value.
    pub keys: BTreeMap<String, f64>,
    /// `schema_version`, when present.
    pub schema: Option<u32>,
}

impl FlatDoc {
    /// Parses the flat key families out of a BENCH document. Lines that
    /// are not `"key": number[,]` with a known family prefix are
    /// ignored, so nested sections never confuse the diff.
    pub fn parse(doc: &str) -> FlatDoc {
        let mut out = FlatDoc::default();
        for line in doc.lines() {
            let t = line.trim();
            if let Some(rest) = t.strip_prefix("\"schema_version\": ") {
                out.schema = rest.trim_end_matches(',').trim().parse().ok();
                continue;
            }
            let Some(rest) = t.strip_prefix('"') else {
                continue;
            };
            let Some((key, val)) = rest.split_once("\": ") else {
                continue;
            };
            if !FAMILIES.iter().any(|f| key.starts_with(f)) {
                continue;
            }
            if let Ok(v) = val.trim_end_matches(',').trim().parse::<f64>() {
                out.keys.insert(key.to_string(), v);
            }
        }
        out
    }

    fn get(&self, key: &str) -> Option<f64> {
        self.keys.get(key).copied()
    }

    /// The headline cells (`<workload>::<system>`) present in the doc.
    fn cells(&self) -> Vec<String> {
        self.keys
            .keys()
            .filter_map(|k| {
                let rest = k.strip_prefix("headline::")?;
                let cell = rest.strip_suffix("::ops_per_s")?;
                // A cell is `<workload>::<system>`; anything deeper is a
                // sweep key like `<cell>::threads=8`.
                if cell.matches("::").count() != 1 {
                    return None;
                }
                Some(cell.to_string())
            })
            .collect()
    }

    /// Whether the doc carries any key of `family` for `cell`.
    fn has_family(&self, family: &str, cell: &str) -> bool {
        let prefix = format!("{family}{cell}::");
        self.keys.keys().any(|k| k.starts_with(&prefix))
    }

    /// `(name, value)` pairs of `<family><cell>::…<suffix>` keys, with
    /// the name being the middle segment (e.g. the `phase=` or `site=`
    /// value).
    fn family_values(&self, family: &str, cell: &str, suffix: &str) -> Vec<(String, f64)> {
        let prefix = format!("{family}{cell}::");
        self.keys
            .iter()
            .filter_map(|(k, &v)| {
                let mid = k.strip_prefix(&prefix)?.strip_suffix(suffix)?;
                let name = mid
                    .split_once('=')
                    .map(|(_, n)| n)
                    .unwrap_or(mid)
                    .to_string();
                Some((name, v))
            })
            .collect()
    }
}

/// One ranked blame entry: a named component's per-op (or per-exemplar)
/// delta between baseline and candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Blame {
    /// Phase or site name.
    pub name: String,
    /// Candidate minus baseline, normalized ns (per op or per exemplar).
    pub delta: f64,
    /// Baseline normalized value.
    pub base: f64,
}

fn pct(base: f64, cand: f64) -> String {
    if base == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.2}%", (cand - base) / base * 100.0)
}

/// Joins baseline and candidate `(name, value)` lists into per-name
/// deltas, ranked largest change (up or down) first.
fn rank_deltas(
    base: &[(String, f64)],
    cand: &[(String, f64)],
    base_norm: f64,
    cand_norm: f64,
) -> Vec<Blame> {
    let mut names: Vec<&String> = base.iter().chain(cand.iter()).map(|(n, _)| n).collect();
    names.sort();
    names.dedup();
    let lookup = |set: &[(String, f64)], name: &str| -> f64 {
        set.iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    let mut out: Vec<Blame> = names
        .into_iter()
        .map(|name| {
            let b = lookup(base, name) / base_norm.max(1.0);
            let c = lookup(cand, name) / cand_norm.max(1.0);
            Blame {
                name: name.clone(),
                delta: c - b,
                base: b,
            }
        })
        .filter(|b| b.delta.abs() >= MIN_NS_PER_OP)
        .collect();
    out.sort_by(|a, b| {
        b.delta
            .abs()
            .total_cmp(&a.delta.abs())
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

fn push_blame_family(out: &mut String, cell: &str, family: &str, unit: &str, ranked: &[Blame]) {
    for (i, b) in ranked.iter().take(TOP_BLAME).enumerate() {
        let _ = writeln!(
            out,
            "blame::{cell}::{family} {} {} {:+.1} {unit} ({})",
            i + 1,
            b.name,
            b.delta,
            pct(b.base, b.base + b.delta)
        );
    }
}

/// Renders the full diff of two parsed documents. Pure string-in /
/// string-out so the negative test in `verify.sh` (and the unit tests
/// here) can assert on exact blame lines.
pub fn render_diff(base: &FlatDoc, cand: &FlatDoc, base_name: &str, cand_name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench_diff: baseline {base_name} (schema {}) vs candidate {cand_name} (schema {})",
        base.schema.map_or("?".into(), |v| v.to_string()),
        cand.schema.map_or("?".into(), |v| v.to_string()),
    );
    let mut cells = base.cells();
    cells.retain(|c| cand.cells().contains(c));
    if cells.is_empty() {
        let _ = writeln!(
            out,
            "bench_diff: no common headline cells — nothing to diff"
        );
        return out;
    }
    for cell in &cells {
        let _ = writeln!(out, "bench_diff: cell {cell}");
        let b_ops = base
            .get(&format!("headline::{cell}::ops_per_s"))
            .unwrap_or(0.0);
        let c_ops = cand
            .get(&format!("headline::{cell}::ops_per_s"))
            .unwrap_or(0.0);
        let _ = writeln!(
            out,
            "bench_diff:   ops_per_s {b_ops:.1} -> {c_ops:.1} ({})",
            pct(b_ops, c_ops)
        );
        let b_total = base
            .get(&format!("headline::{cell}::total_ops"))
            .unwrap_or(0.0);
        let c_total = cand
            .get(&format!("headline::{cell}::total_ops"))
            .unwrap_or(0.0);
        // p99: prefer the schema-v3 tail key, fall back to the slowest
        // sweep point's p99 present in both docs.
        let p99_key = format!("tail::{cell}::p99::ns");
        match (base.get(&p99_key), cand.get(&p99_key)) {
            (Some(b), Some(c)) => {
                let _ = writeln!(out, "bench_diff:   p99_ns {b:.0} -> {c:.0} ({})", pct(b, c));
            }
            _ => {
                let _ = writeln!(
                    out,
                    "bench_diff:   note {cell}: no tail::p99 key in both docs (schema < 3 side); p99 delta from headline sweep only"
                );
            }
        }

        // Span-phase blame, normalized to ns per op.
        if base.has_family("span::", cell) && cand.has_family("span::", cell) {
            let ranked = rank_deltas(
                &base.family_values("span::", cell, "::ns"),
                &cand.family_values("span::", cell, "::ns"),
                b_total,
                c_total,
            );
            push_blame_family(&mut out, cell, "span", "ns/op", &ranked);
        } else {
            let _ = writeln!(
                out,
                "bench_diff:   note {cell}: span:: keys missing on one side; span blame skipped"
            );
        }

        // Lock-site blame, normalized to wait ns per op.
        if base.has_family("lock::", cell) && cand.has_family("lock::", cell) {
            let ranked = rank_deltas(
                &base.family_values("lock::", cell, "::wait_ns"),
                &cand.family_values("lock::", cell, "::wait_ns"),
                b_total,
                c_total,
            );
            push_blame_family(&mut out, cell, "lock", "wait-ns/op", &ranked);
        } else {
            let _ = writeln!(
                out,
                "bench_diff:   note {cell}: lock:: keys missing on one side; lock blame skipped"
            );
        }

        // Fence-count delta, per op.
        let fence_key = format!("fence::{cell}::count");
        match (base.get(&fence_key), cand.get(&fence_key)) {
            (Some(b), Some(c)) => {
                let b = b / b_total.max(1.0);
                let c = c / c_total.max(1.0);
                let _ = writeln!(
                    out,
                    "blame::{cell}::fence {:+.3} fences/op ({})",
                    c - b,
                    pct(b, c)
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "bench_diff:   note {cell}: fence:: keys missing on one side; fence delta skipped"
                );
            }
        }

        // Write-amplification blame: per-layer bytes normalized to bytes
        // per logical KiB, so a candidate that moves more journal or
        // writeback traffic per unit of useful work is named by layer.
        if base.has_family("waf::", cell) && cand.has_family("waf::", cell) {
            let b_kib = base
                .get(&format!("waf::{cell}::logical::bytes"))
                .unwrap_or(0.0)
                / 1024.0;
            let c_kib = cand
                .get(&format!("waf::{cell}::logical::bytes"))
                .unwrap_or(0.0)
                / 1024.0;
            let ranked = rank_deltas(
                &base.family_values("waf::", cell, "::bytes"),
                &cand.family_values("waf::", cell, "::bytes"),
                b_kib,
                c_kib,
            );
            push_blame_family(&mut out, cell, "waf", "b/logical-kib", &ranked);
            let fpk_key = format!("waf::{cell}::fences_per_kib");
            if let (Some(b), Some(c)) = (base.get(&fpk_key), cand.get(&fpk_key)) {
                if b != c {
                    let _ = writeln!(
                        out,
                        "blame::{cell}::waf_fences {:+.3} fences/kib ({})",
                        c - b,
                        pct(b, c)
                    );
                }
            }
        } else {
            let _ = writeln!(
                out,
                "bench_diff:   note {cell}: waf:: keys missing on one side (schema < 4 side); waf blame skipped"
            );
        }

        // Durability-lag blame: the p50/p99/max quantile deltas in
        // absolute ns, largest change first.
        if base.has_family("lag::", cell) && cand.has_family("lag::", cell) {
            let ranked = rank_deltas(
                &base.family_values("lag::", cell, "_ns"),
                &cand.family_values("lag::", cell, "_ns"),
                1.0,
                1.0,
            );
            push_blame_family(&mut out, cell, "lag", "ns", &ranked);
        } else {
            let _ = writeln!(
                out,
                "bench_diff:   note {cell}: lag:: keys missing on one side (schema < 4 side); lag blame skipped"
            );
        }

        // Tail-anatomy blame: Δp99 decomposed into per-exemplar phase
        // averages of the p99 cohort.
        if base.has_family("tail::", cell) && cand.has_family("tail::", cell) {
            let tcell = format!("{cell}::p99");
            let b_n = base.get(&format!("tail::{tcell}::count")).unwrap_or(0.0);
            let c_n = cand.get(&format!("tail::{tcell}::count")).unwrap_or(0.0);
            let ranked = rank_deltas(
                &base.family_values("tail::", &tcell, "::ns"),
                &cand.family_values("tail::", &tcell, "::ns"),
                b_n,
                c_n,
            );
            // family_values over "::ns" also captures the quantile key
            // itself (`tail::<cell>::p99::ns`, name "p99::ns" → "ns")
            // and wait keys; keep only phase names.
            let phase_only: Vec<Blame> = ranked
                .into_iter()
                .filter(|b| {
                    base.get(&format!("tail::{tcell}::phase={}::ns", b.name))
                        .is_some()
                        || cand
                            .get(&format!("tail::{tcell}::phase={}::ns", b.name))
                            .is_some()
                })
                .collect();
            push_blame_family(&mut out, cell, "tail_p99", "ns/exemplar", &phase_only);
        } else {
            let _ = writeln!(
                out,
                "bench_diff:   note {cell}: tail:: keys missing on one side; tail blame skipped"
            );
        }
    }
    let _ = writeln!(out, "bench_diff: done ({} cells)", cells.len());
    out
}

/// Diffs two documents by content; the names label the report only.
pub fn diff_docs(base_doc: &str, cand_doc: &str, base_name: &str, cand_name: &str) -> String {
    render_diff(
        &FlatDoc::parse(base_doc),
        &FlatDoc::parse(cand_doc),
        base_name,
        cand_name,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(extra: &str) -> String {
        format!(
            "{{\n  \"schema_version\": 4,\n  \
             \"headline::fileserver::hinfs::ops_per_s\": 1000.000,\n  \
             \"headline::fileserver::hinfs::total_ops\": 2000,\n  \
             \"tail::fileserver::hinfs::p99::ns\": 5000,\n  \
             \"tail::fileserver::hinfs::p99::count\": 10,\n  \
             \"tail::fileserver::hinfs::p99::phase=journal::ns\": 20000,\n  \
             \"tail::fileserver::hinfs::p99::phase=persist::ns\": 10000,\n  \
             \"span::fileserver::hinfs::phase=journal::ns\": 100000,\n  \
             \"span::fileserver::hinfs::phase=persist::ns\": 300000,\n  \
             \"lock::fileserver::hinfs::site=pmfs.journal::wait_ns\": 50000,\n  \
             \"fence::fileserver::hinfs::count\": 4000,\n  \
             \"waf::fileserver::hinfs::logical::bytes\": 1048576,\n  \
             \"waf::fileserver::hinfs::journal_logged::bytes\": 262144,\n  \
             \"waf::fileserver::hinfs::nvmm_persisted::bytes\": 2097152,\n  \
             \"waf::fileserver::hinfs::fences_per_kib\": 1.204,\n  \
             \"lag::fileserver::hinfs::count\": 500,\n  \
             \"lag::fileserver::hinfs::p50_ns\": 0,\n  \
             \"lag::fileserver::hinfs::p99_ns\": 40000,\n  \
             \"lag::fileserver::hinfs::max_ns\": 90000,\n{extra}  \
             \"end\": 0\n}}\n"
        )
    }

    #[test]
    fn parses_flat_families_only() {
        let d = FlatDoc::parse(&doc(""));
        assert_eq!(d.schema, Some(4));
        assert_eq!(d.cells(), vec!["fileserver::hinfs".to_string()]);
        assert_eq!(
            d.get("span::fileserver::hinfs::phase=journal::ns"),
            Some(100000.0)
        );
        assert!(d.get("end").is_none(), "unknown families are ignored");
    }

    #[test]
    fn planted_span_regression_is_blamed_first() {
        let base = doc("");
        // Journal span grows 10x while everything else is unchanged: the
        // span blame table must put journal at rank 1.
        let cand = base.replace(
            "\"span::fileserver::hinfs::phase=journal::ns\": 100000,",
            "\"span::fileserver::hinfs::phase=journal::ns\": 1000000,",
        );
        let report = diff_docs(&base, &cand, "a", "b");
        let rank1 = report
            .lines()
            .find(|l| l.starts_with("blame::fileserver::hinfs::span 1 "))
            .expect("span blame rank 1 line");
        assert!(
            rank1.starts_with("blame::fileserver::hinfs::span 1 journal "),
            "wrong blame: {rank1}"
        );
        // Delta is (1000000-100000)/2000 = +450 ns/op.
        assert!(rank1.contains("+450.0 ns/op"), "wrong delta: {rank1}");
    }

    #[test]
    fn schema_v2_baseline_degrades_to_notes_not_errors() {
        // A v2 baseline has headline keys only.
        let base = "{\n  \"schema_version\": 2,\n  \
                    \"headline::fileserver::hinfs::ops_per_s\": 900.000,\n  \
                    \"headline::fileserver::hinfs::total_ops\": 1800,\n}\n";
        let report = diff_docs(base, &doc(""), "pr7", "pr9");
        assert!(report.contains("bench_diff: cell fileserver::hinfs"));
        assert!(report.contains("ops_per_s 900.0 -> 1000.0"));
        assert!(report.contains("span blame skipped"));
        assert!(report.contains("lock blame skipped"));
        assert!(report.contains("bench_diff: done (1 cells)"));
        assert!(
            !report.lines().any(|l| l.starts_with("blame::")),
            "no blame lines without both sides:\n{report}"
        );
    }

    #[test]
    fn lock_and_fence_deltas_rank_and_normalize() {
        let base = doc("");
        let cand = doc("")
            .replace(
                "\"lock::fileserver::hinfs::site=pmfs.journal::wait_ns\": 50000,",
                "\"lock::fileserver::hinfs::site=pmfs.journal::wait_ns\": 250000,",
            )
            .replace(
                "\"fence::fileserver::hinfs::count\": 4000,",
                "\"fence::fileserver::hinfs::count\": 6000,",
            );
        let report = diff_docs(&base, &cand, "a", "b");
        assert!(
            report.contains("blame::fileserver::hinfs::lock 1 pmfs.journal +100.0 wait-ns/op"),
            "{report}"
        );
        assert!(
            report.contains("blame::fileserver::hinfs::fence +1.000 fences/op"),
            "{report}"
        );
    }

    #[test]
    fn tail_phase_blame_uses_per_exemplar_averages() {
        let base = doc("");
        let cand = doc("").replace(
            "\"tail::fileserver::hinfs::p99::phase=journal::ns\": 20000,",
            "\"tail::fileserver::hinfs::p99::phase=journal::ns\": 60000,",
        );
        let report = diff_docs(&base, &cand, "a", "b");
        // (60000-20000)/10 exemplars = +4000 ns/exemplar.
        assert!(
            report.contains("blame::fileserver::hinfs::tail_p99 1 journal +4000.0 ns/exemplar"),
            "{report}"
        );
    }

    #[test]
    fn identical_docs_produce_no_blame_rows() {
        let report = diff_docs(&doc(""), &doc(""), "a", "a");
        assert!(
            !report
                .lines()
                .any(|l| l.starts_with("blame::") && !l.contains("+0.000")),
            "unexpected blame:\n{report}"
        );
    }

    #[test]
    fn planted_waf_regression_is_blamed_by_layer() {
        let base = doc("");
        // NVMM-persisted bytes triple at constant logical traffic: the waf
        // blame must name the layer at rank 1, in bytes per logical KiB.
        let cand = base.replace(
            "\"waf::fileserver::hinfs::nvmm_persisted::bytes\": 2097152,",
            "\"waf::fileserver::hinfs::nvmm_persisted::bytes\": 6291456,",
        );
        let report = diff_docs(&base, &cand, "a", "b");
        let rank1 = report
            .lines()
            .find(|l| l.starts_with("blame::fileserver::hinfs::waf 1 "))
            .expect("waf blame rank 1 line");
        assert!(
            rank1.starts_with("blame::fileserver::hinfs::waf 1 nvmm_persisted "),
            "wrong blame: {rank1}"
        );
        // (6291456-2097152)/1024 logical KiB = +4096 b/logical-kib.
        assert!(
            rank1.contains("+4096.0 b/logical-kib"),
            "wrong delta: {rank1}"
        );
    }

    #[test]
    fn a_fence_rate_change_below_one_per_kib_is_reported() {
        // hinfs 1.20 and pmfs 1.73 both used to print `1`.
        let base = doc("");
        let cand = base.replace("fences_per_kib\": 1.204,", "fences_per_kib\": 0.803,");
        let report = diff_docs(&base, &cand, "a", "b");
        assert!(
            report.contains("blame::fileserver::hinfs::waf_fences -0.401 fences/kib (-33.31%)"),
            "{report}"
        );
    }

    #[test]
    fn planted_lag_regression_is_blamed_by_quantile() {
        let base = doc("");
        let cand = base.replace(
            "\"lag::fileserver::hinfs::max_ns\": 90000,",
            "\"lag::fileserver::hinfs::max_ns\": 5090000,",
        );
        let report = diff_docs(&base, &cand, "a", "b");
        let rank1 = report
            .lines()
            .find(|l| l.starts_with("blame::fileserver::hinfs::lag 1 "))
            .expect("lag blame rank 1 line");
        assert!(
            rank1.starts_with("blame::fileserver::hinfs::lag 1 max "),
            "wrong blame: {rank1}"
        );
        assert!(rank1.contains("+5000000.0 ns"), "wrong delta: {rank1}");
    }

    #[test]
    fn schema_v3_baseline_degrades_waf_and_lag_to_notes() {
        // A v3 baseline has every family except waf::/lag::.
        let base = doc("")
            .lines()
            .filter(|l| !l.contains("\"waf::") && !l.contains("\"lag::"))
            .collect::<Vec<_>>()
            .join("\n")
            .replace("\"schema_version\": 4", "\"schema_version\": 3");
        let report = diff_docs(&base, &doc(""), "pr9", "pr10");
        assert!(report.contains("waf blame skipped"), "{report}");
        assert!(report.contains("lag blame skipped"), "{report}");
        // The older families still produce full diffs.
        assert!(report.contains("bench_diff: cell fileserver::hinfs"));
        assert!(
            !report
                .lines()
                .any(|l| l.starts_with("blame::fileserver::hinfs::waf")
                    || l.starts_with("blame::fileserver::hinfs::lag")),
            "no waf/lag blame without both sides:\n{report}"
        );
    }
}
