//! The regression gate and blame table over two `benchmark/run.sh --out`
//! files, whose rows read `workload⇥metric⇥clock⇥value`.
//!
//! Only `modelled` rows are read: they repeat exactly at one seed, so any
//! difference is a change of behaviour, not noise. `host` rows are skipped.
//!
//! - **Gate.** A workload's end-to-end metric fails when it is worse than
//!   the baseline by more than its bound (direction and bound come from
//!   `BENCHMARK.json`, the pipeline's own rule), as does a baseline row the
//!   candidate lacks and an `ops_failed.*` count that grew.
//! - **Blame.** Per workload, the per-layer rows ranked by relative change,
//!   largest mover first. Totals are divided by each side's
//!   `workloads.steps`; ratios, percentiles, `*_end` gauges and `probe.*`
//!   values are compared as they are.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The benchmark manifest: the one source of directions and bounds.
pub const MANIFEST: &str = include_str!("../../../BENCHMARK.json");

/// Blame rows printed per workload.
const TOP_BLAME: usize = 5;

/// One metric the manifest declares.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Share of the baseline by which an end-to-end metric may worsen;
    /// per-layer metrics carry none.
    bound: Option<f64>,
}

/// The workloads and metrics of `BENCHMARK.json`.
#[derive(Debug, Default)]
pub struct Manifest {
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// The value of `"key": …` on one manifest line, unquoted.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let rest = &line[line.find(&tag)? + tag.len()..];
    match rest.strip_prefix('"') {
        Some(quoted) => quoted.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

impl Manifest {
    /// Reads the generated manifest line by line: each entry of its
    /// `workloads`, `end_to_end` and `per_layer` lists sits on one line.
    pub fn parse(json: &str) -> Manifest {
        let mut m = Manifest::default();
        let mut section = "";
        for line in json.lines() {
            if let Some(key) = line.trim().strip_suffix(": [") {
                section = key.trim_matches('"');
                continue;
            }
            let Some(name) = field(line, "name") else {
                continue;
            };
            let metric = || Metric {
                name: name.to_string(),
                unit: field(line, "unit").unwrap_or_default().to_string(),
                higher_is_better: field(line, "better") == Some("higher"),
                bound: field(line, "bound").and_then(|b| b.trim().parse().ok()),
            };
            match section {
                "workloads" => m.workloads.push(name.to_string()),
                "end_to_end" => m.end_to_end.push(metric()),
                "per_layer" => m.per_layer.push(metric()),
                _ => {}
            }
        }
        m
    }
}

/// The modelled rows of a `--out` file: (workload, metric) → value.
pub type Rows = BTreeMap<(String, String), f64>;

/// Parses a `--out` file, keeping its `modelled` rows.
pub fn parse_rows(tsv: &str) -> Result<Rows, String> {
    let mut rows = Rows::new();
    for (i, line) in tsv.lines().enumerate() {
        let bad = |why: String| format!("line {}: {why}: {line}", i + 1);
        let [workload, metric, clock, value] = line.split('\t').collect::<Vec<_>>()[..] else {
            return Err(bad("not workload⇥metric⇥clock⇥value".into()));
        };
        match clock {
            "host" => continue,
            "modelled" => {}
            other => return Err(bad(format!("unknown clock {other}"))),
        }
        let v = value.parse().map_err(|e| bad(format!("{e}")))?;
        rows.insert((workload.to_string(), metric.to_string()), v);
    }
    Ok(rows)
}

/// `(cand - base) / |base|`; a move away from 0 is infinite.
fn change(base: f64, cand: f64) -> f64 {
    if base != 0.0 {
        (cand - base) / base.abs()
    } else if cand == base {
        0.0
    } else {
        f64::INFINITY.copysign(cand)
    }
}

/// Whether blame compares a per-layer metric as it is rather than per step.
fn compared_as_is(m: &Metric) -> bool {
    let last = m.name.rsplit('.').next().unwrap_or_default();
    let percentile = last.starts_with('p') && last[1..].starts_with(|c: char| c.is_ascii_digit());
    m.unit == "ratio"
        || percentile
        || last.ends_with("_end")
        || m.name.starts_with("probe.")
        || m.name == "workloads.steps"
}

/// One workload's per-layer movers, largest relative change first:
/// `(metric, Δ, relative change)`.
fn blame(manifest: &Manifest, base: &Rows, cand: &Rows, workload: &str) -> Vec<(String, f64, f64)> {
    let get = |rows: &Rows, metric: &str| {
        rows.get(&(workload.to_string(), metric.to_string()))
            .copied()
    };
    let steps = |rows: &Rows| get(rows, "workloads.steps").unwrap_or(0.0).max(1.0);
    let mut movers: Vec<(String, f64, f64)> = manifest
        .per_layer
        .iter()
        .filter_map(|m| {
            let (mut b, mut c) = (get(base, &m.name)?, get(cand, &m.name)?);
            if !compared_as_is(m) {
                (b, c) = (b / steps(base), c / steps(cand));
            }
            (b != c).then(|| (m.name.clone(), c - b, change(b, c)))
        })
        .collect();
    movers.sort_by(|x, y| y.2.abs().total_cmp(&x.2.abs()).then_with(|| x.0.cmp(&y.0)));
    movers
}

/// What [`diff`] found: the report to print and how many gate checks
/// failed.
#[derive(Debug)]
pub struct Report {
    pub text: String,
    pub failures: usize,
}

/// Gates `cand` against `base` and ranks the per-layer movers.
pub fn diff(manifest: &Manifest, base: &Rows, cand: &Rows) -> Report {
    let mut text = String::new();
    let mut failures = 0;
    let mut changed = 0;
    for ((workload, metric), &b) in base {
        let Some(&c) = cand.get(&(workload.clone(), metric.clone())) else {
            failures += 1;
            let _ = writeln!(text, "FAIL {workload} {metric}: missing from the candidate");
            continue;
        };
        changed += usize::from(b != c);
        if metric.starts_with("ops_failed.") {
            if c > b {
                failures += 1;
                let _ = writeln!(text, "FAIL {workload} {metric}: {b} -> {c}");
            }
            continue;
        }
        let Some(m) = manifest.end_to_end.iter().find(|m| m.name == *metric) else {
            continue;
        };
        if b == c {
            continue;
        }
        let bound = m.bound.unwrap_or(0.0);
        let rel = change(b, c);
        let worse = if m.higher_is_better { -rel } else { rel };
        let verdict = if worse > bound { "FAIL" } else { "ok  " };
        failures += usize::from(worse > bound);
        let _ = writeln!(
            text,
            "{verdict} {workload} {metric}: {b} -> {c} ({:+.2}%, bound {:.0}%)",
            rel * 100.0,
            bound * 100.0
        );
    }
    let mut workloads: Vec<&String> = base.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    for w in workloads {
        for (rank, (metric, delta, rel)) in blame(manifest, base, cand, w)
            .iter()
            .take(TOP_BLAME)
            .enumerate()
        {
            let _ = writeln!(
                text,
                "blame::{w} {} {metric} {delta:+.3} ({:+.2}%)",
                rank + 1,
                rel * 100.0
            );
        }
    }
    let _ = writeln!(
        text,
        "bench_diff: {} baseline rows, {changed} changed: {}",
        base.len(),
        match failures {
            0 => "OK".to_string(),
            n => format!("FAILED on {n}"),
        }
    );
    Report { text, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline: the modelled rows of the repo benchmark.
    const BENCH: &str = include_str!("../../../BENCH.tsv");

    const W: &str = "fileserver-pressure";

    fn manifest() -> Manifest {
        Manifest::parse(MANIFEST)
    }

    fn baseline() -> Rows {
        parse_rows(BENCH).expect("BENCH.tsv parses")
    }

    /// The baseline with one `fileserver-pressure` row rewritten.
    fn planted(metric: &str, f: impl Fn(f64) -> f64) -> Rows {
        let mut rows = baseline();
        let v = rows
            .get_mut(&(W.to_string(), metric.to_string()))
            .expect(metric);
        *v = f(*v);
        rows
    }

    fn run(cand: &Rows) -> Report {
        diff(&manifest(), &baseline(), cand)
    }

    fn rank1(report: &Report) -> &str {
        let prefix = format!("blame::{W} 1 ");
        report
            .text
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no rank-1 blame:\n{}", report.text))
    }

    #[test]
    fn manifest_reader_yields_the_eight_end_to_end_metrics() {
        let got: Vec<(String, bool, Option<f64>)> = manifest()
            .end_to_end
            .into_iter()
            .map(|m| (m.name, m.higher_is_better, m.bound))
            .collect();
        let want = [
            ("ops_per_vsec", true, 0.03),
            ("pmfs_ops_per_vsec", true, 0.03),
            ("write_mean_vns", false, 0.05),
            ("read_mean_vns", false, 0.05),
            ("nvmm_write_amp", false, 0.03),
            ("host_ns_per_op", false, 0.25),
            ("pmfs_host_ns_per_op", false, 0.25),
            ("setup_s", false, 0.25),
        ]
        .map(|(n, h, b)| (n.to_string(), h, Some(b)));
        assert_eq!(got, want);
    }

    /// A metric added to the benchmark without a regenerated baseline
    /// fails here.
    #[test]
    fn baseline_has_every_workload_times_every_modelled_metric() {
        let m = manifest();
        assert_eq!(m.workloads.len(), 5);
        // The host-clock names, as the benchmark's metric table assigns them.
        let host = |n: &str| {
            n.contains("host_ns")
                || n == "setup_s"
                || n.ends_with(".host_share")
                || n.contains("overhead")
        };
        let mut want: Vec<String> = m
            .end_to_end
            .iter()
            .chain(&m.per_layer)
            .map(|d| d.name.clone())
            .filter(|n| !host(n))
            .collect();
        want.extend(["ops_failed.end_to_end", "ops_failed.per_layer"].map(String::from));
        let rows = baseline();
        for w in &m.workloads {
            for metric in &want {
                assert!(
                    rows.contains_key(&(w.clone(), metric.clone())),
                    "BENCH.tsv lacks {w} {metric}"
                );
            }
        }
        assert_eq!(rows.len(), m.workloads.len() * want.len());
        assert_eq!(rows.len(), 430);
    }

    #[test]
    fn identical_docs_produce_no_blame_rows() {
        let r = run(&baseline());
        assert_eq!(r.failures, 0, "{}", r.text);
        assert_eq!(r.text, "bench_diff: 430 baseline rows, 0 changed: OK\n");
    }

    #[test]
    fn a_throughput_loss_inside_the_bound_passes() {
        let r = run(&planted("ops_per_vsec", |v| v * 0.98));
        assert_eq!(r.failures, 0, "{}", r.text);
        assert!(
            r.text.contains(&format!("ok   {W} ops_per_vsec: ")),
            "{}",
            r.text
        );
        assert!(r.text.contains("(-2.00%, bound 3%)"), "{}", r.text);
    }

    #[test]
    fn a_throughput_loss_beyond_the_bound_fails() {
        let r = run(&planted("ops_per_vsec", |v| v * 0.90));
        assert_eq!(r.failures, 1, "{}", r.text);
        assert!(
            r.text.contains(&format!("FAIL {W} ops_per_vsec: ")),
            "{}",
            r.text
        );
        // A gain of the same size passes.
        assert_eq!(run(&planted("ops_per_vsec", |v| v * 1.10)).failures, 0);
    }

    #[test]
    fn a_lower_is_better_metric_fails_when_it_rises() {
        let r = run(&planted("write_mean_vns", |v| v * 1.06));
        assert_eq!(r.failures, 1, "{}", r.text);
        assert!(r.text.contains("(+6.00%, bound 5%)"), "{}", r.text);
        assert_eq!(run(&planted("write_mean_vns", |v| v * 0.94)).failures, 0);
    }

    #[test]
    fn a_baseline_row_missing_from_the_candidate_fails() {
        let mut cand = baseline();
        cand.remove(&(W.to_string(), "nvmm.fences".to_string()));
        let r = run(&cand);
        assert_eq!(r.failures, 1, "{}", r.text);
        assert!(r
            .text
            .contains(&format!("FAIL {W} nvmm.fences: missing from the candidate")));
    }

    #[test]
    fn a_failed_operation_fails() {
        let r = run(&planted("ops_failed.end_to_end", |v| v + 1.0));
        assert_eq!(r.failures, 1, "{}", r.text);
        assert!(r
            .text
            .contains(&format!("FAIL {W} ops_failed.end_to_end: 0 -> 1")));
    }

    #[test]
    fn host_rows_are_ignored() {
        let host_row =
            |v: &str| format!("{BENCH}{W}\thost_ns_per_op\thost\t{v}\n{W}\tsetup_s\thost\t{v}\n");
        let (base, cand) = (
            parse_rows(&host_row("100")).unwrap(),
            parse_rows(&host_row("900")).unwrap(),
        );
        assert_eq!(base, baseline());
        assert_eq!(cand, baseline());
        assert!(parse_rows(&format!("{W}\tsetup_s\twall\t1\n")).is_err());
        assert!(parse_rows("fileserver-fit\tsetup_s\n").is_err());
    }

    #[test]
    fn planted_journal_regression_is_blamed_first() {
        let r = run(&planted("pmfs.journal_vns", |v| v * 10.0));
        assert_eq!(r.failures, 0, "per-layer rows are blamed, not gated");
        assert!(
            rank1(&r).starts_with(&format!("blame::{W} 1 pmfs.journal_vns +")),
            "{}",
            r.text
        );
        assert!(rank1(&r).ends_with("(+900.00%)"), "{}", r.text);
    }

    #[test]
    fn planted_waf_regression_is_blamed_by_layer() {
        let r = run(&planted("nvmm.bytes_written", |v| v * 10.0));
        assert!(
            rank1(&r).starts_with(&format!("blame::{W} 1 nvmm.bytes_written +")),
            "{}",
            r.text
        );
    }

    #[test]
    fn a_fence_rate_change_is_reported_to_the_digit_per_step() {
        let rows = baseline();
        let get = |m: &str| rows[&(W.to_string(), m.to_string())];
        let per_step = 0.25 * get("nvmm.fences") / get("workloads.steps");
        let r = run(&planted("nvmm.fences", |v| v * 1.25));
        assert_eq!(
            rank1(&r),
            format!("blame::{W} 1 nvmm.fences {per_step:+.3} (+25.00%)")
        );
        // Gauges and probes are compared as they are, not per step.
        let r = run(&planted("probe.nvmm.persist_4k.vns", |v| v + 1.0));
        assert_eq!(
            rank1(&r),
            format!("blame::{W} 1 probe.nvmm.persist_4k.vns +1.000 (+0.01%)")
        );
    }
}
