//! Machine-readable benchmark pipeline (`experiments --bench-json PATH`).
//!
//! Serializes a benchmark run into a stable, diffable JSON document:
//!
//! - `schema_version`, `git_rev`, and the [`Scale`] parameters;
//! - flat `"headline::<workload>::<system>::<metric>"` keys, one per
//!   line, so `scripts/bench_check.sh` can gate regressions with plain
//!   `grep`/`awk` (no JSON parser required);
//! - a `threads={1,2,4,8}` scaling sweep per headline cell
//!   (`...::threads=<n>::ops_per_s` / `::p99_ns` keys);
//! - flat `tail::<cell>::{p99,p999}::…` keys (schema v3): the anatomy of
//!   the quantile's flight-recorder exemplar cohort — per-phase ns,
//!   per-site wait ns, fence/stall/persisted counts, trace seq range —
//!   plus a nested `tail_exemplars` section with the top individual
//!   anatomies;
//! - flat `span::<cell>::phase=<p>::…`, `lock::<cell>::site=<s>::…` and
//!   `fence::<cell>::…` totals, the inputs `bench_diff` decomposes a
//!   regression into;
//! - flat `waf::<cell>::<layer>::bytes` per-layer write-amplification
//!   ledgers plus `waf::<cell>::fences_per_kib`, and flat
//!   `lag::<cell>::{p50,p99,max}_ns` durability-lag quantiles from the
//!   lineage tracker (schema v4);
//! - per-op latency quantiles (p50/p95/p99/mean) from the [`FsObs`]
//!   histograms of the headline runs;
//! - the OpKind × Phase span matrix of each headline run;
//! - the Site × OpKind lock-contention matrix of each headline run
//!   (wait/hold time per site, top sites by wait);
//! - every figure table produced by the invocation.
//!
//! Everything runs on the deterministic virtual clock, so two runs of the
//! same binary produce byte-identical documents except for `git_rev`.

use std::fmt::Write as _;
use std::sync::Arc;

use obsv::{
    row_label, HistoSnapshot, SpanSnapshot, TailAnatomy, ALL_OPS, ALL_PHASES, NPHASES, NSITES,
    SPAN_ROWS,
};
use workloads::fileset::Fileset;
use workloads::runner::{RunLimit, Runner};
use workloads::setups::{build, remount_with, System, SystemKind};
use workloads::RunReport;

use crate::common::{Personality, Scale};
use crate::table::Table;

/// Bumped whenever the document layout changes incompatibly.
pub const SCHEMA_VERSION: u32 = 4;

/// Thread counts of the per-cell scaling sweep.
pub const THREADS_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The current git revision, or `"unknown"` outside a work tree.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escapes a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One headline measurement: a workload × system pair run with per-op
/// timing and span attribution enabled.
struct Headline {
    workload: &'static str,
    system: &'static str,
    report: RunReport,
    obs: Option<Arc<obsv::FsObs>>,
    spans: SpanSnapshot,
    /// End-of-run state snapshot (FS sections merged with the device
    /// section), captured just before unmount.
    snapshot: obsv::FsSnapshot,
    /// Lock-contention and stall profile of the run.
    contention: obsv::ContentionSnapshot,
    /// Flight-recorder reservoirs: the slowest per-op anatomies, the
    /// exemplars behind the `tail::` keys.
    flight: obsv::FlightSnapshot,
    /// Data-lifecycle ledger of the run: per-layer bytes, fences and
    /// durability-lag quantiles behind the `waf::`/`lag::` keys.
    lineage: obsv::LineageSnap,
    /// The threads={1,2,4,8} scaling sweep of this cell (empty until
    /// [`run_cell`] attaches it).
    sweep: Vec<SweepPoint>,
}

/// One point of a cell's thread-scaling sweep.
struct SweepPoint {
    threads: usize,
    ops_per_s: f64,
    p99_ns: u64,
}

/// Every op histogram of a run merged into one distribution (the
/// denominator of the overall tail quantiles).
fn merged_histo(obs: &Option<Arc<obsv::FsObs>>) -> Option<HistoSnapshot> {
    let obs = obs.as_ref()?;
    let mut merged: Option<HistoSnapshot> = None;
    for op in ALL_OPS {
        let snap = obs.op_histo(op).snapshot();
        if snap.count() == 0 {
            continue;
        }
        match &mut merged {
            Some(m) => m.merge(&snap),
            None => merged = Some(snap),
        }
    }
    merged
}

/// p99 across every op kind of a run (all op histograms merged).
fn overall_p99(obs: &Option<Arc<obsv::FsObs>>) -> u64 {
    merged_histo(obs).map(|m| m.quantile(0.99)).unwrap_or(0)
}

/// The headline grid gated by `bench_check.sh`: the paper's central
/// comparison (buffered HiNFS vs direct-access PMFS) on a write-heavy and
/// a read-heavy personality.
const HEADLINES: [(Personality, SystemKind); 4] = [
    (Personality::Fileserver, SystemKind::Pmfs),
    (Personality::Fileserver, SystemKind::Hinfs),
    (Personality::Webproxy, SystemKind::Pmfs),
    (Personality::Webproxy, SystemKind::Hinfs),
];

/// Builds, populates, remounts (cold caches) and runs one headline cell
/// with timing + spans + contention profiling on.
fn run_headline(p: Personality, kind: SystemKind, scale: &Scale) -> Headline {
    // The analytic time ledger is thread-local and survives across cells;
    // start each cell from zero so the end-of-run snapshot (and thus the
    // whole document) only reflects this cell's run.
    nvmm::ledger::reset();
    let mut cfg = scale.system_config(nvmm::CostModel::default());
    cfg.obsv = workloads::ObsvOptions::flight().with_lineage();
    let sys = build(kind, &cfg).expect("build system");
    let set = Fileset::populate(&*sys.fs, scale.fileset_spec(), 0xF11E).expect("populate fileset");
    sys.fs.unmount().expect("unmount after populate");
    let System { kind, dev, env, .. } = sys;
    let sys = remount_with(kind, dev, env, &cfg).expect("remount");
    sys.env.rebase();
    let s0 = sys.dev.spans().snapshot();
    let actors = p.actors(&set, scale.filebench_params(), scale.threads);
    let report = Runner::new(sys.env.clone(), sys.fs.clone())
        .with_device(sys.dev.clone())
        .run(actors, RunLimit::duration_ms(scale.duration_ms), 0xBEEF);
    let spans = sys.dev.spans().snapshot().since(&s0);
    let contention = sys.env.contention().snapshot();
    let obs = sys.obs.clone();
    let flight = obs
        .as_ref()
        .map(|o| o.flight().snapshot())
        .unwrap_or_default();
    let lineage = obs.as_ref().map(|o| o.lineage().snap()).unwrap_or_default();
    let mut snapshot = sys
        .introspect
        .as_ref()
        .map(|i| i.snapshot())
        .unwrap_or_default();
    snapshot.merge(obsv::Introspect::snapshot(&*sys.dev));
    let _ = sys.fs.unmount();
    Headline {
        workload: p.label(),
        system: kind.label(),
        report,
        obs,
        spans,
        snapshot,
        contention,
        flight,
        lineage,
        sweep: Vec::new(),
    }
}

/// Runs one headline cell at every [`THREADS_SWEEP`] count and returns the
/// base cell (the run at `scale.threads`) with the sweep attached. The
/// base run doubles as its own sweep point, so the legacy headline keys
/// and the matching `threads=<n>` keys come from the same run.
fn run_cell(p: Personality, kind: SystemKind, scale: &Scale) -> Headline {
    let mut base = run_headline(p, kind, scale);
    let sweep = THREADS_SWEEP
        .iter()
        .map(|&n| {
            if n == scale.threads {
                SweepPoint {
                    threads: n,
                    ops_per_s: base.report.throughput(),
                    p99_ns: overall_p99(&base.obs),
                }
            } else {
                let s = Scale {
                    threads: n,
                    ..scale.clone()
                };
                let h = run_headline(p, kind, &s);
                SweepPoint {
                    threads: n,
                    ops_per_s: h.report.throughput(),
                    p99_ns: overall_p99(&h.obs),
                }
            }
        })
        .collect();
    base.sweep = sweep;
    base
}

fn push_scale(out: &mut String, scale: &Scale, name: &str) {
    let _ = writeln!(
        out,
        "  \"scale\": {{\"name\": \"{}\", \"nfiles\": {}, \"mean_file\": {}, \"duration_ms\": {}, \
         \"device_bytes\": {}, \"threads\": {}, \"iosize\": {}, \"append\": {}}},",
        esc(name),
        scale.nfiles,
        scale.mean_file,
        scale.duration_ms,
        scale.device_bytes,
        scale.threads,
        scale.iosize,
        scale.append
    );
}

fn push_headline_keys(out: &mut String, cells: &[Headline]) {
    for h in cells {
        let base = format!("headline::{}::{}", h.workload, h.system);
        let _ = writeln!(
            out,
            "  \"{base}::ops_per_s\": {:.3},",
            h.report.throughput()
        );
        let _ = writeln!(out, "  \"{base}::total_ops\": {},", h.report.total_ops());
        let _ = writeln!(out, "  \"{base}::elapsed_ns\": {},", h.report.elapsed_ns);
        let _ = writeln!(
            out,
            "  \"{base}::nvmm_write_bytes\": {},",
            h.report.device.nvmm_bytes_written
        );
        for pt in &h.sweep {
            let _ = writeln!(
                out,
                "  \"{base}::threads={}::ops_per_s\": {:.3},",
                pt.threads, pt.ops_per_s
            );
            let _ = writeln!(
                out,
                "  \"{base}::threads={}::p99_ns\": {},",
                pt.threads, pt.p99_ns
            );
        }
    }
}

/// Flat `tail::` keys (schema v3): for each cell and each of p99/p999,
/// the quantile itself and the summed anatomy of its flight-recorder
/// exemplar cohort — every record whose latency bucket is at or above
/// the quantile's bucket. One key per line, greppable like `headline::`.
fn push_tail_keys(out: &mut String, cells: &[Headline]) {
    for h in cells {
        let Some(merged) = merged_histo(&h.obs) else {
            continue;
        };
        for (ql, q) in [("p99", 0.99), ("p999", 0.999)] {
            let qns = merged.quantile(q);
            let cohort = h.flight.cohort(qns);
            let a = TailAnatomy::aggregate(cohort.iter().copied());
            let base = format!("tail::{}::{}::{ql}", h.workload, h.system);
            let _ = writeln!(out, "  \"{base}::ns\": {qns},");
            let _ = writeln!(out, "  \"{base}::count\": {},", a.count);
            let _ = writeln!(out, "  \"{base}::fences\": {},", a.fences);
            let _ = writeln!(
                out,
                "  \"{base}::fences_coalesced\": {},",
                a.fences_coalesced
            );
            let _ = writeln!(out, "  \"{base}::stall_events\": {},", a.stall_events);
            let _ = writeln!(out, "  \"{base}::persisted_bytes\": {},", a.persisted_bytes);
            let _ = writeln!(out, "  \"{base}::max_batch\": {},", a.max_batch);
            let _ = writeln!(out, "  \"{base}::seq_lo\": {},", a.seq_lo);
            let _ = writeln!(out, "  \"{base}::seq_hi\": {},", a.seq_hi);
            for (p, ns) in a.top_phases(NPHASES) {
                let _ = writeln!(out, "  \"{base}::phase={}::ns\": {ns},", p.label());
            }
            for (s, ns) in a.top_waits(NSITES) {
                let _ = writeln!(out, "  \"{base}::wait::site={}::ns\": {ns},", s.label());
            }
        }
    }
}

/// Flat per-cell totals for regression attribution: span time per phase
/// (all rows, background included — interference is part of where the
/// run's time went), lock wait per site, and fence counts. These are the
/// columns `bench_diff` ranks a Δops_per_s blame table from.
fn push_perf_keys(out: &mut String, cells: &[Headline]) {
    for h in cells {
        let cell = format!("{}::{}", h.workload, h.system);
        for (p, ph) in ALL_PHASES.iter().enumerate() {
            let ns: u64 = (0..SPAN_ROWS).map(|r| h.spans.ns[r][p]).sum();
            let calls: u64 = (0..SPAN_ROWS).map(|r| h.spans.calls[r][p]).sum();
            if ns == 0 && calls == 0 {
                continue;
            }
            let _ = writeln!(out, "  \"span::{cell}::phase={}::ns\": {ns},", ph.label());
            let _ = writeln!(
                out,
                "  \"span::{cell}::phase={}::calls\": {calls},",
                ph.label()
            );
        }
        for site in h.contention.touched() {
            let w = site.wait.sum();
            if w == 0 && site.contended == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  \"lock::{cell}::site={}::wait_ns\": {w},",
                site.site.label()
            );
            let _ = writeln!(
                out,
                "  \"lock::{cell}::site={}::contended\": {},",
                site.site.label(),
                site.contended
            );
        }
        let _ = writeln!(
            out,
            "  \"fence::{cell}::count\": {},",
            h.report.device.fences
        );
        let _ = writeln!(
            out,
            "  \"fence::{cell}::coalesced\": {},",
            h.report.device.fences_coalesced
        );
    }
}

/// Flat `waf::` / `lag::` keys (schema v4): the per-layer
/// write-amplification ledger and the durability-lag quantiles of each
/// cell. `waf::<cell>::<layer>::bytes` carries the raw per-layer byte
/// totals (amplification ratios fall out as `<layer>/logical` in the
/// consumer, so the document stays integer-exact); `lag::<cell>` carries
/// p50/p99 from the lag histogram and the exact max gauge.
fn push_lineage_keys(out: &mut String, cells: &[Headline]) {
    for h in cells {
        let cell = format!("{}::{}", h.workload, h.system);
        if h.lineage.is_empty() {
            continue;
        }
        for layer in obsv::ALL_LAYERS {
            let _ = writeln!(
                out,
                "  \"waf::{cell}::{}::bytes\": {},",
                layer.label(),
                h.lineage.layer(layer)
            );
        }
        let _ = writeln!(
            out,
            "  \"waf::{cell}::fences_per_kib\": {:.3},",
            h.lineage.fences_per_kib()
        );
        let _ = writeln!(out, "  \"lag::{cell}::count\": {},", h.lineage.lag.count());
        let _ = writeln!(
            out,
            "  \"lag::{cell}::p50_ns\": {},",
            h.lineage.lag.quantile(0.50)
        );
        let _ = writeln!(
            out,
            "  \"lag::{cell}::p99_ns\": {},",
            h.lineage.lag.quantile(0.99)
        );
        let _ = writeln!(out, "  \"lag::{cell}::max_ns\": {},", h.lineage.max_lag_ns);
    }
}

/// The nested `tail_exemplars` section: the top individual anatomies of
/// each cell's p99 cohort — what a human reads after the flat `tail::`
/// keys named the guilty phase.
fn push_tail_exemplars(out: &mut String, cells: &[Headline]) {
    let _ = writeln!(out, "  \"tail_exemplars\": {{");
    let mut first_cell = true;
    for h in cells {
        if !first_cell {
            let _ = writeln!(out, ",");
        }
        first_cell = false;
        let qns = merged_histo(&h.obs).map(|m| m.quantile(0.99)).unwrap_or(0);
        let exemplars: Vec<String> = h
            .flight
            .cohort(qns)
            .iter()
            .take(3)
            .map(|r| {
                let phases = r
                    .top_phases(3)
                    .iter()
                    .map(|(p, ns)| format!("\"{}\": {ns}", p.label()))
                    .collect::<Vec<_>>()
                    .join(", ");
                let waits = r
                    .top_waits(3)
                    .iter()
                    .map(|(s, ns)| format!("\"{}\": {ns}", s.label()))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "      {{\"op\": \"{}\", \"total_ns\": {}, \"at_ns\": {}, \
                     \"seq\": [{}, {}], \"shard\": {}, \"batch\": {}, \"fences\": {}, \
                     \"persisted_bytes\": {}, \"stall_events\": {}, \
                     \"phases\": {{{phases}}}, \"waits\": {{{waits}}}}}",
                    r.op.label(),
                    r.total_ns,
                    r.at_ns,
                    r.seq_start,
                    r.seq_end,
                    if r.shard == obsv::NO_SHARD {
                        -1
                    } else {
                        r.shard as i64
                    },
                    r.batch,
                    r.fences,
                    r.persisted_bytes(),
                    r.stall_events,
                )
            })
            .collect();
        let _ = writeln!(out, "    \"{}::{}\": [", h.workload, h.system);
        let _ = write!(out, "{}", exemplars.join(",\n"));
        let _ = writeln!(out);
        let _ = write!(out, "    ]");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "  }},");
}

/// The per-cell contention section: per-site acquisition/wait/hold totals,
/// the Site × OpKind wait matrix, and the top sites by wait time.
fn push_contention(out: &mut String, cells: &[Headline]) {
    let _ = writeln!(out, "  \"contention\": {{");
    let mut first_cell = true;
    for h in cells {
        if !first_cell {
            let _ = writeln!(out, ",");
        }
        first_cell = false;
        let _ = writeln!(out, "    \"{}::{}\": {{", h.workload, h.system);
        let sites: Vec<String> = h
            .contention
            .touched()
            .map(|site| {
                format!(
                    "        \"{}\": {{\"acquisitions\": {}, \"contended\": {}, \"wait_ns\": {}, \"hold_ns\": {}}}",
                    site.site.label(),
                    site.acquisitions,
                    site.contended,
                    site.wait.sum(),
                    site.hold.sum()
                )
            })
            .collect();
        let _ = writeln!(out, "      \"sites\": {{");
        let _ = writeln!(out, "{}", sites.join(",\n"));
        let _ = writeln!(out, "      }},");
        let top: Vec<String> = h
            .contention
            .top_by_wait(5)
            .iter()
            .map(|site| format!("\"{}\"", site.site.label()))
            .collect();
        let _ = writeln!(out, "      \"top_by_wait\": [{}],", top.join(", "));
        // Site × OpKind matrix: wait then hold ns per op row, nonzero only.
        let mut mat = Vec::new();
        for site in h.contention.touched() {
            let mut ops = Vec::new();
            for row in 0..SPAN_ROWS {
                let (w, hold) = (site.wait_by_op[row], site.hold_by_op[row]);
                if w > 0 || hold > 0 {
                    ops.push(format!(
                        "\"{}\": {{\"wait_ns\": {w}, \"hold_ns\": {hold}}}",
                        row_label(row)
                    ));
                }
            }
            if !ops.is_empty() {
                mat.push(format!(
                    "        \"{}\": {{{}}}",
                    site.site.label(),
                    ops.join(", ")
                ));
            }
        }
        let _ = writeln!(out, "      \"by_op\": {{");
        let _ = writeln!(out, "{}", mat.join(",\n"));
        let _ = writeln!(out, "      }}");
        let _ = write!(out, "    }}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "  }},");
}

fn push_op_latency(out: &mut String, cells: &[Headline]) {
    let _ = writeln!(out, "  \"op_latency\": {{");
    let mut first_cell = true;
    for h in cells {
        if !first_cell {
            let _ = writeln!(out, ",");
        }
        first_cell = false;
        let _ = write!(out, "    \"{}::{}\": {{", h.workload, h.system);
        let mut first_op = true;
        if let Some(obs) = &h.obs {
            for op in ALL_OPS {
                let s = obs.op_histo(op).snapshot();
                if s.count() == 0 {
                    continue;
                }
                if !first_op {
                    let _ = write!(out, ", ");
                }
                first_op = false;
                let _ = write!(
                    out,
                    "\"{}\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {:.1}}}",
                    op.label(),
                    s.count(),
                    s.quantile(0.50),
                    s.quantile(0.95),
                    s.quantile(0.99),
                    s.mean()
                );
            }
        }
        let _ = write!(out, "}}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "  }},");
}

fn push_spans(out: &mut String, cells: &[Headline]) {
    let _ = writeln!(out, "  \"spans\": {{");
    let mut first_cell = true;
    for h in cells {
        if !first_cell {
            let _ = writeln!(out, ",");
        }
        first_cell = false;
        let _ = writeln!(out, "    \"{}::{}\": {{", h.workload, h.system);
        let mut rows = Vec::new();
        for row in 0..SPAN_ROWS {
            let mut phases = Vec::new();
            for (p, ph) in ALL_PHASES.iter().enumerate() {
                let (ns, calls) = (h.spans.ns[row][p], h.spans.calls[row][p]);
                if calls > 0 {
                    phases.push(format!(
                        "\"{}\": {{\"ns\": {ns}, \"calls\": {calls}}}",
                        ph.label()
                    ));
                }
            }
            if !phases.is_empty() {
                rows.push(format!(
                    "      \"{}\": {{{}}}",
                    row_label(row),
                    phases.join(", ")
                ));
            }
        }
        let _ = write!(out, "{}", rows.join(",\n"));
        let _ = writeln!(out);
        let _ = write!(out, "    }}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "  }},");
}

fn push_snapshot(out: &mut String, cells: &[Headline]) {
    let _ = writeln!(out, "  \"snapshot\": {{");
    let mut first = true;
    for h in cells {
        if !first {
            let _ = writeln!(out, ",");
        }
        first = false;
        let _ = write!(
            out,
            "    \"{}::{}\": {}",
            h.workload,
            h.system,
            h.snapshot.to_json()
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "  }},");
}

fn push_figures(out: &mut String, tables: &[Table]) {
    let _ = writeln!(out, "  \"figures\": {{");
    let mut first = true;
    for t in tables {
        if !first {
            let _ = writeln!(out, ",");
        }
        first = false;
        let headers = t
            .headers
            .iter()
            .map(|h| format!("\"{}\"", esc(h)))
            .collect::<Vec<_>>()
            .join(", ");
        let rows = t
            .rows
            .iter()
            .map(|r| {
                let cells = r
                    .iter()
                    .map(|c| format!("\"{}\"", esc(c)))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("        [{cells}]")
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let notes = t
            .notes
            .iter()
            .map(|n| format!("\"{}\"", esc(n)))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "    \"{}\": {{", esc(t.id));
        let _ = writeln!(out, "      \"title\": \"{}\",", esc(&t.title));
        let _ = writeln!(out, "      \"headers\": [{headers}],");
        let _ = writeln!(out, "      \"rows\": [");
        let _ = writeln!(out, "{rows}");
        let _ = writeln!(out, "      ],");
        let _ = writeln!(out, "      \"notes\": [{notes}]");
        let _ = write!(out, "    }}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "  }}");
}

/// Runs the headline grid and serializes the whole invocation — figure
/// tables included — into the BENCH document.
pub fn emit(scale: &Scale, scale_name: &str, tables: &[Table]) -> String {
    let cells: Vec<Headline> = HEADLINES
        .iter()
        .map(|&(p, kind)| run_cell(p, kind, scale))
        .collect();
    render(scale, scale_name, tables, &cells, &git_rev())
}

/// Pure serialization of already-collected results (unit-testable).
fn render(
    scale: &Scale,
    scale_name: &str,
    tables: &[Table],
    cells: &[Headline],
    rev: &str,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"git_rev\": \"{}\",", esc(rev));
    push_scale(&mut out, scale, scale_name);
    push_headline_keys(&mut out, cells);
    push_tail_keys(&mut out, cells);
    push_perf_keys(&mut out, cells);
    push_lineage_keys(&mut out, cells);
    push_op_latency(&mut out, cells);
    push_contention(&mut out, cells);
    push_spans(&mut out, cells);
    push_tail_exemplars(&mut out, cells);
    push_snapshot(&mut out, cells);
    push_figures(&mut out, tables);
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            nfiles: 24,
            mean_file: 8 << 10,
            duration_ms: 40,
            device_bytes: 64 << 20,
            threads: 1,
            iosize: 16 << 10,
            append: 4 << 10,
            ..Scale::default()
        }
    }

    #[test]
    fn document_is_deterministic_and_carries_every_section() {
        let scale = tiny_scale();
        let mut t = Table::new("fig99", "demo \"quoted\"", &["a", "b"]);
        t.row(vec!["1".into(), "x\ny".into()]);
        t.note("shape");
        let cells: Vec<Headline> = [(Personality::Fileserver, SystemKind::Hinfs)]
            .iter()
            .map(|&(p, k)| run_headline(p, k, &scale))
            .collect();
        let doc = render(&scale, "tiny", &[t.clone()], &cells, "deadbeef");
        for needle in [
            "\"schema_version\": 4",
            "\"git_rev\": \"deadbeef\"",
            "\"headline::fileserver::hinfs::ops_per_s\"",
            "\"tail::fileserver::hinfs::p99::ns\"",
            "\"tail::fileserver::hinfs::p999::ns\"",
            "\"span::fileserver::hinfs::phase=",
            "\"fence::fileserver::hinfs::count\"",
            "\"waf::fileserver::hinfs::logical::bytes\"",
            "\"waf::fileserver::hinfs::nvmm_persisted::bytes\"",
            "\"waf::fileserver::hinfs::fences_per_kib\"",
            "\"lag::fileserver::hinfs::p50_ns\"",
            "\"lag::fileserver::hinfs::p99_ns\"",
            "\"lag::fileserver::hinfs::max_ns\"",
            "\"tail_exemplars\"",
            "\"op_latency\"",
            "\"contention\"",
            "\"hinfs.shard0\"",
            "\"top_by_wait\"",
            "\"spans\"",
            "\"snapshot\"",
            "\"schema\":1",
            "\"fig99\"",
            "\\\"quoted\\\"",
            "x\\ny",
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
        // Re-running the same workload yields the identical document: the
        // virtual clock makes the whole pipeline deterministic, with
        // contention profiling on included.
        let cells2: Vec<Headline> = [(Personality::Fileserver, SystemKind::Hinfs)]
            .iter()
            .map(|&(p, k)| run_headline(p, k, &scale))
            .collect();
        let doc2 = render(&scale, "tiny", &[t], &cells2, "deadbeef");
        assert_eq!(doc, doc2);
    }

    #[test]
    fn headline_keys_are_one_per_line_and_greppable() {
        let scale = tiny_scale();
        let cells: Vec<Headline> = [(Personality::Webproxy, SystemKind::Pmfs)]
            .iter()
            .map(|&(p, k)| run_cell(p, k, &scale))
            .collect();
        let doc = render(&scale, "tiny", &[], &cells, "r");
        let lines: Vec<&str> = doc.lines().filter(|l| l.contains("\"headline::")).collect();
        // 4 legacy keys + (ops_per_s, p99_ns) per sweep point.
        assert_eq!(lines.len(), 4 + 2 * THREADS_SWEEP.len(), "{doc}");
        for &n in &THREADS_SWEEP {
            assert!(
                lines
                    .iter()
                    .any(|l| l.contains(&format!("::threads={n}::ops_per_s"))),
                "sweep point threads={n} missing:\n{doc}"
            );
        }
        for l in &lines {
            // key and numeric value on one line, trailing comma: the shape
            // scripts/bench_check.sh greps for.
            assert!(l.trim_start().starts_with("\"headline::"));
            assert!(l.trim_end().ends_with(','));
        }
        let tput = lines
            .iter()
            .find(|l| l.contains("::ops_per_s\""))
            .expect("throughput key");
        let v: f64 = tput
            .split(':')
            .next_back()
            .unwrap()
            .trim()
            .trim_end_matches(',')
            .parse()
            .expect("numeric value");
        assert!(v > 0.0);
    }

    /// Conformance of the schema-v3 key families (the `tail::` extension
    /// of the metric-name rules): flat, one per line, lowercase
    /// snake-case segments split by `::`, numeric value, trailing comma
    /// — and the `tail::` cohort must be non-empty with its phase sums
    /// equal to `count × p99-ish` totals (internally consistent).
    #[test]
    fn tail_and_perf_keys_are_conformant_and_greppable() {
        let scale = tiny_scale();
        let cells: Vec<Headline> = [(Personality::Fileserver, SystemKind::Hinfs)]
            .iter()
            .map(|&(p, k)| run_headline(p, k, &scale))
            .collect();
        let doc = render(&scale, "tiny", &[], &cells, "r");
        let flat: Vec<&str> = doc
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                [
                    "\"tail::",
                    "\"span::",
                    "\"lock::",
                    "\"fence::",
                    "\"waf::",
                    "\"lag::",
                ]
                .iter()
                .any(|p| t.starts_with(p))
            })
            .collect();
        assert!(!flat.is_empty(), "no v3/v4 flat keys emitted:\n{doc}");
        assert!(
            flat.iter().any(|l| l.contains("\"tail::")),
            "no tail:: keys:\n{doc}"
        );
        assert!(
            flat.iter().any(|l| l.contains("\"waf::")),
            "no waf:: keys:\n{doc}"
        );
        assert!(
            flat.iter().any(|l| l.contains("\"lag::")),
            "no lag:: keys:\n{doc}"
        );
        for l in &flat {
            let t = l.trim();
            assert!(t.ends_with(','), "missing trailing comma: {l}");
            let (key, val) = t
                .trim_start_matches('"')
                .split_once("\": ")
                .unwrap_or_else(|| panic!("not a flat key line: {l}"));
            val.trim_end_matches(',')
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("non-numeric value: {l}"));
            for seg in key.split("::") {
                assert!(!seg.is_empty(), "empty segment in {key}");
                assert!(
                    seg.chars().all(|c| c.is_ascii_lowercase()
                        || c.is_ascii_digit()
                        || matches!(c, '_' | '=' | '.')),
                    "non-conformant segment {seg:?} in {key}"
                );
            }
            // No collision with the bench_check-gated headline family.
            assert!(!key.starts_with("headline::"), "family collision: {key}");
        }
        // The p99 cohort is populated and its phase keys sum to the
        // cohort's total latency (exclusive-time accounting carries
        // through to the tail section).
        let get = |k: &str| -> Option<u64> {
            doc.lines()
                .find(|l| l.contains(&format!("\"{k}\"")))
                .map(|l| {
                    l.split(':')
                        .next_back()
                        .unwrap()
                        .trim()
                        .trim_end_matches(',')
                        .parse()
                        .unwrap()
                })
        };
        let count = get("tail::fileserver::hinfs::p99::count").expect("cohort count key");
        assert!(count > 0, "empty p99 cohort:\n{doc}");
        let phase_sum: u64 = doc
            .lines()
            .filter(|l| l.contains("\"tail::fileserver::hinfs::p99::phase="))
            .map(|l| {
                l.split(':')
                    .next_back()
                    .unwrap()
                    .trim()
                    .trim_end_matches(',')
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert!(phase_sum > 0, "p99 cohort has no phase attribution");
        // The v4 lineage ledger is populated and ordered: logical bytes
        // flowed, drains were recorded, and p50 ≤ p99 ≤ max.
        let logical = get("waf::fileserver::hinfs::logical::bytes").expect("waf logical key");
        assert!(logical > 0, "no logical bytes in the waf ledger");
        let lag_count = get("lag::fileserver::hinfs::count").expect("lag count key");
        assert!(lag_count > 0, "no durability drains recorded");
        let p50 = get("lag::fileserver::hinfs::p50_ns").unwrap();
        let p99 = get("lag::fileserver::hinfs::p99_ns").unwrap();
        let max = get("lag::fileserver::hinfs::max_ns").unwrap();
        assert!(p50 <= p99 && p99 <= max, "lag quantiles out of order");
    }
}
