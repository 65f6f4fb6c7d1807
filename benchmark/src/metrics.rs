//! The metric table: every name the benchmark prints, with its unit,
//! direction, clock and (for end-to-end metrics) regression bound. The
//! table is the single source: `BENCHMARK.json` is generated from it
//! (`hinfs-benchmark manifest`) and a test pins the committed file to it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::probes::PROBES;
use crate::spec::Spec;
use crate::timedfs::reported_ops;

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Virtual ns of the cost model, or a count the model produces:
    /// bit-exact from run to run at one seed.
    Modelled,
    /// Wall time the simulator burns on the host: noisy.
    Host,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(
    name: &str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        clock,
        bound,
    }
}

/// How long one driver run measures, seconds.
pub const RUN_SECONDS: u64 = 15;

// Bounds. A modelled metric is exact at one seed; its bound has to cover
// the spread *across* seeds, because the acceptance driver draws a new
// seed per run (README "Bounds" has the measured spreads). Host-clock
// metrics get the widest bounds, set-up the largest.
const B_TPUT: f64 = 0.03;
const B_LAT: f64 = 0.05;
const B_WAMP: f64 = 0.03;
const B_HOST: f64 = 0.25;
const B_SETUP: f64 = 0.25;

/// The end-to-end metrics, reported with `--trace 0` for every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    use Clock::{Host, Modelled};
    vec![
        def("ops_per_vsec", "ops/vs", Higher, Modelled, Some(B_TPUT)),
        def(
            "pmfs_ops_per_vsec",
            "ops/vs",
            Higher,
            Modelled,
            Some(B_TPUT),
        ),
        def("write_mean_vns", "vns", Lower, Modelled, Some(B_LAT)),
        def("read_mean_vns", "vns", Lower, Modelled, Some(B_LAT)),
        def("nvmm_write_amp", "ratio", Lower, Modelled, Some(B_WAMP)),
        def("host_ns_per_op", "ns", Lower, Host, Some(B_HOST)),
        def("pmfs_host_ns_per_op", "ns", Lower, Host, Some(B_HOST)),
        def("setup_s", "s", Lower, Host, Some(B_SETUP)),
    ]
}

/// The per-layer metrics, reported with `--trace 1` for every workload.
/// Layers are the crate names.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    use Clock::{Host, Modelled};
    let m = |name: &str, unit, better| def(name, unit, better, Modelled, None);
    let mut v = vec![
        m("workloads.steps", "count", Higher),
        def("workloads.host_share", "ratio", Lower, Host, None),
    ];
    for op in reported_ops() {
        let l = op.label();
        v.push(m(&format!("fskit.{l}.count"), "count", Higher));
        v.push(m(&format!("fskit.{l}.vns"), "vns", Lower));
        v.push(def(&format!("fskit.{l}.host_ns"), "ns", Lower, Host, None));
        v.push(m(&format!("fskit.{l}.failed"), "count", Lower));
    }
    v.extend([
        m("fskit.syscall_vns", "vns", Lower),
        // Exact percentiles over every write-class / read / fsync call.
        // They are rows here and not end-to-end metrics because on a cost
        // model a percentile of fixed-size I/O is a constant (fio-hotfile
        // reads: p50 730, p999 732 at every seed) and fsync is issued by
        // varmail-sync only; an end-to-end metric may be neither constant
        // nor 0. The end-to-end latency metrics are the means.
        m("fskit.write.p50_vns", "vns", Lower),
        m("fskit.write.p999_vns", "vns", Lower),
        m("fskit.read.p50_vns", "vns", Lower),
        m("fskit.read.p999_vns", "vns", Lower),
        m("fskit.fsync.p50_vns", "vns", Lower),
        m("fskit.fsync.p99_vns", "vns", Lower),
        m("hinfs.buffer_hit_ratio", "ratio", Higher),
        m("hinfs.lazy_writes", "count", Higher),
        m("hinfs.eager_writes", "count", Lower),
        m("hinfs.bbm_evals", "count", Lower),
        m("hinfs.bbm_accuracy", "ratio", Higher),
        m("hinfs.fetch_lines", "lines", Lower),
        m("hinfs.writeback_lines", "lines", Lower),
        m("hinfs.writeback_blocks", "blocks", Lower),
        m("hinfs.foreground_stalls", "count", Lower),
        m("hinfs.dropped_dirty_blocks", "blocks", Higher),
        m("hinfs.free_blocks_end", "blocks", Higher),
        m("hinfs.open_txs_end", "count", Lower),
        m("hinfs.fetch_vns", "vns", Lower),
        m("hinfs.writeback_vns", "vns", Lower),
        m("hinfs.data_write_vns", "vns", Lower),
        m("hinfs.data_read_vns", "vns", Lower),
        m("pmfs.journal_vns", "vns", Lower),
        m("pmfs.meta_vns", "vns", Lower),
        m("pmfs.journal_begins", "count", Lower),
        m("pmfs.journal_commits", "count", Lower),
        m("pmfs.journal_undo_entries", "count", Lower),
        m("pmfs.journal_fill_end", "ratio", Lower),
        m("pmfs.free_blocks_end", "blocks", Higher),
        m("nvmm.bytes_written", "bytes", Lower),
        m("nvmm.bytes_read", "bytes", Lower),
        m("nvmm.flush_lines", "lines", Lower),
        m("nvmm.fences", "count", Lower),
        m("nvmm.fences_coalesced", "count", Higher),
        m("nvmm.fence_vns", "vns", Lower),
        m("nvmm.ledger_total_vns", "vns", Lower),
        def("trace.overhead_ratio", "ratio", Lower, Host, None),
    ]);
    for p in PROBES {
        v.push(def(
            &format!("probe.{}.host_ns", p.name),
            "ns",
            Lower,
            Host,
            None,
        ));
        v.push(m(&format!("probe.{}.vns", p.name), "vns", Lower));
    }
    v.push(def(
        "probe.obsv.headline_preset_overhead_pct",
        "%",
        Lower,
        Host,
        None,
    ));
    v
}

fn metric_json(out: &mut String, d: &MetricDef) {
    let _ = write!(
        out,
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        d.name,
        d.unit,
        d.better.label()
    );
    if let Some(b) = d.bound {
        let _ = write!(out, ", \"bound\": {b}");
    }
    out.push('}');
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let specs = Spec::all();
    for (i, s) in specs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
            s.name, s.why
        );
        out.push_str(if i + 1 < specs.len() { ",\n" } else { "\n" });
    }
    for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let _ = writeln!(out, "  ],\n  \"{key}\": [");
        for (i, d) in defs.iter().enumerate() {
            metric_json(&mut out, d);
            out.push_str(if i + 1 < defs.len() { ",\n" } else { "\n" });
        }
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn table_meets_the_manifest_contract() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layer.len()), "{}", layer.len());
        let mut seen = HashSet::new();
        for d in e2e.iter().chain(&layer) {
            assert!(name_ok(&d.name), "{}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in &e2e {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
        }
        assert!(layer.iter().all(|d| d.bound.is_none()));
        let setup = e2e.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = e2e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        let specs = Spec::all();
        assert!((2..=8).contains(&specs.len()));
        for s in &specs {
            assert!(name_ok(s.name) && seen.insert(s.name.to_string()));
            assert!(s.why.len() <= 200 && !s.why.contains(['\n', '"', '\\']));
        }
        assert!(manifest_json().len() <= 64 << 10);
    }

    #[test]
    fn committed_manifest_is_generated_from_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
        );
    }
}
