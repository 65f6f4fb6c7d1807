//! Latency explorer: how the HiNFS/PMFS gap moves with the NVMM write
//! latency (the paper's Fig 11, as an interactive-style sweep) — now
//! with the per-op flight recorder on, so every latency point also
//! prints the *anatomy* of its p99 tail: which span phases and lock
//! sites the slowest-op exemplars actually spent their time in.
//!
//! ```text
//! cargo run --release --example latency_explorer [workload]
//! ```
//!
//! `workload` is one of `fileserver` (default), `webserver`, `webproxy`,
//! `varmail`.

use std::sync::Arc;

use hinfs_suite::prelude::*;
use hinfs_suite::workloads::filebench::{
    FilebenchParams, Fileserver, Varmail, Webproxy, Webserver,
};
use hinfs_suite::workloads::fileset::{Fileset, FilesetSpec};
use hinfs_suite::workloads::setups::{self, ObsvOptions};
use obsv::{FsObs, HistoSnapshot, TailAnatomy, ALL_OPS};

/// p99 across every op kind (all op histograms merged).
fn overall_p99(obs: &FsObs) -> u64 {
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
    merged.map(|m| m.quantile(0.99)).unwrap_or(0)
}

/// One compact tail-anatomy line: p99 plus the top phases (and top wait
/// site, when any) of the exemplars in the p99 cohort.
fn tail_line(sys_label: &str, obs: &FsObs) -> String {
    let p99 = overall_p99(obs);
    let snap = obs.flight().snapshot();
    let anatomy = TailAnatomy::aggregate(snap.cohort(p99));
    if anatomy.count == 0 {
        return format!("  {sys_label:>5} p99 {p99:>8}ns  (no exemplars in cohort)");
    }
    let phases: Vec<String> = anatomy
        .top_phases(3)
        .into_iter()
        .map(|(p, ns)| format!("{}={}ns", p.label(), ns / anatomy.count))
        .collect();
    let waits: Vec<String> = anatomy
        .top_waits(1)
        .into_iter()
        .map(|(s, ns)| format!("wait[{}]={}ns", s.label(), ns / anatomy.count))
        .collect();
    format!(
        "  {sys_label:>5} p99 {p99:>8}ns  {} exemplars, {:.1} fences/op: {}{}{}",
        anatomy.count,
        anatomy.fences as f64 / anatomy.count as f64,
        phases.join(" "),
        if waits.is_empty() { "" } else { " " },
        waits.join(" "),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = match args.as_slice() {
        [] => "fileserver",
        [w] if ["fileserver", "webserver", "webproxy", "varmail"].contains(&w.as_str()) => {
            w.as_str()
        }
        _ => {
            eprintln!("usage: latency_explorer [fileserver|webserver|webproxy|varmail]");
            std::process::exit(2);
        }
    };
    println!("single-thread {which} throughput vs NVMM write latency\n");
    println!(
        "{:>8} {:>12} {:>12} {:>8}",
        "latency", "pmfs ops/s", "hinfs ops/s", "gap"
    );
    for lat in [50u64, 100, 200, 400, 800] {
        let mut tput = Vec::new();
        let mut anatomies = Vec::new();
        for kind in [SystemKind::Pmfs, SystemKind::Hinfs] {
            let cfg = SystemConfig {
                device_bytes: 256 << 20,
                buffer_bytes: 8 << 20,
                cost: CostModel::default().with_write_latency(lat),
                obsv: ObsvOptions::flight(),
                ..SystemConfig::default()
            };
            let sys = setups::build(kind, &cfg).expect("build");
            let set = Fileset::populate(&*sys.fs, FilesetSpec::new("/data", 128, 20, 32 << 10), 11)
                .expect("populate");
            sys.fs.sync().expect("sync");
            sys.env.rebase();
            // Drop the populate phase's exemplars so the anatomy shows
            // the steady-state workload, not fileset creation.
            if let Some(obs) = &sys.obs {
                obs.flight().reset();
            }
            let params = FilebenchParams {
                iosize: 256 << 10,
                append_size: 8 << 10,
            };
            let actor: Box<dyn Actor> = match which {
                "webserver" => Box::new(Webserver::new(Arc::clone(&set), params, 0)),
                "webproxy" => Box::new(Webproxy::new(Arc::clone(&set), params, 0)),
                "varmail" => Box::new(Varmail::new(Arc::clone(&set), params)),
                _ => Box::new(Fileserver::new(Arc::clone(&set), params)),
            };
            let report = Runner::new(sys.env.clone(), sys.fs.clone()).run(
                vec![actor],
                RunLimit::duration_ms(400),
                5,
            );
            tput.push(report.throughput());
            if let Some(obs) = &sys.obs {
                let label = match kind {
                    SystemKind::Pmfs => "pmfs",
                    _ => "hinfs",
                };
                anatomies.push(tail_line(label, obs));
            }
            sys.fs.unmount().expect("unmount");
        }
        println!(
            "{:>6}ns {:>12.0} {:>12.0} {:>7.2}x",
            lat,
            tput[0],
            tput[1],
            tput[1] / tput[0].max(1e-9)
        );
        for line in &anatomies {
            println!("{line}");
        }
    }
    println!("\npaper Fig 11: the gap grows with latency; HiNFS never loses, even at 50 ns.");
    println!("tail anatomy: per point, avg phase/wait split of the p99-cohort exemplars.");
}
