//! Latency explorer: how the HiNFS/PMFS gap moves with the NVMM write
//! latency (the paper's Fig 11, as an interactive-style sweep).
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
use hinfs_suite::workloads::setups;

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
        for kind in [SystemKind::Pmfs, SystemKind::Hinfs] {
            let cfg = SystemConfig {
                device_bytes: 256 << 20,
                buffer_bytes: 8 << 20,
                cost: CostModel::default().with_write_latency(lat),
                ..SystemConfig::default()
            };
            let sys = setups::build(kind, &cfg).expect("build");
            let set = Fileset::populate(&*sys.fs, FilesetSpec::new("/data", 128, 20, 32 << 10), 11)
                .expect("populate");
            sys.fs.sync().expect("sync");
            sys.env.rebase();
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
            assert_eq!(report.error, None, "{which} on {}", kind.label());
            tput.push(report.throughput());
            sys.fs.unmount().expect("unmount");
        }
        println!(
            "{:>6}ns {:>12.0} {:>12.0} {:>7.2}x",
            lat,
            tput[0],
            tput[1],
            tput[1] / tput[0].max(1e-9)
        );
    }
    println!("\npaper Fig 11: the gap grows with latency; HiNFS never loses, even at 50 ns.");
}
