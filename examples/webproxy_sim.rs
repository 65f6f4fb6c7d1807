//! A web-proxy cache server on three file systems.
//!
//! The paper's motivating scenario: a service with strong access locality
//! and many short-lived files. HiNFS absorbs the writes in DRAM and most
//! deleted objects never touch NVMM at all.
//!
//! ```text
//! cargo run --release --example webproxy_sim
//! ```

use std::sync::Arc;

use hinfs_suite::prelude::*;
use hinfs_suite::workloads::filebench::{FilebenchParams, Webproxy};
use hinfs_suite::workloads::fileset::{Fileset, FilesetSpec};
use hinfs_suite::workloads::setups;

fn main() {
    println!("webproxy: 1 s simulated, 2 worker threads, 12 MiB object set\n");
    println!(
        "{:<14} {:>12} {:>14} {:>16}",
        "system", "requests/s", "NVMM-write-MiB", "dropped-dirty-blk"
    );
    for kind in [SystemKind::Pmfs, SystemKind::Ext4Bd, SystemKind::Hinfs] {
        let cfg = SystemConfig {
            device_bytes: 256 << 20,
            buffer_bytes: 6 << 20,
            cache_pages: 2048,
            ..SystemConfig::default()
        };
        let sys = setups::build(kind, &cfg).expect("build");
        let set = Fileset::populate(&*sys.fs, FilesetSpec::new("/cache", 384, 32, 32 << 10), 7)
            .expect("populate");
        sys.fs.sync().expect("sync");
        sys.env.rebase();

        let params = FilebenchParams {
            iosize: 256 << 10,
            append_size: 8 << 10,
        };
        let actors: Vec<Box<dyn Actor>> = (0..2)
            .map(|i| Box::new(Webproxy::new(Arc::clone(&set), params, i)) as Box<dyn Actor>)
            .collect();
        let report = Runner::new(sys.env.clone(), sys.fs.clone())
            .with_device(sys.dev.clone())
            .run(actors, RunLimit::duration_ms(1000), 99);
        assert_eq!(report.error, None);

        let dropped = sys
            .hinfs
            .as_ref()
            .map(|h| h.stats().snapshot().dropped_dirty_blocks)
            .unwrap_or(0);
        println!(
            "{:<14} {:>12.0} {:>14.1} {:>16}",
            kind.label(),
            report.throughput(),
            report.device.nvmm_bytes_written as f64 / (1 << 20) as f64,
            dropped,
        );
        sys.fs.unmount().expect("unmount");
    }
    println!("\nHiNFS serves more requests while writing less to NVMM: short-lived");
    println!("objects die in the DRAM buffer before writeback (paper §5.2, Fig 7/10).");
}
