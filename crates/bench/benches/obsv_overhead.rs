//! Measures the real-time cost of the observability level.
//!
//! Two angles: the bare `FsObs::op` wrapper around a trivial body at
//! each [`Level`] (below `Full` it is the one-relaxed-load contract;
//! at `Full` it opens, closes and folds a frame), and a full 4 KiB write
//! through HiNFS in spin mode at `Off` / `Counts` / `Full` — the honest
//! end-to-end price of leaving the instrumentation on for a run.

use criterion::{criterion_group, criterion_main, Criterion};
use fskit::OpenFlags;
use nvmm::TimeMode;
use obsv::{FsObs, Level, OpKind};
use workloads::setups::{build, ObsvOptions, SystemConfig, SystemKind};

const LEVELS: [(&str, Level); 3] = [
    ("off", Level::Off),
    ("counts", Level::Counts),
    ("full", Level::Full),
];

fn raw_op(c: &mut Criterion) {
    let mut g = c.benchmark_group("obsv_op_wrapper");
    g.sample_size(20);
    for (label, level) in LEVELS {
        let obs = FsObs::default();
        obs.set_level(level);
        let mut n = 0u64;
        g.bench_function(label, |b| {
            b.iter(|| {
                n += 17;
                obs.op(OpKind::Write, || std::hint::black_box(n))
            })
        });
    }
    g.finish();
}

fn write_4k(c: &mut Criterion) {
    let mut g = c.benchmark_group("obsv_write_4k");
    g.sample_size(20);
    for (label, level) in LEVELS {
        let cfg = SystemConfig {
            device_bytes: 64 << 20,
            mode: TimeMode::Spin,
            buffer_bytes: 8 << 20,
            cache_pages: 2048,
            journal_blocks: 256,
            inode_count: 8192,
            obsv: ObsvOptions {
                level,
                audit: false,
            },
            ..SystemConfig::default()
        };
        let sys = build(SystemKind::Hinfs, &cfg).expect("build");
        let fd = sys
            .fs
            .open("/f", OpenFlags::RDWR | OpenFlags::CREATE)
            .expect("open");
        let data = vec![0xabu8; 4096];
        let mut i = 0u64;
        g.bench_function(label, |b| {
            b.iter(|| {
                sys.fs.write(fd, (i % 1024) * 4096, &data).expect("write");
                i += 1;
            })
        });
        sys.fs.close(fd).expect("close");
        sys.fs.unmount().expect("unmount");
    }
    g.finish();
}

criterion_group!(obsv_overhead, raw_op, write_4k);
criterion_main!(obsv_overhead);
