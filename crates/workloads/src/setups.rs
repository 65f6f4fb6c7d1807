//! System-under-test factory: builds each of the evaluated file systems
//! (Table 3 plus the HiNFS ablation variants) on a fresh emulated device.

use std::sync::Arc;

use extfs::{ExtMode, ExtOptions, Extfs};
use fskit::{FileSystem, Result};
use hinfs::{Hinfs, HinfsConfig};
use nvmm::{CostModel, NvmmDevice, SimEnv, TimeMode, BLOCK_SIZE};
use obsv::{FsObs, Level, MetricsRegistry};
use pmfs::{Pmfs, PmfsOptions};

/// The systems of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// PMFS: NVMM-aware, direct access (the normalization baseline).
    Pmfs,
    /// EXT4 with the DAX patch.
    Ext4Dax,
    /// ext2 on the NVMMBD block device (no journal).
    Ext2Bd,
    /// ext4 on the NVMMBD block device (ordered journal).
    Ext4Bd,
    /// HiNFS.
    Hinfs,
    /// HiNFS without CLFW (Fig 9 ablation).
    HinfsNclfw,
    /// HiNFS with the Eager-Persistent Write Checker disabled (Fig 12/13
    /// ablation: every write buffered).
    HinfsWb,
}

impl SystemKind {
    /// Report label (matches the paper's names).
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Pmfs => "pmfs",
            SystemKind::Ext4Dax => "ext4-dax",
            SystemKind::Ext2Bd => "ext2-nvmmbd",
            SystemKind::Ext4Bd => "ext4-nvmmbd",
            SystemKind::Hinfs => "hinfs",
            SystemKind::HinfsNclfw => "hinfs-nclfw",
            SystemKind::HinfsWb => "hinfs-wb",
        }
    }

    /// Every system, in declaration order.
    pub const ALL: [SystemKind; 7] = [
        SystemKind::Pmfs,
        SystemKind::Ext4Dax,
        SystemKind::Ext2Bd,
        SystemKind::Ext4Bd,
        SystemKind::Hinfs,
        SystemKind::HinfsNclfw,
        SystemKind::HinfsWb,
    ];

    /// The five systems of the overall comparison (Fig 7/8/10/11).
    pub const FIG7: [SystemKind; 5] = [
        SystemKind::Pmfs,
        SystemKind::Ext4Dax,
        SystemKind::Ext2Bd,
        SystemKind::Ext4Bd,
        SystemKind::Hinfs,
    ];

    /// The six systems of the trace/macro comparison (Fig 12/13).
    pub const FIG12: [SystemKind; 6] = [
        SystemKind::Pmfs,
        SystemKind::Ext4Dax,
        SystemKind::Ext2Bd,
        SystemKind::Ext4Bd,
        SystemKind::HinfsWb,
        SystemKind::Hinfs,
    ];
}

/// The observability switches of a system build: one recording
/// [`Level`] for the whole stack (FS bundle, device span matrix, lock
/// profiler) plus the invariant auditor, which is a check rather than a
/// recorder and stays its own switch. Off by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsvOptions {
    /// How much the stack records ([`Level::Off`] by default).
    pub level: Level,
    /// Run the online invariant auditor at every fsync and writeback pass
    /// (HiNFS only — it walks the whole buffer pool).
    pub audit: bool,
}

impl ObsvOptions {
    /// Everything off — the benchmark default.
    pub fn none() -> ObsvOptions {
        ObsvOptions::default()
    }

    /// Everything on — full instrumentation plus the auditor.
    pub fn all() -> ObsvOptions {
        ObsvOptions::flight().with_audit()
    }

    /// [`Level::Full`]: per-op records and everything folded from them
    /// (latency histograms, phase spans, lineage ledger),
    /// the trace ring and the contention profiler — but not the auditor,
    /// which adds work to the timeline being profiled.
    pub fn flight() -> ObsvOptions {
        ObsvOptions {
            level: Level::Full,
            audit: false,
        }
    }

    /// Data-lifecycle provenance (durability lag + write amplification +
    /// drain trace events) is part of [`Level::Full`].
    pub fn with_lineage(mut self) -> Self {
        self.level = Level::Full;
        self
    }

    /// Enables the online invariant auditor.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }
}

/// Sizing and model parameters of a system build.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Device capacity in bytes.
    pub device_bytes: usize,
    /// Cost model (latency sweeps replace this).
    pub cost: CostModel,
    /// Virtual (deterministic) or spin (busy-wait) time.
    pub mode: TimeMode,
    /// HiNFS DRAM buffer size in bytes.
    pub buffer_bytes: usize,
    /// ext page cache size in pages.
    pub cache_pages: usize,
    /// Journal region blocks (both families).
    pub journal_blocks: u64,
    /// Inode slots.
    pub inode_count: u64,
    /// Observability switches (all off by default).
    pub obsv: ObsvOptions,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            device_bytes: 512 << 20,
            cost: CostModel::default(),
            mode: TimeMode::Virtual,
            buffer_bytes: 64 << 20,
            cache_pages: 16384,
            journal_blocks: 2048,
            inode_count: 65536,
            obsv: ObsvOptions::none(),
        }
    }
}

impl SystemConfig {
    /// Scales the config to a small test footprint.
    pub fn small() -> SystemConfig {
        SystemConfig {
            device_bytes: 128 << 20,
            buffer_bytes: 8 << 20,
            cache_pages: 2048,
            journal_blocks: 512,
            inode_count: 16384,
            ..SystemConfig::default()
        }
    }
}

/// A built system under test.
pub struct System {
    /// Which system this is.
    pub kind: SystemKind,
    /// The mounted file system.
    pub fs: Arc<dyn FileSystem>,
    /// The backing device (for traffic counters and crash tests).
    pub dev: Arc<NvmmDevice>,
    /// The simulation environment.
    pub env: Arc<SimEnv>,
    /// The concrete HiNFS handle when `kind` is a HiNFS variant (for
    /// policy statistics such as the Fig 6 accuracy counters).
    pub hinfs: Option<Arc<Hinfs>>,
    /// The concrete PMFS handle when `kind` is PMFS or a HiNFS variant
    /// (HiNFS's own PMFS under it): the journal, the allocator and the
    /// on-media layout.
    pub pmfs: Option<Arc<Pmfs>>,
    /// Metrics registry with the device, file system and journal sources
    /// already registered; hand it to `Runner::with_registry` for
    /// per-phase deltas.
    pub registry: Arc<MetricsRegistry>,
    /// The mounted file system's observability bundle (level switch,
    /// histograms, trace ring, lineage ledger, tail reservoir).
    pub obs: Arc<FsObs>,
    /// State-introspection handle (snapshots + invariant audit) for the
    /// mounted system; all current kinds provide one.
    pub introspect: Option<Arc<dyn obsv::Introspect>>,
    /// Undo transactions the mount's recovery rolled back (PMFS family;
    /// zero on ext and on a fresh format).
    pub txs_undone: u64,
    /// Journal entries the mount's recovery undid (PMFS family) or
    /// replayed (ext); zero on a fresh format.
    pub entries_undone: u64,
}

/// Builds (formats and mounts) a system of the given kind.
pub fn build(kind: SystemKind, cfg: &SystemConfig) -> Result<System> {
    let env = SimEnv::new(cfg.mode, cfg.cost.clone());
    let dev = NvmmDevice::new(env.clone(), cfg.device_bytes);
    mount(kind, dev, env, cfg, true)
}

/// Mounts `kind` again on `dev` — after an unmount, the equivalent of the
/// paper's "after clearing the contents of the OS page cache" (every
/// volatile cache starts cold while the persistent state survives), or
/// after a crash, running journal recovery. `cfg` should be the build's.
pub fn remount_with(
    kind: SystemKind,
    dev: Arc<NvmmDevice>,
    env: Arc<SimEnv>,
    cfg: &SystemConfig,
) -> Result<System> {
    mount(kind, dev, env, cfg, false)
}

/// Mounts `kind` on `dev` — formatting it first when `fresh` — wires the
/// registry, and sets the build's one [`Level`] on every layer: the FS
/// bundle (per-op records, trace ring), the device's span timers and the
/// machine's lock profiler. First mount and remount share this, so the
/// switch semantics cannot drift between them.
fn mount(
    kind: SystemKind,
    dev: Arc<NvmmDevice>,
    env: Arc<SimEnv>,
    cfg: &SystemConfig,
    fresh: bool,
) -> Result<System> {
    let registry = Arc::new(MetricsRegistry::new());
    registry.register("", dev.clone());
    let system = |fs: Arc<dyn FileSystem>,
                  hinfs: Option<Arc<Hinfs>>,
                  obs: &Arc<FsObs>,
                  introspect: Arc<dyn obsv::Introspect>,
                  (txs_undone, entries_undone): (u64, u64)| System {
        kind,
        fs,
        dev: dev.clone(),
        env: env.clone(),
        pmfs: hinfs.as_ref().map(|h| h.pmfs().clone()),
        hinfs,
        registry: registry.clone(),
        obs: obs.clone(),
        introspect: Some(introspect),
        txs_undone,
        entries_undone,
    };
    let ext = |mode: ExtMode| -> Result<System> {
        let eopts = ExtOptions {
            journal_blocks: cfg.journal_blocks,
            inode_count: cfg.inode_count,
            cache_pages: cfg.cache_pages,
        };
        let e = if fresh {
            Extfs::mkfs(dev.clone(), mode, eopts)?
        } else {
            Extfs::mount(dev.clone(), mode, eopts)?
        };
        registry.register("", e.clone());
        registry.register("extfs_", e.namei().clone());
        let replayed = e.recovery_replayed();
        Ok(system(e.clone(), None, e.obs(), e.clone(), (0, replayed)))
    };
    let popts = PmfsOptions {
        journal_blocks: cfg.journal_blocks,
        inode_count: cfg.inode_count,
    };
    let sys = match kind {
        SystemKind::Ext4Dax => ext(ExtMode::Ext4Dax)?,
        SystemKind::Ext2Bd => ext(ExtMode::Ext2)?,
        SystemKind::Ext4Bd => ext(ExtMode::Ext4)?,
        SystemKind::Pmfs => {
            let p = if fresh {
                Pmfs::mkfs(dev.clone(), popts)?
            } else {
                Pmfs::mount(dev.clone())?
            };
            registry.register("", p.clone());
            registry.register("", p.journal().stats().clone());
            registry.register("pmfs_", p.namei().clone());
            registry.register("", p.obs().clone());
            let r = p.recovery_stats();
            let undone = (r.txs_undone, r.entries_undone);
            let sys = system(p.clone(), None, p.obs(), p.clone(), undone);
            System {
                pmfs: Some(p),
                ..sys
            }
        }
        SystemKind::Hinfs | SystemKind::HinfsNclfw | SystemKind::HinfsWb => {
            let mut hcfg = HinfsConfig::default().with_buffer_bytes(cfg.buffer_bytes);
            if kind == SystemKind::HinfsNclfw {
                hcfg = hcfg.nclfw();
            }
            if kind == SystemKind::HinfsWb {
                hcfg = hcfg.wb_only();
            }
            if cfg.obsv.audit {
                hcfg = hcfg.with_audit();
            }
            let h = if fresh {
                Hinfs::mkfs(dev.clone(), popts, hcfg)?
            } else {
                Hinfs::mount(dev.clone(), hcfg)?
            };
            registry.register("", h.clone());
            registry.register("", h.pmfs().journal().stats().clone());
            registry.register("pmfs_", h.pmfs().namei().clone());
            let r = h.pmfs().recovery_stats();
            let undone = (r.txs_undone, r.entries_undone);
            system(h.clone(), Some(h.clone()), h.obs(), h.clone(), undone)
        }
    };
    let level = cfg.obsv.level;
    sys.obs.set_level(level);
    dev.spans().set_enabled(level == Level::Full);
    env.contention().set_level(level);
    registry.register("", env.contention().clone());
    Ok(sys)
}

/// Convenience: bytes-per-page constant used when sizing caches relative
/// to a dataset.
pub const PAGE_BYTES: usize = BLOCK_SIZE;

#[cfg(test)]
mod tests {
    use super::*;
    use fskit::OpenFlags;

    #[test]
    fn every_system_builds_and_works() {
        for kind in SystemKind::ALL {
            let sys = build(kind, &SystemConfig::small()).unwrap();
            let fd = sys
                .fs
                .open("/smoke", OpenFlags::RDWR | OpenFlags::CREATE)
                .unwrap();
            sys.fs.write(fd, 0, b"hello world").unwrap();
            let mut buf = [0u8; 11];
            sys.fs.read(fd, 0, &mut buf).unwrap();
            assert_eq!(&buf, b"hello world", "{}", kind.label());
            sys.fs.fsync(fd).unwrap();
            sys.fs.close(fd).unwrap();
            sys.fs.unmount().unwrap();
            assert_eq!(
                sys.hinfs.is_some(),
                matches!(
                    kind,
                    SystemKind::Hinfs | SystemKind::HinfsNclfw | SystemKind::HinfsWb
                )
            );
            let snap = sys.registry.snapshot();
            assert!(
                snap.counter("nvmm_bytes_written") > 0,
                "{}: device source registered",
                kind.label()
            );
            if sys.hinfs.is_some() {
                assert!(
                    snap.counters.contains_key("hinfs_buffer_hits"),
                    "{}: hinfs source registered",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn full_level_enables_histograms_and_trace() {
        let cfg = SystemConfig {
            obsv: ObsvOptions::flight(),
            ..SystemConfig::small()
        };
        let sys = build(SystemKind::Hinfs, &cfg).unwrap();
        let obs = &sys.obs;
        assert!(obs.full());
        assert!(obs.trace.enabled());
        let fd = sys
            .fs
            .open("/t", OpenFlags::RDWR | OpenFlags::CREATE)
            .unwrap();
        sys.fs.write(fd, 0, &[7u8; 4096]).unwrap();
        sys.fs.fsync(fd).unwrap();
        sys.fs.close(fd).unwrap();
        assert!(obs.op_histo(obsv::OpKind::Write).snapshot().count() > 0);
        let snap = sys.registry.snapshot();
        assert!(
            snap.histo("obsv_op_write_ns").is_some(),
            "{:?}",
            snap.histos
        );
    }

    /// `write_vectored` must land a gather list exactly like the
    /// equivalent contiguous write, on every system: natively on the
    /// NVMM-aware systems (one syscall / one journal transaction for the
    /// whole vector) and through the default per-slice loop on ext.
    #[test]
    fn write_vectored_matches_contiguous_write_everywhere() {
        for kind in [
            SystemKind::Pmfs,
            SystemKind::Ext4Dax,
            SystemKind::Ext2Bd,
            SystemKind::Ext4Bd,
            SystemKind::Hinfs,
        ] {
            let sys = build(kind, &SystemConfig::small()).unwrap();
            let slices: [&[u8]; 3] = [&[0xA1; 1000], &[0xB2; 5000], &[0xC3; 300]];
            let flat: Vec<u8> = slices.concat();

            let fd = sys
                .fs
                .open("/v", OpenFlags::RDWR | OpenFlags::CREATE)
                .unwrap();
            let n = sys.fs.write_vectored(fd, 7, &slices).unwrap();
            assert_eq!(n, flat.len(), "{}", kind.label());
            let mut back = vec![0u8; flat.len()];
            sys.fs.read(fd, 7, &mut back).unwrap();
            assert_eq!(back, flat, "{}: vectored bytes", kind.label());
            assert_eq!(sys.fs.fstat(fd).unwrap().size, 7 + flat.len() as u64);
            sys.fs.fsync(fd).unwrap();
            sys.fs.close(fd).unwrap();

            // On an APPEND descriptor the vector lands at EOF regardless
            // of the offset argument.
            let fd = sys
                .fs
                .open("/v", OpenFlags::RDWR | OpenFlags::APPEND)
                .unwrap();
            let end = sys.fs.fstat(fd).unwrap().size;
            sys.fs
                .write_vectored(fd, 0, &[&[0xD4; 64], &[0xE5; 64]])
                .unwrap();
            let mut tail = vec![0u8; 128];
            sys.fs.read(fd, end, &mut tail).unwrap();
            assert_eq!(&tail[..64], &[0xD4; 64], "{}: append gather", kind.label());
            assert_eq!(&tail[64..], &[0xE5; 64], "{}", kind.label());
            sys.fs.close(fd).unwrap();
            sys.fs.unmount().unwrap();
        }
    }

    /// The native gather paths pay the fixed costs once: on PMFS the whole
    /// vector commits as one journal transaction, so simulated time for a
    /// 4-slice gather is strictly cheaper than four separate writes.
    #[test]
    fn native_vectored_write_is_cheaper_than_split_writes() {
        let slices: [&[u8]; 4] = [&[1; 4096], &[2; 4096], &[3; 4096], &[4; 4096]];
        let vectored = {
            let sys = build(SystemKind::Pmfs, &SystemConfig::small()).unwrap();
            let fd = sys
                .fs
                .open("/v", OpenFlags::RDWR | OpenFlags::CREATE)
                .unwrap();
            sys.env.rebase();
            sys.fs.write_vectored(fd, 0, &slices).unwrap();
            sys.env.now()
        };
        let split = {
            let sys = build(SystemKind::Pmfs, &SystemConfig::small()).unwrap();
            let fd = sys
                .fs
                .open("/v", OpenFlags::RDWR | OpenFlags::CREATE)
                .unwrap();
            sys.env.rebase();
            for (i, s) in slices.iter().enumerate() {
                sys.fs.write(fd, (i * 4096) as u64, s).unwrap();
            }
            sys.env.now()
        };
        assert!(
            vectored < split,
            "gather ({vectored} ns) should beat 4 writes ({split} ns)"
        );
    }

    #[test]
    fn audit_flag_runs_auditor_on_fsync() {
        let cfg = SystemConfig {
            obsv: ObsvOptions::none().with_audit(),
            ..SystemConfig::small()
        };
        let sys = build(SystemKind::Hinfs, &cfg).unwrap();
        let fd = sys
            .fs
            .open("/a", OpenFlags::RDWR | OpenFlags::CREATE)
            .unwrap();
        sys.fs.write(fd, 0, &[3u8; 8192]).unwrap();
        sys.fs.fsync(fd).unwrap();
        sys.fs.close(fd).unwrap();
        let obs = &sys.obs;
        assert!(obs.audit_checks() > 0, "fsync ran the auditor");
        assert_eq!(obs.audit_violations(), 0, "auditor is clean");
        let rep = sys.introspect.as_ref().unwrap().audit();
        assert!(rep.is_clean(), "{rep:?}");
    }

    #[test]
    fn full_level_profiles_lock_sites() {
        let cfg = SystemConfig {
            obsv: ObsvOptions::flight(),
            ..SystemConfig::small()
        };
        let sys = build(SystemKind::Hinfs, &cfg).unwrap();
        assert_eq!(sys.env.contention().level(), Level::Full);
        let fd = sys
            .fs
            .open("/c", OpenFlags::RDWR | OpenFlags::CREATE)
            .unwrap();
        sys.fs.write(fd, 0, &[9u8; 4096]).unwrap();
        sys.fs.fsync(fd).unwrap();
        sys.fs.close(fd).unwrap();
        let snap = sys.env.contention().snapshot();
        // The written file lands in one buffer shard (keyed by its ino);
        // summed over every shard site the lock traffic must show up.
        let shard_acqs: u64 = (0..obsv::NSHARDS)
            .map(|i| snap.site(obsv::Site::hinfs_shard(i)).acquisitions)
            .sum();
        assert!(shard_acqs > 0, "buffer-shard locks were profiled");
        let reg = sys.registry.snapshot();
        let reg_acqs: u64 = (0..obsv::NSHARDS)
            .map(|i| reg.counter(&format!("obsv_site_hinfs_shard{i}_acquisitions")))
            .sum();
        assert!(
            reg_acqs > 0,
            "contention table feeds the registry: {:?}",
            reg.counters
                .keys()
                .filter(|k| k.starts_with("obsv_site"))
                .collect::<Vec<_>>()
        );
        // Off by default: a plain build records nothing.
        let quiet = build(SystemKind::Hinfs, &SystemConfig::small()).unwrap();
        assert_eq!(quiet.env.contention().level(), Level::Off);
    }

    /// A `threads=1` workload run stays bit-identical with contention
    /// tracking at [`Level::Full`]: the profiler only reads the virtual
    /// clock (it never advances it), collection lands in shard 0, and the
    /// site books come out the same on every run.
    #[test]
    fn threads1_contention_run_is_bit_identical() {
        use crate::filebench::{FilebenchParams, Fileserver};
        use crate::fileset::{Fileset, FilesetSpec};
        use crate::runner::{RunLimit, Runner};

        // elapsed_ns plus (acquisitions, contended, wait sum/count,
        // hold sum/count) per site.
        type Books = Vec<[u64; 6]>;
        fn run_once() -> (u64, Books) {
            let cfg = SystemConfig {
                obsv: ObsvOptions::flight(),
                ..SystemConfig::small()
            };
            let sys = build(SystemKind::Hinfs, &cfg).unwrap();
            let set =
                Fileset::populate(&*sys.fs, FilesetSpec::new("/data", 20, 4, 8 << 10), 11).unwrap();
            sys.env.rebase();
            let actor = Fileserver::new(
                set,
                FilebenchParams {
                    iosize: 16 << 10,
                    append_size: 4 << 10,
                },
            );
            let runner = Runner::new(sys.env.clone(), sys.fs.clone()).with_device(sys.dev.clone());
            let r = runner.run(vec![Box::new(actor)], RunLimit::steps(40), 7);
            assert_eq!(r.error, None);
            let books = sys
                .env
                .contention()
                .snapshot()
                .sites
                .iter()
                .map(|s| {
                    [
                        s.acquisitions,
                        s.contended,
                        s.wait.sum(),
                        s.wait.count(),
                        s.hold.sum(),
                        s.hold.count(),
                    ]
                })
                .collect();
            (r.elapsed_ns, books)
        }

        let (e1, b1) = run_once();
        let (e2, b2) = run_once();
        assert_eq!(e1, e2, "virtual time unchanged by the profiler");
        assert_eq!(b1, b2, "per-site books are bit-identical");
        assert!(
            b1.iter().any(|b| b[0] > 0),
            "the run actually exercised tracked locks"
        );
    }

    /// Every registry metric name is snake_case and carries one of the
    /// known subsystem prefixes, across fully-enabled builds of every
    /// system kind.
    #[test]
    fn metric_names_are_prefixed_snake_case() {
        const PREFIXES: [&str; 6] = ["hinfs_", "pmfs_", "extfs_", "nvmm_", "faultfs_", "obsv_"];
        let cfg = SystemConfig {
            obsv: ObsvOptions::all(),
            ..SystemConfig::small()
        };
        for kind in [
            SystemKind::Pmfs,
            SystemKind::Ext4Dax,
            SystemKind::Ext2Bd,
            SystemKind::Ext4Bd,
            SystemKind::Hinfs,
        ] {
            let sys = build(kind, &cfg).unwrap();
            let fd = sys
                .fs
                .open("/n", OpenFlags::RDWR | OpenFlags::CREATE)
                .unwrap();
            sys.fs.write(fd, 0, &[1u8; 4096]).unwrap();
            sys.fs.fsync(fd).unwrap();
            sys.fs.close(fd).unwrap();
            let snap = sys.registry.snapshot();
            let names = snap
                .counters
                .keys()
                .chain(snap.gauges.keys())
                .chain(snap.histos.keys());
            for name in names {
                assert!(
                    PREFIXES.iter().any(|p| name.starts_with(p)),
                    "{}: metric `{name}` lacks a subsystem prefix",
                    kind.label()
                );
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "{}: metric `{name}` is not snake_case",
                    kind.label()
                );
            }
            // `ObsvOptions::all()` arms the per-op records, so the write
            // above must surface its latency histogram through the same
            // conformance-checked path.
            assert!(
                snap.histo("obsv_op_write_ns")
                    .is_some_and(|h| h.count() > 0),
                "{}: per-op records armed but obsv_op_write_ns missing",
                kind.label()
            );
            // `ObsvOptions::all()` also arms lineage tracking: the write
            // above is a logical byte source on every system, so the
            // per-layer ledger must surface its counters through the
            // same conformance-checked namespace.
            assert!(
                snap.counters
                    .get("obsv_lineage_logical_bytes")
                    .copied()
                    .unwrap_or(0)
                    > 0,
                "{}: lineage armed but obsv_lineage_logical_bytes missing",
                kind.label()
            );
        }
    }
}
