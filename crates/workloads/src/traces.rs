//! Synthetic system-call traces standing in for the FIU Usr0/Usr1, LASR,
//! and MobiBench-Facebook traces of Table 1 (the originals are not
//! redistributable). Each generator reproduces the characteristics the
//! figures depend on:
//!
//! | Trace | Character reproduced |
//! |---|---|
//! | Usr0 | research desktop: mixed read/write, zipf-like write locality, a moderate share of fsync'd bytes |
//! | Usr1 | like Usr0 at another time: lower sync share, more reads |
//! | LASR | software-development machines: small I/O, **zero** fsync (Fig 2) |
//! | Facebook | MobiBench: SQLite-style sub-KB writes, fsync after almost every write, "sync operations too frequent to coalesce" |
//!
//! The replay extracts the paper's four op types — read, write, unlink,
//! fsync (§5.3) — so each step issues exactly one of those (plus the
//! opens/closes file churn requires).

use std::sync::Arc;

use fskit::{Fd, OpenFlags, Result};
use rand::Rng;

use crate::fileset::Fileset;
use crate::runner::{Actor, Ctx};

/// Mix of a synthetic trace, as per-mille probabilities.
#[derive(Debug, Clone, Copy)]
pub struct TraceProfile {
    /// Trace name (report label).
    pub name: &'static str,
    /// Probability of a read op, ‰.
    pub read_pm: u32,
    /// Probability of a write op, ‰.
    pub write_pm: u32,
    /// Probability of an unlink(+recreate later) op, ‰.
    pub unlink_pm: u32,
    /// Probability that a write is followed by fsync, ‰.
    pub sync_after_write_pm: u32,
    /// Mean I/O size in bytes.
    pub mean_io: usize,
    /// Number of hot files that absorb most writes (locality).
    pub hot_files: usize,
    /// Probability a write goes to a hot file, ‰.
    pub hot_pm: u32,
    /// How many of the hot files are sync-prone (fsync only ever targets
    /// these; the rest are never synchronized, which keeps the trace's
    /// fsync-byte share partial like the FIU desktops in Fig 2).
    pub synced_hot_files: usize,
}

/// FIU Usr0: research desktop, moderate sync share.
pub const USR0: TraceProfile = TraceProfile {
    name: "usr0",
    read_pm: 350,
    write_pm: 600,
    unlink_pm: 50,
    sync_after_write_pm: 300,
    mean_io: 16 << 10,
    hot_files: 8,
    hot_pm: 700,
    synced_hot_files: 4,
};

/// FIU Usr1: same desktop, different period — fewer syncs, more reads.
pub const USR1: TraceProfile = TraceProfile {
    name: "usr1",
    read_pm: 450,
    write_pm: 500,
    unlink_pm: 50,
    sync_after_write_pm: 150,
    mean_io: 12 << 10,
    hot_files: 8,
    hot_pm: 700,
    synced_hot_files: 2,
};

/// LASR: CS-research development machines — no fsync at all (Fig 2).
pub const LASR: TraceProfile = TraceProfile {
    name: "lasr",
    read_pm: 500,
    write_pm: 450,
    unlink_pm: 50,
    sync_after_write_pm: 0,
    mean_io: 4 << 10,
    hot_files: 16,
    hot_pm: 600,
    synced_hot_files: 0,
};

/// MobiBench Facebook: sub-KB writes, fsync after nearly every write.
pub const FACEBOOK: TraceProfile = TraceProfile {
    name: "facebook",
    read_pm: 250,
    write_pm: 700,
    unlink_pm: 50,
    sync_after_write_pm: 950,
    mean_io: 600,
    hot_files: 4,
    hot_pm: 900,
    synced_hot_files: 4,
};

/// All four trace profiles in paper order.
pub const ALL_TRACES: [TraceProfile; 4] = [USR0, USR1, LASR, FACEBOOK];

/// A trace-replay actor.
pub struct TraceReplay {
    profile: TraceProfile,
    set: Arc<Fileset>,
    /// Open descriptors for the hot files.
    hot: Vec<(String, Option<Fd>)>,
    buf: Vec<u8>,
}

impl TraceReplay {
    /// Creates a replay worker. Hot files come from the populated set.
    pub fn new(set: Arc<Fileset>, profile: TraceProfile, seed: u64) -> TraceReplay {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
        let hot = (0..profile.hot_files)
            .filter_map(|_| set.pick(&mut rng))
            .map(|p| (p, None))
            .collect();
        TraceReplay {
            profile,
            set,
            hot,
            buf: Vec::new(),
        }
    }

    fn io_size(&self, ctx: &mut Ctx<'_>) -> usize {
        crate::fileset::draw_size(&mut ctx.rng, self.profile.mean_io).max(1)
    }

    fn hot_fd(&mut self, ctx: &mut Ctx<'_>) -> Result<Option<(usize, Fd)>> {
        if self.hot.is_empty() {
            return Ok(None);
        }
        let i = ctx.rng.gen_range(0..self.hot.len());
        if self.hot[i].1.is_none() {
            let path = self.hot[i].0.clone();
            match ctx.open(&path, OpenFlags::RDWR) {
                Ok(fd) => self.hot[i].1 = Some(fd),
                Err(_) => {
                    // Hot file disappeared (unlinked): recreate it.
                    let fd = ctx.open(&path, OpenFlags::RDWR | OpenFlags::CREATE)?;
                    self.hot[i].1 = Some(fd);
                }
            }
        }
        Ok(self.hot[i].1.map(|fd| (i, fd)))
    }
}

impl Actor for TraceReplay {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        let p = self.profile;
        let dice = ctx.rng.gen_range(0..1000u32);
        if dice < p.read_pm {
            // Read: a hot file or a random file.
            let n = self.io_size(ctx);
            self.buf.resize(n, 0);
            if ctx.rng.gen_range(0..1000) < p.hot_pm {
                if let Some((_, fd)) = self.hot_fd(ctx)? {
                    let size = ctx.fstat(fd)?.size;
                    let off = if size > n as u64 {
                        ctx.rng.gen_range(0..=size - n as u64)
                    } else {
                        0
                    };
                    ctx.read(fd, off, &mut self.buf.clone())?;
                }
            } else if let Some(path) = self.set.pick(&mut ctx.rng) {
                if let Ok(fd) = ctx.open(&path, OpenFlags::READ) {
                    ctx.read(fd, 0, &mut self.buf.clone())?;
                    ctx.close(fd)?;
                }
            }
        } else if dice < p.read_pm + p.write_pm {
            // Write, with locality, maybe followed by fsync.
            let n = self.io_size(ctx);
            self.buf.resize(n, 0x99);
            let hot = ctx.rng.gen_range(0..1000) < p.hot_pm;
            if hot {
                if let Some((i, fd)) = self.hot_fd(ctx)? {
                    if i < p.synced_hot_files {
                        // Sync-prone hot files behave like database files:
                        // writes scattered over a fixed working set, so
                        // the same blocks are *re*written across sync
                        // epochs but rarely coalesce *within* one — the
                        // writes the Buffer Benefit Model must route
                        // eagerly.
                        let span: u64 = 256 << 10;
                        let off = ctx.rng.gen_range(0..span - self.buf.len() as u64);
                        ctx.write(fd, off, &self.buf)?;
                        if ctx.rng.gen_range(0..1000) < p.sync_after_write_pm {
                            ctx.fsync(fd)?;
                        }
                    } else {
                        // Unsynced hot files are overwritten in place:
                        // heavy coalescing in the write buffer.
                        let size = ctx.fstat(fd)?.size.max(1);
                        let span = size.min(256 << 10);
                        let off = ctx.rng.gen_range(0..span);
                        ctx.write(fd, off, &self.buf)?;
                    }
                }
            } else if let Some(path) = self.set.pick(&mut ctx.rng) {
                if let Ok(fd) = ctx.open(&path, OpenFlags::RDWR) {
                    ctx.append(fd, &self.buf)?;
                    if ctx.rng.gen_range(0..1000) < p.sync_after_write_pm {
                        ctx.fsync(fd)?;
                    }
                    ctx.close(fd)?;
                }
            }
        } else if dice < p.read_pm + p.write_pm + p.unlink_pm {
            // Unlink a cold file and recreate a fresh one to keep the
            // population stable.
            if self.set.len() > p.hot_files + 2 {
                if let Some(path) = self.set.take(&mut ctx.rng) {
                    if self.hot.iter().any(|(h, _)| *h == path) {
                        // Do not delete hot files; put it back via fresh.
                        let _ = path;
                    } else {
                        let _ = ctx.unlink(&path);
                        let fresh = self.set.fresh(&mut ctx.rng);
                        let fd = ctx.open(&fresh, OpenFlags::RDWR | OpenFlags::CREATE)?;
                        ctx.close(fd)?;
                    }
                }
            }
        } else {
            // Metadata noise: stat something.
            if let Some(path) = self.set.pick(&mut ctx.rng) {
                let _ = ctx.stat(&path);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fileset::FilesetSpec;
    use crate::runner::{RunLimit, Runner};
    use nvmm::{CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};
    use pmfs::{Pmfs, PmfsOptions};

    fn run_trace(profile: TraceProfile) -> crate::RunReport {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env.clone(), 65536 * BLOCK_SIZE);
        let fs = Pmfs::mkfs(
            dev,
            PmfsOptions {
                journal_blocks: 256,
                inode_count: 4096,
            },
        )
        .unwrap();
        let set = Fileset::populate(&*fs, FilesetSpec::new("/home", 80, 16, 32 << 10), 7).unwrap();
        env.rebase();
        let runner = Runner::new(env, fs);
        let replay = TraceReplay::new(set, profile, 23);
        let r = runner.run(vec![Box::new(replay)], RunLimit::steps(400), 31);
        assert_eq!(r.error, None);
        r
    }

    #[test]
    fn lasr_never_syncs() {
        let r = run_trace(LASR);
        assert_eq!(r.op_count(crate::OpKind::Fsync), 0);
        assert_eq!(r.fsync_byte_fraction(), 0.0);
        assert!(r.metrics.bytes_read > 0 && r.metrics.bytes_written > 0);
    }

    #[test]
    fn facebook_syncs_almost_everything() {
        let r = run_trace(FACEBOOK);
        assert!(
            r.fsync_byte_fraction() > 0.8,
            "facebook sync fraction {:.2}",
            r.fsync_byte_fraction()
        );
        // Sub-KB mean write size.
        let mean = r.metrics.bytes_written / r.op_count(crate::OpKind::Write).max(1);
        assert!(mean < 1024, "facebook mean write {mean} B");
    }

    #[test]
    fn usr_profiles_sit_between() {
        let r0 = run_trace(USR0);
        let f0 = r0.fsync_byte_fraction();
        assert!(f0 > 0.1 && f0 < 0.7, "usr0 fraction {f0:.2}");
        let r1 = run_trace(USR1);
        let f1 = r1.fsync_byte_fraction();
        assert!(f1 < f0, "usr1 syncs less than usr0 ({f1:.2} vs {f0:.2})");
        assert!(r0.op_count(crate::OpKind::Unlink) > 0);
    }
}
