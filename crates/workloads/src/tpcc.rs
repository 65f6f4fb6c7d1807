//! A TPC-C-style transaction workload (the paper ran DBT2 on PostgreSQL):
//! a WAL-based database emulator issuing the file I/O pattern an OLTP
//! engine produces — per-transaction WAL appends followed by fsync (over
//! 90 % of written bytes are synchronized, Fig 2), random table-page reads
//! and writes, and periodic checkpoints that flush the table file.

use fskit::{Fd, OpenFlags, Result};
use rand::Rng;

use crate::runner::{Actor, Ctx};

/// Parameters of the database emulator.
#[derive(Debug, Clone)]
pub struct TpccParams {
    /// Table file path ("the database heap").
    pub table_path: String,
    /// WAL file path.
    pub wal_path: String,
    /// Table size in bytes.
    pub table_size: u64,
    /// Mean WAL record size per transaction.
    pub wal_record: usize,
    /// Table pages read per transaction.
    pub reads_per_txn: usize,
    /// Table pages modified per transaction.
    pub writes_per_txn: usize,
    /// Transactions between checkpoints (table fsync).
    pub checkpoint_every: u64,
    /// CPU time the database spends per transaction outside the file
    /// system (query planning, executor, locking). TPC-C on PostgreSQL is
    /// database-bound, so file system deltas show up muted (Fig 13).
    pub think_ns: u64,
}

impl Default for TpccParams {
    fn default() -> Self {
        TpccParams {
            table_path: "/tpcc-table".into(),
            wal_path: "/tpcc-wal".into(),
            table_size: 16 << 20,
            wal_record: 400,
            reads_per_txn: 4,
            writes_per_txn: 2,
            checkpoint_every: 64,
            think_ns: 100_000,
        }
    }
}

/// One database worker.
pub struct Tpcc {
    params: TpccParams,
    /// The table and WAL descriptors, opened by the first step.
    fds: Option<(Fd, Fd)>,
    txns: u64,
    buf: Vec<u8>,
}

impl Tpcc {
    /// Creates a worker.
    pub fn new(params: TpccParams) -> Tpcc {
        Tpcc {
            params,
            fds: None,
            txns: 0,
            buf: Vec::new(),
        }
    }

    /// Materializes the table and WAL outside the measured run, so
    /// transaction metrics (Fig 2's > 90 % fsync share) are not diluted by
    /// the one-time setup writes.
    pub fn setup(fs: &dyn fskit::FileSystem, params: &TpccParams) -> Result<()> {
        let fd = fs.open(&params.table_path, OpenFlags::RDWR | OpenFlags::CREATE)?;
        let chunk = vec![0u8; 1 << 20];
        let mut off = fs.fstat(fd)?.size;
        while off < params.table_size {
            let n = ((params.table_size - off) as usize).min(chunk.len());
            fs.write(fd, off, &chunk[..n])?;
            off += n as u64;
        }
        fs.close(fd)?;
        let fd = fs.open(&params.wal_path, OpenFlags::RDWR | OpenFlags::CREATE)?;
        fs.close(fd)
    }
}

const PAGE: usize = 8 << 10; // PostgreSQL-style 8 KiB pages.

impl Actor for Tpcc {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        let Some((table, wal)) = self.fds else {
            let fd = ctx.open(&self.params.table_path, OpenFlags::RDWR | OpenFlags::CREATE)?;
            // Materialize whatever `setup` has not already.
            let chunk = vec![0u8; 1 << 20];
            let mut off = ctx.fstat(fd)?.size;
            while off < self.params.table_size {
                let n = ((self.params.table_size - off) as usize).min(chunk.len());
                ctx.write(fd, off, &chunk[..n])?;
                off += n as u64;
            }
            let wal = ctx.open(
                &self.params.wal_path,
                OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::APPEND,
            )?;
            self.fds = Some((fd, wal));
            return Ok(true);
        };
        let pages = self.params.table_size / PAGE as u64;
        // Database CPU work of the transaction.
        ctx.env.charge(nvmm::Cat::Other, self.params.think_ns);
        // Read phase.
        self.buf.resize(PAGE, 0);
        for _ in 0..self.params.reads_per_txn {
            let p = ctx.rng.gen_range(0..pages);
            ctx.read(table, p * PAGE as u64, &mut self.buf.clone())?;
        }
        // Modify phase: dirty table pages (buffered by the DB; reach the
        // file immediately in this emulator, synced at checkpoints).
        for _ in 0..self.params.writes_per_txn {
            let p = ctx.rng.gen_range(0..pages);
            ctx.write(table, p * PAGE as u64, &self.buf[..PAGE])?;
        }
        // Commit: WAL append + fsync (this is what makes TPC-C > 90 %
        // fsync bytes).
        let rec = crate::fileset::draw_size(&mut ctx.rng, self.params.wal_record).max(64);
        self.buf.resize(rec.max(PAGE), 0x88);
        ctx.append(wal, &self.buf[..rec])?;
        ctx.fsync(wal)?;
        self.txns += 1;
        if self.txns.is_multiple_of(self.params.checkpoint_every) {
            ctx.fsync(table)?;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunLimit, Runner};
    use crate::OpKind;
    use nvmm::{CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};
    use pmfs::{Pmfs, PmfsOptions};

    #[test]
    fn commits_are_synchronous() {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env.clone(), 16384 * BLOCK_SIZE);
        let fs = Pmfs::mkfs(
            dev,
            PmfsOptions {
                journal_blocks: 128,
                inode_count: 64,
            },
        )
        .unwrap();
        env.rebase();
        let runner = Runner::new(env, fs);
        let params = TpccParams {
            table_size: 2 << 20,
            ..TpccParams::default()
        };
        let t = Tpcc::new(params);
        let r = runner.run(vec![Box::new(t)], RunLimit::steps(101), 17);
        assert_eq!(r.error, None);
        // Step 1 materializes the table (not fsynced); 100 transactions.
        assert_eq!(r.op_count(OpKind::Fsync), 100 + 100 / 64);
        // The table prealloc dominates raw bytes; exclude it for the Fig 2
        // view by checking the sync fraction among post-setup writes: all
        // WAL bytes and checkpointed table pages are synced.
        assert!(r.metrics.fsync_bytes > 0);
    }
}
