//! The Eager-Persistent Write Checker and the Buffer Benefit Model
//! (paper §3.3.2).
//!
//! HiNFS routes a write either to the DRAM buffer (lazy-persistent) or
//! straight to NVMM (eager-persistent). Case 1 — `O_SYNC` descriptors (the
//! paper's sync mount has no switch here) — is checked trivially. Case 2 — asynchronous writes whose
//! fsync arrives before enough coalescing happens — is predicted per data
//! block by the Buffer Benefit Model: at each synchronization the block's
//! history decides its state for subsequent writes, using
//!
//! ```text
//! N_cw · L_dram + N_cf · L_nvmm  <  N_cw · L_nvmm        (Inequality 1)
//! ```
//!
//! where `N_cw` counts cacheline writes since the previous sync and `N_cf`
//! the cacheline flushes the sync itself must perform. For blocks that
//! bypass the buffer, `N_cf` comes from the *ghost buffer*: index metadata
//! that pretends every write was buffered.

use nvmm::CostModel;
use obsv::{TraceEvent, TraceRing};

use crate::buffer::FileBuf;
use crate::stats::HinfsStats;
use crate::HinfsConfig;

/// Evaluates Inequality (1): is buffering beneficial for a block with
/// these counters?
///
/// # Examples
///
/// ```
/// let cost = nvmm::CostModel::default();
/// // Heavy coalescing: 100 line writes, only 10 flushed at sync.
/// assert!(hinfs::checker::buffering_wins(&cost, 100, 10));
/// // No coalescing (append-then-fsync): every written line flushes.
/// assert!(!hinfs::checker::buffering_wins(&cost, 64, 64));
/// ```
pub fn buffering_wins(cost: &CostModel, n_cw: u64, n_cf: u64) -> bool {
    let lazy = n_cw * cost.dram_write_latency_ns + n_cf * cost.nvmm_write_latency_ns;
    let eager = n_cw * cost.nvmm_write_latency_ns;
    lazy < eager
}

/// Eager→Lazy decay: a block drops its Eager-Persistent state if its file
/// saw no synchronization for this long (paper: 5 s).
pub const EAGER_DECAY_NS: u64 = 5_000_000_000;

/// Whether a write to `(file, iblk)` at `now` must take the eager path
/// under case 2 (block in the Eager-Persistent state, not yet decayed).
///
/// The decay rule (paper): the state falls back to Lazy-Persistent when the
/// block "has not met a synchronization operation for 5 seconds", decided
/// lazily at write time from the file's last synchronization time.
pub fn is_eager_block(cfg: &HinfsConfig, file: &FileBuf, iblk: u64, now: u64) -> bool {
    if !cfg.checker {
        // HiNFS-WB: the checker is disabled, every write is buffered.
        return false;
    }
    if file.mmap_pinned {
        return true;
    }
    if !file.bbm.get(&iblk).is_some_and(|st| st.eager) {
        return false;
    }
    now.saturating_sub(file.last_sync_ns) <= EAGER_DECAY_NS
}

/// Records a write's cacheline activity for the model. `buffered` selects
/// between the real buffer (dirty bits live on the block) and the ghost
/// buffer (`ghost_dirty` here).
pub fn record_write(file: &mut FileBuf, iblk: u64, line_mask: u64, buffered: bool) {
    let st = file.bbm.entry(iblk).or_default();
    st.n_cw += line_mask.count_ones() as u64;
    if !buffered {
        st.ghost_dirty |= line_mask;
    }
}

/// The pieces of mount state a synchronization-point evaluation reads:
/// configuration, cost model, counters, trace ring, plus the sync's
/// timestamp and the inode being synced.
pub struct EvalCtx<'a> {
    pub cfg: &'a HinfsConfig,
    pub cost: &'a CostModel,
    pub stats: &'a HinfsStats,
    pub trace: &'a TraceRing,
    /// Simulated time of the synchronization.
    pub now: u64,
    /// Inode being synchronized (trace payload only).
    pub ino: u64,
}

/// Runs the model for one block at a synchronization point.
///
/// `n_cf` is the number of cacheline flushes this synchronization performs
/// for the block (real dirty lines for buffered blocks, ghost lines for
/// bypassed ones). Updates the block's state, the accuracy counters
/// (Fig 6), and resets the per-epoch counters. Returns `true` if the block
/// is now Lazy-Persistent.
pub fn evaluate_at_sync(ctx: &EvalCtx<'_>, file: &mut FileBuf, iblk: u64, n_cf: u64) -> bool {
    // Age of the epoch being closed (time since the previous sync) — the
    // same quantity the decay rule compares against `EAGER_DECAY_NS`.
    // Captured before the bitmap entry borrow.
    let sync_age_ns = ctx.now.saturating_sub(file.last_sync_ns);
    let st = file.bbm.entry(iblk).or_default();
    if st.n_cw == 0 && n_cf == 0 {
        // Nothing happened to this block this epoch; keep its state.
        return !st.eager;
    }
    let n_cw = st.n_cw;
    let lazy = buffering_wins(ctx.cost, n_cw, n_cf);
    HinfsStats::bump(&ctx.stats.bbm_evals, 1);
    let flipped = match st.prev_lazy {
        Some(prev) => prev != lazy,
        // First evaluation: the paper measures prediction stability between
        // consecutive syncs, so the first one has no basis — count it as
        // accurate (it cannot have mispredicted anything yet). It still
        // traces as a flip when it leaves the default lazy state.
        None => !lazy,
    };
    if !flipped || st.prev_lazy.is_none() {
        HinfsStats::bump(&ctx.stats.bbm_accurate, 1);
    }
    if flipped {
        ctx.trace.emit(ctx.now, || TraceEvent::BbmFlip {
            ino: ctx.ino,
            iblk,
            to_lazy: lazy,
            n_cw,
            n_cf,
            l_dram: ctx.cost.dram_write_latency_ns,
            l_nvmm: ctx.cost.nvmm_write_latency_ns,
            sync_age_ns,
        });
    }
    st.prev_lazy = Some(lazy);
    st.n_cw = 0;
    st.ghost_dirty = 0;
    st.eager = !lazy && ctx.cfg.checker;
    lazy
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm::CostModel;

    fn cfg() -> HinfsConfig {
        HinfsConfig::default()
    }

    #[test]
    fn inequality_matches_paper_intuition() {
        let cost = CostModel::default(); // L_dram=40, L_nvmm=200
                                         // Full coalescing: one flush for many writes.
        assert!(buffering_wins(&cost, 1000, 1));
        // Zero coalescing: appends synced immediately.
        assert!(!buffering_wins(&cost, 10, 10));
        // Boundary: N_cf/N_cw < (L_nvmm - L_dram)/L_nvmm = 0.8.
        assert!(buffering_wins(&cost, 100, 79));
        assert!(!buffering_wins(&cost, 100, 80));
    }

    #[test]
    fn short_latency_shrinks_the_lazy_region() {
        // At 50 ns NVMM writes, buffering rarely wins: (50-40)/50 = 0.2.
        let cost = CostModel::default().with_write_latency(50);
        assert!(!buffering_wins(&cost, 100, 30));
        assert!(buffering_wins(&cost, 100, 10));
    }

    #[test]
    fn eager_state_with_decay() {
        let c = cfg();
        let mut f = FileBuf::new();
        assert!(!is_eager_block(&c, &f, 0, 0), "blocks start lazy");
        f.bbm.entry(0).or_default().eager = true;
        f.last_sync_ns = 1_000;
        assert!(is_eager_block(&c, &f, 0, 2_000));
        // 5 s after the last sync the state decays back to lazy.
        let decayed = 1_000 + EAGER_DECAY_NS + 1;
        assert!(!is_eager_block(&c, &f, 0, decayed));
    }

    #[test]
    fn wb_variant_disables_checker() {
        let c = cfg().wb_only();
        let mut f = FileBuf::new();
        f.bbm.entry(0).or_default().eager = true;
        assert!(!is_eager_block(&c, &f, 0, 100));
    }

    #[test]
    fn mmap_pin_forces_eager() {
        let c = cfg();
        let mut f = FileBuf::new();
        f.mmap_pinned = true;
        assert!(is_eager_block(&c, &f, 42, 0));
    }

    #[test]
    fn evaluation_flips_state_and_tracks_accuracy() {
        let c = cfg();
        let cost = CostModel::default();
        let stats = HinfsStats::new();
        let trace = TraceRing::new(16);
        trace.set_enabled(true);
        let ctx = |now| EvalCtx {
            cfg: &c,
            cost: &cost,
            stats: &stats,
            trace: &trace,
            now,
            ino: 9,
        };
        let mut f = FileBuf::new();
        // Epoch 1: no coalescing -> eager.
        record_write(&mut f, 0, 0xff, true);
        assert!(!evaluate_at_sync(&ctx(100), &mut f, 0, 8));
        assert!(f.bbm[&0].eager);
        // Epoch 2: same behaviour -> still eager, and accurate.
        record_write(&mut f, 0, 0xff, false);
        assert!(!evaluate_at_sync(&ctx(200), &mut f, 0, 8));
        let s = stats.snapshot();
        assert_eq!(s.bbm_evals, 2);
        assert_eq!(s.bbm_accurate, 2);
        // Epoch 3: heavy coalescing -> flips to lazy, inaccurate.
        for _ in 0..100 {
            record_write(&mut f, 0, 0xff, false);
        }
        assert!(evaluate_at_sync(&ctx(300), &mut f, 0, 8));
        assert!(!f.bbm[&0].eager);
        let s = stats.snapshot();
        assert_eq!(s.bbm_evals, 3);
        assert_eq!(s.bbm_accurate, 2, "the flip was a misprediction");
        // Both state changes (lazy->eager at epoch 1, eager->lazy at
        // epoch 3) traced; the accurate epoch-2 eval did not.
        let flips: Vec<_> = trace
            .tail(16)
            .into_iter()
            .map(|r| match r.ev {
                TraceEvent::BbmFlip {
                    ino,
                    iblk,
                    to_lazy,
                    l_dram,
                    l_nvmm,
                    ..
                } => {
                    assert_eq!((ino, iblk), (9, 0));
                    // Decisions are replayable: the model's latency inputs
                    // ride along with each flip.
                    assert_eq!(l_dram, cost.dram_write_latency_ns);
                    assert_eq!(l_nvmm, cost.nvmm_write_latency_ns);
                    to_lazy
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(flips, vec![false, true]);
    }

    #[test]
    fn idle_blocks_keep_state_without_evaluation() {
        let c = cfg();
        let cost = CostModel::default();
        let stats = HinfsStats::new();
        let trace = TraceRing::new(4);
        let mut f = FileBuf::new();
        f.bbm.entry(7).or_default().eager = true;
        let ctx = EvalCtx {
            cfg: &c,
            cost: &cost,
            stats: &stats,
            trace: &trace,
            now: 100,
            ino: 1,
        };
        assert!(!evaluate_at_sync(&ctx, &mut f, 7, 0));
        assert_eq!(stats.snapshot().bbm_evals, 0);
    }

    #[test]
    fn ghost_buffer_accumulates_for_bypassed_blocks() {
        let mut f = FileBuf::new();
        record_write(&mut f, 3, 0b111, false);
        record_write(&mut f, 3, 0b100, false);
        let st = f.bbm.get(&3).unwrap();
        assert_eq!(st.n_cw, 4);
        assert_eq!(st.ghost_dirty, 0b111, "ghost coalesces like a real buffer");
    }
}
