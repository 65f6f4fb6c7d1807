//! The emulated NVMM device.
//!
//! [`NvmmDevice`] is a flat byte array that charges model costs for every
//! access, mirroring the paper's DRAM-backed emulator:
//!
//! - [`NvmmDevice::read`] copies at DRAM speed (plus the optional NVMM read
//!   surcharge, zero by default).
//! - [`NvmmDevice::write_persist`] models a non-temporal (`*_nocache`) copy:
//!   the data is durable on return and every touched cacheline pays the
//!   NVMM write latency through the bandwidth gate.
//! - [`NvmmDevice::write_cached`] is a regular store: DRAM cost only, not
//!   durable until [`NvmmDevice::clflush`] persists the touched lines.
//! - [`NvmmDevice::write_flushed`] is a cached store whose lines are
//!   flushed in the same lock hold (an appended journal entry).
//!
//! Every device tracks its persistence domain (see [`crate::crash`]): the
//! durable bytes of each line a cached store left unflushed. Tests call
//! [`NvmmDevice::crash`] and exercise recovery paths against exactly the
//! bytes that would have survived a power failure.

use std::sync::Arc;

use obsv::{ContentionTable, Phase, Site, SpanTable, TrackedRwLock};

use crate::crash::Shadow;
use crate::fault::{self, BoundaryKind, FaultHook};
use crate::ledger::Cat;
use crate::stats::DeviceStats;
use crate::time::SimEnv;
use crate::{lines_touched, CACHELINE};

/// A byte-addressable emulated NVMM device.
#[derive(Debug)]
pub struct NvmmDevice {
    env: Arc<SimEnv>,
    image: TrackedRwLock<Image>,
    stats: DeviceStats,
    fault: Arc<FaultHook>,
    spans: Arc<SpanTable>,
    len: usize,
}

/// The device's bytes and its persistence domain, under one lock.
#[derive(Debug)]
struct Image {
    bytes: Box<[u8]>,
    /// The durable bytes of the lines a cached store left pending.
    shadow: Shadow,
    /// True until the first store (every byte zero, no line pending).
    never_stored: bool,
}

impl Image {
    fn store(&mut self, off: u64, data: &[u8]) {
        self.never_stored = false;
        self.bytes[off as usize..off as usize + data.len()].copy_from_slice(data);
    }

    /// A cached store: the lines it touches become pending.
    fn store_cached(&mut self, off: u64, data: &[u8]) {
        self.shadow.mark_range(&self.bytes, off, data.len());
        self.store(off, data);
    }

    /// A store that is durable on return: the lines it touches persist.
    fn store_durable(&mut self, off: u64, data: &[u8]) {
        self.store(off, data);
        self.shadow.persist_range(off, data.len());
    }

    /// Power loss: each pending line `keep` picks stays, the rest get their
    /// durable bytes back. Returns how many stayed.
    fn crash(&mut self, keep: impl FnMut(usize) -> bool) -> usize {
        self.never_stored = false;
        self.shadow.crash_into(&mut self.bytes, keep)
    }
}

/// Phase a device *read* charges, by traffic category: journal undo-image
/// reads stay in [`Phase::Journal`], metadata reads in [`Phase::Index`],
/// everything else (user reads, CLFW fetches, writeback reads) is an
/// NVMM→DRAM copy.
fn read_phase(cat: Cat) -> Phase {
    match cat {
        Cat::Journal => Phase::Journal,
        Cat::Meta => Phase::Index,
        _ => Phase::NvmmCopy,
    }
}

/// Phase a durable store (persist / flush) charges, by category.
fn persist_phase(cat: Cat) -> Phase {
    match cat {
        Cat::Journal => Phase::Journal,
        Cat::Meta => Phase::Index,
        _ => Phase::Persist,
    }
}

/// Phase a cached (volatile) store charges, by category.
fn cached_phase(cat: Cat) -> Phase {
    match cat {
        Cat::Journal => Phase::Journal,
        Cat::Meta => Phase::Index,
        _ => Phase::DramCopy,
    }
}

impl NvmmDevice {
    /// Creates a zeroed device of `len` bytes with nothing pending.
    pub fn new(env: Arc<SimEnv>, len: usize) -> Arc<Self> {
        assert!(len > 0, "device must not be empty");
        assert_eq!(len % CACHELINE, 0, "device length must be line-aligned");
        let contention = env.contention().clone();
        let image = Image {
            bytes: vec![0u8; len].into_boxed_slice(),
            shadow: Shadow::default(),
            never_stored: true,
        };
        Arc::new(NvmmDevice {
            image: TrackedRwLock::new(&contention, Site::NvmmDevice, image),
            env,
            stats: DeviceStats::new(),
            fault: FaultHook::new(),
            spans: Arc::new(SpanTable::new(contention.clock().clone())),
            len,
        })
    }

    /// The lock-contention and stall profiler of this device's machine
    /// (the environment's table).
    pub fn contention(&self) -> &Arc<ContentionTable> {
        self.env.contention()
    }

    /// The per-op × per-phase span matrix every access to this device
    /// charges into. Disabled by default (one relaxed load per hook);
    /// file systems mounted on the device share this table so their
    /// software-side phases land in the same matrix.
    pub fn spans(&self) -> &Arc<SpanTable> {
        &self.spans
    }

    /// The fault-injection hook of this device. Installing a
    /// [`fault::FaultPlan`] turns every durable store into an observed
    /// persistence boundary; with no plan the hook costs one relaxed load.
    pub fn fault_hook(&self) -> &Arc<FaultHook> {
        &self.fault
    }

    /// Reports a persistence boundary to the installed fault plan, if any.
    /// Called after the store's effect (image + cost) is applied,
    /// so a crash fired here models power loss *just after* the store.
    #[inline]
    fn fault_boundary(&self, kind: BoundaryKind, off: u64, lines: usize) {
        if let Some(plan) = self.fault.plan() {
            plan.on_boundary(kind, off, lines, self.env.now());
        }
    }

    /// Device capacity in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the device has zero capacity (never true; see [`Self::new`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The simulation environment this device charges time to.
    pub fn env(&self) -> &Arc<SimEnv> {
        &self.env
    }

    /// Traffic counters for this device.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn check(&self, off: u64, len: usize) {
        assert!(
            (off as usize)
                .checked_add(len)
                .is_some_and(|end| end <= self.len),
            "device access out of bounds: off={off} len={len} cap={}",
            self.len
        );
    }

    /// Reads `buf.len()` bytes at `off` into `buf`, charging DRAM copy cost
    /// (and the NVMM read surcharge, zero by default) to `cat`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, cat: Cat, off: u64, buf: &mut [u8]) {
        self.spans.scope(read_phase(cat), || {
            self.check(off, buf.len());
            {
                let image = self.image.read();
                buf.copy_from_slice(&image.bytes[off as usize..off as usize + buf.len()]);
            }
            self.stats.add_read(buf.len() as u64);
            self.env.charge_dram_copy(cat, buf.len());
            let extra = self.env.cost().nvmm_read_extra_ns;
            if extra > 0 {
                self.env
                    .charge(cat, extra * lines_touched(off, buf.len()) as u64);
            }
        })
    }

    /// Writes `data` at `off` with non-temporal stores: durable on return.
    /// Charges the DRAM copy plus the NVMM persist latency (through the
    /// bandwidth gate) to `cat`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_persist(&self, cat: Cat, off: u64, data: &[u8]) {
        self.spans.scope(persist_phase(cat), || {
            self.check(off, data.len());
            self.image.write().store_durable(off, data);
            let lines = lines_touched(off, data.len());
            self.stats.add_written((lines * CACHELINE) as u64);
            obsv::note_bytes(obsv::Layer::NvmmPersisted, (lines * CACHELINE) as u64);
            self.env.charge_dram_copy(cat, data.len());
            self.env.nvmm_persist(cat, lines);
            self.fault_boundary(BoundaryKind::Persist, off, lines);
        })
    }

    /// Writes `data` at `off` with regular (cached) stores: *not* durable
    /// until the touched lines are flushed. Charges DRAM copy cost only.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_cached(&self, cat: Cat, off: u64, data: &[u8]) {
        self.spans.scope(cached_phase(cat), || {
            self.check(off, data.len());
            self.image.write().store_cached(off, data);
            self.stats.add_cached_store(data.len() as u64);
            self.env.charge_dram_copy(cat, data.len());
        })
    }

    /// Flushes the cachelines covering `[off, off+len)` to the persistence
    /// domain. Only the lines actually pending are persisted and charged.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn clflush(&self, cat: Cat, off: u64, len: usize) {
        self.check(off, len);
        if len == 0 {
            return;
        }
        self.spans.scope(persist_phase(cat), || {
            let lines = self.image.write().shadow.persist_range(off, len);
            self.book_flush(cat, off, lines);
        })
    }

    /// [`NvmmDevice::write_cached`] followed by a [`NvmmDevice::clflush`]
    /// of the lines it touched, in one lock hold: the lines never become
    /// pending. Books exactly what the pair books, phases included.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_flushed(&self, cat: Cat, off: u64, data: &[u8]) {
        self.spans.scope(cached_phase(cat), || {
            self.check(off, data.len());
            self.image.write().store_durable(off, data);
            self.stats.add_cached_store(data.len() as u64);
            self.env.charge_dram_copy(cat, data.len());
        });
        if !data.is_empty() {
            self.spans.scope(persist_phase(cat), || {
                self.book_flush(cat, off, lines_touched(off, data.len()))
            })
        }
    }

    /// Books a flush of `lines` pending lines starting at `off`.
    fn book_flush(&self, cat: Cat, off: u64, lines: usize) {
        if lines == 0 {
            return;
        }
        self.stats.add_flush_lines(lines as u64);
        self.stats.add_written((lines * CACHELINE) as u64);
        obsv::note_bytes(obsv::Layer::NvmmPersisted, (lines * CACHELINE) as u64);
        self.env.nvmm_persist(cat, lines);
        self.fault_boundary(BoundaryKind::Flush, off, lines);
    }

    /// Issues a store fence (ordering point).
    pub fn sfence(&self) {
        self.spans.scope(Phase::Fence, || {
            self.stats.add_fence();
            obsv::note_fence();
            self.env.charge_fence();
            self.fault_boundary(BoundaryKind::Fence, 0, 0);
        })
    }

    /// Issues one store fence standing in for `n` logical ordering points
    /// (group commit): the batch pays a single fence latency while the
    /// `n - 1` folded ordering points stay visible in the stats so fence
    /// accounting remains auditable.
    pub fn sfence_coalesced(&self, n: u64) {
        self.spans.scope(Phase::Fence, || {
            self.stats.add_fence();
            if n > 1 {
                self.stats.add_fences_coalesced(n - 1);
            }
            obsv::note_fence();
            self.env.charge_fence();
            self.fault_boundary(BoundaryKind::Fence, 0, 0);
        })
    }

    /// Writes zeroes over `[off, off+len)` with non-temporal stores. On a
    /// never-stored device (all zero) only the byte work is skipped.
    pub fn zero_persist(&self, cat: Cat, off: u64, len: usize) {
        self.check(off, len);
        if len == 0 {
            return;
        }
        self.spans.scope(persist_phase(cat), || {
            {
                let mut image = self.image.write();
                if !image.never_stored {
                    image.bytes[off as usize..off as usize + len].fill(0);
                    image.shadow.persist_range(off, len);
                }
            }
            let lines = lines_touched(off, len);
            self.stats.add_written((lines * CACHELINE) as u64);
            obsv::note_bytes(obsv::Layer::NvmmPersisted, (lines * CACHELINE) as u64);
            self.env.charge_dram_copy(cat, len);
            self.env.nvmm_persist(cat, lines);
            self.fault_boundary(BoundaryKind::Persist, off, lines);
        })
    }

    /// Reads a little-endian `u64` at `off` (must not straddle a cacheline,
    /// which is what makes the hardware access atomic).
    pub fn read_u64(&self, cat: Cat, off: u64) -> u64 {
        assert_eq!(off % 8, 0, "u64 access must be 8-byte aligned");
        let mut b = [0u8; 8];
        self.read(cat, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Atomically persists a little-endian `u64` at `off` (8-byte aligned,
    /// hence within one cacheline; the paper's 8-byte atomic update).
    pub fn write_u64_persist(&self, cat: Cat, off: u64, v: u64) {
        assert_eq!(off % 8, 0, "u64 access must be 8-byte aligned");
        self.write_persist(cat, off, &v.to_le_bytes());
    }

    /// Simulates power loss and restart: every pending line gets its
    /// durable bytes back.
    pub fn crash(&self) {
        self.image.write().crash(|_| false);
    }

    /// Simulates power loss with a *partial* cache eviction: each pending
    /// cacheline independently survives (persists) or is lost, decided by a
    /// deterministic function of `seed` and the line number. Models the
    /// arbitrary order in which dirty cachelines leave a real cache before
    /// the power actually dies, producing torn multi-line states that a
    /// clean [`NvmmDevice::crash`] never shows. Returns how many pending
    /// lines survived.
    pub fn crash_partial(&self, seed: u64) -> usize {
        self.image
            .write()
            .crash(|line| fault::mix(seed, line as u64) & 1 == 0)
    }

    /// Number of cachelines whose latest content has not been persisted.
    pub fn pending_lines(&self) -> usize {
        self.image.read().shadow.pending_lines()
    }

    /// Cost-free read for tests and assertions.
    pub fn peek(&self, off: u64, buf: &mut [u8]) {
        self.check(off, buf.len());
        let image = self.image.read();
        buf.copy_from_slice(&image.bytes[off as usize..off as usize + buf.len()]);
    }

    /// Cost-free durable write for test setup.
    pub fn poke(&self, off: u64, data: &[u8]) {
        self.check(off, data.len());
        self.image.write().store_durable(off, data);
    }
}

impl obsv::Introspect for NvmmDevice {
    fn snapshot(&self) -> obsv::FsSnapshot {
        let s = self.stats.snapshot();
        let led = crate::ledger::snapshot();
        obsv::FsSnapshot {
            system: "nvmm".into(),
            at_ns: self.env.now(),
            device: Some(obsv::DeviceSnap {
                capacity_bytes: self.len as u64,
                bytes_written: s.nvmm_bytes_written,
                bytes_read: s.nvmm_bytes_read,
                flush_lines: s.flush_lines,
                fences: s.fences,
                cached_store_bytes: s.cached_store_bytes,
                ledger_ns: crate::ledger::ALL_CATS
                    .iter()
                    .map(|&c| (c.label().to_string(), led.get(c)))
                    .collect(),
                ledger_total_ns: led.total(),
            }),
            ..obsv::FsSnapshot::default()
        }
    }

    fn audit(&self) -> obsv::AuditReport {
        let mut rep = obsv::AuditReport::new(self.env.now());
        let s = self.stats.snapshot();
        // device.accounting: the media only accepts whole cachelines, so the
        // persisted-byte counter must stay line-aligned.
        rep.check_eq(13, 0, 0, s.nvmm_bytes_written % CACHELINE as u64, 0);
        rep
    }
}

impl obsv::MetricSource for NvmmDevice {
    fn collect(&self, out: &mut dyn obsv::Visitor) {
        obsv::MetricSource::collect(&self.stats, out);
        out.gauge("nvmm_capacity_bytes", self.len as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::crash::reference::TwoImages;
    use crate::ledger;

    fn dev() -> Arc<NvmmDevice> {
        NvmmDevice::new(SimEnv::new_virtual(CostModel::default()), 1 << 16)
    }

    fn never_stored(d: &NvmmDevice) -> bool {
        d.image.read().never_stored
    }

    #[test]
    fn write_persist_roundtrip() {
        let d = dev();
        d.write_persist(Cat::UserWrite, 100, b"hello");
        let mut buf = [0u8; 5];
        d.read(Cat::UserRead, 100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn cached_write_lost_on_crash_until_flushed() {
        let d = dev();
        d.write_cached(Cat::Journal, 0, b"volatile");
        d.write_cached(Cat::Journal, 4096, b"flushed");
        d.clflush(Cat::Journal, 4096, 7);
        d.crash();
        let mut buf = [0u8; 8];
        d.peek(0, &mut buf);
        assert_eq!(&buf, &[0u8; 8], "unflushed line must not survive");
        let mut buf = [0u8; 7];
        d.peek(4096, &mut buf);
        assert_eq!(&buf, b"flushed");
    }

    #[test]
    fn crash_on_a_new_device_restores_durable_bytes() {
        let d = NvmmDevice::new(SimEnv::new_virtual(CostModel::default()), 1 << 16);
        d.write_persist(Cat::Meta, 0, &[1; 64]);
        d.write_cached(Cat::Meta, 32, &[2; 64]);
        d.write_cached(Cat::Meta, 4096, &[3; 8]);
        d.clflush(Cat::Meta, 4096, 8);
        assert_eq!(d.pending_lines(), 2);
        d.crash();
        assert_eq!(d.pending_lines(), 0);
        let mut buf = [0u8; 128];
        d.peek(0, &mut buf);
        assert_eq!(buf[..64], [1; 64], "the persisted line keeps its bytes");
        assert_eq!(buf[64..], [0; 64], "the unflushed store is lost");
        let mut buf = [0u8; 8];
        d.peek(4096, &mut buf);
        assert_eq!(buf, [3; 8], "the flushed store survives");
    }

    #[test]
    fn clflush_of_a_never_written_range_books_nothing() {
        let d = NvmmDevice::new(SimEnv::new_virtual(CostModel::default()), 1 << 16);
        d.env().set_now(0);
        let before = d.stats().snapshot();
        d.clflush(Cat::Journal, 0, 4096);
        assert_eq!(d.stats().snapshot().since(&before).flush_lines, 0);
        assert_eq!(d.env().now(), 0);
    }

    #[test]
    fn persist_survives_crash() {
        let d = dev();
        d.write_persist(Cat::UserWrite, 64, b"durable");
        d.crash();
        let mut buf = [0u8; 7];
        d.peek(64, &mut buf);
        assert_eq!(&buf, b"durable");
    }

    #[test]
    fn stats_count_line_granularity() {
        let d = dev();
        let before = d.stats().snapshot();
        // 5 bytes at offset 62 touch two lines -> 128 media bytes.
        d.write_persist(Cat::UserWrite, 62, &[1, 2, 3, 4, 5]);
        let delta = d.stats().snapshot().since(&before);
        assert_eq!(delta.nvmm_bytes_written, 128);
    }

    #[test]
    fn clflush_only_charges_pending_lines() {
        let d = dev();
        ledger::reset();
        d.env().set_now(0);
        d.write_cached(Cat::Journal, 0, &[1u8; 64]);
        // Flush a 4 KiB range: only the one dirty line persists.
        let before = d.stats().snapshot();
        d.clflush(Cat::Journal, 0, 4096);
        let delta = d.stats().snapshot().since(&before);
        assert_eq!(delta.flush_lines, 1);
        assert_eq!(delta.nvmm_bytes_written, 64);
        // Second flush is a no-op.
        d.clflush(Cat::Journal, 0, 4096);
        assert_eq!(d.stats().snapshot().since(&before).flush_lines, 1);
    }

    #[test]
    fn virtual_time_advances_with_persist() {
        let d = dev();
        d.env().set_now(0);
        d.write_persist(Cat::UserWrite, 0, &[0u8; 4096]);
        let cost = d.env().cost();
        let expect = cost.dram_copy_ns(4096) + cost.nvmm_persist_ns(64);
        assert_eq!(d.env().now(), expect);
    }

    #[test]
    fn read_does_not_pay_nvmm_latency() {
        let d = dev();
        d.env().set_now(0);
        let mut buf = [0u8; 4096];
        d.read(Cat::UserRead, 0, &mut buf);
        assert_eq!(d.env().now(), d.env().cost().dram_copy_ns(4096));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let d = dev();
        let mut buf = [0u8; 8];
        d.read(Cat::UserRead, (1 << 16) - 4, &mut buf);
    }

    #[test]
    fn u64_atomic_roundtrip() {
        let d = dev();
        d.write_u64_persist(Cat::Meta, 128, 0xdead_beef_cafe_f00d);
        assert_eq!(d.read_u64(Cat::Meta, 128), 0xdead_beef_cafe_f00d);
        d.crash();
        assert_eq!(d.read_u64(Cat::Meta, 128), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn zero_persist_clears_range() {
        let d = dev();
        d.write_persist(Cat::UserWrite, 0, &[0xff; 256]);
        d.zero_persist(Cat::Meta, 0, 256);
        let mut buf = [0u8; 256];
        d.peek(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    const AT: u64 = 4096 + 70;

    /// A store path: its name and a call that leaves `0xa5` at `AT`
    /// through it.
    type Store = (&'static str, fn(&NvmmDevice));

    /// Every store path; the crash sites replay a flushed store through
    /// the power loss.
    fn stores() -> [Store; 6] {
        fn flushed(d: &NvmmDevice) {
            d.write_cached(Cat::UserWrite, AT, &[0xa5]);
            d.clflush(Cat::UserWrite, AT, 1);
        }
        [
            ("write_persist", |d| {
                d.write_persist(Cat::UserWrite, AT, &[0xa5])
            }),
            ("write_cached", |d| {
                d.write_cached(Cat::UserWrite, AT, &[0xa5])
            }),
            ("write_flushed", |d| {
                d.write_flushed(Cat::UserWrite, AT, &[0xa5])
            }),
            ("poke", |d| d.poke(AT, &[0xa5])),
            ("crash", |d| {
                flushed(d);
                d.crash();
            }),
            ("crash_partial", |d| {
                flushed(d);
                d.crash_partial(3);
            }),
        ]
    }

    #[test]
    fn zero_persist_clears_after_every_store_path() {
        for (site, store) in stores() {
            let d = dev();
            store(&d);
            assert!(!never_stored(&d), "{site}");
            let mut b = [0u8; 1];
            d.peek(AT, &mut b);
            assert_eq!(b[0], 0xa5, "{site} stored");
            d.zero_persist(Cat::Meta, 4096, 4096);
            d.peek(AT, &mut b);
            assert_eq!(b[0], 0, "{site}");
            assert_eq!(d.pending_lines(), 0, "{site}");
            d.crash();
            d.peek(AT, &mut b);
            assert_eq!(b[0], 0, "{site} after crash");
        }
        // A crash alone clears the flag too.
        for crash in [
            |d: &NvmmDevice| d.crash(),
            |d: &NvmmDevice| _ = d.crash_partial(1),
        ] {
            let d = dev();
            crash(&d);
            assert!(!never_stored(&d));
        }
    }

    #[test]
    fn eliding_the_zeroing_books_every_charge() {
        // `touched` differs only in a zero-valued poke far from the range,
        // which costs nothing but clears the flag.
        let run = |touched: bool| {
            let d = dev();
            if touched {
                d.poke(1 << 15, &[0]);
            }
            let plan = fault::FaultPlan::new();
            d.fault_hook().install(plan.clone());
            ledger::reset();
            d.env().set_now(0);
            d.zero_persist(Cat::Meta, 64, 8192);
            assert_eq!(never_stored(&d), !touched);
            (
                d.env().now(),
                ledger::snapshot(),
                d.stats().snapshot(),
                d.pending_lines(),
                plan.boundaries_seen(),
            )
        };
        let fresh = run(false);
        assert!(fresh.0 > 0 && fresh.4 == 1, "{fresh:?}");
        assert_eq!(fresh, run(true));
    }

    #[test]
    fn spans_attribute_device_time_by_phase() {
        let d = dev();
        d.env().set_now(0);
        ledger::reset();
        d.spans().set_enabled(true);
        let t0 = d.env().now();
        d.write_persist(Cat::UserWrite, 0, &[7u8; 4096]);
        d.sfence();
        let mut buf = [0u8; 4096];
        d.read(Cat::UserRead, 0, &mut buf);
        d.write_persist(Cat::Journal, 8192, &[1u8; 64]);
        let elapsed = d.env().now() - t0;
        let s = d.spans().snapshot();
        // No op context -> the background row; every charged nanosecond
        // lands in exactly one phase and the matrix sums to elapsed time.
        assert!(s.ns[obsv::BG_ROW][Phase::Persist as usize] > 0);
        assert!(s.ns[obsv::BG_ROW][Phase::Fence as usize] > 0);
        assert!(s.ns[obsv::BG_ROW][Phase::NvmmCopy as usize] > 0);
        assert!(s.ns[obsv::BG_ROW][Phase::Journal as usize] > 0);
        assert_eq!(s.grand_total(), elapsed);
        // Disabled table stays silent.
        d.spans().set_enabled(false);
        let before = d.spans().snapshot();
        d.sfence();
        assert_eq!(d.spans().snapshot(), before);
    }

    #[test]
    fn write_flushed_books_what_the_pair_books() {
        // Each call leaves the same bytes through one of the two paths;
        // the second store lands on a line already pending.
        let run = |pair: bool| {
            let d = dev();
            d.write_cached(Cat::Meta, 64 + 8, &[9; 8]);
            let plan = fault::FaultPlan::new();
            d.fault_hook().install(plan.clone());
            plan.start_recording();
            d.spans().set_enabled(true);
            ledger::reset();
            d.env().set_now(0);
            for (cat, off, len) in [(Cat::Journal, 4096, 64), (Cat::Meta, 60, 16)] {
                let data = vec![0x5a; len];
                if pair {
                    d.write_cached(cat, off, &data);
                    d.clflush(cat, off, len);
                } else {
                    d.write_flushed(cat, off, &data);
                }
            }
            let mut bytes = vec![0u8; 8192];
            d.peek(0, &mut bytes);
            (
                d.env().now(),
                ledger::snapshot(),
                d.stats().snapshot(),
                d.spans().snapshot(),
                plan.stop_recording(),
                d.pending_lines(),
                bytes,
            )
        };
        let flushed = run(false);
        assert_eq!(flushed.5, 0, "nothing left pending");
        assert_eq!(flushed.4.len(), 2, "one flush boundary per store");
        assert_eq!(flushed, run(true));
    }

    /// The device against [`TwoImages`] — the volatile/persistent pair
    /// the map replaced — over seeded random operations: after every step
    /// the images, the pending count and the image a crash would leave
    /// agree, and so does every flush's line count.
    #[test]
    fn differential_against_two_images() {
        const LEN: usize = 4096;
        let durable_image = |d: &NvmmDevice| {
            let image = d.image.read();
            image.shadow.durable_image(&image.bytes)
        };
        for seed in 0..64 {
            let d = NvmmDevice::new(SimEnv::new_virtual(CostModel::default()), LEN);
            let mut r = TwoImages::new(LEN);
            let mut n = 0;
            let mut next = |m: u64| {
                n += 1;
                fault::mix(seed, n) % m
            };
            for step in 0..400 {
                let len = next(200) as usize;
                let off = next((LEN - len) as u64 + 1);
                let data: Vec<u8> = (0..len).map(|_| next(255) as u8 + 1).collect();
                let op = next(9);
                match op {
                    0 | 1 => {
                        d.write_cached(Cat::UserWrite, off, &data);
                        r.write_cached(off, &data);
                    }
                    2 => {
                        d.write_persist(Cat::UserWrite, off, &data);
                        r.write_persist(off, &data);
                    }
                    3 => {
                        d.write_flushed(Cat::UserWrite, off, &data);
                        r.write_cached(off, &data);
                        r.clflush(off, len);
                    }
                    4 => {
                        d.zero_persist(Cat::Meta, off, len);
                        r.write_persist(off, &vec![0; len]);
                    }
                    5 => {
                        d.poke(off, &data);
                        r.write_persist(off, &data);
                    }
                    6 => {
                        let before = d.stats().snapshot().flush_lines;
                        d.clflush(Cat::UserWrite, off, len);
                        let lines = r.clflush(off, len) as u64;
                        assert_eq!(d.stats().snapshot().flush_lines - before, lines);
                    }
                    7 => {
                        d.crash();
                        r.crash(|_| false);
                    }
                    _ => {
                        let coin = next(1 << 20);
                        let kept = d.crash_partial(coin);
                        let want = r.crash(|line| fault::mix(coin, line as u64) & 1 == 0);
                        assert_eq!(kept, want, "seed {seed} step {step}");
                    }
                }
                let at = format!("seed {seed} step {step} op {op}");
                assert_eq!(d.pending_lines(), r.pending.len(), "{at}");
                let mut bytes = vec![0u8; LEN];
                d.peek(0, &mut bytes);
                assert!(bytes == r.volatile, "volatile image differs: {at}");
                assert!(
                    durable_image(&d) == r.persistent,
                    "durable image differs: {at}"
                );
            }
        }
    }
}
