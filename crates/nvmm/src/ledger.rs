//! Per-thread time accounting, used to regenerate the paper's breakdown
//! figures.
//!
//! Every model cost charged through [`crate::SimEnv`] is attributed to a
//! [`Cat`] in a thread-local [`Ledger`]. The experiment runner snapshots the
//! ledger around each file system call; the difference tells it where the
//! time of that call went. Fig 1 groups these categories into *Read Access*
//! ([`Cat::UserRead`]), *Write Access* ([`Cat::UserWrite`]) and *Others*
//! (everything else).

use std::cell::RefCell;

/// Where a unit of simulated time was spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Cat {
    /// Copying file data from DRAM/NVMM to the user buffer (read path).
    UserRead = 0,
    /// Copying file data from the user buffer to DRAM/NVMM, including the
    /// NVMM persist latency on the direct path (write path).
    UserWrite = 1,
    /// Fetching data from NVMM into a buffer/page cache (fetch-before-write
    /// and read-miss fills).
    Fetch = 2,
    /// Writing dirty buffer/page-cache data back to NVMM.
    Writeback = 3,
    /// Journal (undo log) writes, commits and recovery work.
    Journal = 4,
    /// Metadata reads/writes outside the journal: inodes, bitmaps,
    /// directories, block index trees.
    Meta = 5,
    /// Fixed per-call software overhead (mode switch, fd lookup, ...).
    Syscall = 6,
    /// Store fences.
    Fence = 7,
    /// Generic block layer / request queue / driver overhead.
    BlockLayer = 8,
    /// Anything else.
    Other = 9,
}

/// Number of [`Cat`] variants.
pub const NCATS: usize = 10;

/// All categories, in discriminant order.
pub const ALL_CATS: [Cat; NCATS] = [
    Cat::UserRead,
    Cat::UserWrite,
    Cat::Fetch,
    Cat::Writeback,
    Cat::Journal,
    Cat::Meta,
    Cat::Syscall,
    Cat::Fence,
    Cat::BlockLayer,
    Cat::Other,
];

impl Cat {
    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Cat::UserRead => "read-access",
            Cat::UserWrite => "write-access",
            Cat::Fetch => "fetch",
            Cat::Writeback => "writeback",
            Cat::Journal => "journal",
            Cat::Meta => "meta",
            Cat::Syscall => "syscall",
            Cat::Fence => "fence",
            Cat::BlockLayer => "block-layer",
            Cat::Other => "other",
        }
    }
}

/// Accumulated nanoseconds per category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ledger {
    ns: [u64; NCATS],
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `ns` nanoseconds to `cat`.
    pub fn add(&mut self, cat: Cat, ns: u64) {
        self.ns[cat as usize] += ns;
    }

    /// Nanoseconds accumulated for `cat`.
    pub fn get(&self, cat: Cat) -> u64 {
        self.ns[cat as usize]
    }

    /// Total nanoseconds across all categories.
    pub fn total(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Nanoseconds in every category other than `UserRead` and `UserWrite`;
    /// the paper's "Others" bucket in Fig 1.
    pub fn others(&self) -> u64 {
        self.total() - self.get(Cat::UserRead) - self.get(Cat::UserWrite)
    }

    /// Per-category difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        let mut out = Ledger::new();
        for i in 0..NCATS {
            out.ns[i] = self.ns[i].saturating_sub(earlier.ns[i]);
        }
        out
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &Ledger) {
        for i in 0..NCATS {
            self.ns[i] += other.ns[i];
        }
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::new());
}

/// Adds `ns` to `cat` in the current thread's ledger, and books it to
/// the observer's innermost open span ([`obsv::note_charge`]): every
/// modelled nanosecond is counted here, once.
pub fn add(cat: Cat, ns: u64) {
    LEDGER.with(|l| l.borrow_mut().add(cat, ns));
    obsv::note_charge(ns);
}

/// Returns a copy of the current thread's ledger.
pub fn snapshot() -> Ledger {
    LEDGER.with(|l| *l.borrow())
}

/// Resets the current thread's ledger to empty.
pub fn reset() {
    LEDGER.with(|l| *l.borrow_mut() = Ledger::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut l = Ledger::new();
        l.add(Cat::UserWrite, 100);
        l.add(Cat::UserWrite, 50);
        l.add(Cat::Syscall, 7);
        assert_eq!(l.get(Cat::UserWrite), 150);
        assert_eq!(l.get(Cat::Syscall), 7);
        assert_eq!(l.total(), 157);
        assert_eq!(l.others(), 7);
    }

    #[test]
    fn since_computes_delta() {
        let mut a = Ledger::new();
        a.add(Cat::UserRead, 10);
        let mut b = a;
        b.add(Cat::UserRead, 5);
        b.add(Cat::Journal, 3);
        let d = b.since(&a);
        assert_eq!(d.get(Cat::UserRead), 5);
        assert_eq!(d.get(Cat::Journal), 3);
        assert_eq!(d.total(), 8);
    }

    #[test]
    fn thread_local_roundtrip() {
        reset();
        add(Cat::Fence, 15);
        add(Cat::Fence, 15);
        assert_eq!(snapshot().get(Cat::Fence), 30);
        reset();
        assert_eq!(snapshot().total(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Ledger::new();
        a.add(Cat::Meta, 1);
        let mut b = Ledger::new();
        b.add(Cat::Meta, 2);
        b.add(Cat::Other, 4);
        a.merge(&b);
        assert_eq!(a.get(Cat::Meta), 3);
        assert_eq!(a.get(Cat::Other), 4);
    }

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in ALL_CATS {
            assert!(seen.insert(c.label()));
        }
    }
}
