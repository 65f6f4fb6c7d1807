//! Per-file block index: a 512-ary radix B-tree of 4 KiB nodes, as in PMFS.
//!
//! Every node is one device block holding 512 little-endian `u64` slots; a
//! slot is an absolute block number or 0 for absent. A tree of height `h`
//! maps file block indices `0 .. 512^h`. Pointer updates are 8-byte atomic
//! persists, so linking a (fully written) new node or leaf block into the
//! tree never needs journaling; only the inode's `tree_root`/`tree_height`
//! fields do, and those ride in the caller's inode transaction.
//!
//! The unit of both mutations is the **run** of consecutive file blocks:
//! [`insert_run`] descends once per leaf and persists the run's pointers a
//! cacheline at a time (any subset of those lines is a valid tree, since
//! each pointer links a block the caller filled and fenced beforehand);
//! [`remove_from`] zeroes the freed tail of a surviving node as one run
//! and hands back every node it emptied, untouched (it is unreachable once
//! its parent's pointer — or the inode's root — is gone), as [`Emptied`].
//!
//! **Zero on free, not on allocation.** A new node must be all holes, and
//! PMFS gets there by zeroing 4 KiB when it allocates one — on the
//! critical path of the first write or fsync of every file. An emptied
//! node is all holes but for the span of slots it used, which
//! [`remove_from`] has just read: once the freeing transaction has
//! committed, [`Emptied::recycle`] wipes that span only and parks the node
//! in the allocator's zeroed pool ([`crate::alloc`]), where `new_node`
//! finds it. Not before the commit — a rollback would resurrect an inode
//! whose root had been wiped. The pool is volatile: after a crash a parked
//! node is an unreachable block like any other.
//!
//! | operation | persists | fences |
//! |---|---|---|
//! | `insert_run`, per leaf the run touches | 1 per pointer cacheline (8 pointers) | 1 |
//! | …per interior/leaf node it has to create | 1 pointer, + 1 node zeroing unless a recycled node is parked | 1 |
//! | `remove_from`, per surviving node it cuts | 1 zeroing run | 1 |
//! | …per emptied node | 0 (the parent's run covers its pointer) | 0 |
//! | `Emptied::recycle`, per emptied node (pool has room) | 1 zeroing run over its occupied span | 1 for the lot |
//!
//! Crash windows leak at most *unreachable* blocks, which the mount-time
//! allocator rebuild walk reclaims (see [`crate::alloc`]).

use fskit::{FsError, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE, CACHELINE};

use crate::alloc::{Allocator, Reserved};
use crate::inode::InodeMem;
use crate::layout::Layout;

/// Pointers per node.
pub const FANOUT: u64 = (BLOCK_SIZE / 8) as u64;

/// Pointers per cacheline.
const PTRS_PER_LINE: u64 = (CACHELINE / 8) as u64;

/// Number of file blocks addressable by a tree of `height`.
pub fn capacity(height: u32) -> u64 {
    FANOUT.saturating_pow(height)
}

fn slot_off(node: u64, slot: u64) -> u64 {
    Layout::block_off(node) + slot * 8
}

/// Index of the slot for `iblk` at `level`, where `level == height` is the
/// root and `level == 1` is the leaf.
fn slot_at(iblk: u64, level: u32) -> u64 {
    (iblk >> (9 * (level - 1))) & (FANOUT - 1)
}

/// The node at `level` on the path to `iblk`, or `None` where the path
/// ends in a hole (or the tree is too short). `read_ptr` reads the pointer
/// at a device offset.
fn node_at(read_ptr: impl Fn(u64) -> u64, mem: &InodeMem, iblk: u64, level: u32) -> Option<u64> {
    if mem.tree_root == 0 || iblk >= capacity(mem.tree_height) {
        return None;
    }
    let mut node = mem.tree_root;
    for l in (level + 1..=mem.tree_height).rev() {
        node = read_ptr(slot_off(node, slot_at(iblk, l)));
        if node == 0 {
            return None;
        }
    }
    Some(node)
}

/// The charged pointer read every file-system path descends with.
fn read_ptr(dev: &NvmmDevice) -> impl Fn(u64) -> u64 + '_ {
    |off| dev.read_u64(Cat::Meta, off)
}

/// Looks up the physical block for file block `iblk`, or `None` for a hole.
pub fn lookup(dev: &NvmmDevice, mem: &InodeMem, iblk: u64) -> Option<u64> {
    node_at(read_ptr(dev), mem, iblk, 0)
}

/// [`lookup`] for the invariant auditor: reads through
/// [`NvmmDevice::peek`], so it charges no time and moves no counter.
pub fn lookup_uncharged(dev: &NvmmDevice, mem: &InodeMem, iblk: u64) -> Option<u64> {
    let peek_ptr = |off| {
        let mut b = [0u8; 8];
        dev.peek(off, &mut b);
        u64::from_le_bytes(b)
    };
    node_at(peek_ptr, mem, iblk, 0)
}

/// Reads slots `[slot, slot + out.len())` of `node` in one device access.
fn read_slots(dev: &NvmmDevice, node: u64, slot: u64, out: &mut [u64]) {
    let mut raw = [0u8; BLOCK_SIZE];
    let raw = &mut raw[..out.len() * 8];
    dev.read(Cat::Meta, slot_off(node, slot), raw);
    for (v, b) in out.iter_mut().zip(raw.chunks_exact(8)) {
        let mut le = [0u8; 8];
        le.copy_from_slice(b);
        *v = u64::from_le_bytes(le);
    }
}

/// A node of 512 holes from `r`: a recycled one as it is, a fresh block
/// zeroed here.
fn new_node(dev: &NvmmDevice, alloc: &Allocator, r: &mut Reserved) -> u64 {
    let (b, zeroed) = alloc.alloc_reserved(r, true);
    if !zeroed {
        dev.zero_persist(Cat::Meta, Layout::block_off(b), BLOCK_SIZE);
    }
    b
}

/// New tree nodes that mapping the file blocks `iblks` into `mem`'s tree
/// can take, at most: the roots that grow the tree to cover them, and
/// on each level below the root every node whose span meets them.
pub fn nodes_bound(mem: &InodeMem, iblks: &std::ops::Range<u64>) -> u64 {
    if iblks.is_empty() {
        return 0;
    }
    let last = iblks.end - 1;
    let mut height = mem.tree_height.max(1);
    while last >= capacity(height) {
        height += 1;
    }
    let spans: u64 = (1..height)
        .map(|level| (last >> (9 * level)) - (iblks.start >> (9 * level)) + 1)
        .sum();
    spans + (height - mem.tree_height) as u64
}

/// Splits the run `[iblk0, iblk0 + n)` at leaf boundaries into
/// `(first iblk, length)` segments.
fn leaf_segments(iblk0: u64, n: usize) -> impl Iterator<Item = (u64, usize)> {
    let end = iblk0 + n as u64;
    let mut at = iblk0;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let len = (end - at).min(FANOUT - slot_at(at, 1));
            let seg = (at, len as usize);
            at += len;
            seg
        })
    })
}

/// Maps the consecutive file blocks `iblk0, iblk0 + 1, …` to `pblks`,
/// growing the tree with nodes drawn from `r` ([`nodes_bound`] sized
/// it): one descent and one fence per leaf, one persist per pointer
/// cacheline. The caller has filled and fenced the blocks (a pointer
/// makes its block reachable the moment it persists). Updates
/// `mem.tree_root`/`mem.tree_height` in memory; the caller persists the
/// inode core through its journal transaction.
///
/// Fails with [`FsError::AlreadyExists`], before linking anything, if a
/// slot of the run is occupied (callers overwrite in place instead of
/// remapping).
pub fn insert_run(
    dev: &NvmmDevice,
    alloc: &Allocator,
    r: &mut Reserved,
    mem: &mut InodeMem,
    iblk0: u64,
    pblks: &[u64],
) -> Result<()> {
    debug_assert!(pblks.iter().all(|&p| p != 0));
    let mut slots = [0u64; FANOUT as usize];
    for (iblk, len) in leaf_segments(iblk0, pblks.len()) {
        if let Some(leaf) = node_at(read_ptr(dev), mem, iblk, 1) {
            let slots = &mut slots[..len];
            read_slots(dev, leaf, slot_at(iblk, 1), slots);
            if slots.iter().any(|&p| p != 0) {
                return Err(FsError::AlreadyExists);
            }
        }
    }
    let mut linked = 0;
    for (iblk, len) in leaf_segments(iblk0, pblks.len()) {
        let leaf = leaf_for(dev, alloc, r, mem, iblk);
        // The segment's pointers, one persist per cacheline they touch.
        let first = slot_at(iblk, 1);
        let mut line = [0u8; CACHELINE];
        let mut at = 0;
        while at < len {
            let slot = first + at as u64;
            let n = (len - at).min((PTRS_PER_LINE - slot % PTRS_PER_LINE) as usize);
            for (b, p) in line.chunks_exact_mut(8).zip(&pblks[linked + at..][..n]) {
                b.copy_from_slice(&p.to_le_bytes());
            }
            dev.write_persist(Cat::Meta, slot_off(leaf, slot), &line[..n * 8]);
            at += n;
        }
        dev.sfence();
        linked += len;
    }
    Ok(())
}

/// The leaf node covering `iblk`, growing the tree and creating the
/// interior nodes on the way as needed (each new node is zeroed, then
/// linked with an 8-byte persist and a fence).
fn leaf_for(
    dev: &NvmmDevice,
    alloc: &Allocator,
    r: &mut Reserved,
    mem: &mut InodeMem,
    iblk: u64,
) -> u64 {
    while mem.tree_root == 0 || iblk >= capacity(mem.tree_height) {
        let root = new_node(dev, alloc, r);
        if mem.tree_root != 0 {
            // Old tree becomes child 0 of the new root.
            dev.write_u64_persist(Cat::Meta, slot_off(root, 0), mem.tree_root);
            dev.sfence();
        }
        mem.tree_root = root;
        mem.tree_height += 1;
    }
    let mut node = mem.tree_root;
    for level in (2..=mem.tree_height).rev() {
        let off = slot_off(node, slot_at(iblk, level));
        let mut child = dev.read_u64(Cat::Meta, off);
        if child == 0 {
            child = new_node(dev, alloc, r);
            dev.write_u64_persist(Cat::Meta, off, child);
            dev.sfence();
        }
        node = child;
    }
    node
}

/// Maps the single file block `iblk` to `pblk` ([`insert_run`] of one),
/// reserving the nodes it takes.
pub fn insert(
    dev: &NvmmDevice,
    alloc: &Allocator,
    mem: &mut InodeMem,
    iblk: u64,
    pblk: u64,
) -> Result<()> {
    let mut r = alloc.reserve(nodes_bound(mem, &(iblk..iblk + 1)))?;
    let linked = insert_run(dev, alloc, &mut r, mem, iblk, &[pblk]);
    alloc.unreserve(r);
    linked
}

/// Calls `f(iblk, pblk)` for every mapped block, ascending.
pub fn for_each(dev: &NvmmDevice, mem: &InodeMem, f: &mut impl FnMut(u64, u64)) {
    if mem.tree_root != 0 {
        walk(dev, mem.tree_root, mem.tree_height, 0, f);
    }
}

fn walk(dev: &NvmmDevice, node: u64, level: u32, base: u64, f: &mut impl FnMut(u64, u64)) {
    let span = capacity(level - 1);
    for slot in 0..FANOUT {
        let p = dev.read_u64(Cat::Meta, slot_off(node, slot));
        if p == 0 {
            continue;
        }
        if level == 1 {
            f(base + slot, p);
        } else {
            walk(dev, p, level - 1, base + slot * span, f);
        }
    }
}

/// Calls `mark(pblk)` for every block owned by the tree: interior nodes,
/// the root, and data blocks. Used by the allocator rebuild walk.
pub fn mark_all(dev: &NvmmDevice, mem: &InodeMem, mark: &mut impl FnMut(u64)) {
    if mem.tree_root == 0 {
        return;
    }
    mark_walk(dev, mem.tree_root, mem.tree_height, mark);
}

fn mark_walk(dev: &NvmmDevice, node: u64, level: u32, mark: &mut impl FnMut(u64)) {
    mark(node);
    if level == 0 {
        return;
    }
    if level == 1 {
        // `node` is a leaf node: mark its data blocks.
        for slot in 0..FANOUT {
            let p = dev.read_u64(Cat::Meta, slot_off(node, slot));
            if p != 0 {
                mark(p);
            }
        }
        return;
    }
    for slot in 0..FANOUT {
        let p = dev.read_u64(Cat::Meta, slot_off(node, slot));
        if p != 0 {
            mark_walk(dev, p, level - 1, mark);
        }
    }
}

/// Index nodes [`remove_from`] emptied, each with the slot span
/// `[first, end)` that still holds its stale pointers. They stay allocated,
/// out of everyone's reach, until the caller settles them: once the
/// transaction that cut them off their inode has committed,
/// [`crate::Pmfs::commit_recycling`] wipes the spans and parks the nodes
/// pre-zeroed for the next new node; dropped — an abort, an error — they
/// are freed as they are.
#[must_use = "recycle after the commit; dropping frees the nodes un-zeroed"]
pub struct Emptied<'a> {
    alloc: &'a Allocator,
    nodes: Vec<(u64, u64, u64)>,
}

impl<'a> Emptied<'a> {
    /// No nodes (the tree lost none).
    pub(crate) fn none(alloc: &'a Allocator) -> Self {
        Emptied {
            alloc,
            nodes: Vec::new(),
        }
    }

    /// Wipes each node's span (one persist per node, one fence for the
    /// lot) and parks the nodes in the allocator's zeroed pool; a node
    /// whose pool is full is freed untouched. Only after the commit that
    /// made the nodes unreachable: rolled back, the inode would own them
    /// again, wiped.
    pub(crate) fn recycle(mut self, dev: &NvmmDevice) {
        let mut wiped = Vec::new();
        for (node, first, end) in std::mem::take(&mut self.nodes) {
            if self.alloc.zeroed_has_room(node) {
                let len = ((end - first) * 8) as usize;
                dev.zero_persist(Cat::Meta, slot_off(node, first), len);
                wiped.push(node);
            } else {
                self.alloc.free(node);
            }
        }
        if !wiped.is_empty() {
            dev.sfence();
        }
        for node in wiped {
            self.alloc.park_zeroed(node);
        }
    }
}

impl Drop for Emptied<'_> {
    fn drop(&mut self) {
        for &(node, ..) in &self.nodes {
            self.alloc.free(node);
        }
    }
}

/// Unmaps and frees every data block with file index `>= from_iblk`.
/// Returns the number of *data* blocks freed and the interior nodes that
/// became empty, and updates `mem` (root/height may drop to zero).
pub fn remove_from<'a>(
    dev: &NvmmDevice,
    alloc: &'a Allocator,
    mem: &mut InodeMem,
    from_iblk: u64,
) -> (u64, Emptied<'a>) {
    let mut freed = 0;
    let mut emptied = Emptied::none(alloc);
    if mem.tree_root != 0
        && prune(
            dev,
            &mut emptied,
            mem.tree_root,
            mem.tree_height,
            0,
            from_iblk,
            &mut freed,
        )
    {
        mem.tree_root = 0;
        mem.tree_height = 0;
    }
    (freed, emptied)
}

/// Prunes `node` (at `level`, covering file blocks starting at `base`);
/// returns true if the node is now empty: it is in `out` and the caller
/// drops its pointer.
///
/// The slots the node loses form one run (everything from the cut on):
/// a surviving node zeroes it with a single persist, an emptied node is
/// left as it is — nothing reaches it once the caller drops its pointer.
fn prune(
    dev: &NvmmDevice,
    out: &mut Emptied,
    node: u64,
    level: u32,
    base: u64,
    from: u64,
    freed: &mut u64,
) -> bool {
    let span = capacity(level - 1);
    let mut slots = [0u64; FANOUT as usize];
    read_slots(dev, node, 0, &mut slots);
    let mut any_left = false;
    // Slots cleared by this call: `[first, end)`.
    let (mut first, mut end) = (0, 0);
    for (slot, &p) in (0..FANOUT).zip(&slots) {
        if p == 0 {
            continue;
        }
        let lo = base + slot * span;
        if lo + span <= from {
            any_left = true;
            continue;
        }
        if level == 1 {
            *freed += 1;
            out.alloc.free(p);
        } else if !prune(dev, out, p, level - 1, lo, from, freed) {
            // Straddles the boundary and keeps something.
            any_left = true;
            continue;
        }
        if end == 0 {
            first = slot;
        }
        end = slot + 1;
    }
    if !any_left {
        out.nodes.push((node, first, end));
    } else if end > first {
        dev.zero_persist(
            Cat::Meta,
            slot_off(node, first),
            ((end - first) * 8) as usize,
        );
        dev.sfence();
    }
    !any_left
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`super::insert_run`] under a reservation of the nodes it can
    /// take; the blocks linked.
    fn insert_run(
        dev: &NvmmDevice,
        alloc: &Allocator,
        mem: &mut InodeMem,
        iblk0: u64,
        pblks: &[u64],
    ) -> Result<usize> {
        let mut r = alloc.reserve(nodes_bound(mem, &(iblk0..iblk0 + pblks.len() as u64)))?;
        let linked = super::insert_run(dev, alloc, &mut r, mem, iblk0, pblks);
        alloc.unreserve(r);
        linked.map(|()| pblks.len())
    }
    use crate::layout::Layout;
    use fskit::FileType;
    use nvmm::{CostModel, SimEnv};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn setup() -> (Arc<NvmmDevice>, Allocator, InodeMem) {
        let blocks = 8192u64;
        let dev = NvmmDevice::new(
            SimEnv::new_virtual(CostModel::default()),
            blocks as usize * BLOCK_SIZE,
        );
        let layout = Layout::compute(blocks, 16, 128).unwrap();
        let alloc = Allocator::new_empty(&layout, dev.contention());
        let mem = InodeMem::new(FileType::File, 0);
        (dev, alloc, mem)
    }

    #[test]
    fn empty_tree_lookups_are_holes() {
        let (dev, _alloc, mem) = setup();
        assert_eq!(lookup(&dev, &mem, 0), None);
        assert_eq!(lookup(&dev, &mem, 12345), None);
    }

    #[test]
    fn insert_lookup_single_level() {
        let (dev, alloc, mut mem) = setup();
        let b = alloc.alloc().unwrap();
        insert(&dev, &alloc, &mut mem, 0, b).unwrap();
        assert_eq!(mem.tree_height, 1);
        assert_eq!(lookup(&dev, &mem, 0), Some(b));
        assert_eq!(lookup(&dev, &mem, 1), None);
    }

    #[test]
    fn tree_grows_to_multiple_levels() {
        let (dev, alloc, mut mem) = setup();
        let b0 = alloc.alloc().unwrap();
        insert(&dev, &alloc, &mut mem, 0, b0).unwrap();
        // Block 600 needs height 2; block 300000 needs height 3.
        let b1 = alloc.alloc().unwrap();
        insert(&dev, &alloc, &mut mem, 600, b1).unwrap();
        assert_eq!(mem.tree_height, 2);
        let b2 = alloc.alloc().unwrap();
        insert(&dev, &alloc, &mut mem, 300_000, b2).unwrap();
        assert_eq!(mem.tree_height, 3);
        assert_eq!(
            lookup(&dev, &mem, 0),
            Some(b0),
            "old mapping survives growth"
        );
        assert_eq!(lookup(&dev, &mem, 600), Some(b1));
        assert_eq!(lookup(&dev, &mem, 300_000), Some(b2));
        assert_eq!(lookup(&dev, &mem, 300_001), None);
    }

    #[test]
    fn double_insert_rejected() {
        let (dev, alloc, mut mem) = setup();
        let b = alloc.alloc().unwrap();
        insert(&dev, &alloc, &mut mem, 7, b).unwrap();
        let b2 = alloc.alloc().unwrap();
        assert_eq!(
            insert(&dev, &alloc, &mut mem, 7, b2),
            Err(FsError::AlreadyExists)
        );
    }

    #[test]
    fn for_each_ascending() {
        let (dev, alloc, mut mem) = setup();
        let idxs = [0u64, 3, 511, 512, 1024, 5000];
        for &i in &idxs {
            let b = alloc.alloc().unwrap();
            insert(&dev, &alloc, &mut mem, i, b).unwrap();
        }
        let mut seen = Vec::new();
        for_each(&dev, &mem, &mut |iblk, pblk| {
            assert_ne!(pblk, 0);
            seen.push(iblk);
        });
        assert_eq!(seen, idxs);
    }

    #[test]
    fn remove_from_truncates_and_frees() {
        let (dev, alloc, mut mem) = setup();
        let before = alloc.free_blocks();
        for i in 0..600u64 {
            let b = alloc.alloc().unwrap();
            insert(&dev, &alloc, &mut mem, i, b).unwrap();
        }
        let freed = remove_from(&dev, &alloc, &mut mem, 100).0;
        assert_eq!(freed, 500);
        assert_eq!(lookup(&dev, &mem, 99), lookup(&dev, &mem, 99));
        assert!(lookup(&dev, &mem, 99).is_some());
        assert_eq!(lookup(&dev, &mem, 100), None);
        assert_eq!(lookup(&dev, &mem, 599), None);
        // Full removal returns every block (data + nodes).
        let freed2 = remove_from(&dev, &alloc, &mut mem, 0).0;
        assert_eq!(freed2, 100);
        assert_eq!(mem.tree_root, 0);
        assert_eq!(mem.tree_height, 0);
        assert_eq!(alloc.free_blocks(), before, "no leaked blocks");
    }

    #[test]
    fn mark_all_covers_nodes_and_data() {
        let (dev, alloc, mut mem) = setup();
        let before = alloc.free_blocks();
        for i in [0u64, 513, 1025] {
            let b = alloc.alloc().unwrap();
            insert(&dev, &alloc, &mut mem, i, b).unwrap();
        }
        let allocated = before - alloc.free_blocks();
        let mut marked = 0u64;
        mark_all(&dev, &mem, &mut |_p| marked += 1);
        assert_eq!(marked, allocated, "walk sees exactly the allocated blocks");
    }

    #[test]
    fn remove_from_middle_of_subtree() {
        let (dev, alloc, mut mem) = setup();
        for i in 0..1024u64 {
            let b = alloc.alloc().unwrap();
            insert(&dev, &alloc, &mut mem, i, b).unwrap();
        }
        let freed = remove_from(&dev, &alloc, &mut mem, 700).0;
        assert_eq!(freed, 324);
        assert!(lookup(&dev, &mem, 699).is_some());
        assert_eq!(lookup(&dev, &mem, 700), None);
        // Height unchanged (lazy shrink) but mappings correct.
        assert!(lookup(&dev, &mem, 0).is_some());
    }

    // ----- run operations against the per-block reference -----

    /// The per-block insert `insert_run` replaced, kept as the reference:
    /// one descent, one 8-byte persist and one fence per block.
    fn ref_insert(
        dev: &NvmmDevice,
        alloc: &Allocator,
        mem: &mut InodeMem,
        iblk: u64,
        pblk: u64,
    ) -> Result<()> {
        let mut r = alloc.reserve(nodes_bound(mem, &(iblk..iblk + 1)))?;
        let leaf = leaf_for(dev, alloc, &mut r, mem, iblk);
        alloc.unreserve(r);
        let off = slot_off(leaf, slot_at(iblk, 1));
        if dev.read_u64(Cat::Meta, off) != 0 {
            return Err(FsError::AlreadyExists);
        }
        dev.write_u64_persist(Cat::Meta, off, pblk);
        dev.sfence();
        Ok(())
    }

    /// The per-slot unmap `prune` replaced: every freed slot zeroed with
    /// its own persist, emptied nodes included.
    fn ref_remove_from(dev: &NvmmDevice, alloc: &Allocator, mem: &mut InodeMem, from: u64) -> u64 {
        fn go(
            dev: &NvmmDevice,
            alloc: &Allocator,
            node: u64,
            level: u32,
            base: u64,
            from: u64,
            freed: &mut u64,
        ) -> bool {
            let span = capacity(level - 1);
            let mut any_left = false;
            for slot in 0..FANOUT {
                let off = slot_off(node, slot);
                let p = dev.read_u64(Cat::Meta, off);
                let lo = base + slot * span;
                if p == 0 {
                    continue;
                }
                if lo + span <= from {
                    any_left = true;
                } else if level == 1 {
                    *freed += 1;
                    dev.write_u64_persist(Cat::Meta, off, 0);
                    alloc.free(p);
                } else if go(dev, alloc, p, level - 1, lo, from.max(lo), freed) {
                    dev.write_u64_persist(Cat::Meta, off, 0);
                    alloc.free(p);
                } else {
                    any_left = true;
                }
            }
            !any_left
        }
        if mem.tree_root == 0 {
            return 0;
        }
        let mut freed = 0;
        if go(
            dev,
            alloc,
            mem.tree_root,
            mem.tree_height,
            0,
            from,
            &mut freed,
        ) {
            alloc.free(mem.tree_root);
            mem.tree_root = 0;
            mem.tree_height = 0;
        }
        freed
    }

    /// Everything a caller can observe of a tree: the mappings, the
    /// blocks the rebuild walk would mark, the height and the allocator's
    /// free count.
    type Observed = (Vec<(u64, u64)>, Vec<u64>, u32, u64);

    fn observe(dev: &NvmmDevice, alloc: &Allocator, mem: &InodeMem) -> Observed {
        let mut maps = Vec::new();
        for_each(dev, mem, &mut |i, p| {
            assert_eq!(lookup(dev, mem, i), Some(p), "lookup and walk agree");
            maps.push((i, p));
        });
        let mut marked = Vec::new();
        mark_all(dev, mem, &mut |p| marked.push(p));
        (maps, marked, mem.tree_height, alloc.free_blocks())
    }

    /// A sparse file: runs of mapped blocks scattered over a height-3
    /// index space (the third run sits beyond 512², so trees grow tall).
    fn sparse_strategy() -> impl Strategy<Value = Vec<(u64, u16)>> {
        prop::collection::vec(
            prop_oneof![
                3 => (0u64..1500, 1u16..40),
                2 => (0u64..40_000, 1u16..700),
                1 => (262_000u64..264_000, 1u16..30),
            ],
            0..5,
        )
    }

    /// Builds the same tree twice — on two devices with two allocators in
    /// the same state, so both hand out the same block numbers.
    fn twin_trees(runs: &[(u64, u16)]) -> [(Arc<NvmmDevice>, Allocator, InodeMem); 2] {
        let mut twins = [setup(), setup()];
        for (dev, alloc, mem) in &mut twins {
            for &(iblk0, n) in runs {
                for iblk in iblk0..iblk0 + n as u64 {
                    if lookup(dev, mem, iblk).is_none() {
                        let b = alloc.alloc().unwrap();
                        ref_insert(dev, alloc, mem, iblk, b).unwrap();
                    }
                }
            }
        }
        twins
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// `insert_run` leaves what the per-block loop leaves, for runs
        /// that cross leaf and height boundaries and start mid-cacheline;
        /// a run colliding with a mapped slot links nothing.
        #[test]
        fn insert_run_equals_per_block_inserts(
            (base, iblk0, len) in (
                sparse_strategy(),
                prop_oneof![0u64..1100, 500u64..530, 261_900u64..262_200],
                prop_oneof![1usize..20, 1usize..2001],
            )
        ) {
            let [(dev_a, alloc_a, mut a), (dev_b, alloc_b, mut b)] = twin_trees(&base);
            let before = observe(&dev_a, &alloc_a, &a);
            let pblks: Vec<u64> = (0..len).map(|_| alloc_a.alloc().unwrap()).collect();
            let same: Vec<u64> = (0..len).map(|_| alloc_b.alloc().unwrap()).collect();
            prop_assert_eq!(&pblks, &same);
            let collides = (iblk0..iblk0 + len as u64).any(|i| lookup(&dev_a, &a, i).is_some());
            let res = insert_run(&dev_a, &alloc_a, &mut a, iblk0, &pblks);
            if collides {
                prop_assert_eq!(res, Err(FsError::AlreadyExists));
                for p in pblks {
                    alloc_a.free(p);
                }
                prop_assert_eq!(observe(&dev_a, &alloc_a, &a), before);
            } else {
                prop_assert_eq!(res, Ok(len));
                for (i, &p) in same.iter().enumerate() {
                    ref_insert(&dev_b, &alloc_b, &mut b, iblk0 + i as u64, p).unwrap();
                }
                prop_assert_eq!(observe(&dev_a, &alloc_a, &a), observe(&dev_b, &alloc_b, &b));
            }
        }

        /// Run unmap equals per-slot unmap after every cut, down to the
        /// empty tree.
        #[test]
        fn remove_from_equals_per_slot_unmap(
            (base, cuts) in (
                sparse_strategy(),
                prop::collection::vec(
                    prop_oneof![0u64..1600, 0u64..41_000, 261_900u64..264_100],
                    1..5,
                ),
            )
        ) {
            let [(dev_a, alloc_a, mut a), (dev_b, alloc_b, mut b)] = twin_trees(&base);
            let mut cuts = cuts;
            cuts.sort_unstable_by(|x, y| y.cmp(x));
            cuts.push(0);
            for from in cuts {
                let freed = remove_from(&dev_a, &alloc_a, &mut a, from).0;
                prop_assert_eq!(freed, ref_remove_from(&dev_b, &alloc_b, &mut b, from));
                prop_assert_eq!(observe(&dev_a, &alloc_a, &a), observe(&dev_b, &alloc_b, &b));
                prop_assert!(lookup(&dev_a, &a, from).is_none());
            }
            prop_assert_eq!(a.tree_root, 0);
        }

        /// A recycled node is as good as a zeroed one. A tree is cut down
        /// to nothing, every cut recycled, and a second tree is built on
        /// what the pool holds: it maps exactly what was inserted. A
        /// pointer left behind in a reused node would be a mapping nobody
        /// inserted (`for_each`, `lookup`) and a block the rebuild walk
        /// marks on top of the allocated ones.
        #[test]
        fn trees_built_on_recycled_nodes_hold_only_what_was_inserted(
            (old, cuts, new) in (
                sparse_strategy(),
                prop::collection::vec(
                    prop_oneof![0u64..1600, 0u64..41_000, 261_900u64..264_100],
                    0..4,
                ),
                sparse_strategy(),
            )
        ) {
            let [(dev, alloc, mut mem), _] = twin_trees(&old);
            let mut cuts = cuts;
            cuts.sort_unstable_by(|x, y| y.cmp(x));
            cuts.push(0);
            for from in cuts {
                remove_from(&dev, &alloc, &mut mem, from).1.recycle(&dev);
            }
            prop_assert_eq!(mem.tree_root, 0);
            let free0 = alloc.free_blocks();
            prop_assert_eq!(free0, setup().1.free_blocks(), "parked blocks count as free");
            let mut rep = obsv::AuditReport::new(0);
            alloc.audit_zeroed_pool(&dev, &mut rep);
            prop_assert!(rep.is_clean(), "{}", rep.to_json());
            let parked = alloc.zeroed_pool().len();

            let mut want = std::collections::BTreeMap::new();
            for &(iblk0, n) in &new {
                for iblk in iblk0..iblk0 + n as u64 {
                    if let std::collections::btree_map::Entry::Vacant(v) = want.entry(iblk) {
                        let b = alloc.alloc().unwrap();
                        insert(&dev, &alloc, &mut mem, iblk, b).unwrap();
                        v.insert(b);
                    }
                }
            }
            for &(iblk0, n) in &old {
                for iblk in (iblk0..iblk0 + n as u64).filter(|i| !want.contains_key(i)) {
                    prop_assert_eq!(lookup(&dev, &mem, iblk), None, "stale mapping of {}", iblk);
                }
            }
            let (maps, marked, _, free) = observe(&dev, &alloc, &mem);
            prop_assert_eq!(&maps, &want.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(marked.len() as u64, free0 - free, "the walk marks what is allocated");
            let nodes = marked.len() - maps.len();
            prop_assert_eq!(alloc.nodes_recycled() as usize, nodes.min(parked));
        }
    }

    #[test]
    fn a_run_short_of_nodes_is_refused_before_it_links() {
        let (dev, alloc, mut mem) = setup();
        // Leave one block for tree nodes: a leaf, not two and a root.
        let pblks: Vec<u64> = (0..600).map(|_| alloc.alloc().unwrap()).collect();
        while alloc.free_blocks() > 1 {
            alloc.alloc().unwrap();
        }
        assert_eq!(
            insert_run(&dev, &alloc, &mut mem, 0, &pblks),
            Err(FsError::NoSpace)
        );
        assert_eq!((mem.tree_root, mem.tree_height), (0, 0), "nothing linked");
        assert_eq!(alloc.free_blocks(), 1);
    }

    #[test]
    fn sixteen_pointers_cost_two_lines_and_one_fence() {
        let (dev, alloc, mut mem) = setup();
        // The leaf exists already; the run is the file's next 64 KiB.
        insert(&dev, &alloc, &mut mem, 0, alloc.alloc().unwrap()).unwrap();
        let pblks: Vec<u64> = (0..16).map(|_| alloc.alloc().unwrap()).collect();
        let before = dev.stats().snapshot();
        assert_eq!(insert_run(&dev, &alloc, &mut mem, 8, &pblks), Ok(16));
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(d.nvmm_bytes_written, 2 * CACHELINE as u64);
        assert_eq!(d.fences, 1);
        // Starting mid-cacheline the same run straddles three lines.
        let more: Vec<u64> = (0..16).map(|_| alloc.alloc().unwrap()).collect();
        let before = dev.stats().snapshot();
        assert_eq!(insert_run(&dev, &alloc, &mut mem, 28, &more), Ok(16));
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(d.nvmm_bytes_written, 3 * CACHELINE as u64);
        assert_eq!(d.fences, 1);
    }

    #[test]
    fn unlinking_a_small_file_persists_no_pointer() {
        let (dev, alloc, mut mem) = setup();
        let pblks: Vec<u64> = (0..16).map(|_| alloc.alloc().unwrap()).collect();
        insert_run(&dev, &alloc, &mut mem, 0, &pblks).unwrap();
        let before = dev.stats().snapshot();
        assert_eq!(remove_from(&dev, &alloc, &mut mem, 0).0, 16);
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(
            d.nvmm_bytes_written, 0,
            "the emptied leaf is freed as it is"
        );
        assert_eq!(mem.tree_root, 0);
    }

    #[test]
    fn a_recycled_node_costs_its_span_on_free_and_nothing_on_reuse() {
        let (dev, alloc, mut mem) = setup();
        let pblks: Vec<u64> = (0..16).map(|_| alloc.alloc().unwrap()).collect();
        insert_run(&dev, &alloc, &mut mem, 0, &pblks).unwrap();
        let leaf = mem.tree_root;
        let (_, emptied) = remove_from(&dev, &alloc, &mut mem, 0);
        let before = dev.stats().snapshot();
        emptied.recycle(&dev);
        let d = dev.stats().snapshot().since(&before);
        // Sixteen pointers are two cachelines of the node's 64.
        assert_eq!(d.nvmm_bytes_written, 2 * CACHELINE as u64);
        assert_eq!(d.fences, 1);
        assert_eq!(alloc.zeroed_pool(), [leaf]);
        // The next file's first block: one pointer line, no node zeroing.
        let before = dev.stats().snapshot();
        insert(&dev, &alloc, &mut mem, 3, pblks[0]).unwrap();
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(mem.tree_root, leaf);
        assert_eq!(d.nvmm_bytes_written, CACHELINE as u64);
        assert_eq!(d.fences, 1);
        assert_eq!(alloc.nodes_recycled(), 1);
        assert_eq!(lookup(&dev, &mem, 3), Some(pblks[0]));
        assert!((0..16).all(|i| i == 3 || lookup(&dev, &mem, i).is_none()));
    }

    #[test]
    fn a_full_pool_frees_the_node_untouched() {
        let (dev, alloc, _) = setup();
        let free0 = alloc.free_blocks();
        let mut files: Vec<InodeMem> = (0..200)
            .map(|_| {
                let mut mem = InodeMem::new(FileType::File, 0);
                insert(&dev, &alloc, &mut mem, 0, alloc.alloc().unwrap()).unwrap();
                mem
            })
            .collect();
        let mut untouched = 0;
        for mem in &mut files {
            let parked = alloc.zeroed_pool().len();
            let before = dev.stats().snapshot();
            remove_from(&dev, &alloc, mem, 0).1.recycle(&dev);
            let d = dev.stats().snapshot().since(&before);
            if alloc.zeroed_pool().len() == parked {
                assert_eq!((d.nvmm_bytes_written, d.fences), (0, 0));
                untouched += 1;
            }
        }
        assert!(untouched > 0, "the pool is bounded");
        assert_eq!(alloc.free_blocks(), free0);
        let mut rep = obsv::AuditReport::new(0);
        alloc.audit_zeroed_pool(&dev, &mut rep);
        assert!(rep.is_clean(), "{}", rep.to_json());
    }

    #[test]
    fn a_truncated_leaf_zeroes_its_tail_as_one_run() {
        let (dev, alloc, mut mem) = setup();
        let pblks: Vec<u64> = (0..100).map(|_| alloc.alloc().unwrap()).collect();
        insert_run(&dev, &alloc, &mut mem, 0, &pblks).unwrap();
        let before = dev.stats().snapshot();
        assert_eq!(remove_from(&dev, &alloc, &mut mem, 10).0, 90);
        let d = dev.stats().snapshot().since(&before);
        // Slots 10..100 are bytes 80..800 of the node: lines 1..=12.
        assert_eq!(d.nvmm_bytes_written, 12 * CACHELINE as u64);
        assert_eq!(d.fences, 1);
        assert_eq!(lookup(&dev, &mem, 9), Some(pblks[9]));
        assert_eq!(lookup(&dev, &mem, 10), None);
    }
}
