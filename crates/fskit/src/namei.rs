//! The directory name index: what the kernel VFS's dentry cache is to the
//! paper's five systems — one DRAM index per directory, built from its
//! blocks on the first lookup after mount and exact from then on, which
//! every file system here resolves names through. It also places entry
//! edits — [`NameIndex::add`] splits a live entry's slack or claims a free
//! record, [`NameIndex::remove`] merges a record into its predecessor or
//! frees it — and returns the header writes ([`Edit`]) that carry them to
//! the media, so no edit reads the block it changes. Reading a block and
//! landing an edit's writes is the file system's part.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use nvmm::{Cat, NvmmDevice};
use obsv::{AuditReport, Phase};

use crate::dirent::{entry_len, parse_block, scan, Header, HDR};
use crate::{FileType, FsError, Result};

/// Where a directory entry's header sits: the directory's block (in
/// directory order) and the byte offset in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    blk: u32,
    /// Byte offset of the header in its block.
    pub off: u16,
}

/// One directory block: its physical number, the DRAM copy of its header
/// chain, and the largest [`Header::slack`] in it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockSpace {
    pblk: u64,
    hdrs: BTreeMap<u16, Header>,
    room: u16,
}

/// A live name: its inode, type and slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Named {
    ino: u64,
    ftype: FileType,
    slot: Slot,
}

/// One record write of an entry edit: header `hdr` at `slot` and, when
/// `named`, the entry's name after it, zero-padded to the record's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Put {
    pub slot: Slot,
    pub hdr: Header,
    pub named: bool,
}

impl Put {
    /// The bytes the write stores from the slot on.
    pub fn bytes(&self, name: &str) -> Vec<u8> {
        let mut rec = self.hdr.encode().to_vec();
        if self.named {
            rec.extend_from_slice(name.as_bytes());
            rec.resize(self.hdr.rec_len as usize, 0);
        }
        rec
    }
}

/// The writes of one entry edit, all in one block, in the order they must
/// reach the media: each but the last lies inside a record's span,
/// unreachable from the chain until the last — the one reachable header
/// that changes, the edit's whole undo image — lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    pub puts: Vec<Put>,
    /// Headers the edit read from the index's DRAM copy.
    pub reads: usize,
}

impl Edit {
    /// The one header whose old image undoes the edit.
    pub fn linked(&self) -> Slot {
        self.puts[self.puts.len() - 1].slot
    }
}

/// A directory's DRAM name index: `name → (ino, ftype)` for every live
/// on-media entry (the first one, where a damaged image repeats a name),
/// each with its header's slot, plus every block's header chain and
/// free-space summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameIndex {
    names: HashMap<String, Named>,
    blocks: Vec<BlockSpace>,
}

impl NameIndex {
    /// The index of a directory of `nblocks` blocks, read with `read` (see
    /// [`scan`]).
    pub fn build(nblocks: u64, read: impl FnMut(u64, &mut [u8]) -> Result<u64>) -> Result<Self> {
        let mut index = NameIndex::default();
        scan(nblocks, read, |pblk, block| index.push_block(pblk, block))?;
        Ok(index)
    }

    /// Appends directory block `pblk`, whose bytes are `block` (the build
    /// pass, and a directory grown by a block).
    pub fn push_block(&mut self, pblk: u64, block: &[u8]) -> Result<()> {
        let records = parse_block(block)?;
        let blk = self.blocks.len() as u32;
        let (hdrs, room) = (BTreeMap::new(), 0);
        self.blocks.push(BlockSpace { pblk, hdrs, room });
        for (off, hdr, name) in records {
            let off = off as u16;
            let slot = Slot { blk, off };
            self.set(slot, Some(hdr));
            if let Some((name, ftype)) = hdr.named(name)? {
                self.bind(name, hdr.ino, ftype, slot);
            }
        }
        Ok(())
    }

    /// Live names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the directory holds no live name.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The inode and type `name` resolves to.
    pub fn get(&self, name: &str) -> Option<(u64, FileType)> {
        self.names.get(name).map(|n| (n.ino, n.ftype))
    }

    /// Where `name`'s header sits.
    fn slot(&self, name: &str) -> Option<Slot> {
        self.names.get(name).map(|n| n.slot)
    }

    /// Names, blocks or summaries in which `self` and `media` (an index
    /// built from the blocks) disagree.
    fn differences(&self, media: &NameIndex) -> u64 {
        let stale = self
            .names
            .iter()
            .filter(|&(n, at)| media.names.get(n) != Some(at));
        let missing = media.names.keys().filter(|&n| !self.names.contains_key(n));
        let blocks = self.blocks.len().max(media.blocks.len());
        let differing = (0..blocks).filter(|&i| self.blocks.get(i) != media.blocks.get(i));
        (stale.count() + missing.count() + differing.count()) as u64
    }

    /// Physical block of `slot`'s directory block.
    pub fn pblk(&self, slot: Slot) -> u64 {
        self.blocks[slot.blk as usize].pblk
    }

    /// The header at `slot`.
    fn hdr(&self, slot: Slot) -> Header {
        self.blocks[slot.blk as usize].hdrs[&slot.off]
    }

    /// The first record, in directory order, with `need` bytes of slack —
    /// where a media scan would put a new entry — or `None`: the
    /// directory must grow. Blocks whose summary is short are skipped.
    pub fn host(&self, need: usize) -> Option<(Slot, Header)> {
        self.blocks.iter().enumerate().find_map(|(blk, b)| {
            if (b.room as usize) < need {
                return None;
            }
            let (&off, &hdr) = b.hdrs.iter().find(|(_, h)| h.slack() >= need)?;
            let blk = blk as u32;
            Some((Slot { blk, off }, hdr))
        })
    }

    /// Records a header write: `hdr` now sits at `slot` (`None`: the
    /// record there was merged into its predecessor).
    fn set(&mut self, slot: Slot, hdr: Option<Header>) {
        let b = &mut self.blocks[slot.blk as usize];
        match hdr {
            Some(h) => b.hdrs.insert(slot.off, h),
            None => b.hdrs.remove(&slot.off),
        };
        b.room = b.hdrs.values().map(Header::slack).max().unwrap_or(0) as u16;
    }

    /// Binds `name` to `slot` (the first binding wins, as on the media).
    fn bind(&mut self, name: &str, ino: u64, ftype: FileType, slot: Slot) {
        let named = Named { ino, ftype, slot };
        self.names.entry(name.to_owned()).or_insert(named);
    }

    /// Drops `name`.
    fn unbind(&mut self, name: &str) {
        self.names.remove(name);
    }

    /// Adds `name -> ino` where a media scan would put it, in the first
    /// record with room ([`NameIndex::host`]), and returns the writes that
    /// put it on the media: a live host gives its slack to the new entry;
    /// a free host is claimed, its remainder left a free record when a
    /// header fits in it. `None`: the directory must grow by a block
    /// ([`NameIndex::push_block`]); the index is unchanged. The caller
    /// has checked that the name is absent.
    pub fn add(&mut self, name: &str, ino: u64, ftype: FileType) -> Option<Edit> {
        let need = entry_len(name.len());
        let (at, host) = self.host(need)?;
        let put = |by: usize, hdr, named| {
            let off = at.off + by as u16;
            let slot = Slot { off, ..at };
            Put { slot, hdr, named }
        };
        let entry = |by, len| put(by, Header::live(ino, len, name, ftype.as_u8()), true);
        let (len, slack) = (host.rec_len as usize, host.slack());
        let puts = if host.ino != 0 {
            let rec_len = (len - slack) as u16;
            let shrunk = Header { rec_len, ..host };
            vec![entry(len - slack, slack), put(0, shrunk, false)]
        } else if len - need >= HDR {
            vec![put(need, Header::free(len - need), false), entry(0, need)]
        } else {
            vec![entry(0, len)]
        };
        for p in &puts {
            self.set(p.slot, Some(p.hdr));
        }
        let new_at = puts.iter().find(|p| p.named).map_or(at, |p| p.slot);
        self.bind(name, ino, ftype, new_at);
        Some(Edit { puts, reads: 1 })
    }

    /// Removes `name`; returns its inode and type, and the one header
    /// write that unlinks it on the media: its predecessor in the block
    /// grows over its record, or — the block's first entry — the record
    /// becomes free space.
    pub fn remove(&mut self, name: &str) -> Result<(u64, FileType, Edit)> {
        let Named { ino, ftype, slot } = *self.names.get(name).ok_or(FsError::NotFound)?;
        let gone = self.hdr(slot);
        let hdrs = &self.blocks[slot.blk as usize].hdrs;
        let (slot, hdr, reads) = match hdrs.range(..slot.off).next_back() {
            Some((&off, &prev)) => {
                self.set(slot, None);
                let rec_len = prev.rec_len + gone.rec_len;
                (Slot { off, ..slot }, Header { rec_len, ..prev }, 2)
            }
            None => (slot, Header::free(gone.rec_len as usize), 1),
        };
        self.set(slot, Some(hdr));
        self.unbind(name);
        let named = false;
        let puts = vec![Put { slot, hdr, named }];
        Ok((ino, ftype, Edit { puts, reads }))
    }

    /// Rewrites entry `from`'s header in place to name `to` and point at
    /// `ino` and `ftype` — a rename, or rename's replace when `to` is
    /// `from` — and returns the header write that does it (a new name
    /// follows the header). `None`, the index unchanged: `to`'s entry does
    /// not fit `from`'s record. The record keeps its length, so the chain
    /// does not change. The caller has checked that a new `to` is absent.
    pub fn rewrite(
        &mut self,
        from: &str,
        to: &str,
        ino: u64,
        ftype: FileType,
    ) -> Result<Option<(Slot, Header)>> {
        let slot = self.slot(from).ok_or(FsError::NotFound)?;
        let rec_len = self.hdr(slot).rec_len as usize;
        if entry_len(to.len()) > rec_len {
            return Ok(None);
        }
        let hdr = Header::live(ino, rec_len, to, ftype.as_u8());
        self.set(slot, Some(hdr));
        self.unbind(from);
        self.bind(to, ino, ftype, slot);
        Ok(Some((slot, hdr)))
    }

    /// Audit code 15 (`namei.index`) for directory `ino`: its index says
    /// exactly what its blocks say (`media`, the index they build) — an
    /// unreadable directory differs in every name. Returns the names the
    /// index holds, for [`NameiStats::audit`].
    pub fn audit(&self, rep: &mut AuditReport, ino: u64, media: Result<NameIndex>) -> u64 {
        let differing = media.map_or(u64::MAX, |media| self.differences(&media));
        rep.check_eq(15, ino, 0, differing, 0);
        self.len() as u64
    }
}

/// Charges reading `bytes` of a name index's DRAM copy to `dev`'s clock,
/// under the index span.
pub fn charge(dev: &NvmmDevice, bytes: usize) {
    let env = dev.env();
    dev.spans()
        .scope(Phase::Index, || env.charge_dram_copy(Cat::Meta, bytes));
}

/// One mount's name-index activity, reported as `namei_hits`,
/// `namei_builds` and `namei_entries` under the scope the file system
/// registers it with (`pmfs_`, `extfs_`).
#[derive(Debug, Default)]
pub struct NameiStats {
    /// Lookups that found their name in an index.
    pub hits: AtomicU64,
    /// Indexes built from the media.
    pub builds: AtomicU64,
    /// Names held by all built indexes right now.
    pub entries: AtomicU64,
}

impl NameiStats {
    /// The index in `names` (a directory's locked slot), built with
    /// `build` — one pass over the blocks, at its cost — on first use.
    pub fn index<'n>(
        &self,
        names: &'n mut Option<NameIndex>,
        build: impl FnOnce() -> Result<NameIndex>,
    ) -> Result<&'n mut NameIndex> {
        match names {
            Some(index) => Ok(index),
            unbuilt => {
                let index = build()?;
                self.builds.fetch_add(1, Relaxed);
                self.entries.fetch_add(index.len() as u64, Relaxed);
                Ok(unbuilt.insert(index))
            }
        }
    }

    /// Drops the index in `names` (the next lookup rebuilds it).
    pub fn forget(&self, names: &mut Option<NameIndex>) {
        if let Some(index) = names.take() {
            self.entries.fetch_sub(index.len() as u64, Relaxed);
        }
    }

    /// Audit code 15 (`namei.index`), the mount's half: the entries
    /// gauge is `held`, the sum of what the built indexes hold (each
    /// checked by [`NameIndex::audit`]).
    pub fn audit(&self, rep: &mut AuditReport, held: u64) {
        rep.check_eq(15, 0, 0, self.entries.load(Relaxed), held);
    }
}

impl obsv::MetricSource for NameiStats {
    fn collect(&self, out: &mut dyn obsv::Visitor) {
        out.counter("namei_hits", self.hits.load(Relaxed));
        out.counter("namei_builds", self.builds.load(Relaxed));
        out.gauge("namei_entries", self.entries.load(Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirent::{empty_block, init_block};
    use nvmm::BLOCK_SIZE;

    /// Applies an edit's writes to block images, as a file system would.
    fn write(blocks: &mut [Vec<u8>], index: &NameIndex, edit: &Edit, name: &str) {
        for p in &edit.puts {
            let bytes = p.bytes(name);
            let at = p.slot.off as usize;
            blocks[p.slot.blk as usize][at..at + bytes.len()].copy_from_slice(&bytes);
        }
        assert!(index.pblk(edit.linked()) < blocks.len() as u64);
    }

    fn rebuilt(blocks: &[Vec<u8>]) -> NameIndex {
        NameIndex::build(blocks.len() as u64, |i, buf| {
            buf.copy_from_slice(&blocks[i as usize]);
            Ok(i)
        })
        .unwrap()
    }

    #[test]
    fn edits_split_claim_merge_free_and_grow_as_a_scan_reads_them() {
        let mut blocks = vec![empty_block(BLOCK_SIZE)];
        let mut index = rebuilt(&blocks);
        // Long names: a block holds 15, so edits split, claim, merge,
        // free a block's first entry and grow.
        let name = |i: u64| format!("{i:0>250}");
        let mut live = Vec::new();
        for step in 0..200u64 {
            let i = step * 7 % 61;
            if live.contains(&i) {
                let (ino, ftype, edit) = index.remove(&name(i)).unwrap();
                assert_eq!((ino, ftype), (i + 1, FileType::File));
                assert_eq!(edit.puts.len(), 1);
                write(&mut blocks, &index, &edit, &name(i));
                live.retain(|&j| j != i);
            } else {
                match index.add(&name(i), i + 1, FileType::File) {
                    Some(edit) => write(&mut blocks, &index, &edit, &name(i)),
                    None => {
                        let block = init_block(BLOCK_SIZE, i + 1, &name(i), 1);
                        index.push_block(blocks.len() as u64, &block).unwrap();
                        blocks.push(block);
                    }
                }
                live.push(i);
            }
            assert_eq!(index, rebuilt(&blocks), "step {step}");
        }
        assert_eq!(index.len(), live.len());
        assert!(blocks.len() >= 3);
        assert_eq!(index.remove("absent"), Err(FsError::NotFound));
    }

    #[test]
    fn a_rewrite_changes_one_header_and_name_in_place() {
        let mut blocks = vec![empty_block(BLOCK_SIZE)];
        let mut index = rebuilt(&blocks);
        for (ino, name) in [(1, "aa"), (2, "b"), (3, "c")] {
            let edit = index.add(name, ino, FileType::File).unwrap();
            write(&mut blocks, &index, &edit, name);
        }
        let mut land = |(at, hdr): (Slot, Header), name: &str| {
            let bytes = [&hdr.encode()[..], name.as_bytes()].concat();
            let off = at.off as usize;
            blocks[at.blk as usize][off..off + bytes.len()].copy_from_slice(&bytes);
        };
        land(
            index
                .rewrite("aa", "d", 1, FileType::File)
                .unwrap()
                .unwrap(),
            "d",
        );
        land(
            index.rewrite("c", "c", 9, FileType::Dir).unwrap().unwrap(),
            "c",
        );
        // A name too long for "b"'s record changes nothing.
        assert_eq!(index.rewrite("b", "long-name", 2, FileType::File), Ok(None));
        assert_eq!(
            index.rewrite("absent", "x", 1, FileType::File),
            Err(FsError::NotFound)
        );
        assert_eq!(index, rebuilt(&blocks));
        assert_eq!(index.get("aa"), None);
        assert_eq!(index.get("d"), Some((1, FileType::File)));
        assert_eq!(index.get("b"), Some((2, FileType::File)));
        assert_eq!(index.get("c"), Some((9, FileType::Dir)));
    }

    #[test]
    fn an_edit_links_last_and_reads_what_it_rewrites() {
        let mut index = rebuilt(&[empty_block(BLOCK_SIZE)]);
        let named = |e: &Edit| e.puts.iter().map(|p| p.named).collect::<Vec<_>>();
        // Claim with a free remainder: the remainder's header first.
        let e = index.add("a", 1, FileType::File).unwrap();
        assert_eq!(named(&e), [false, true]);
        assert_eq!((e.linked().off, e.reads), (0, 1));
        index.add("b", 2, FileType::File).unwrap();
        index.add("c", 3, FileType::File).unwrap();
        // A merge reads the predecessor too, and rewrites only it.
        let (_, _, e) = index.remove("b").unwrap();
        assert_eq!((e.reads, e.linked()), (2, index.slot("a").unwrap()));
        // Split a live host: the entry in its slack, then the host shrinks.
        let e = index.add("d", 4, FileType::Dir).unwrap();
        assert_eq!(named(&e), [true, false]);
        assert_eq!(e.linked(), index.slot("a").unwrap());
        assert_eq!(index.get("d"), Some((4, FileType::Dir)));
        // The block's first entry becomes free space in place.
        let (_, _, e) = index.remove("a").unwrap();
        assert_eq!((e.reads, e.linked().off, e.puts[0].hdr.ino), (1, 0, 0));
    }
}
