//! Directories: ext2-style variable-length entries stored in the directory
//! inode's data blocks.
//!
//! Entry format (byte offsets within an entry):
//!
//! ```text
//! 0..8   ino      (0 = free space)
//! 8..10  rec_len  (multiple of 4; last entry reaches the block end)
//! 10     name_len
//! 11     ftype
//! 12..   name bytes, padded to rec_len
//! ```
//!
//! Modifications journal the entry bytes a chain reaches that they
//! rewrite through the caller's transaction, so a crash can never leave a
//! broken entry chain. They find their slot through the directory's DRAM
//! name index ([`NameIndex`]) and never read the block they edit;
//! listings and the index build scan the media.

use fskit::dirent::{init_block, Header};
use fskit::{DirEntry, FileType, FsError, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE};
use obsv::Phase;

use crate::alloc::Allocator;
use crate::inode::{InodeMem, NameIndex};
use crate::journal::{Journal, TxHandle};
use crate::layout::Layout;
use crate::tree;

pub use fskit::dirent::{encode_header, entry_len, parse_block, RawEntry, HDR};

/// Number of directory data blocks (directories always grow in whole
/// blocks).
fn dir_blocks(mem: &InodeMem) -> u64 {
    mem.size / BLOCK_SIZE as u64
}

/// Looks up `name` on the media, returning its inode number and type:
/// the reference the DRAM name index is built to agree with (the file
/// system itself resolves names through the index).
pub fn lookup(dev: &NvmmDevice, mem: &InodeMem, name: &str) -> Result<Option<(u64, FileType)>> {
    Ok(index(dev, mem)?.get(name))
}

/// Lists every live entry, in media order.
pub fn list(dev: &NvmmDevice, mem: &InodeMem) -> Result<Vec<DirEntry>> {
    let mut out = Vec::new();
    scan(dev, mem, true, |_, entries| {
        for (_, e) in entries {
            if e.ino != 0 {
                out.push(DirEntry {
                    name: String::from_utf8(e.name)
                        .map_err(|_| FsError::Corrupted("dirent name utf8"))?,
                    ino: e.ino,
                    ftype: FileType::from_u8(e.ftype).ok_or(FsError::Corrupted("dirent type"))?,
                });
            }
        }
        Ok(())
    })?;
    Ok(out)
}

/// Builds the directory's name index ([`NameIndex`]) with one pass over
/// its blocks, at that pass's full NVMM-read cost.
pub fn index(dev: &NvmmDevice, mem: &InodeMem) -> Result<NameIndex> {
    build_index(dev, mem, true)
}

/// [`index`] for the invariant auditor: reads through
/// [`NvmmDevice::peek`], so it charges no time and moves no counter.
pub fn index_uncharged(dev: &NvmmDevice, mem: &InodeMem) -> Result<NameIndex> {
    build_index(dev, mem, false)
}

/// Parses every directory block in order, read charged (`charge`) or
/// through [`NvmmDevice::peek`]; `each` takes the block's physical number
/// and its records.
fn scan(
    dev: &NvmmDevice,
    mem: &InodeMem,
    charge: bool,
    mut each: impl FnMut(u64, Vec<(usize, RawEntry)>) -> Result<()>,
) -> Result<()> {
    let mut buf = vec![0u8; BLOCK_SIZE];
    for iblk in 0..dir_blocks(mem) {
        let pblk = if charge {
            tree::lookup(dev, mem, iblk)
        } else {
            tree::lookup_uncharged(dev, mem, iblk)
        }
        .ok_or(FsError::Corrupted("dir hole"))?;
        if charge {
            dev.read(Cat::Meta, Layout::block_off(pblk), &mut buf);
        } else {
            dev.peek(Layout::block_off(pblk), &mut buf);
        }
        each(pblk, parse_block(&buf)?)?;
    }
    Ok(())
}

/// The name index of the media: every header, and every live name's
/// first entry.
fn build_index(dev: &NvmmDevice, mem: &InodeMem, charge: bool) -> Result<NameIndex> {
    let mut index = NameIndex::default();
    scan(dev, mem, charge, |pblk, entries| {
        let first = index.push_block(pblk);
        for (off, e) in entries {
            let slot = NameIndex::shifted(first, off);
            index.set(slot, Some(e.header()));
            if e.ino != 0 {
                let name = std::str::from_utf8(&e.name)
                    .map_err(|_| FsError::Corrupted("dirent name utf8"))?;
                let ftype = FileType::from_u8(e.ftype).ok_or(FsError::Corrupted("dirent type"))?;
                index.bind(name, e.ino, ftype, slot);
            }
        }
        Ok(())
    })?;
    Ok(index)
}

/// Whether the directory has no live entries.
pub fn is_empty(dev: &NvmmDevice, mem: &InodeMem) -> Result<bool> {
    Ok(list(dev, mem)?.is_empty())
}

/// Charges reading `n` entry headers from the name index's DRAM copy.
fn read_hdrs(dev: &NvmmDevice, n: usize) {
    let env = dev.env();
    dev.spans()
        .scope(Phase::Index, || env.charge_dram_copy(Cat::Meta, n * HDR));
}

/// Writes entry `name` with header `hdr` at `at`: header, name, and
/// zeroes to the record's end.
fn write_entry(dev: &NvmmDevice, at: u64, hdr: Header, name: &str) {
    let mut rec = Vec::with_capacity(hdr.rec_len as usize);
    rec.extend_from_slice(&hdr.encode());
    rec.extend_from_slice(name.as_bytes());
    rec.resize(hdr.rec_len as usize, 0);
    dev.write_persist(Cat::Meta, at, &rec);
}

/// Adds `name -> ino` where a media scan would put it, found through
/// `index` (exact for this directory; updated here): no directory block
/// is read. The caller must have verified the name is absent and holds
/// the directory inode lock; inode-core changes (size growth) ride in the
/// caller's transaction, which must have journaled the core whenever
/// [`NameIndex::host`] finds no record with room for the entry.
///
/// Only the header whose `rec_len` changes is journaled. Every other byte
/// the add writes lies past the end of some record — unreachable from
/// the chain until that header is rewritten, last — so a rollback never
/// needs it.
#[allow(clippy::too_many_arguments)]
pub fn add(
    dev: &NvmmDevice,
    journal: &Journal,
    tx: &TxHandle,
    alloc: &Allocator,
    mem: &mut InodeMem,
    index: &mut NameIndex,
    name: &str,
    ino: u64,
    ftype: FileType,
) -> Result<()> {
    debug_assert!(!name.is_empty() && name.len() <= 255);
    let need = entry_len(name.len());
    let Some((at, host)) = index.host(need) else {
        return grow(dev, alloc, mem, index, name, ino, ftype);
    };
    read_hdrs(dev, 1);
    let base = Layout::block_off(index.pblk(at));
    let host_at = base + at.off as u64;
    journal.log_range(tx, host_at, HDR)?;
    let slot = if host.ino != 0 {
        // Write the new entry into the used entry's slack, then shrink
        // the host to its minimal length (the split point) last.
        let used = host.rec_len as usize - host.slack();
        let slot = NameIndex::shifted(at, used);
        let new = Header::live(ino, host.slack(), name, ftype.as_u8());
        write_entry(dev, host_at + used as u64, new, name);
        dev.sfence();
        let shrunk = Header {
            rec_len: used as u16,
            ..host
        };
        dev.write_persist(Cat::Meta, host_at, &shrunk.encode());
        dev.sfence();
        index.set(at, Some(shrunk));
        index.set(slot, Some(new));
        slot
    } else {
        // Claim the free entry; split off the remainder if it is large
        // enough to hold a future header.
        let free_len = host.rec_len as usize;
        let (claim_len, rest) = if free_len - need >= HDR {
            (need, free_len - need)
        } else {
            (free_len, 0)
        };
        if rest > 0 {
            let rest_hdr = Header::free(rest);
            dev.write_persist(Cat::Meta, host_at + claim_len as u64, &rest_hdr.encode());
            dev.sfence();
            index.set(NameIndex::shifted(at, claim_len), Some(rest_hdr));
        }
        let new = Header::live(ino, claim_len, name, ftype.as_u8());
        write_entry(dev, host_at, new, name);
        dev.sfence();
        index.set(at, Some(new));
        at
    };
    index.bind(name, ino, ftype, slot);
    Ok(())
}

/// [`add`] with no room left: appends a fresh directory block, written
/// whole (the image below covers all of it) before the tree links it.
fn grow(
    dev: &NvmmDevice,
    alloc: &Allocator,
    mem: &mut InodeMem,
    index: &mut NameIndex,
    name: &str,
    ino: u64,
    ftype: FileType,
) -> Result<()> {
    let need = entry_len(name.len());
    let pblk = alloc.alloc()?;
    let new = Header::live(ino, need, name, ftype.as_u8());
    let rest = Header::free(BLOCK_SIZE - need);
    let block = init_block(BLOCK_SIZE, ino, name, ftype.as_u8());
    dev.write_persist(Cat::Meta, Layout::block_off(pblk), &block);
    dev.sfence();
    let iblk = dir_blocks(mem);
    if let Err(e) = tree::insert(dev, alloc, mem, iblk, pblk) {
        alloc.free(pblk);
        return Err(e);
    }
    mem.size += BLOCK_SIZE as u64;
    mem.blocks += 1;
    let at = index.push_block(pblk);
    index.set(at, Some(new));
    index.set(NameIndex::shifted(at, need), Some(rest));
    index.bind(name, ino, ftype, at);
    Ok(())
}

/// Removes `name`, found through `index` (exact for this directory;
/// updated here): no directory block is read. Returns the unlinked inode
/// number and type.
pub fn remove(
    dev: &NvmmDevice,
    journal: &Journal,
    tx: &TxHandle,
    index: &mut NameIndex,
    name: &str,
) -> Result<(u64, FileType)> {
    let ((ino, ftype), at) = index
        .get(name)
        .zip(index.slot(name))
        .ok_or(FsError::NotFound)?;
    let e = index.hdr(at);
    let base = Layout::block_off(index.pblk(at));
    match index.before(at) {
        Some((prev_at, prev)) => {
            // Merge into the predecessor.
            read_hdrs(dev, 2);
            let prev_off = base + prev_at.off as u64;
            journal.log_range(tx, prev_off, HDR)?;
            let merged = Header {
                rec_len: prev.rec_len + e.rec_len,
                ..prev
            };
            dev.write_persist(Cat::Meta, prev_off, &merged.encode());
            index.set(prev_at, Some(merged));
            index.set(at, None);
        }
        None => {
            // First entry of the block: mark free.
            read_hdrs(dev, 1);
            let off = base + at.off as u64;
            journal.log_range(tx, off, HDR)?;
            let free = Header::free(e.rec_len as usize);
            dev.write_persist(Cat::Meta, off, &free.encode());
            index.set(at, Some(free));
        }
    }
    dev.sfence();
    index.unbind(name);
    Ok((ino, ftype))
}

/// Renames entry `from` to `to` in place, found through `index` (exact
/// for this directory; updated here), when `to`'s entry fits `from`'s
/// record; returns `false`, touching nothing, when it does not. The
/// header and the new name are journaled and rewritten; the record keeps
/// its length, so the chain does not change. The caller must have
/// verified `to` is absent.
pub fn rename(
    dev: &NvmmDevice,
    journal: &Journal,
    tx: &TxHandle,
    index: &mut NameIndex,
    from: &str,
    to: &str,
) -> Result<bool> {
    let ((ino, ftype), at) = index
        .get(from)
        .zip(index.slot(from))
        .ok_or(FsError::NotFound)?;
    let rec_len = index.hdr(at).rec_len as usize;
    if entry_len(to.len()) > rec_len {
        return Ok(false);
    }
    read_hdrs(dev, 1);
    let off = Layout::block_off(index.pblk(at)) + at.off as u64;
    journal.log_range(tx, off, HDR + to.len())?;
    let new = Header::live(ino, rec_len, to, ftype.as_u8());
    dev.write_persist(Cat::Meta, off, &[&new.encode()[..], to.as_bytes()].concat());
    dev.sfence();
    index.set(at, Some(new));
    index.unbind(from);
    index.bind(to, ino, ftype, at);
    Ok(true)
}

/// Points entry `name`'s header, found through `index` (exact for this
/// directory; updated here), at `ino` and `ftype`: rename's replace. The
/// record keeps its length and name, so the chain does not change and
/// the header is the one undo image.
pub fn retarget(
    dev: &NvmmDevice,
    journal: &Journal,
    tx: &TxHandle,
    index: &mut NameIndex,
    name: &str,
    ino: u64,
    ftype: FileType,
) -> Result<()> {
    let at = index.slot(name).ok_or(FsError::NotFound)?;
    read_hdrs(dev, 1);
    let off = Layout::block_off(index.pblk(at)) + at.off as u64;
    journal.log_range(tx, off, HDR)?;
    let new = Header {
        ino,
        ftype: ftype.as_u8(),
        ..index.hdr(at)
    };
    dev.write_persist(Cat::Meta, off, &new.encode());
    dev.sfence();
    index.set(at, Some(new));
    index.unbind(name);
    index.bind(name, ino, ftype, at);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use nvmm::{CostModel, SimEnv};
    use std::sync::Arc;

    struct Fx {
        dev: Arc<NvmmDevice>,
        journal: Journal,
        alloc: Allocator,
        mem: InodeMem,
        index: NameIndex,
    }

    fn setup() -> Fx {
        let blocks = 4096u64;
        let dev = NvmmDevice::new(
            SimEnv::new_virtual(CostModel::default()),
            blocks as usize * BLOCK_SIZE,
        );
        let layout = Layout::compute(blocks, 64, 128).unwrap();
        Journal::format(&dev, &layout);
        let journal = Journal::open(dev.clone(), &layout).unwrap();
        let alloc = Allocator::new_empty(&layout, dev.contention());
        let mem = InodeMem::new(FileType::Dir, 0);
        Fx {
            dev,
            journal,
            alloc,
            mem,
            index: NameIndex::default(),
        }
    }

    impl Fx {
        fn add(&mut self, name: &str, ino: u64, ft: FileType) -> Result<()> {
            let tx = self.journal.begin().unwrap();
            let r = add(
                &self.dev,
                &self.journal,
                &tx,
                &self.alloc,
                &mut self.mem,
                &mut self.index,
                name,
                ino,
                ft,
            );
            self.journal.commit(tx);
            r
        }

        fn remove(&mut self, name: &str) -> Result<(u64, FileType)> {
            let tx = self.journal.begin().unwrap();
            let r = remove(&self.dev, &self.journal, &tx, &mut self.index, name);
            self.journal.commit(tx);
            r
        }
    }

    #[test]
    fn add_lookup_remove() {
        let mut fx = setup();
        fx.add("hello.txt", 10, FileType::File).unwrap();
        fx.add("sub", 11, FileType::Dir).unwrap();
        assert_eq!(
            lookup(&fx.dev, &fx.mem, "hello.txt").unwrap(),
            Some((10, FileType::File))
        );
        assert_eq!(
            lookup(&fx.dev, &fx.mem, "sub").unwrap(),
            Some((11, FileType::Dir))
        );
        assert_eq!(lookup(&fx.dev, &fx.mem, "nope").unwrap(), None);
        assert_eq!(fx.remove("hello.txt").unwrap(), (10, FileType::File));
        assert_eq!(lookup(&fx.dev, &fx.mem, "hello.txt").unwrap(), None);
        assert_eq!(
            lookup(&fx.dev, &fx.mem, "sub").unwrap(),
            Some((11, FileType::Dir))
        );
    }

    #[test]
    fn list_returns_live_entries() {
        let mut fx = setup();
        for i in 0..10u64 {
            fx.add(&format!("f{i}"), 100 + i, FileType::File).unwrap();
        }
        fx.remove("f3").unwrap();
        let names: Vec<String> = list(&fx.dev, &fx.mem)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names.len(), 9);
        assert!(!names.contains(&"f3".to_string()));
        assert!(names.contains(&"f9".to_string()));
    }

    #[test]
    fn empty_after_removing_everything() {
        let mut fx = setup();
        assert!(is_empty(&fx.dev, &fx.mem).unwrap());
        fx.add("a", 1, FileType::File).unwrap();
        fx.add("b", 2, FileType::File).unwrap();
        assert!(!is_empty(&fx.dev, &fx.mem).unwrap());
        fx.remove("a").unwrap();
        fx.remove("b").unwrap();
        assert!(is_empty(&fx.dev, &fx.mem).unwrap());
    }

    #[test]
    fn freed_space_is_reused() {
        let mut fx = setup();
        for i in 0..50u64 {
            fx.add(&format!("file-{i:03}"), i + 1, FileType::File)
                .unwrap();
        }
        let blocks_before = fx.mem.blocks;
        for i in 0..50u64 {
            fx.remove(&format!("file-{i:03}")).unwrap();
        }
        for i in 0..50u64 {
            fx.add(&format!("file2-{i:03}"), i + 100, FileType::File)
                .unwrap();
        }
        assert_eq!(
            fx.mem.blocks, blocks_before,
            "no growth when space was freed"
        );
        assert_eq!(list(&fx.dev, &fx.mem).unwrap().len(), 50);
    }

    #[test]
    fn grows_across_blocks() {
        let mut fx = setup();
        // Long names so a block holds few entries.
        let name = "x".repeat(200);
        let per_block = BLOCK_SIZE / entry_len(200);
        let n = per_block * 3 + 1;
        for i in 0..n {
            fx.add(&format!("{name}{i:04}"), i as u64 + 1, FileType::File)
                .unwrap();
        }
        assert!(fx.mem.blocks >= 3);
        assert_eq!(list(&fx.dev, &fx.mem).unwrap().len(), n);
        // Every entry findable.
        assert_eq!(
            lookup(&fx.dev, &fx.mem, &format!("{name}{:04}", n - 1)).unwrap(),
            Some((n as u64, FileType::File))
        );
    }

    #[test]
    fn growing_by_a_block_writes_it_once() {
        let mut fx = setup();
        // Long names so a block holds few entries.
        let name = "x".repeat(200);
        let mut i = 0;
        let grew_by = loop {
            let tx = fx.journal.begin().unwrap();
            let (blocks, before) = (fx.mem.blocks, fx.dev.stats().snapshot());
            let n = format!("{name}{i:04}");
            add(
                &fx.dev,
                &fx.journal,
                &tx,
                &fx.alloc,
                &mut fx.mem,
                &mut fx.index,
                &n,
                i + 1,
                FileType::File,
            )
            .unwrap();
            let d = fx.dev.stats().snapshot().since(&before);
            fx.journal.commit(tx);
            i += 1;
            // The second block: the tree node is there already.
            if (blocks, fx.mem.blocks) == (1, 2) {
                break d;
            }
        };
        // The block image and the cacheline of its pointer — not the
        // image over 4 KiB of zeroes.
        let lines = (BLOCK_SIZE / nvmm::CACHELINE + 1) as u64;
        assert_eq!(grew_by.nvmm_bytes_written, lines * nvmm::CACHELINE as u64);
        assert_eq!(grew_by.fences, 2);
    }

    #[test]
    fn duplicate_names_are_callers_problem_but_lookup_finds_first() {
        let mut fx = setup();
        fx.add("dup", 1, FileType::File).unwrap();
        fx.add("dup", 2, FileType::File).unwrap();
        let (ino, _) = lookup(&fx.dev, &fx.mem, "dup").unwrap().unwrap();
        assert_eq!(ino, 1);
    }

    #[test]
    fn crash_during_add_rolls_back_chain() {
        let mut fx = setup();
        fx.add("keep", 5, FileType::File).unwrap();
        // Uncommitted add, then crash.
        let tx = fx.journal.begin().unwrap();
        add(
            &fx.dev,
            &fx.journal,
            &tx,
            &fx.alloc,
            &mut fx.mem,
            &mut fx.index,
            "lost",
            6,
            FileType::File,
        )
        .unwrap();
        drop(tx);
        fx.dev.crash();
        let layout = Layout::compute(4096, 64, 128).unwrap();
        Journal::recover(&fx.dev, &layout).unwrap();
        // Chain is intact and the uncommitted entry is gone.
        assert_eq!(
            lookup(&fx.dev, &fx.mem, "keep").unwrap(),
            Some((5, FileType::File))
        );
        assert_eq!(lookup(&fx.dev, &fx.mem, "lost").unwrap(), None);
        let entries = list(&fx.dev, &fx.mem).unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn the_index_mirrors_the_media_through_every_edit() {
        let mut fx = setup();
        // Long names: a block holds 15, so edits split, claim, merge,
        // free a block's first entry and grow.
        let name = |i: u64| format!("{i:0>250}");
        let mut live = Vec::new();
        for step in 0..200u64 {
            let i = step * 7 % 61;
            if live.contains(&i) {
                fx.remove(&name(i)).unwrap();
                live.retain(|&j| j != i);
            } else {
                fx.add(&name(i), i + 1, FileType::File).unwrap();
                live.push(i);
            }
            assert_eq!(fx.index, index(&fx.dev, &fx.mem).unwrap(), "step {step}");
        }
        assert_eq!(fx.index.len(), live.len());
        assert!(fx.mem.blocks >= 3);
    }
}
