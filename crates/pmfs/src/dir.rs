//! Directories: the shared dirent format ([`fskit::dirent`]) stored in
//! the directory inode's data blocks.
//!
//! Modifications journal the entry bytes a chain reaches that they
//! rewrite through the caller's transaction, so a crash can never leave a
//! broken entry chain. They find their slot through the directory's DRAM
//! name index ([`NameIndex`], which also decides where an edit lands) and
//! never read the block they edit; listings and the index build scan the
//! media.

use fskit::dirent::init_block;
use fskit::namei::{self, Edit, NameIndex};
use fskit::{DirEntry, FileType, FsError, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE};

use crate::alloc::Allocator;
use crate::inode::InodeMem;
use crate::journal::{Journal, TxHandle};
use crate::layout::Layout;
use crate::tree;

pub use fskit::dirent::{entry_len, HDR};

/// Number of directory data blocks (directories always grow in whole
/// blocks).
fn dir_blocks(mem: &InodeMem) -> u64 {
    mem.size / BLOCK_SIZE as u64
}

/// Lists every live entry, in media order.
pub fn list(dev: &NvmmDevice, mem: &InodeMem) -> Result<Vec<DirEntry>> {
    fskit::dirent::list(dir_blocks(mem), reader(dev, mem, true))
}

/// Builds the directory's name index ([`NameIndex`]) with one pass over
/// its blocks, at that pass's full NVMM-read cost: what the file system
/// resolves names through, and the tests' media reference.
pub fn index(dev: &NvmmDevice, mem: &InodeMem) -> Result<NameIndex> {
    NameIndex::build(dir_blocks(mem), reader(dev, mem, true))
}

/// [`index`] for the invariant auditor: reads through
/// [`NvmmDevice::peek`], so it charges no time and moves no counter.
pub fn index_uncharged(dev: &NvmmDevice, mem: &InodeMem) -> Result<NameIndex> {
    NameIndex::build(dir_blocks(mem), reader(dev, mem, false))
}

/// Reads directory block `iblk` into `buf`, charged (`charge`) or through
/// [`NvmmDevice::peek`]; returns its physical number.
fn reader<'a>(
    dev: &'a NvmmDevice,
    mem: &'a InodeMem,
    charge: bool,
) -> impl FnMut(u64, &mut [u8]) -> Result<u64> + 'a {
    move |iblk, buf| {
        let pblk = if charge {
            tree::lookup(dev, mem, iblk)
        } else {
            tree::lookup_uncharged(dev, mem, iblk)
        }
        .ok_or(FsError::Corrupted("dir hole"))?;
        if charge {
            dev.read(Cat::Meta, Layout::block_off(pblk), buf);
        } else {
            dev.peek(Layout::block_off(pblk), buf);
        }
        Ok(pblk)
    }
}

/// Byte address of `slot`'s header.
fn addr(index: &NameIndex, slot: namei::Slot) -> u64 {
    Layout::block_off(index.pblk(slot)) + slot.off as u64
}

/// Carries `edit` (planned on `index`) to the media under `tx`: journals
/// the one header it links, then persists and fences each write in order.
fn write_edit(
    dev: &NvmmDevice,
    journal: &Journal,
    tx: &TxHandle,
    index: &NameIndex,
    edit: &Edit,
    name: &str,
) -> Result<()> {
    namei::charge(dev, edit.reads * HDR);
    journal.log_range(tx, addr(index, edit.linked()), HDR)?;
    for put in &edit.puts {
        dev.write_persist(Cat::Meta, addr(index, put.slot), &put.bytes(name));
        dev.sfence();
    }
    Ok(())
}

/// Adds `name -> ino` where a media scan would put it, found through
/// `index` (exact for this directory; updated here, and to be dropped if
/// this fails): no directory block is read. The caller must have
/// verified the name is absent and holds the directory inode lock;
/// inode-core changes (size growth) ride in the caller's transaction,
/// which must have journaled the core whenever [`NameIndex::host`] finds
/// no record with room for the entry. Only the one header an [`Edit`]
/// links is journaled; a grown directory's fresh block is written whole
/// before the tree links it.
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
    if let Some(edit) = index.add(name, ino, ftype) {
        return write_edit(dev, journal, tx, index, &edit, name);
    }
    let iblk = dir_blocks(mem);
    let mut r = alloc.reserve(1 + tree::nodes_bound(mem, &(iblk..iblk + 1)))?;
    let (pblk, _) = alloc.alloc_reserved(&mut r, false);
    let block = init_block(BLOCK_SIZE, ino, name, ftype.as_u8());
    dev.write_persist(Cat::Meta, Layout::block_off(pblk), &block);
    dev.sfence();
    let linked = tree::insert_run(dev, alloc, &mut r, mem, iblk, &[pblk]);
    alloc.unreserve(r);
    linked?;
    mem.size += BLOCK_SIZE as u64;
    mem.blocks += 1;
    index.push_block(pblk, &block)
}

/// Removes `name`, found through `index` (exact for this directory;
/// updated here, and to be dropped if this fails): no directory block is
/// read. Returns the unlinked inode number and type.
pub fn remove(
    dev: &NvmmDevice,
    journal: &Journal,
    tx: &TxHandle,
    index: &mut NameIndex,
    name: &str,
) -> Result<(u64, FileType)> {
    let (ino, ftype, edit) = index.remove(name)?;
    write_edit(dev, journal, tx, index, &edit, name)?;
    Ok((ino, ftype))
}

/// Rewrites entry `from`'s header in place, found through `index`
/// (exact for this directory; updated here, and to be dropped if this
/// fails), to name `to` and point at `ino` and `ftype`
/// ([`NameIndex::rewrite`]): a rename, or rename's replace when `to` is
/// `from`. The header, and a new name, are journaled and rewritten.
/// Returns `false`, touching nothing, when `to`'s entry does not fit
/// `from`'s record. The caller must have verified a new `to` is absent.
#[allow(clippy::too_many_arguments)]
pub fn rewrite(
    dev: &NvmmDevice,
    journal: &Journal,
    tx: &TxHandle,
    index: &mut NameIndex,
    from: &str,
    to: &str,
    ino: u64,
    ftype: FileType,
) -> Result<bool> {
    let Some((at, hdr)) = index.rewrite(from, to, ino, ftype)? else {
        return Ok(false);
    };
    let name = if to == from { "" } else { to };
    namei::charge(dev, HDR);
    let off = addr(index, at);
    journal.log_range(tx, off, HDR + name.len())?;
    dev.write_persist(
        Cat::Meta,
        off,
        &[&hdr.encode()[..], name.as_bytes()].concat(),
    );
    dev.sfence();
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use nvmm::{CostModel, SimEnv};
    use std::sync::Arc;

    /// What a scan of the media resolves `name` to.
    fn lookup(dev: &NvmmDevice, mem: &InodeMem, name: &str) -> Result<Option<(u64, FileType)>> {
        Ok(index(dev, mem)?.get(name))
    }

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
        assert!(list(&fx.dev, &fx.mem).unwrap().is_empty());
        fx.add("a", 1, FileType::File).unwrap();
        fx.add("b", 2, FileType::File).unwrap();
        assert!(!list(&fx.dev, &fx.mem).unwrap().is_empty());
        fx.remove("a").unwrap();
        fx.remove("b").unwrap();
        assert!(list(&fx.dev, &fx.mem).unwrap().is_empty());
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
