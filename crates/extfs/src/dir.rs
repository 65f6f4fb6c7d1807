//! Directories for the ext baselines: the shared dirent format
//! ([`fskit::dirent`]) stored in the directory's data blocks and accessed
//! through the page cache; every modified block joins the running journal
//! transaction. Names resolve, and entry edits find their slot, through
//! the directory's name index ([`NameIndex`]), as in PMFS: only the
//! index build, listings and the emptiness check read directory blocks.

use fskit::dirent::{init_block, HDR};
use fskit::namei::{self, Edit, NameIndex};
use fskit::{DirEntry, FileType, FsError, Result};
use nvmm::{Cat, BLOCK_SIZE};

use crate::alloc::DiskBitmap;
use crate::blkmap;
use crate::cache::BufferCache;
use crate::inode::ExtInodeMem;
use crate::jbd::Jbd;

fn dir_blocks(mem: &ExtInodeMem) -> u64 {
    mem.size / BLOCK_SIZE as u64
}

/// Reads directory block `iblk` through the page cache; returns its
/// device block number.
fn reader<'a>(
    cache: &'a BufferCache,
    mem: &'a ExtInodeMem,
) -> impl FnMut(u64, &mut [u8]) -> Result<u64> + 'a {
    move |iblk, buf| {
        let blk = blkmap::lookup(cache, mem, iblk)?.ok_or(FsError::Corrupted("ext dir hole"))?;
        cache.read(Cat::Meta, blk, 0, buf)?;
        Ok(blk)
    }
}

/// Builds the directory's name index with one pass over its blocks,
/// through the page cache at that pass's cost.
pub fn index(cache: &BufferCache, mem: &ExtInodeMem) -> Result<NameIndex> {
    NameIndex::build(dir_blocks(mem), reader(cache, mem))
}

/// [`index`] for the invariant auditor: reads through
/// [`BufferCache::peek`], so it charges no time and touches no page.
pub fn index_uncharged(cache: &BufferCache, mem: &ExtInodeMem) -> Result<NameIndex> {
    NameIndex::build(dir_blocks(mem), |iblk, buf| {
        let blk =
            blkmap::lookup_uncharged(cache, mem, iblk).ok_or(FsError::Corrupted("ext dir hole"))?;
        cache.peek(blk, 0, buf);
        Ok(blk)
    })
}

/// Lists every live entry, in media order.
pub fn list(cache: &BufferCache, mem: &ExtInodeMem) -> Result<Vec<DirEntry>> {
    fskit::dirent::list(dir_blocks(mem), reader(cache, mem))
}

/// Carries `edit` (planned on `index`) into its block through the page
/// cache; the block joins the running transaction.
fn write_edit(
    cache: &BufferCache,
    jbd: &Jbd,
    index: &NameIndex,
    edit: &Edit,
    name: &str,
    now: u64,
) -> Result<()> {
    namei::charge(cache.device().byte_device(), edit.reads * HDR);
    let blk = index.pblk(edit.linked());
    for put in &edit.puts {
        cache.write(Cat::Meta, blk, put.slot.off as usize, &put.bytes(name), now)?;
    }
    jbd.add(cache, blk);
    Ok(())
}

/// Adds `name -> ino` where a media scan would put it, found through
/// `index` (exact for this directory; updated here, and to be dropped if
/// this fails): no directory block is read. The caller verified the name
/// is absent and holds the directory's write lock.
#[allow(clippy::too_many_arguments)]
pub fn add(
    cache: &BufferCache,
    jbd: &Jbd,
    balloc: &DiskBitmap,
    mem: &mut ExtInodeMem,
    index: &mut NameIndex,
    name: &str,
    ino: u64,
    ftype: FileType,
    now: u64,
) -> Result<()> {
    debug_assert!(!name.is_empty() && name.len() <= 255);
    if let Some(edit) = index.add(name, ino, ftype) {
        return write_edit(cache, jbd, index, &edit, name, now);
    }
    // Grow by one block.
    let iblk = dir_blocks(mem);
    let (blk, _fresh) = blkmap::ensure(cache, jbd, balloc, mem, iblk, now)?;
    let block = init_block(BLOCK_SIZE, ino, name, ftype.as_u8());
    cache.write(Cat::Meta, blk, 0, &block, now)?;
    jbd.add(cache, blk);
    mem.size += BLOCK_SIZE as u64;
    index.push_block(blk, &block)
}

/// Removes `name`, found through `index` (exact for this directory;
/// updated here, and to be dropped if this fails), returning the inode
/// number and type it pointed at.
pub fn remove(
    cache: &BufferCache,
    jbd: &Jbd,
    index: &mut NameIndex,
    name: &str,
    now: u64,
) -> Result<(u64, FileType)> {
    let (ino, ftype, edit) = index.remove(name)?;
    write_edit(cache, jbd, index, &edit, name, now)?;
    Ok((ino, ftype))
}

/// Rewrites entry `from`'s header in place, found through `index`
/// (exact for this directory; updated here, and to be dropped if this
/// fails), to name `to` and point at `ino` and `ftype`
/// ([`NameIndex::rewrite`]): a rename, or rename's replace when `to` is
/// `from`. Returns `false`, touching nothing, when `to`'s entry does not
/// fit `from`'s record. The caller verified a new `to` is absent.
#[allow(clippy::too_many_arguments)]
pub fn rewrite(
    cache: &BufferCache,
    jbd: &Jbd,
    index: &mut NameIndex,
    from: &str,
    to: &str,
    ino: u64,
    ftype: FileType,
    now: u64,
) -> Result<bool> {
    let Some((at, hdr)) = index.rewrite(from, to, ino, ftype)? else {
        return Ok(false);
    };
    namei::charge(cache.device().byte_device(), HDR);
    let blk = index.pblk(at);
    let rec = [&hdr.encode()[..], to.as_bytes()].concat();
    cache.write(Cat::Meta, blk, at.off as usize, &rec, now)?;
    jbd.add(cache, blk);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::Nvmmbd;
    use nvmm::{CostModel, NvmmDevice, SimEnv};
    use std::sync::Arc;

    struct Fx {
        cache: BufferCache,
        jbd: Jbd,
        balloc: DiskBitmap,
        mem: ExtInodeMem,
        index: NameIndex,
    }

    fn setup() -> Fx {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env, 4096 * BLOCK_SIZE);
        let bd = Arc::new(Nvmmbd::new(dev));
        let cache = BufferCache::new(bd.clone(), 128);
        let jbd = Jbd::open(bd, 1, 32, true);
        let balloc = DiskBitmap::load(&cache, 40, 4096).unwrap();
        for b in 0..64 {
            balloc.set(&cache, &jbd, b, 0).unwrap();
        }
        Fx {
            cache,
            jbd,
            balloc,
            mem: ExtInodeMem::new(FileType::Dir, 0),
            index: NameIndex::default(),
        }
    }

    impl Fx {
        fn add(&mut self, name: &str, ino: u64, ftype: FileType) {
            let (c, j, b) = (&self.cache, &self.jbd, &self.balloc);
            add(c, j, b, &mut self.mem, &mut self.index, name, ino, ftype, 0).unwrap();
        }

        fn remove(&mut self, name: &str) -> Result<(u64, FileType)> {
            remove(&self.cache, &self.jbd, &mut self.index, name, 0)
        }

        /// What a scan of the blocks resolves `name` to.
        fn on_media(&self, name: &str) -> Option<(u64, FileType)> {
            index(&self.cache, &self.mem).unwrap().get(name)
        }
    }

    #[test]
    fn add_lookup_remove_list() {
        let mut fx = setup();
        fx.add("a.txt", 10, FileType::File);
        fx.add("sub", 11, FileType::Dir);
        assert_eq!(fx.on_media("a.txt"), Some((10, FileType::File)));
        assert_eq!(fx.on_media("nope"), None);
        assert_eq!(list(&fx.cache, &fx.mem).unwrap().len(), 2);
        assert_eq!(fx.remove("a.txt").unwrap(), (10, FileType::File));
        assert_eq!(fx.remove("a.txt"), Err(FsError::NotFound));
        assert_eq!(fx.on_media("a.txt"), None);
        assert!(!list(&fx.cache, &fx.mem).unwrap().is_empty());
        fx.remove("sub").unwrap();
        assert!(list(&fx.cache, &fx.mem).unwrap().is_empty());
        assert_eq!(fx.index, index(&fx.cache, &fx.mem).unwrap());
    }

    #[test]
    fn grows_and_reuses_space() {
        let mut fx = setup();
        for i in 0..100u64 {
            fx.add(&format!("file-{i:04}"), i + 1, FileType::File);
        }
        let blocks = fx.mem.blocks;
        for i in 0..100u64 {
            fx.remove(&format!("file-{i:04}")).unwrap();
        }
        for i in 0..100u64 {
            fx.add(&format!("file2-{i:04}"), i + 200, FileType::File);
        }
        assert_eq!(fx.mem.blocks, blocks, "space reused, no growth");
        assert_eq!(list(&fx.cache, &fx.mem).unwrap().len(), 100);
        assert_eq!(fx.index, index(&fx.cache, &fx.mem).unwrap());
        assert_eq!(fx.index, index_uncharged(&fx.cache, &fx.mem).unwrap());
    }

    #[test]
    fn dir_edits_are_journaled() {
        let mut fx = setup();
        fx.add("j", 5, FileType::File);
        assert!(fx.jbd.running_len() > 0, "dir block joined the running tx");
    }

    #[test]
    fn edits_read_no_directory_block() {
        let mut fx = setup();
        for i in 0..40u64 {
            fx.add(&format!("f{i}"), i + 1, FileType::File);
        }
        let (hits, misses) = fx.cache.hit_miss();
        fx.add("late", 99, FileType::File);
        fx.remove("f7").unwrap();
        let (h, m) = fx.cache.hit_miss();
        // Each edit writes its one block: a cached page, never a read.
        assert_eq!((h - hits, m - misses), (3, 0));
    }
}
