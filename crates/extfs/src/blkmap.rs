//! The classic ext2 block map: 12 direct pointers, one single-indirect and
//! one double-indirect block (512 pointers each), all accessed through the
//! buffer cache and journaled when modified.

use std::ops::Range;

use fskit::{FsError, Result};
use nvmm::{Cat, BLOCK_SIZE};

use crate::alloc::DiskBitmap;
use crate::cache::BufferCache;
use crate::inode::{ExtInodeMem, DOUBLE, NDIRECT, SINGLE};
use crate::jbd::Jbd;

/// Pointers per indirect block.
pub const PTRS: u64 = (BLOCK_SIZE / 8) as u64;

/// Largest mappable file block index + 1.
pub fn max_blocks() -> u64 {
    NDIRECT as u64 + PTRS + PTRS * PTRS
}

fn read_ptr(cache: &BufferCache, blk: u64, idx: u64) -> Result<u64> {
    let mut b = [0u8; 8];
    cache.read(Cat::Meta, blk, (idx * 8) as usize, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_ptr(cache: &BufferCache, jbd: &Jbd, blk: u64, idx: u64, v: u64, now: u64) -> Result<()> {
    cache.write(Cat::Meta, blk, (idx * 8) as usize, &v.to_le_bytes(), now)?;
    jbd.add(cache, blk);
    Ok(())
}

fn new_indirect(cache: &BufferCache, jbd: &Jbd, balloc: &DiskBitmap, now: u64) -> Result<u64> {
    let blk = balloc.alloc(cache, jbd, now)?;
    // Full-block zero write: no fetch, becomes journaled metadata.
    cache.write(Cat::Meta, blk, 0, &vec![0u8; BLOCK_SIZE], now)?;
    jbd.add(cache, blk);
    Ok(blk)
}

/// Resolves file block `iblk` to a device block, or `None` for a hole.
pub fn lookup(cache: &BufferCache, mem: &ExtInodeMem, iblk: u64) -> Result<Option<u64>> {
    resolve(mem, iblk, |blk, idx| read_ptr(cache, blk, idx))
}

/// [`lookup`] for the invariant auditor: pointers are read through
/// [`BufferCache::peek`], so it charges no time and touches no page.
pub fn lookup_uncharged(cache: &BufferCache, mem: &ExtInodeMem, iblk: u64) -> Option<u64> {
    let peek = |blk, idx: u64| {
        let mut b = [0u8; 8];
        cache.peek(blk, (idx * 8) as usize, &mut b);
        Ok(u64::from_le_bytes(b))
    };
    resolve(mem, iblk, peek).ok().flatten()
}

/// Resolves `iblk` with `ptr(blk, idx)` reading pointer `idx` of
/// indirect block `blk`.
fn resolve(
    mem: &ExtInodeMem,
    iblk: u64,
    mut ptr: impl FnMut(u64, u64) -> Result<u64>,
) -> Result<Option<u64>> {
    let mapped = |p: u64| (p != 0).then_some(p);
    if iblk < NDIRECT as u64 {
        return Ok(mapped(mem.ptrs[iblk as usize]));
    }
    let iblk = iblk - NDIRECT as u64;
    if iblk < PTRS {
        let ind = mem.ptrs[SINGLE];
        if ind == 0 {
            return Ok(None);
        }
        return Ok(mapped(ptr(ind, iblk)?));
    }
    let iblk = iblk - PTRS;
    if iblk < PTRS * PTRS {
        let dbl = mem.ptrs[DOUBLE];
        if dbl == 0 {
            return Ok(None);
        }
        let ind = ptr(dbl, iblk / PTRS)?;
        if ind == 0 {
            return Ok(None);
        }
        return Ok(mapped(ptr(ind, iblk % PTRS)?));
    }
    Ok(None)
}

/// Blocks mapping the file blocks `iblks` of `mem` can take, at most:
/// one each, and every indirect block whose span meets them.
pub fn blocks_for(mem: &ExtInodeMem, iblks: Range<u64>) -> u64 {
    let (single, double) = (NDIRECT as u64, NDIRECT as u64 + PTRS);
    let mut n = iblks.end.saturating_sub(iblks.start);
    if iblks.start < double && iblks.end > single && mem.ptrs[SINGLE] == 0 {
        n += 1;
    }
    if iblks.end > double {
        let (lo, hi) = (iblks.start.max(double) - double, iblks.end - 1 - double);
        n += (mem.ptrs[DOUBLE] == 0) as u64 + hi / PTRS - lo / PTRS + 1;
    }
    n
}

/// Maps `iblk` to a (possibly fresh) device block, allocating indirect
/// blocks as needed. Returns `(device_block, freshly_allocated)`; the
/// caller journals the inode if `mem` changed.
pub fn ensure(
    cache: &BufferCache,
    jbd: &Jbd,
    balloc: &DiskBitmap,
    mem: &mut ExtInodeMem,
    iblk: u64,
    now: u64,
) -> Result<(u64, bool)> {
    if iblk >= max_blocks() {
        return Err(FsError::FileTooLarge);
    }
    if let Some(p) = lookup(cache, mem, iblk)? {
        return Ok((p, false));
    }
    let data = balloc.alloc(cache, jbd, now)?;
    if iblk < NDIRECT as u64 {
        mem.ptrs[iblk as usize] = data;
        mem.blocks += 1;
        return Ok((data, true));
    }
    let rel = iblk - NDIRECT as u64;
    if rel < PTRS {
        if mem.ptrs[SINGLE] == 0 {
            mem.ptrs[SINGLE] = new_indirect(cache, jbd, balloc, now)?;
        }
        write_ptr(cache, jbd, mem.ptrs[SINGLE], rel, data, now)?;
        mem.blocks += 1;
        return Ok((data, true));
    }
    let rel = rel - PTRS;
    if mem.ptrs[DOUBLE] == 0 {
        mem.ptrs[DOUBLE] = new_indirect(cache, jbd, balloc, now)?;
    }
    let dbl = mem.ptrs[DOUBLE];
    let mut ind = read_ptr(cache, dbl, rel / PTRS)?;
    if ind == 0 {
        ind = new_indirect(cache, jbd, balloc, now)?;
        write_ptr(cache, jbd, dbl, rel / PTRS, ind, now)?;
    }
    write_ptr(cache, jbd, ind, rel % PTRS, data, now)?;
    mem.blocks += 1;
    Ok((data, true))
}

/// Frees every data block with index `>= from`, plus indirect blocks that
/// empty out. Returns the number of data blocks freed; updates `mem` as
/// it goes, so an error partway leaves it counting what is still mapped.
pub fn free_from(
    cache: &BufferCache,
    jbd: &Jbd,
    balloc: &DiskBitmap,
    mem: &mut ExtInodeMem,
    from: u64,
    now: u64,
) -> Result<u64> {
    let mut freed = 0;
    for i in 0..NDIRECT as u64 {
        if i >= from && mem.ptrs[i as usize] != 0 {
            let p = mem.ptrs[i as usize];
            jbd.forget(cache, p);
            cache.invalidate(p);
            balloc.release(cache, jbd, p, now)?;
            mem.ptrs[i as usize] = 0;
            freed += 1;
            mem.blocks -= 1;
        }
    }
    // Single indirect.
    if mem.ptrs[SINGLE] != 0 {
        let ind = mem.ptrs[SINGLE];
        let mut any_left = false;
        for i in 0..PTRS {
            let file_idx = NDIRECT as u64 + i;
            let p = read_ptr(cache, ind, i)?;
            if p == 0 {
                continue;
            }
            if file_idx >= from {
                jbd.forget(cache, p);
                cache.invalidate(p);
                balloc.release(cache, jbd, p, now)?;
                write_ptr(cache, jbd, ind, i, 0, now)?;
                freed += 1;
                mem.blocks -= 1;
            } else {
                any_left = true;
            }
        }
        if !any_left {
            jbd.forget(cache, ind);
            cache.invalidate(ind);
            balloc.release(cache, jbd, ind, now)?;
            mem.ptrs[SINGLE] = 0;
        }
    }
    // Double indirect.
    if mem.ptrs[DOUBLE] != 0 {
        let dbl = mem.ptrs[DOUBLE];
        let mut any_ind_left = false;
        for j in 0..PTRS {
            let ind = read_ptr(cache, dbl, j)?;
            if ind == 0 {
                continue;
            }
            let mut any_left = false;
            for i in 0..PTRS {
                let file_idx = NDIRECT as u64 + PTRS + j * PTRS + i;
                let p = read_ptr(cache, ind, i)?;
                if p == 0 {
                    continue;
                }
                if file_idx >= from {
                    jbd.forget(cache, p);
                    cache.invalidate(p);
                    balloc.release(cache, jbd, p, now)?;
                    write_ptr(cache, jbd, ind, i, 0, now)?;
                    freed += 1;
                    mem.blocks -= 1;
                } else {
                    any_left = true;
                }
            }
            if !any_left {
                jbd.forget(cache, ind);
                cache.invalidate(ind);
                balloc.release(cache, jbd, ind, now)?;
                write_ptr(cache, jbd, dbl, j, 0, now)?;
            } else {
                any_ind_left = true;
            }
        }
        if !any_ind_left {
            jbd.forget(cache, dbl);
            cache.invalidate(dbl);
            balloc.release(cache, jbd, dbl, now)?;
            mem.ptrs[DOUBLE] = 0;
        }
    }
    Ok(freed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::Nvmmbd;
    use fskit::FileType;
    use nvmm::{CostModel, NvmmDevice, SimEnv};
    use std::sync::Arc;

    fn setup() -> (BufferCache, Jbd, DiskBitmap, ExtInodeMem) {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env, 8192 * BLOCK_SIZE);
        let bd = Arc::new(Nvmmbd::new(dev));
        let cache = BufferCache::new(bd.clone(), 256);
        let jbd = Jbd::open(bd, 1, 32, false);
        let balloc = DiskBitmap::load(&cache, 40, 8192).unwrap();
        // Pre-mark the metadata region.
        for b in 0..64 {
            balloc.set(&cache, &jbd, b, 0).unwrap();
        }
        (cache, jbd, balloc, ExtInodeMem::new(FileType::File, 0))
    }

    #[test]
    fn direct_range() {
        let (cache, jbd, balloc, mut mem) = setup();
        let (p, fresh) = ensure(&cache, &jbd, &balloc, &mut mem, 3, 0).unwrap();
        assert!(fresh);
        assert_eq!(lookup(&cache, &mem, 3).unwrap(), Some(p));
        assert_eq!(lookup(&cache, &mem, 4).unwrap(), None);
        let (p2, fresh2) = ensure(&cache, &jbd, &balloc, &mut mem, 3, 0).unwrap();
        assert_eq!(p2, p);
        assert!(!fresh2);
        assert_eq!(mem.blocks, 1);
    }

    #[test]
    fn single_and_double_indirect() {
        let (cache, jbd, balloc, mut mem) = setup();
        let idxs = [
            0u64,
            NDIRECT as u64,               // first single-indirect
            NDIRECT as u64 + PTRS - 1,    // last single-indirect
            NDIRECT as u64 + PTRS,        // first double-indirect
            NDIRECT as u64 + PTRS + 1234, // middle of double
        ];
        let mut got = Vec::new();
        for &i in &idxs {
            let (p, fresh) = ensure(&cache, &jbd, &balloc, &mut mem, i, 0).unwrap();
            assert!(fresh);
            got.push(p);
        }
        for (i, &idx) in idxs.iter().enumerate() {
            assert_eq!(lookup(&cache, &mem, idx).unwrap(), Some(got[i]));
        }
        assert_eq!(mem.blocks, idxs.len() as u64);
    }

    #[test]
    fn free_from_releases_everything() {
        let (cache, jbd, balloc, mut mem) = setup();
        let before = balloc.free_count();
        for i in 0..600u64 {
            ensure(&cache, &jbd, &balloc, &mut mem, i, 0).unwrap();
        }
        let freed = free_from(&cache, &jbd, &balloc, &mut mem, 100, 0).unwrap();
        assert_eq!(freed, 500);
        assert!(lookup(&cache, &mem, 99).unwrap().is_some());
        assert_eq!(lookup(&cache, &mem, 100).unwrap(), None);
        let freed2 = free_from(&cache, &jbd, &balloc, &mut mem, 0, 0).unwrap();
        assert_eq!(freed2, 100);
        assert_eq!(mem.blocks, 0);
        assert_eq!(balloc.free_count(), before, "indirect blocks also freed");
    }

    #[test]
    fn too_large_rejected() {
        let (cache, jbd, balloc, mut mem) = setup();
        assert_eq!(
            ensure(&cache, &jbd, &balloc, &mut mem, max_blocks(), 0),
            Err(FsError::FileTooLarge)
        );
    }
}
