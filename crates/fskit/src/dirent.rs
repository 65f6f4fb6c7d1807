//! The shared on-media directory entry format (ext2-style variable-length
//! records), used by both the PMFS-family and the ext-family file systems.
//!
//! Entry layout (byte offsets within an entry):
//!
//! ```text
//! 0..8   ino      (0 = free space)
//! 8..10  rec_len  (multiple of 4; entries tile the block exactly)
//! 10     name_len
//! 11     ftype
//! 12..   name bytes, padded to rec_len
//! ```

use nvmm::BLOCK_SIZE;

use crate::error::{FsError, Result};
use crate::types::{DirEntry, FileType};

/// Fixed header bytes of an entry.
pub const HDR: usize = 12;

fn align4(n: usize) -> usize {
    (n + 3) & !3
}

/// Bytes an entry with an `n`-byte name occupies at minimum.
pub fn entry_len(n: usize) -> usize {
    align4(HDR + n)
}

/// An entry header as the media holds it; the name follows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Target inode; 0 marks free space.
    pub ino: u64,
    /// Total record length including padding.
    pub rec_len: u16,
    /// Name length (0 for free records).
    pub name_len: u8,
    /// On-media file type byte.
    pub ftype: u8,
}

impl Header {
    /// A free record of `rec_len` bytes.
    pub fn free(rec_len: usize) -> Header {
        Header::live(0, rec_len, "", 0)
    }

    /// The header of entry `name -> ino` in a record of `rec_len` bytes.
    pub fn live(ino: u64, rec_len: usize, name: &str, ftype: u8) -> Header {
        Header {
            ino,
            rec_len: rec_len as u16,
            name_len: name.len() as u8,
            ftype,
        }
    }

    /// Bytes the record holds beyond what its entry uses: all of it for a
    /// free record, the padding after the name for a live one.
    pub fn slack(&self) -> usize {
        let used = if self.ino == 0 {
            0
        } else {
            entry_len(self.name_len as usize)
        };
        self.rec_len as usize - used
    }

    /// A live record's name (its bytes, `name`) and type; `None` for free
    /// space.
    pub fn named<'a>(&self, name: &'a [u8]) -> Result<Option<(&'a str, FileType)>> {
        if self.ino == 0 {
            return Ok(None);
        }
        let name = std::str::from_utf8(name).map_err(|_| FsError::Corrupted("dirent name utf8"))?;
        let ftype = FileType::from_u8(self.ftype).ok_or(FsError::Corrupted("dirent type"))?;
        Ok(Some((name, ftype)))
    }

    /// The header's on-media bytes.
    pub fn encode(&self) -> [u8; HDR] {
        let mut h = [0u8; HDR];
        h[0..8].copy_from_slice(&self.ino.to_le_bytes());
        h[8..10].copy_from_slice(&self.rec_len.to_le_bytes());
        h[10] = self.name_len;
        h[11] = self.ftype;
        h
    }
}

/// Parses one directory block into `(offset, header, name)` records (a
/// free record's name is empty, its `name_len` 0), validating that the
/// record chain tiles the block exactly.
pub fn parse_block(buf: &[u8]) -> Result<Vec<(usize, Header, &[u8])>> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < buf.len() {
        if off + HDR > buf.len() {
            return Err(FsError::Corrupted("dirent header past block end"));
        }
        let ino = crate::le::u64_at(buf, off);
        let rec_len = u16::from_le_bytes([buf[off + 8], buf[off + 9]]);
        let name_len = if ino == 0 { 0 } else { buf[off + 10] };
        let (len, n) = (rec_len as usize, name_len as usize);
        if len < HDR || !len.is_multiple_of(4) || off + len > buf.len() {
            return Err(FsError::Corrupted("dirent rec_len"));
        }
        if HDR + n > len {
            return Err(FsError::Corrupted("dirent name_len"));
        }
        let ftype = buf[off + 11];
        let hdr = Header {
            ino,
            rec_len,
            name_len,
            ftype,
        };
        out.push((off, hdr, &buf[off + HDR..off + HDR + n]));
        off += len;
    }
    Ok(out)
}

/// Hands a directory's `nblocks` blocks, in order, to `each` with their
/// physical numbers: `read(i, buf)` reads block `i` and returns its number.
pub fn scan(
    nblocks: u64,
    mut read: impl FnMut(u64, &mut [u8]) -> Result<u64>,
    mut each: impl FnMut(u64, &[u8]) -> Result<()>,
) -> Result<()> {
    let mut buf = vec![0u8; BLOCK_SIZE];
    for i in 0..nblocks {
        let pblk = read(i, &mut buf)?;
        each(pblk, &buf)?;
    }
    Ok(())
}

/// Every live entry of the directory [`scan`] reads, in media order.
pub fn list(
    nblocks: u64,
    read: impl FnMut(u64, &mut [u8]) -> Result<u64>,
) -> Result<Vec<DirEntry>> {
    let mut out = Vec::new();
    scan(nblocks, read, |_, block| {
        for (_, hdr, name) in parse_block(block)? {
            if let Some((name, ftype)) = hdr.named(name)? {
                let (name, ino) = (name.to_owned(), hdr.ino);
                out.push(DirEntry { name, ino, ftype });
            }
        }
        Ok(())
    })?;
    Ok(out)
}

/// Builds a fresh directory block containing one entry followed by a free
/// record covering the remainder.
pub fn init_block(block_size: usize, ino: u64, name: &str, ftype: u8) -> Vec<u8> {
    let need = entry_len(name.len());
    debug_assert!(need + HDR <= block_size);
    let mut block = vec![0u8; block_size];
    block[0..HDR].copy_from_slice(&Header::live(ino, need, name, ftype).encode());
    block[HDR..HDR + name.len()].copy_from_slice(name.as_bytes());
    block[need..need + HDR].copy_from_slice(&Header::free(block_size - need).encode());
    block
}

/// Builds an empty directory block (one free record).
#[cfg(test)]
pub(crate) fn empty_block(block_size: usize) -> Vec<u8> {
    let mut block = vec![0u8; block_size];
    block[0..HDR].copy_from_slice(&Header::free(block_size).encode());
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_len_alignment() {
        assert_eq!(entry_len(0), 12);
        assert_eq!(entry_len(1), 16);
        assert_eq!(entry_len(4), 16);
        assert_eq!(entry_len(5), 20);
        assert_eq!(entry_len(255), align4(267));
    }

    #[test]
    fn parse_init_block() {
        let b = init_block(4096, 7, "hello", 1);
        let entries = parse_block(&b).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1.ino, 7);
        assert_eq!(entries[0].2, b"hello");
        assert_eq!(entries[1].1.ino, 0);
        assert_eq!(entries[0].1.rec_len + entries[1].1.rec_len, 4096);
    }

    #[test]
    fn parse_empty_block() {
        let b = empty_block(4096);
        let entries = parse_block(&b).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1.ino, 0);
        assert_eq!(entries[0].1.rec_len, 4096);
    }

    #[test]
    fn corrupt_chain_rejected() {
        let mut b = empty_block(4096);
        // rec_len 0.
        b[8] = 0;
        b[9] = 0;
        assert!(parse_block(&b).is_err());
        // rec_len unaligned.
        let mut b = empty_block(4096);
        b[8..10].copy_from_slice(&13u16.to_le_bytes());
        assert!(parse_block(&b).is_err());
        // name_len beyond rec_len.
        let mut b = init_block(4096, 1, "ab", 1);
        b[10] = 200;
        assert!(parse_block(&b).is_err());
    }
}
