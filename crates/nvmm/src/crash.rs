//! The persistence domain: tracking which stores would survive a crash.
//!
//! Real NVMM sits behind volatile CPU caches; a store is durable only once
//! its cacheline has been flushed (`clflush`) or was written with a
//! non-temporal instruction. [`Shadow`] models this with the durable bytes
//! of each *pending* cacheline — one holding a cached store that has not
//! been flushed yet — saved when a cached store first made the line
//! pending. A line that is not pending holds its durable bytes in the
//! device image itself, so the device keeps one image and a crash costs
//! O(pending lines): it writes the saved bytes back, throwing the pending
//! stores away exactly as power loss does to dirty cache contents.

use std::collections::HashMap;

use crate::CACHELINE;

/// The durable bytes of every pending cacheline of a device.
#[derive(Debug, Default)]
pub struct Shadow {
    /// Line index → the line's bytes before its first unflushed store.
    durable: HashMap<usize, [u8; CACHELINE]>,
}

/// First and last line index touched by a non-empty `[off, off+len)`.
fn line_span(off: u64, len: usize) -> (usize, usize) {
    let first = off as usize / CACHELINE;
    (first, (off as usize + len - 1) / CACHELINE)
}

impl Shadow {
    /// Number of cachelines currently pending (volatile-only).
    pub fn pending_lines(&self) -> usize {
        self.durable.len()
    }

    /// Makes every line touched by `[off, off+len)` pending, saving the
    /// current bytes of each line `mem` holds that was not pending yet
    /// (they are its durable bytes). Call before the store lands in `mem`.
    pub fn mark_range(&mut self, mem: &[u8], off: u64, len: usize) {
        if len == 0 {
            return;
        }
        let (first, last) = line_span(off, len);
        for line in first..=last {
            self.durable.entry(line).or_insert_with(|| {
                let mut bytes = [0u8; CACHELINE];
                bytes.copy_from_slice(&mem[line * CACHELINE..(line + 1) * CACHELINE]);
                bytes
            });
        }
    }

    /// Makes the lines touched by `[off, off+len)` durable as the image now
    /// holds them (a flush, or a non-temporal store over the range).
    /// Returns how many of them were pending.
    pub fn persist_range(&mut self, off: u64, len: usize) -> usize {
        if len == 0 || self.durable.is_empty() {
            return 0;
        }
        let (first, last) = line_span(off, len);
        let before = self.durable.len();
        if last - first >= before {
            self.durable
                .retain(|line, _| !(first..=last).contains(line));
        } else {
            for line in first..=last {
                self.durable.remove(&line);
            }
        }
        before - self.durable.len()
    }

    /// Simulates power loss where a subset of the pending lines made it out
    /// of the cache first: every pending line for which `keep` returns true
    /// stays as `mem` holds it, the rest get their durable bytes back.
    /// Returns the number of lines kept. Whole lines survive or die — there
    /// are no sub-line tears, matching real cacheline-granular eviction.
    pub fn crash_into(&mut self, mem: &mut [u8], mut keep: impl FnMut(usize) -> bool) -> usize {
        let mut kept = 0;
        for (line, bytes) in self.durable.drain() {
            if keep(line) {
                kept += 1;
            } else {
                mem[line * CACHELINE..(line + 1) * CACHELINE].copy_from_slice(&bytes);
            }
        }
        kept
    }
}

#[cfg(test)]
pub(crate) mod reference {
    //! The two-image model the map replaced, kept as the differential
    //! tests' oracle: a volatile image, a full persistent image and a set
    //! of pending lines, each operation spelled out on both images.

    use std::collections::BTreeSet;

    use crate::CACHELINE;

    pub struct TwoImages {
        pub volatile: Vec<u8>,
        pub persistent: Vec<u8>,
        pub pending: BTreeSet<usize>,
    }

    fn lines(off: u64, len: usize) -> std::ops::Range<usize> {
        if len == 0 {
            return 0..0;
        }
        off as usize / CACHELINE..(off as usize + len - 1) / CACHELINE + 1
    }

    impl TwoImages {
        pub fn new(len: usize) -> Self {
            TwoImages {
                volatile: vec![0; len],
                persistent: vec![0; len],
                pending: BTreeSet::new(),
            }
        }

        fn persist_line(&mut self, line: usize) {
            let r = line * CACHELINE..(line + 1) * CACHELINE;
            self.persistent[r.clone()].copy_from_slice(&self.volatile[r]);
            self.pending.remove(&line);
        }

        pub fn write_cached(&mut self, off: u64, data: &[u8]) {
            self.volatile[off as usize..off as usize + data.len()].copy_from_slice(data);
            self.pending.extend(lines(off, data.len()));
        }

        /// A non-temporal store: the covering lines persist whole.
        pub fn write_persist(&mut self, off: u64, data: &[u8]) {
            self.volatile[off as usize..off as usize + data.len()].copy_from_slice(data);
            for line in lines(off, data.len()) {
                self.persist_line(line);
            }
        }

        /// Persists the pending lines of the range; returns their count.
        pub fn clflush(&mut self, off: u64, len: usize) -> usize {
            let hit: Vec<usize> = lines(off, len)
                .filter(|l| self.pending.contains(l))
                .collect();
            for &line in &hit {
                self.persist_line(line);
            }
            hit.len()
        }

        /// Pending lines `keep` picks persist, then the volatile image
        /// becomes the persistent one. Returns the number kept.
        pub fn crash(&mut self, mut keep: impl FnMut(usize) -> bool) -> usize {
            let kept: Vec<usize> = self.pending.iter().copied().filter(|&l| keep(l)).collect();
            for &line in &kept {
                self.persist_line(line);
            }
            self.volatile.copy_from_slice(&self.persistent);
            self.pending.clear();
            kept.len()
        }
    }
}

#[cfg(test)]
impl Shadow {
    /// The image a crash would leave `mem` as, computed without crashing.
    pub(crate) fn durable_image(&self, mem: &[u8]) -> Vec<u8> {
        let mut bytes = mem.to_vec();
        for (line, durable) in &self.durable {
            bytes[line * CACHELINE..(line + 1) * CACHELINE].copy_from_slice(durable);
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `len`-byte image whose every line was stored durably before.
    fn image(len: usize) -> (Vec<u8>, Shadow) {
        (vec![0u8; len], Shadow::default())
    }

    /// A cached store: mark first, then land the bytes.
    fn store(mem: &mut [u8], sh: &mut Shadow, off: usize, data: &[u8]) {
        sh.mark_range(mem, off as u64, data.len());
        mem[off..off + data.len()].copy_from_slice(data);
    }

    #[test]
    fn pending_until_flushed() {
        let (mut mem, mut sh) = image(256);
        store(&mut mem, &mut sh, 0, &[1, 2, 3, 4]);
        assert_eq!(sh.pending_lines(), 1);
        assert_eq!(sh.durable[&0][0], 0, "the durable line is the old one");
        assert_eq!(sh.persist_range(0, 4), 1);
        assert_eq!(sh.pending_lines(), 0);
        sh.crash_into(&mut mem, |_| false);
        assert_eq!(mem[0..4], [1, 2, 3, 4]);
    }

    #[test]
    fn crash_discards_pending() {
        let (mut mem, mut sh) = image(256);
        store(&mut mem, &mut sh, 64, &[9]);
        store(&mut mem, &mut sh, 128, &[7]);
        sh.persist_range(128, 1);
        assert_eq!(sh.crash_into(&mut mem, |_| false), 0);
        assert_eq!(mem[64], 0, "unflushed store lost");
        assert_eq!(mem[128], 7, "flushed store survives");
        assert_eq!(sh.pending_lines(), 0);
    }

    #[test]
    fn durable_bytes_are_the_first_pre_image() {
        let (mut mem, mut sh) = image(256);
        mem[10..20].fill(5);
        // A second store to a pending line keeps the first saved bytes.
        store(&mut mem, &mut sh, 10, &[6; 10]);
        store(&mut mem, &mut sh, 12, &[7; 4]);
        sh.crash_into(&mut mem, |_| false);
        assert!(mem[10..20].iter().all(|&b| b == 5));
    }

    #[test]
    fn persist_now_is_immediately_durable() {
        let (mut mem, mut sh) = image(256);
        store(&mut mem, &mut sh, 10, &[5; 10]);
        sh.persist_range(10, 10);
        sh.crash_into(&mut mem, |_| false);
        assert!(mem[10..20].iter().all(|&b| b == 5));
    }

    #[test]
    fn persist_now_clears_prior_pending() {
        let (mut mem, mut sh) = image(256);
        store(&mut mem, &mut sh, 0, &[1]);
        mem[1] = 2;
        sh.persist_range(0, 2);
        assert_eq!(sh.pending_lines(), 0);
        sh.crash_into(&mut mem, |_| false);
        assert_eq!(mem[0..2], [1, 2]);
    }

    #[test]
    fn partial_crash_keeps_chosen_lines_only() {
        let (mut mem, mut sh) = image(512);
        for line in 0..8 {
            store(&mut mem, &mut sh, line * 64, &[line as u8 + 1]);
        }
        // Keep even lines, lose odd ones.
        let kept = sh.crash_into(&mut mem, |line| line % 2 == 0);
        assert_eq!(kept, 4);
        assert_eq!(sh.pending_lines(), 0);
        for line in 0..8 {
            let want = if line % 2 == 0 { line as u8 + 1 } else { 0 };
            assert_eq!(mem[line * 64], want, "line {line}");
        }
    }

    #[test]
    fn flush_counts_only_pending_lines() {
        let (mut mem, mut sh) = image(512);
        store(&mut mem, &mut sh, 0, &[1]);
        store(&mut mem, &mut sh, 256, &[1]);
        store(&mut mem, &mut sh, 448, &[1]);
        // A narrow flush removes line by line, a wide one sweeps the map.
        assert_eq!(sh.persist_range(256, 1), 1);
        assert_eq!(sh.persist_range(0, 512), 2);
        assert_eq!(sh.persist_range(0, 512), 0);
    }
}
