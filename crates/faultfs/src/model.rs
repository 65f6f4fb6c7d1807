//! The shared in-memory reference model.
//!
//! One model, three consumers, no drifting copies:
//!
//! - the **proptest** model tests (`tests/proptest_model.rs`) drive the
//!   byte-level API (`write`/`read`/`truncate`) against live mounts;
//! - the **fuzzer** ([`crate::fuzz`]) replays whole [`Op`] scripts through
//!   [`RefModel::apply`] and differentially compares the result against
//!   pmfs, hinfs and extfs with [`RefModel::diff`];
//! - the scripted **differential** tests reuse the same entry points.
//!
//! [`RefModel::apply`] mirrors the harness's `exec_op` semantics exactly:
//! data ops open *without* `CREATE`, so touching a missing file is
//! `NotFound`; `Create` on a live file is an `O_CREAT` open without
//! truncation (`Ok`, content kept); rename-to-self of a live file is
//! `Ok` and a no-op, like the real namespaces.
//!
//! [`ModelBug`] plants a deliberate divergence for the fuzzer's negative
//! test: the soak's self-test proves a buggy model is caught by the
//! differential and shrunk to a minimal reproducer within budget.

use std::collections::{BTreeMap, BTreeSet};

use fskit::{FileSystem, FsError, OpenFlags};

use crate::script::{dir_path, file_path, Op, MAX_DIRS, MAX_FILES};

/// A deliberate model defect, used only by the fuzzer's negative test
/// (`fuzz_fs --self-test`): the differential must catch the divergence
/// and shrink it to a minimal reproducer within the iteration budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelBug {
    /// A truncate that *extends* a file past `threshold` bytes silently
    /// keeps the old size — the classic forgotten-zero-fill bug. Minimal
    /// reproducer: `create f0; truncate f0 <size>` (two ops).
    TruncateExtendLost {
        /// Extension boundary in bytes above which the bug fires.
        threshold: u64,
    },
}

/// In-memory reference state: file slot → contents, plus the live
/// directory slots. `BTreeMap`/`BTreeSet` keep every walk deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefModel {
    files: BTreeMap<u8, Vec<u8>>,
    dirs: BTreeSet<u8>,
    bug: Option<ModelBug>,
}

impl RefModel {
    /// An empty model (no files, no directories).
    pub fn new() -> RefModel {
        RefModel::default()
    }

    /// An empty model with a planted defect.
    pub fn with_bug(bug: ModelBug) -> RefModel {
        RefModel {
            bug: Some(bug),
            ..RefModel::default()
        }
    }

    /// Whether file slot `file` currently exists.
    pub fn file_live(&self, file: u8) -> bool {
        self.files.contains_key(&file)
    }

    /// Whether directory slot `dir` currently exists.
    pub fn dir_live(&self, dir: u8) -> bool {
        self.dirs.contains(&dir)
    }

    /// Current size of file slot `file`, `None` when it does not exist.
    pub fn size(&self, file: u8) -> Option<u64> {
        self.files.get(&file).map(|v| v.len() as u64)
    }

    /// Current contents of file slot `file`.
    pub fn content(&self, file: u8) -> Option<&[u8]> {
        self.files.get(&file).map(|v| v.as_slice())
    }

    /// Ensures file slot `file` exists (the `O_CREAT` half of `Create`;
    /// existing content is kept, like an open without truncation).
    pub fn create(&mut self, file: u8) {
        self.files.entry(file).or_default();
    }

    /// Byte-level positional write, creating the slot and zero-extending
    /// as needed (the proptest tests pre-create their files, so the
    /// or-default never fires there).
    pub fn write(&mut self, file: u8, off: usize, data: &[u8]) {
        let img = self.files.entry(file).or_default();
        if img.len() < off + data.len() {
            img.resize(off + data.len(), 0);
        }
        img[off..off + data.len()].copy_from_slice(data);
    }

    /// Byte-level read, clamped to the current size (missing slot reads
    /// as empty, matching a zero-length image).
    pub fn read(&self, file: u8, off: usize, len: usize) -> Vec<u8> {
        let img = self.files.get(&file).map(|v| v.as_slice()).unwrap_or(&[]);
        if off >= img.len() {
            return Vec::new();
        }
        img[off..(off + len).min(img.len())].to_vec()
    }

    /// Byte-level truncate (shrink or zero-extend), creating the slot if
    /// needed. This is where a planted [`ModelBug`] diverges.
    pub fn truncate(&mut self, file: u8, size: usize) {
        let img = self.files.entry(file).or_default();
        if let Some(ModelBug::TruncateExtendLost { threshold }) = self.bug {
            if size as u64 > threshold && size > img.len() {
                return; // the bug: extension silently dropped
            }
        }
        img.resize(size, 0);
    }

    /// Applies one scripted operation with `exec_op` semantics, returning
    /// the error the real file systems are expected to return. Fuzzer and
    /// differential tests compare only the `Ok`/`Err` class per op (plus
    /// the full state at the end), so the exact variant here is advisory.
    pub fn apply(&mut self, op: &Op) -> Result<(), FsError> {
        match *op {
            Op::Create { file } => {
                self.create(file);
                Ok(())
            }
            Op::Write {
                file,
                off,
                len,
                fill,
            } => {
                if !self.file_live(file) {
                    return Err(FsError::NotFound);
                }
                self.write(file, off as usize, &vec![fill; len]);
                Ok(())
            }
            Op::Append { file, len, fill } => {
                if !self.file_live(file) {
                    return Err(FsError::NotFound);
                }
                let end = self.size(file).unwrap_or(0) as usize;
                self.write(file, end, &vec![fill; len]);
                Ok(())
            }
            Op::Fsync { file } => {
                if !self.file_live(file) {
                    return Err(FsError::NotFound);
                }
                Ok(())
            }
            Op::Truncate { file, size } => {
                if !self.file_live(file) {
                    return Err(FsError::NotFound);
                }
                self.truncate(file, size as usize);
                Ok(())
            }
            Op::Unlink { file } => {
                if self.files.remove(&file).is_none() {
                    return Err(FsError::NotFound);
                }
                Ok(())
            }
            Op::Rename { from, to } => {
                let img = self.files.remove(&from).ok_or(FsError::NotFound)?;
                self.files.insert(to, img);
                Ok(())
            }
            Op::Mkdir { dir } => {
                if !self.dirs.insert(dir) {
                    return Err(FsError::AlreadyExists);
                }
                Ok(())
            }
            Op::Rmdir { dir } => {
                if !self.dirs.remove(&dir) {
                    return Err(FsError::NotFound);
                }
                Ok(())
            }
            Op::Sync | Op::Tick => Ok(()),
        }
    }

    /// Full-state differential against a live (non-crashed) mount: every
    /// file slot's existence, size and bytes, every directory slot's
    /// existence. Returns one human-readable line per divergence, prefixed
    /// with `label`.
    pub fn diff(&self, fs: &dyn FileSystem, label: &str) -> Vec<String> {
        let mut out = Vec::new();
        for file in 0..MAX_FILES {
            let path = file_path(file);
            match (self.content(file), fs.open(&path, OpenFlags::READ)) {
                (None, Err(FsError::NotFound)) => {}
                (None, Err(e)) => {
                    out.push(format!("{label}: {path}: expected NotFound, got {e:?}"))
                }
                (None, Ok(fd)) => {
                    out.push(format!("{label}: {path}: exists but model says unlinked"));
                    let _ = fs.close(fd);
                }
                (Some(_), Err(e)) => out.push(format!(
                    "{label}: {path}: model live but open failed: {e:?}"
                )),
                (Some(want), Ok(fd)) => {
                    match fs.fstat(fd) {
                        Err(e) => out.push(format!("{label}: {path}: fstat failed: {e:?}")),
                        Ok(st) if st.size != want.len() as u64 => out.push(format!(
                            "{label}: {path}: size {} != model {}",
                            st.size,
                            want.len()
                        )),
                        Ok(_) => {
                            let mut got = vec![0u8; want.len()];
                            match fs.read(fd, 0, &mut got) {
                                Err(e) => out.push(format!("{label}: {path}: read failed: {e:?}")),
                                Ok(n) if n != want.len() => out.push(format!(
                                    "{label}: {path}: short read {n} of {}",
                                    want.len()
                                )),
                                Ok(_) => {
                                    if let Some(o) =
                                        got.iter().zip(want.iter()).position(|(g, w)| g != w)
                                    {
                                        out.push(format!(
                                            "{label}: {path}: byte {o} = {:#04x} != model {:#04x}",
                                            got[o], want[o]
                                        ));
                                    }
                                }
                            }
                        }
                    }
                    let _ = fs.close(fd);
                }
            }
        }
        for dir in 0..MAX_DIRS {
            let path = dir_path(dir);
            match (self.dir_live(dir), fs.stat(&path)) {
                (true, Ok(_)) | (false, Err(FsError::NotFound)) => {}
                (true, Err(e)) => out.push(format!(
                    "{label}: {path}: model live but stat failed: {e:?}"
                )),
                (false, Ok(_)) => {
                    out.push(format!("{label}: {path}: exists but model says removed"))
                }
                (false, Err(e)) => {
                    out.push(format!("{label}: {path}: expected NotFound, got {e:?}"))
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_mirrors_exec_op_semantics() {
        let mut m = RefModel::new();
        // Data ops on a missing file are NotFound (no CREATE on open).
        assert_eq!(
            m.apply(&Op::Write {
                file: 0,
                off: 0,
                len: 4,
                fill: 1
            }),
            Err(FsError::NotFound)
        );
        assert_eq!(m.apply(&Op::Fsync { file: 0 }), Err(FsError::NotFound));
        assert_eq!(m.apply(&Op::Create { file: 0 }), Ok(()));
        assert_eq!(
            m.apply(&Op::Append {
                file: 0,
                len: 3,
                fill: 7
            }),
            Ok(())
        );
        // Create on a live file keeps content (no O_TRUNC).
        assert_eq!(m.apply(&Op::Create { file: 0 }), Ok(()));
        assert_eq!(m.content(0), Some(&[7u8, 7, 7][..]));
        // Rename-to-self of a live file is Ok and a no-op.
        assert_eq!(m.apply(&Op::Rename { from: 0, to: 0 }), Ok(()));
        assert_eq!(m.size(0), Some(3));
        // Rename moves content and replaces the destination.
        assert_eq!(m.apply(&Op::Create { file: 1 }), Ok(()));
        assert_eq!(m.apply(&Op::Rename { from: 0, to: 1 }), Ok(()));
        assert!(!m.file_live(0));
        assert_eq!(m.content(1), Some(&[7u8, 7, 7][..]));
        assert_eq!(
            m.apply(&Op::Rename { from: 0, to: 1 }),
            Err(FsError::NotFound)
        );
        // Directory lifecycle.
        assert_eq!(m.apply(&Op::Rmdir { dir: 0 }), Err(FsError::NotFound));
        assert_eq!(m.apply(&Op::Mkdir { dir: 0 }), Ok(()));
        assert_eq!(m.apply(&Op::Mkdir { dir: 0 }), Err(FsError::AlreadyExists));
        assert_eq!(m.apply(&Op::Rmdir { dir: 0 }), Ok(()));
    }

    #[test]
    fn write_truncate_read_bytes() {
        let mut m = RefModel::new();
        m.create(2);
        m.write(2, 4, &[9, 9]);
        assert_eq!(m.size(2), Some(6));
        assert_eq!(m.read(2, 3, 3), vec![0, 9, 9]);
        assert_eq!(m.read(2, 6, 10), Vec::<u8>::new());
        m.truncate(2, 5);
        assert_eq!(m.content(2), Some(&[0u8, 0, 0, 0, 9][..]));
        m.truncate(2, 8);
        assert_eq!(m.size(2), Some(8));
        assert_eq!(m.read(2, 4, 4), vec![9, 0, 0, 0]);
    }

    #[test]
    fn planted_bug_drops_large_extensions_only() {
        let mut m = RefModel::with_bug(ModelBug::TruncateExtendLost { threshold: 100 });
        m.create(0);
        m.truncate(0, 80); // under the threshold: normal
        assert_eq!(m.size(0), Some(80));
        m.truncate(0, 200); // extension past the threshold: lost
        assert_eq!(m.size(0), Some(80));
        m.truncate(0, 10); // shrink always works
        assert_eq!(m.size(0), Some(10));
        // The same ops on a healthy model end at 200 then 10.
        let mut ok = RefModel::new();
        ok.create(0);
        ok.truncate(0, 80);
        ok.truncate(0, 200);
        assert_eq!(ok.size(0), Some(200));
    }
}
