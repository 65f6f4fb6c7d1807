//! Scripted operation sequences replayed by the crash enumerator.
//!
//! A [`Script`] is a flat list of [`Op`]s over a tiny namespace: files
//! `/f0../f3` and (always empty) directories `/d0../d1`. Keeping the
//! namespace flat keeps the durability oracle exact while still exercising
//! every journaled code path: creation, deletion, rename (including
//! overwrite), truncation, data writes, fsync and whole-FS sync.

use rand::{Rng, SeedableRng};

/// Number of distinct file slots a script may address.
pub const MAX_FILES: u8 = 4;
/// Number of distinct directory slots a script may address.
pub const MAX_DIRS: u8 = 2;
/// Per-operation payload cap in bytes.
pub const MAX_IO: usize = 12 * 1024;

/// One scripted operation. File and directory ids are slot numbers mapped
/// to paths by [`file_path`] / [`dir_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `open(O_CREAT|O_RDWR)` + `close`.
    Create { file: u8 },
    /// Positional write of `len` bytes of `fill` at `off`.
    Write {
        file: u8,
        off: u64,
        len: usize,
        fill: u8,
    },
    /// Append `len` bytes of `fill`.
    Append { file: u8, len: usize, fill: u8 },
    /// `fsync` the file.
    Fsync { file: u8 },
    /// Truncate (or zero-extend) to `size`.
    Truncate { file: u8, size: u64 },
    /// Remove the file's name.
    Unlink { file: u8 },
    /// Rename `from` onto `to` (replacing `to` if it exists).
    Rename { from: u8, to: u8 },
    /// Create a directory.
    Mkdir { dir: u8 },
    /// Remove a directory (always empty in these scripts).
    Rmdir { dir: u8 },
    /// Whole-FS `sync`.
    Sync,
    /// Advance simulated time past the periodic writeback/commit interval
    /// and let background machinery run.
    Tick,
}

impl Op {
    /// Draws one random operation with the sweep distribution (favouring
    /// writes and fsyncs, reaching every kind). Shared by
    /// [`Script::random`] and the fuzzer's insertion mutator, so both
    /// sample the same op space.
    pub fn random(rng: &mut rand::rngs::SmallRng) -> Op {
        let file = rng.gen_range(0..MAX_FILES);
        let fill = rng.gen_range(1u8..=255);
        match rng.gen_range(0u32..23) {
            0..=2 => Op::Create { file },
            3..=8 => Op::Write {
                file,
                off: rng.gen_range(0u64..32 * 1024),
                len: rng.gen_range(1..=MAX_IO),
                fill,
            },
            9..=11 => Op::Append {
                file,
                len: rng.gen_range(1..=MAX_IO),
                fill,
            },
            12..=15 => Op::Fsync { file },
            16 => Op::Truncate {
                file,
                size: rng.gen_range(0u64..40 * 1024),
            },
            17 => Op::Unlink { file },
            18 => Op::Rename {
                from: file,
                to: rng.gen_range(0..MAX_FILES),
            },
            19 => Op::Mkdir {
                dir: rng.gen_range(0..MAX_DIRS),
            },
            20 => Op::Rmdir {
                dir: rng.gen_range(0..MAX_DIRS),
            },
            21 => Op::Sync,
            _ => Op::Tick,
        }
    }

    /// One-line text form, the unit of the committed repro scripts:
    /// `write f1 4096 512 7` is a 512-byte write of fill `7` at offset
    /// 4096 into `/f1`. [`Op::parse`] round-trips it.
    pub fn to_text(&self) -> String {
        match *self {
            Op::Create { file } => format!("create f{file}"),
            Op::Write {
                file,
                off,
                len,
                fill,
            } => format!("write f{file} {off} {len} {fill}"),
            Op::Append { file, len, fill } => format!("append f{file} {len} {fill}"),
            Op::Fsync { file } => format!("fsync f{file}"),
            Op::Truncate { file, size } => format!("truncate f{file} {size}"),
            Op::Unlink { file } => format!("unlink f{file}"),
            Op::Rename { from, to } => format!("rename f{from} f{to}"),
            Op::Mkdir { dir } => format!("mkdir d{dir}"),
            Op::Rmdir { dir } => format!("rmdir d{dir}"),
            Op::Sync => "sync".to_string(),
            Op::Tick => "tick".to_string(),
        }
    }

    /// Parses the [`Op::to_text`] form. `None` on any malformed input,
    /// fill 0 included: the oracle tells a lost byte from a written one
    /// only because no script writes zeroes.
    pub fn parse(line: &str) -> Option<Op> {
        fn slot(tok: &str, prefix: char, max: u8) -> Option<u8> {
            let id: u8 = tok.strip_prefix(prefix)?.parse().ok()?;
            (id < max).then_some(id)
        }
        fn fill(tok: &str) -> Option<u8> {
            tok.parse().ok().filter(|&f| f != 0)
        }
        let mut t = line.split_whitespace();
        let op = match t.next()? {
            "create" => Op::Create {
                file: slot(t.next()?, 'f', MAX_FILES)?,
            },
            "write" => Op::Write {
                file: slot(t.next()?, 'f', MAX_FILES)?,
                off: t.next()?.parse().ok()?,
                len: t.next()?.parse().ok()?,
                fill: fill(t.next()?)?,
            },
            "append" => Op::Append {
                file: slot(t.next()?, 'f', MAX_FILES)?,
                len: t.next()?.parse().ok()?,
                fill: fill(t.next()?)?,
            },
            "fsync" => Op::Fsync {
                file: slot(t.next()?, 'f', MAX_FILES)?,
            },
            "truncate" => Op::Truncate {
                file: slot(t.next()?, 'f', MAX_FILES)?,
                size: t.next()?.parse().ok()?,
            },
            "unlink" => Op::Unlink {
                file: slot(t.next()?, 'f', MAX_FILES)?,
            },
            "rename" => Op::Rename {
                from: slot(t.next()?, 'f', MAX_FILES)?,
                to: slot(t.next()?, 'f', MAX_FILES)?,
            },
            "mkdir" => Op::Mkdir {
                dir: slot(t.next()?, 'd', MAX_DIRS)?,
            },
            "rmdir" => Op::Rmdir {
                dir: slot(t.next()?, 'd', MAX_DIRS)?,
            },
            "sync" => Op::Sync,
            "tick" => Op::Tick,
            _ => return None,
        };
        t.next().is_none().then_some(op)
    }
}

/// Path of file slot `id`.
pub fn file_path(id: u8) -> String {
    format!("/f{id}")
}

/// Path of directory slot `id`.
pub fn dir_path(id: u8) -> String {
    format!("/d{id}")
}

/// A replayable operation sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// The operations, executed in order.
    pub ops: Vec<Op>,
}

impl Script {
    /// Generates a deterministic random script of `n_ops` operations.
    ///
    /// The distribution favours writes and fsyncs (the interesting
    /// crash-consistency interleavings) but reaches every op kind. Invalid
    /// ops (writing an unlinked file, re-creating a live directory) are
    /// allowed on purpose: replay treats their clean errors as no-ops, so
    /// they double as error-path coverage.
    pub fn random(seed: u64, n_ops: usize) -> Script {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut ops = Vec::with_capacity(n_ops + 1);
        // Always start with one file so early crash points land on a
        // non-trivial namespace.
        ops.push(Op::Create { file: 0 });
        while ops.len() < n_ops + 1 {
            ops.push(Op::random(&mut rng));
        }
        Script { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_scripts_are_deterministic() {
        let a = Script::random(42, 20);
        let b = Script::random(42, 20);
        let c = Script::random(43, 20);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.ops.len(), 21);
        assert_eq!(a.ops[0], Op::Create { file: 0 });
    }

    #[test]
    fn op_text_round_trips() {
        for op in Script::random(0xBEEF, 200).ops {
            let line = op.to_text();
            assert_eq!(Op::parse(&line), Some(op), "round-trip of {line:?}");
        }
        assert_eq!(Op::parse("sync"), Some(Op::Sync));
        assert_eq!(Op::parse("  tick  "), Some(Op::Tick));
        for bad in [
            "",
            "write f0 1",
            "create f9",
            "create d0",
            "write f0 0 16 0",
            "append f1 16 0",
            "mkdir d5",
            "sync extra",
            "chmod f0",
        ] {
            assert_eq!(Op::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn random_ops_never_fill_zero() {
        for op in Script::random(0xF111, 2000).ops {
            if let Op::Write { fill, .. } | Op::Append { fill, .. } = op {
                assert_ne!(fill, 0, "{op:?}");
            }
        }
    }
}
