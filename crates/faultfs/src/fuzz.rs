//! Coverage-guided scenario fuzzing with differential model checking and
//! auto-shrinking crash reproducers.
//!
//! The scripted sweeps in `tests/` replay hand-picked op sequences; this
//! module evolves them. A [`Fuzzer`] keeps a corpus of op scripts and a
//! global [`CoverageMap`], and each iteration:
//!
//! 1. **mutates** a corpus script (insert/delete/splice/duplicate ops,
//!    perturb sizes/offsets/fills, toggle fsync placement, remap file
//!    slots so inodes collide on one shard, optionally vary the thread
//!    count);
//! 2. **differentially checks** the mutant on every [`FsKind`] against
//!    the shared [`RefModel`]: per-op outcome classes must agree, and the
//!    final files/directories must match byte-for-byte;
//! 3. **scores coverage** from what the repo already observes — trace-ring
//!    event kinds with bucketed payloads, contention-site first-hits,
//!    invariant-auditor state classes, per-op outcome classes — and, for
//!    mutants that earn new points, runs a **bounded crash-schedule
//!    sweep** whose boundary depths, mid-op crashes and recovery depths
//!    feed back as crash-domain coverage while the durability oracle
//!    judges every recovery;
//! 4. **shrinks** any violation with delta-debugging over ops, then over
//!    crash points, into a [`Repro`] — a small text script committed under
//!    `tests/repro/` and replayed verbatim by `tests/fuzz_regress.rs`.
//!
//! Everything runs on the virtual clock from one seeded [`SmallRng`], so
//! a fixed [`FuzzConfig`] replays bit-identically: same corpus, same
//! coverage digest, same shrunk reproducers. The one exception is
//! `threads > 1` cases (off by default), which record their persistence-
//! boundary schedule under real threads and then replay crashes at the
//! recorded boundary indices deterministically, single-threaded — the
//! same record-then-replay pattern as `tests/concurrency.rs`.

use std::collections::BTreeSet;

use fskit::{FileSystem, FsError};
use hinfs::Hinfs;
use nvmm::{CostModel, FaultPlan, NvmmDevice, SimEnv};
use obsv::{CoverageMap, Introspect, Level};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::{exec_op, pick_points, pmfs_opts, Harness, DEV_BYTES};
use crate::model::{ModelBug, RefModel};
use crate::script::{FsKind, Op, Script, MAX_DIRS, MAX_FILES, MAX_IO};

/// Knobs of one fuzzing campaign. A fixed config is a fixed run: every
/// field feeds the same seeded RNG and virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed for corpus generation and mutation.
    pub seed: u64,
    /// Mutation iterations after the seed corpus.
    pub iterations: usize,
    /// Seed scripts the corpus starts from (the "scripted corpus"
    /// baseline the campaign must out-cover).
    pub seed_scripts: usize,
    /// Op count of each seed script.
    pub script_len: usize,
    /// Hard cap on mutated script length.
    pub max_ops: usize,
    /// Crash points enumerated per kind when a case earns coverage.
    pub crash_points: usize,
    /// Maximum thread count the mutator may assign (1 keeps the whole
    /// campaign on the virtual clock and byte-reproducible).
    pub max_threads: u8,
    /// Cap on shrunk reproducers returned.
    pub max_repros: usize,
    /// Budget of predicate evaluations per shrink.
    pub shrink_budget: usize,
    /// Deliberate model defect for the negative self-test.
    pub bug: Option<ModelBug>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xF022_5EED,
            iterations: 48,
            seed_scripts: 4,
            script_len: 12,
            max_ops: 48,
            crash_points: 4,
            max_threads: 1,
            max_repros: 4,
            shrink_budget: 400,
            bug: None,
        }
    }
}

/// One corpus entry: a script plus the thread count it runs under.
#[derive(Debug, Clone)]
struct FuzzCase {
    script: Script,
    threads: u8,
}

/// A violation the campaign surfaced, before shrinking.
#[derive(Debug)]
enum Found {
    /// The file system and the reference model disagreed.
    Differential { kind: FsKind, messages: Vec<String> },
    /// The durability oracle rejected a recovery.
    Crash {
        kind: FsKind,
        boundary: u64,
        torn: bool,
        threads: u8,
        messages: Vec<String>,
    },
}

/// A minimal, committed, deterministic reproducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// Stable slug (also the suggested file stem).
    pub name: String,
    /// The kind that exhibited the violation; `None` replays all kinds.
    pub kind: Option<FsKind>,
    /// Thread count the violation was discovered under. Replay is always
    /// single-threaded: for `threads > 1` the `boundaries` below were
    /// recorded under real threads and replayed at those indices.
    pub threads: u8,
    /// Crash boundaries to arm on replay (empty: differential only).
    pub boundaries: Vec<u64>,
    /// One-line provenance note.
    pub note: String,
    /// The shrunk script.
    pub script: Script,
}

impl Repro {
    /// Serializes to the committed text form (see `tests/repro/`).
    pub fn to_text(&self) -> String {
        let mut s = String::from("# faultfs repro v1\n");
        s.push_str(&format!("name: {}\n", self.name));
        s.push_str(&format!(
            "kind: {}\n",
            self.kind.map_or("all", |k| k.label())
        ));
        s.push_str(&format!("threads: {}\n", self.threads));
        let bs: Vec<String> = self.boundaries.iter().map(|b| b.to_string()).collect();
        s.push_str(&format!("boundaries: {}\n", bs.join(",")));
        s.push_str(&format!("note: {}\n", self.note));
        s.push_str("ops:\n");
        for op in &self.script.ops {
            s.push_str(&op.to_text());
            s.push('\n');
        }
        s
    }

    /// Parses the [`Repro::to_text`] form.
    pub fn parse(text: &str) -> Result<Repro, String> {
        let mut name = String::new();
        let mut kind = None;
        let mut threads = 1u8;
        let mut boundaries = Vec::new();
        let mut note = String::new();
        let mut ops = Vec::new();
        let mut in_ops = false;
        for (lno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if in_ops {
                match Op::parse(line) {
                    Some(op) => ops.push(op),
                    None => return Err(format!("line {}: bad op {line:?}", lno + 1)),
                }
                continue;
            }
            let (key, val) = line
                .split_once(':')
                .ok_or_else(|| format!("line {}: expected `key: value`", lno + 1))?;
            let val = val.trim();
            match key.trim() {
                "name" => name = val.to_string(),
                "kind" => {
                    kind = match val {
                        "all" => None,
                        "hinfs" => Some(FsKind::Hinfs),
                        "pmfs" => Some(FsKind::Pmfs),
                        "ext4" => Some(FsKind::Ext4),
                        _ => return Err(format!("line {}: unknown kind {val:?}", lno + 1)),
                    }
                }
                "threads" => {
                    threads = val
                        .parse()
                        .map_err(|_| format!("line {}: bad threads", lno + 1))?
                }
                "boundaries" => {
                    for tok in val.split(',').filter(|t| !t.trim().is_empty()) {
                        boundaries.push(
                            tok.trim()
                                .parse()
                                .map_err(|_| format!("line {}: bad boundary {tok:?}", lno + 1))?,
                        );
                    }
                }
                "note" => note = val.to_string(),
                "ops" => in_ops = true,
                other => return Err(format!("line {}: unknown key {other:?}", lno + 1)),
            }
        }
        if ops.is_empty() {
            return Err("no ops".to_string());
        }
        Ok(Repro {
            name,
            kind,
            threads,
            boundaries,
            note,
            script: Script { ops },
        })
    }

    /// Replays the reproducer deterministically (single-threaded, virtual
    /// clock): the differential against the healthy model on the repro's
    /// kind(s), then a crash-recover-check at every recorded boundary.
    /// Returns every violation; empty means the regression stays fixed.
    pub fn replay(&self, h: &Harness) -> Vec<String> {
        let kinds: Vec<FsKind> = match self.kind {
            Some(k) => vec![k],
            None => FsKind::ALL.to_vec(),
        };
        let mut vs = Vec::new();
        for &kind in &kinds {
            vs.extend(differential(h, kind, &self.script.ops, None));
            for &k in &self.boundaries {
                let out = h.crash_run(kind, &self.script, k, None);
                for v in out.violations {
                    vs.push(format!("[{} k={k}] {v}", kind.label()));
                }
            }
        }
        vs
    }
}

/// Result of one fuzzing campaign.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Coverage after replaying only the seed scripts (the scripted
    /// baseline the campaign must strictly beat).
    pub baseline: CoverageMap,
    /// Coverage at the end of the campaign.
    pub coverage: CoverageMap,
    /// Mutation iterations executed.
    pub iterations: usize,
    /// Corpus size at the end (seeds + coverage-earning mutants).
    pub corpus_size: usize,
    /// Differential legs executed (one per kind per evaluated case).
    pub diff_legs: u64,
    /// Crash-recover-check cycles executed.
    pub crash_runs: u64,
    /// Durability-oracle assertions evaluated across all crash runs.
    pub oracle_checks: u64,
    /// Shrunk reproducers for every violation found (empty = clean).
    pub repros: Vec<Repro>,
}

/// The coverage-guided fuzzing engine.
pub struct Fuzzer {
    cfg: FuzzConfig,
    h: Harness,
    rng: SmallRng,
    coverage: CoverageMap,
    corpus: Vec<FuzzCase>,
    diff_legs: u64,
    crash_runs: u64,
    oracle_checks: u64,
    repros: Vec<Repro>,
    seen_repros: BTreeSet<String>,
}

impl Fuzzer {
    /// A fresh campaign.
    pub fn new(cfg: FuzzConfig) -> Fuzzer {
        Fuzzer {
            cfg,
            h: Harness::new(),
            rng: SmallRng::seed_from_u64(cfg.seed),
            coverage: CoverageMap::new(),
            corpus: Vec::new(),
            diff_legs: 0,
            crash_runs: 0,
            oracle_checks: 0,
            repros: Vec::new(),
            seen_repros: BTreeSet::new(),
        }
    }

    /// Runs the campaign to completion.
    pub fn run(mut self) -> FuzzOutcome {
        // Seed corpus: the same shape the scripted tests replay. Every
        // seed gets the full evaluation (differential + crash sweep), so
        // the baseline is exactly "replay the scripted corpus".
        for i in 0..self.cfg.seed_scripts {
            let script = Script::random(
                self.cfg
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
                self.cfg.script_len,
            );
            let case = FuzzCase { script, threads: 1 };
            let founds = self.evaluate(&case, true).1;
            self.absorb_founds(founds, &case);
            self.corpus.push(case);
        }
        let baseline = self.coverage.clone();

        for _ in 0..self.cfg.iterations {
            let parent = self.rng.gen_range(0..self.corpus.len());
            let case = self.mutate_case(parent);
            let (new_cov, founds) = self.evaluate(&case, false);
            self.absorb_founds(founds, &case);
            if new_cov > 0 {
                self.corpus.push(case);
            }
        }

        FuzzOutcome {
            baseline,
            coverage: self.coverage,
            iterations: self.cfg.iterations,
            corpus_size: self.corpus.len(),
            diff_legs: self.diff_legs,
            crash_runs: self.crash_runs,
            oracle_checks: self.oracle_checks,
            repros: self.repros,
        }
    }

    /// Shrinks and records every violation of one case, deduplicating by
    /// the shrunk reproducer's stable name.
    fn absorb_founds(&mut self, founds: Vec<Found>, case: &FuzzCase) {
        for f in founds {
            if self.repros.len() >= self.cfg.max_repros {
                return;
            }
            let repro = self.shrink(&f, &case.script.ops);
            if self.seen_repros.insert(repro.name.clone()) {
                self.repros.push(repro);
            }
        }
    }

    /// Full evaluation of one case: differential legs on every kind with
    /// coverage scoring, then (for coverage-earning or violating cases,
    /// or unconditionally when `force_crash`) the bounded crash sweep.
    /// Returns the number of new global coverage points and any
    /// violations.
    fn evaluate(&mut self, case: &FuzzCase, force_crash: bool) -> (usize, Vec<Found>) {
        if case.threads > 1 {
            return self.evaluate_threaded(case);
        }
        let mut cov = CoverageMap::new();
        let mut founds = Vec::new();
        for kind in FsKind::ALL {
            let messages = self.diff_leg(kind, &case.script, &mut cov);
            if !messages.is_empty() {
                founds.push(Found::Differential { kind, messages });
            }
        }
        let mut new = self.coverage.merge(&cov);
        if new > 0 || force_crash || !founds.is_empty() {
            let mut ccov = CoverageMap::new();
            for kind in FsKind::ALL {
                self.crash_leg(kind, &case.script, 1, &mut ccov, &mut founds);
            }
            new += self.coverage.merge(&ccov);
        }
        (new, founds)
    }

    /// One differential leg: replay on a fresh `kind` image with tracing,
    /// contention counting and the reference model in lockstep; fold
    /// trace/state/site/op coverage into `cov`.
    fn diff_leg(&mut self, kind: FsKind, script: &Script, cov: &mut CoverageMap) -> Vec<String> {
        self.diff_legs += 1;
        let ctx = kind_ctx(kind);
        let b = self.h.build(kind);
        b.obs.set_level(Level::Counts);
        b.env.contention().set_level(Level::Counts);
        let mut model = match self.cfg.bug {
            Some(bug) => RefModel::with_bug(bug),
            None => RefModel::new(),
        };
        let mut vs = Vec::new();
        let mut capped = false;
        for (i, op) in script.ops.iter().enumerate() {
            let got = exec_op(&*b.fs, &b.env, op);
            let want = model.apply(op);
            cov.add_op_outcome(ctx, op_index(op), outcome_class(&got));
            match (&got, &want) {
                (Ok(()), Ok(())) | (Err(_), Err(_)) => {}
                (Ok(()), Err(e)) => {
                    vs.push(format!(
                        "{}: op {i} `{}` succeeded but the model expects {e:?}",
                        kind.label(),
                        op.to_text()
                    ));
                    break;
                }
                (Err(ge), Ok(())) => {
                    if resource_error(ge) {
                        // Resource exhaustion is capacity policy, not a
                        // semantic divergence; stop this leg cleanly.
                        capped = true;
                        break;
                    }
                    vs.push(format!(
                        "{}: op {i} `{}` failed {ge:?} but the model succeeds",
                        kind.label(),
                        op.to_text()
                    ));
                    break;
                }
            }
        }
        if vs.is_empty() && !capped {
            vs.extend(model.diff(&*b.fs, kind.label()));
        }
        for rec in b.obs.trace.tail(4096) {
            cov.add_trace(ctx, &rec.ev);
        }
        cov.add_state(ctx, &b.intro.snapshot());
        let rep = b.intro.audit();
        for v in &rep.violations {
            vs.push(format!("{}: live audit: {v}", kind.label()));
        }
        cov.add_contention(ctx, &b.env.contention().snapshot());
        let _ = b.fs.unmount();
        vs
    }

    /// Bounded crash-schedule sweep of one kind: record the schedule,
    /// crash at an evenly strided selection of boundaries (every third
    /// with a torn store buffer), oracle-check each recovery, and feed
    /// the crash shapes back as coverage.
    fn crash_leg(
        &mut self,
        kind: FsKind,
        script: &Script,
        threads: u8,
        cov: &mut CoverageMap,
        founds: &mut Vec<Found>,
    ) {
        let ctx = kind_ctx(kind);
        let schedule = self.h.record_schedule(kind, script);
        cov.add_schedule_depth(ctx, schedule.len() as u64);
        let points = pick_points(schedule.len() as u64, self.cfg.crash_points);
        for (i, &k) in points.iter().enumerate() {
            let torn_seed = (i % 3 == 2).then_some(self.cfg.seed ^ k);
            let out = self.h.crash_run(kind, script, k, torn_seed);
            self.crash_runs += 1;
            self.oracle_checks += out.checks;
            cov.add_crash_run(ctx, k, out.crashed_mid_op, out.torn, out.entries_undone);
            if !out.violations.is_empty() {
                founds.push(Found::Crash {
                    kind,
                    boundary: k,
                    torn: out.torn,
                    threads,
                    messages: out.violations,
                });
            }
        }
    }

    /// Threaded evaluation (the `tests/concurrency.rs` pattern): run the
    /// script's ops round-robin across real threads on a spin-mode HiNFS
    /// mount with the device recording persistence boundaries, audit the
    /// surviving mount, then replay crashes at the *recorded* boundary
    /// indices deterministically, single-threaded, through the harness.
    fn evaluate_threaded(&mut self, case: &FuzzCase) -> (usize, Vec<Found>) {
        let mut cov = CoverageMap::new();
        let mut founds = Vec::new();
        let ctx = kind_ctx(FsKind::Hinfs);
        let threads = case.threads as usize;

        let env = SimEnv::new_spin(CostModel::default());
        let dev = NvmmDevice::new_tracked(env.clone(), DEV_BYTES);
        let fs = Hinfs::mkfs(dev.clone(), pmfs_opts(), self.h.hinfs_cfg()).expect("hinfs mkfs");
        let plan = FaultPlan::new();
        dev.fault_hook().install(plan.clone());
        plan.start_recording();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let ops: Vec<Op> = case
                    .script
                    .ops
                    .iter()
                    .skip(t)
                    .step_by(threads)
                    .copied()
                    .collect();
                let fs = fs.clone();
                let env = env.clone();
                scope.spawn(move || {
                    for op in &ops {
                        // Clean errors (racing unlinks, missing files) are
                        // part of concurrent semantics; panics are not.
                        let _ = exec_op(&*fs, &env, op);
                    }
                });
            }
        });
        let schedule = plan.stop_recording();
        dev.fault_hook().clear();
        let rep = Introspect::audit(fs.as_ref());
        for v in &rep.violations {
            founds.push(Found::Crash {
                kind: FsKind::Hinfs,
                boundary: 0,
                torn: false,
                threads: case.threads,
                messages: vec![format!("post-run audit under {threads} threads: {v}")],
            });
        }
        let _ = fs.unmount();

        cov.add_schedule_depth(ctx, schedule.len() as u64);
        let crash_points: Vec<u64> = schedule
            .iter()
            .filter(|b| b.index > 0)
            .map(|b| b.index)
            .collect();
        // Quartile selection over the recorded schedule, like
        // tests/concurrency.rs, capped by the crash budget.
        if !crash_points.is_empty() {
            let quarts = self.cfg.crash_points.max(2);
            for q in 0..quarts {
                let k = crash_points[(crash_points.len() - 1) * q / (quarts - 1).max(1)];
                let out = self.h.crash_run(FsKind::Hinfs, &case.script, k, None);
                self.crash_runs += 1;
                self.oracle_checks += out.checks;
                cov.add_crash_run(ctx, k, out.crashed_mid_op, out.torn, out.entries_undone);
                if !out.violations.is_empty() {
                    founds.push(Found::Crash {
                        kind: FsKind::Hinfs,
                        boundary: k,
                        torn: false,
                        threads: case.threads,
                        messages: out.violations,
                    });
                }
            }
        }
        (self.coverage.merge(&cov), founds)
    }

    /// Shrinks one violation to a [`Repro`]: ddmin over the ops while the
    /// violation predicate still fails, then (for crash violations) over
    /// the crash points of the shrunk script.
    fn shrink(&mut self, found: &Found, ops: &[Op]) -> Repro {
        let mut budget = self.cfg.shrink_budget;
        match *found {
            Found::Differential { kind, ref messages } => {
                let bug = self.cfg.bug;
                let h = &self.h;
                let min = ddmin(ops.to_vec(), &mut |cand| {
                    if budget == 0 {
                        return false;
                    }
                    budget -= 1;
                    !differential(h, kind, cand, bug).is_empty()
                });
                let script = Script { ops: min };
                Repro {
                    name: format!("diff_{}_{:012x}", kind.label(), repro_hash(&script, &[])),
                    kind: Some(kind),
                    threads: 1,
                    boundaries: Vec::new(),
                    note: messages.first().cloned().unwrap_or_default(),
                    script,
                }
            }
            Found::Crash {
                kind,
                boundary,
                torn,
                threads,
                ref messages,
            } => {
                let seed = self.cfg.seed;
                let h = &self.h;
                let cap = self.cfg.crash_points.max(4);
                let fails = |cand: &[Op], budget: &mut usize| -> Option<u64> {
                    if *budget == 0 {
                        return None;
                    }
                    *budget -= 1;
                    let s = Script { ops: cand.to_vec() };
                    let sched = h.record_schedule(kind, &s).len() as u64;
                    pick_points(sched, cap).into_iter().find(|&k| {
                        let ts = torn.then_some(seed ^ k);
                        !h.crash_run(kind, &s, k, ts).violations.is_empty()
                    })
                };
                // A threaded discovery may not reproduce single-threaded;
                // keep the recorded script + boundary verbatim then.
                if threads > 1 && fails(ops, &mut budget).is_none() {
                    let script = Script { ops: ops.to_vec() };
                    return Repro {
                        name: format!(
                            "crash_{}_t{}_{:012x}",
                            kind.label(),
                            threads,
                            repro_hash(&script, &[boundary])
                        ),
                        kind: Some(kind),
                        threads,
                        boundaries: vec![boundary],
                        note: format!(
                            "recorded under {threads} threads; {}",
                            messages.first().cloned().unwrap_or_default()
                        ),
                        script,
                    };
                }
                let min = ddmin(ops.to_vec(), &mut |cand| fails(cand, &mut budget).is_some());
                // Minimize the crash point over the shrunk script.
                let k = fails(&min, &mut budget).unwrap_or(boundary);
                let script = Script { ops: min };
                Repro {
                    name: format!(
                        "crash_{}_{}{:012x}",
                        kind.label(),
                        if torn { "torn_" } else { "" },
                        repro_hash(&script, &[k])
                    ),
                    kind: Some(kind),
                    threads,
                    boundaries: vec![k],
                    note: messages.first().cloned().unwrap_or_default(),
                    script,
                }
            }
        }
    }

    /// Mutates corpus entry `parent` into a new case: one to three
    /// mutation steps drawn from the full operator set.
    fn mutate_case(&mut self, parent: usize) -> FuzzCase {
        let mut ops = self.corpus[parent].script.ops.clone();
        let mut threads = self.corpus[parent].threads;
        let steps = 1 + self.rng.gen_range(0u32..3);
        for _ in 0..steps {
            match self.rng.gen_range(0u32..24) {
                0..=5 => {
                    let at = self.rng.gen_range(0..=ops.len());
                    let op = Op::random(&mut self.rng);
                    ops.insert(at, op);
                }
                6..=8 => {
                    if ops.len() > 1 {
                        let at = self.rng.gen_range(0..ops.len());
                        ops.remove(at);
                    }
                }
                9..=10 => {
                    let at = self.rng.gen_range(0..ops.len());
                    let op = ops[at];
                    ops.insert(at, op);
                }
                11..=13 => {
                    // Splice a slice from another corpus member.
                    let donor_i = self.rng.gen_range(0..self.corpus.len());
                    let donor = &self.corpus[donor_i].script.ops;
                    if !donor.is_empty() {
                        let s = self.rng.gen_range(0..donor.len());
                        let e = (s + 1 + self.rng.gen_range(0..4usize)).min(donor.len());
                        let slice: Vec<Op> = donor[s..e].to_vec();
                        let at = self.rng.gen_range(0..=ops.len());
                        for (j, op) in slice.into_iter().enumerate() {
                            ops.insert(at + j, op);
                        }
                    }
                }
                14..=18 => {
                    let at = self.rng.gen_range(0..ops.len());
                    ops[at] = self.perturb(ops[at]);
                }
                19..=20 => {
                    // Toggle fsync placement.
                    let fsyncs: Vec<usize> = ops
                        .iter()
                        .enumerate()
                        .filter(|(_, o)| matches!(o, Op::Fsync { .. }))
                        .map(|(i, _)| i)
                        .collect();
                    if !fsyncs.is_empty() && self.rng.gen_range(0u32..2) == 0 {
                        ops.remove(fsyncs[self.rng.gen_range(0..fsyncs.len())]);
                    } else {
                        let at = self.rng.gen_range(0..=ops.len());
                        let file = self.rng.gen_range(0..MAX_FILES);
                        ops.insert(at, Op::Fsync { file });
                    }
                }
                21..=22 => {
                    // Remap one file slot onto another: with inode-keyed
                    // sharding this is the shard-collision mutator.
                    let a = self.rng.gen_range(0..MAX_FILES);
                    let to = self.rng.gen_range(0..MAX_FILES);
                    for op in ops.iter_mut() {
                        remap_file(op, a, to);
                    }
                }
                _ => {
                    if self.cfg.max_threads > 1 {
                        threads = 1 + self.rng.gen_range(0..self.cfg.max_threads);
                    }
                }
            }
        }
        ops.truncate(self.cfg.max_ops);
        if ops.is_empty() {
            ops.push(Op::Create { file: 0 });
        }
        FuzzCase {
            script: Script { ops },
            threads,
        }
    }

    /// Rewrites one op's parameters in place.
    fn perturb(&mut self, op: Op) -> Op {
        let rng = &mut self.rng;
        let file = rng.gen_range(0..MAX_FILES);
        match op {
            Op::Write {
                file: f,
                off,
                len,
                fill,
            } => match rng.gen_range(0u32..4) {
                0 => Op::Write {
                    file,
                    off,
                    len,
                    fill,
                },
                1 => Op::Write {
                    file: f,
                    off: rng.gen_range(0u64..40 * 1024),
                    len,
                    fill,
                },
                2 => Op::Write {
                    file: f,
                    off,
                    len: rng.gen_range(1..=MAX_IO),
                    fill,
                },
                _ => Op::Write {
                    file: f,
                    off,
                    len,
                    fill: rng.gen_range(1u8..=255),
                },
            },
            Op::Append { file: f, len, fill } => match rng.gen_range(0u32..3) {
                0 => Op::Append { file, len, fill },
                1 => Op::Append {
                    file: f,
                    len: rng.gen_range(1..=MAX_IO),
                    fill,
                },
                _ => Op::Append {
                    file: f,
                    len,
                    fill: rng.gen_range(1u8..=255),
                },
            },
            Op::Truncate { file: f, .. } => match rng.gen_range(0u32..2) {
                0 => Op::Truncate {
                    file,
                    size: rng.gen_range(0u64..40 * 1024),
                },
                _ => Op::Truncate {
                    file: f,
                    size: rng.gen_range(0u64..40 * 1024),
                },
            },
            Op::Create { .. } => Op::Create { file },
            Op::Fsync { .. } => Op::Fsync { file },
            Op::Unlink { .. } => Op::Unlink { file },
            Op::Rename { from, .. } => Op::Rename {
                from,
                to: rng.gen_range(0..MAX_FILES),
            },
            Op::Mkdir { .. } => Op::Mkdir {
                dir: rng.gen_range(0..MAX_DIRS),
            },
            Op::Rmdir { .. } => Op::Rmdir {
                dir: rng.gen_range(0..MAX_DIRS),
            },
            Op::Sync | Op::Tick => Op::random(rng),
        }
    }
}

/// Rewrites every reference to file slot `a` in `op` to `to`.
fn remap_file(op: &mut Op, a: u8, to: u8) {
    match op {
        Op::Create { file }
        | Op::Write { file, .. }
        | Op::Append { file, .. }
        | Op::Fsync { file }
        | Op::Truncate { file, .. }
        | Op::Unlink { file } => {
            if *file == a {
                *file = to;
            }
        }
        Op::Rename { from, to: t } => {
            if *from == a {
                *from = to;
            }
            if *t == a {
                *t = to;
            }
        }
        Op::Mkdir { .. } | Op::Rmdir { .. } | Op::Sync | Op::Tick => {}
    }
}

/// Replays `ops` on a fresh `kind` image in lockstep with the reference
/// model (with optional planted bug): per-op outcome classes must agree,
/// and the final state must match. The shared core of the fuzzer's
/// differential leg, the shrinker's predicate, and [`Repro::replay`].
pub fn differential(h: &Harness, kind: FsKind, ops: &[Op], bug: Option<ModelBug>) -> Vec<String> {
    let b = h.build(kind);
    let mut model = match bug {
        Some(bug) => RefModel::with_bug(bug),
        None => RefModel::new(),
    };
    let mut vs = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let got = exec_op(&*b.fs, &b.env, op);
        let want = model.apply(op);
        match (&got, &want) {
            (Ok(()), Ok(())) | (Err(_), Err(_)) => {}
            (Ok(()), Err(e)) => {
                vs.push(format!(
                    "{}: op {i} `{}` succeeded but the model expects {e:?}",
                    kind.label(),
                    op.to_text()
                ));
                break;
            }
            (Err(ge), Ok(())) => {
                if !resource_error(ge) {
                    vs.push(format!(
                        "{}: op {i} `{}` failed {ge:?} but the model succeeds",
                        kind.label(),
                        op.to_text()
                    ));
                }
                break;
            }
        }
    }
    if vs.is_empty() {
        vs.extend(model.diff(&*b.fs, kind.label()));
    }
    let _ = b.fs.unmount();
    vs
}

/// The seeded known-bad script of the shrinker self-test: a fixed random
/// prefix with one extending truncate buried mid-script, which trips
/// [`ModelBug::TruncateExtendLost`] at the default threshold of 16384.
/// Shared by `fuzz_fs --self-test` and `tests/fuzz_regress.rs`, both of
/// which demand it shrink to the same byte-identical two-op fixed point
/// (the committed `tests/repro/selftest_truncate_extend.repro`).
pub fn known_bad_script() -> Vec<Op> {
    let mut ops = Script::random(0xBAD, 10).ops;
    ops.insert(
        6,
        Op::Truncate {
            file: 0,
            size: 30_000,
        },
    );
    ops
}

/// Checks `ops` differentially on `kind` (optionally against a model with
/// a planted bug) and, when the check fails, ddmin-shrinks it into a
/// [`Repro`]. Deterministic: the same inputs always reach the same fixed
/// point, byte-identical across runs. `None` when the script is clean.
/// This is the shrinker self-test entry point (`fuzz_fs --self-test`,
/// `tests/fuzz_regress.rs`).
pub fn shrink_differential(
    h: &Harness,
    kind: FsKind,
    ops: &[Op],
    bug: Option<ModelBug>,
    budget: usize,
) -> Option<Repro> {
    let first = differential(h, kind, ops, bug);
    if first.is_empty() {
        return None;
    }
    let mut budget = budget;
    let min = ddmin(ops.to_vec(), &mut |cand| {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        !differential(h, kind, cand, bug).is_empty()
    });
    let script = Script { ops: min };
    Some(Repro {
        name: format!("diff_{}_{:012x}", kind.label(), repro_hash(&script, &[])),
        kind: Some(kind),
        threads: 1,
        boundaries: Vec::new(),
        note: first.first().cloned().unwrap_or_default(),
        script,
    })
}

/// Whether an error reflects resource exhaustion (capacity policy) rather
/// than a semantic divergence from the model.
fn resource_error(e: &FsError) -> bool {
    matches!(
        e,
        FsError::NoSpace | FsError::NoInodes | FsError::JournalFull
    )
}

/// Classic ddmin over the op list: repeatedly drop chunks (halving chunk
/// size down to single ops) while `fails` still returns true. Fully
/// deterministic — no randomness, so a given failing script always
/// shrinks to the same fixed point.
fn ddmin(mut cur: Vec<Op>, fails: &mut dyn FnMut(&[Op]) -> bool) -> Vec<Op> {
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut cand = cur[..start].to_vec();
            cand.extend_from_slice(&cur[end..]);
            if !cand.is_empty() && fails(&cand) {
                cur = cand;
                reduced = true;
                break;
            }
            start = end;
        }
        if reduced {
            n = n.saturating_sub(1).max(2);
            continue;
        }
        if chunk <= 1 {
            break;
        }
        n = (n * 2).min(cur.len());
    }
    cur
}

/// Coverage context byte of one kind (position in [`FsKind::ALL`]).
fn kind_ctx(kind: FsKind) -> u8 {
    match kind {
        FsKind::Hinfs => 0,
        FsKind::Pmfs => 1,
        FsKind::Ext4 => 2,
    }
}

/// Stable index of one op class for op-outcome coverage.
fn op_index(op: &Op) -> u64 {
    match op {
        Op::Create { .. } => 0,
        Op::Write { .. } => 1,
        Op::Append { .. } => 2,
        Op::Fsync { .. } => 3,
        Op::Truncate { .. } => 4,
        Op::Unlink { .. } => 5,
        Op::Rename { .. } => 6,
        Op::Mkdir { .. } => 7,
        Op::Rmdir { .. } => 8,
        Op::Sync => 9,
        Op::Tick => 10,
    }
}

/// Small outcome class of one op result (0 = ok, else an error family).
fn outcome_class(res: &Result<(), FsError>) -> u64 {
    match res {
        Ok(()) => 0,
        Err(FsError::NotFound) => 1,
        Err(FsError::AlreadyExists) => 2,
        Err(FsError::NoSpace) | Err(FsError::NoInodes) => 3,
        Err(FsError::JournalFull) => 4,
        Err(_) => 5,
    }
}

/// FNV-1a over the repro's semantic content, for stable slug names.
fn repro_hash(script: &Script, boundaries: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for op in &script.ops {
        eat(op.to_text().as_bytes());
        eat(b"\n");
    }
    for &b in boundaries {
        eat(&b.to_le_bytes());
    }
    h & 0xFFFF_FFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_reaches_one_minimal_op() {
        // Fails iff the list still contains Sync.
        let ops = Script::random(11, 30).ops;
        let mut with_sync = ops.clone();
        with_sync.insert(17, Op::Sync);
        let min = ddmin(with_sync, &mut |c| c.contains(&Op::Sync));
        assert_eq!(min, vec![Op::Sync]);
    }

    #[test]
    fn ddmin_keeps_pairs_that_fail_together() {
        // Fails iff both a Create f1 and an Unlink f1 survive, in order.
        let mut ops = Script::random(5, 24).ops;
        ops.retain(|o| !matches!(o, Op::Create { file: 1 } | Op::Unlink { file: 1 }));
        ops.insert(3, Op::Create { file: 1 });
        ops.push(Op::Unlink { file: 1 });
        let min = ddmin(ops, &mut |c| {
            let ci = c.iter().position(|o| *o == Op::Create { file: 1 });
            let ui = c.iter().position(|o| *o == Op::Unlink { file: 1 });
            matches!((ci, ui), (Some(a), Some(b)) if a < b)
        });
        assert_eq!(min, vec![Op::Create { file: 1 }, Op::Unlink { file: 1 }]);
    }

    #[test]
    fn repro_text_round_trips() {
        let r = Repro {
            name: "crash_pmfs_0000deadbeef".into(),
            kind: Some(FsKind::Pmfs),
            threads: 4,
            boundaries: vec![3, 17],
            note: "recorded under 4 threads".into(),
            script: Script {
                ops: vec![
                    Op::Create { file: 0 },
                    Op::Write {
                        file: 0,
                        off: 128,
                        len: 4096,
                        fill: 9,
                    },
                    Op::Fsync { file: 0 },
                ],
            },
        };
        let text = r.to_text();
        let back = Repro::parse(&text).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.to_text(), text, "serialization is a fixed point");
        assert!(Repro::parse("name: x\nops:\n").is_err(), "empty ops");
        assert!(Repro::parse("kind: zfs\nops:\ntick\n").is_err());
    }

    #[test]
    fn differential_is_clean_on_all_kinds_for_a_seed_script() {
        let h = Harness::new();
        let script = Script::random(0xD1FF, 14);
        for kind in FsKind::ALL {
            let vs = differential(&h, kind, &script.ops, None);
            assert!(vs.is_empty(), "{}: {vs:?}", kind.label());
        }
    }

    #[test]
    fn planted_bug_is_caught_and_shrinks_to_two_ops() {
        let bug = ModelBug::TruncateExtendLost { threshold: 16384 };
        let h = Harness::new();
        // A known-bad script: the extending truncate is buried mid-script.
        let mut ops = Script::random(0xBAD, 10).ops;
        ops.insert(
            6,
            Op::Truncate {
                file: 0,
                size: 30_000,
            },
        );
        assert!(
            !differential(&h, FsKind::Pmfs, &ops, Some(bug)).is_empty(),
            "the planted bug must be visible before shrinking"
        );
        let min = ddmin(ops, &mut |c| {
            !differential(&h, FsKind::Pmfs, c, Some(bug)).is_empty()
        });
        // Fixed point: a create (so truncate does not NotFound on both
        // sides) plus the extending truncate.
        assert!(min.len() <= 2, "shrunk to {min:?}");
        let again = ddmin(min.clone(), &mut |c| {
            !differential(&h, FsKind::Pmfs, c, Some(bug)).is_empty()
        });
        assert_eq!(again, min, "shrinking is a fixed point");
    }
}
