//! Shared experiment plumbing: scaling, system construction, population
//! and measured runs.

use std::sync::Arc;

use nvmm::CostModel;
use workloads::filebench::{FilebenchParams, Fileserver, Varmail, Webproxy, Webserver};
use workloads::fileset::{Fileset, FilesetSpec};
use workloads::runner::{Actor, RunLimit, Runner};
use workloads::setups::{build, remount_with, System, SystemConfig, SystemKind};
use workloads::RunReport;

/// Experiment scaling. The paper ran 5 GB datasets for 60 s on a 16 GB
/// machine; the defaults here shrink everything by ~100× while keeping the
/// ratios that drive the results (buffer ≈ 0.4× dataset like 2 GB/5 GB,
/// page cache ≈ 0.6× dataset like 3 GB/5 GB).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Files in the preallocated set.
    pub nfiles: usize,
    /// Mean file size in bytes.
    pub mean_file: usize,
    /// Files per directory.
    pub dir_width: usize,
    /// Measured run length in virtual milliseconds.
    pub duration_ms: u64,
    /// Device capacity.
    pub device_bytes: usize,
    /// HiNFS DRAM buffer as a fraction of the dataset.
    pub buffer_frac: f64,
    /// ext page cache as a fraction of the dataset.
    pub cache_frac: f64,
    /// Workload threads (actors) unless the figure sweeps them.
    pub threads: usize,
    /// Mean I/O (chunk) size.
    pub iosize: usize,
    /// Mean append size.
    pub append: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            nfiles: 384,
            mean_file: 64 << 10,
            dir_width: 20,
            duration_ms: 800,
            device_bytes: 256 << 20,
            buffer_frac: 0.4,
            cache_frac: 0.6,
            // Two worker threads: the regime of the paper's headline Fig 7
            // ratios. (At 4+ threads PMFS is already NVMM-bandwidth-bound —
            // 4 × 320 MB/s > 1 GB/s — and every system converges toward the
            // bandwidth ceiling, which is what Fig 8's 10-thread points
            // show.)
            threads: 2,
            iosize: 1 << 20,
            append: 16 << 10,
        }
    }
}

impl Scale {
    /// A much smaller scale for smoke tests.
    pub fn quick() -> Scale {
        Scale {
            nfiles: 64,
            mean_file: 16 << 10,
            duration_ms: 120,
            device_bytes: 96 << 20,
            threads: 2,
            iosize: 64 << 10,
            append: 4 << 10,
            ..Scale::default()
        }
    }

    /// Dataset bytes of the filebench set.
    pub fn dataset_bytes(&self) -> usize {
        self.nfiles * self.mean_file
    }

    /// HiNFS buffer bytes at `buffer_frac`.
    pub fn buffer_bytes(&self) -> usize {
        ((self.dataset_bytes() as f64 * self.buffer_frac) as usize).max(256 << 10)
    }

    /// ext page cache pages at `cache_frac`.
    pub fn cache_pages(&self) -> usize {
        (((self.dataset_bytes() as f64 * self.cache_frac) as usize) / 4096).max(64)
    }

    /// Filebench parameters at this scale.
    pub fn filebench_params(&self) -> FilebenchParams {
        FilebenchParams {
            iosize: self.iosize,
            append_size: self.append,
        }
    }

    /// System sizing at this scale for the given cost model.
    pub fn system_config(&self, cost: CostModel) -> SystemConfig {
        SystemConfig {
            device_bytes: self.device_bytes,
            cost,
            buffer_bytes: self.buffer_bytes(),
            cache_pages: self.cache_pages(),
            journal_blocks: 2048,
            inode_count: 65536,
            ..SystemConfig::default()
        }
    }

    /// The set specification (under `/data`).
    pub fn fileset_spec(&self) -> FilesetSpec {
        FilesetSpec::new("/data", self.nfiles, self.dir_width, self.mean_file)
    }
}

/// The four filebench personalities by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Personality {
    Fileserver,
    Webserver,
    Webproxy,
    Varmail,
}

impl Personality {
    /// All four, in the paper's order.
    pub const ALL: [Personality; 4] = [
        Personality::Fileserver,
        Personality::Webserver,
        Personality::Webproxy,
        Personality::Varmail,
    ];

    /// Label.
    pub fn label(self) -> &'static str {
        match self {
            Personality::Fileserver => "fileserver",
            Personality::Webserver => "webserver",
            Personality::Webproxy => "webproxy",
            Personality::Varmail => "varmail",
        }
    }

    /// Builds `threads` actors of this personality over a shared set.
    pub fn actors(
        self,
        set: &Arc<Fileset>,
        params: FilebenchParams,
        threads: usize,
    ) -> Vec<Box<dyn Actor>> {
        (0..threads)
            .map(|i| -> Box<dyn Actor> {
                match self {
                    Personality::Fileserver => Box::new(Fileserver::new(set.clone(), params)),
                    Personality::Webserver => Box::new(Webserver::new(set.clone(), params, i)),
                    Personality::Webproxy => Box::new(Webproxy::new(set.clone(), params, i)),
                    Personality::Varmail => Box::new(Varmail::new(set.clone(), params)),
                }
            })
            .collect()
    }
}

/// Builds a system, populates the filebench set through it, remounts (cold
/// caches, like clearing the OS page cache) and rebases the timeline.
pub fn prepared_system(
    kind: SystemKind,
    scale: &Scale,
    cost: CostModel,
) -> Result<(System, Arc<Fileset>)> {
    let cfg = scale.system_config(cost);
    let sys = build(kind, &cfg).ctx("build system")?;
    let set = Fileset::populate(&*sys.fs, scale.fileset_spec(), 0xF11E).ctx("populate fileset")?;
    sys.fs.unmount().ctx("unmount after populate")?;
    let System { kind, dev, env, .. } = sys;
    let sys = remount_with(kind, dev, env, &cfg).ctx("remount")?;
    sys.env.rebase();
    Ok((sys, set))
}

/// Runs `threads` actors of a personality for the scaled duration.
pub fn run_personality(
    sys: &System,
    set: &Arc<Fileset>,
    p: Personality,
    threads: usize,
    scale: &Scale,
) -> Result<RunReport> {
    let actors = p.actors(set, scale.filebench_params(), threads);
    let report = Runner::new(sys.env.clone(), sys.fs.clone())
        .with_device(sys.dev.clone())
        .run(actors, RunLimit::duration_ms(scale.duration_ms), 0xBEEF);
    let what = format!("{} on {}", p.label(), sys.kind.label());
    checked(report, &what)
}

/// An experiment's failure: what failed, and why.
pub type Result<T> = std::result::Result<T, String>;

/// Names what failed, for the report.
pub trait Context<T> {
    /// The value, or `what` failed.
    fn ctx(self, what: &str) -> Result<T>;
}

impl<T, E: std::fmt::Debug> Context<T> for std::result::Result<T, E> {
    fn ctx(self, what: &str) -> Result<T> {
        self.map_err(|e| format!("{what}: {e:?}"))
    }
}

impl<T> Context<T> for Option<T> {
    fn ctx(self, what: &str) -> Result<T> {
        self.ok_or_else(|| format!("{what}: missing"))
    }
}

/// `report`, or the error that ended its run early.
pub fn checked(report: RunReport, what: &str) -> Result<RunReport> {
    match &report.error {
        Some(e) => Err(format!("{what}: {e:?}")),
        None => Ok(report),
    }
}

/// Convenience: build + populate + run one personality, returning the
/// report (used by Fig 7/10/11 sweeps).
pub fn filebench_once(
    kind: SystemKind,
    p: Personality,
    threads: usize,
    scale: &Scale,
    cost: CostModel,
) -> Result<RunReport> {
    let (sys, set) = prepared_system(kind, scale, cost)?;
    let report = run_personality(&sys, &set, p, threads, scale)?;
    let _ = sys.fs.unmount();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_ratios() {
        let s = Scale::default();
        assert_eq!(s.dataset_bytes(), 384 * (64 << 10));
        assert!(s.buffer_bytes() < s.dataset_bytes());
        assert!(s.cache_pages() * 4096 < s.dataset_bytes());
    }

    #[test]
    fn quick_filebench_on_two_systems() {
        let scale = Scale::quick();
        for p in [Personality::Fileserver, Personality::Webproxy] {
            let run = |kind| filebench_once(kind, p, 1, &scale, CostModel::default()).unwrap();
            let (r_pmfs, r_hinfs) = (run(SystemKind::Pmfs), run(SystemKind::Hinfs));
            assert!(r_pmfs.metrics.steps > 0);
            assert!(r_hinfs.metrics.steps > 0);
            assert!(
                r_hinfs.throughput() > r_pmfs.throughput(),
                "HiNFS beats PMFS on {} ({:.0} vs {:.0} ops/s)",
                p.label(),
                r_hinfs.throughput(),
                r_pmfs.throughput()
            );
        }
    }
}
