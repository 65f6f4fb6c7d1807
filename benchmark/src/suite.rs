//! The two measurement procedures of one workload: the untraced
//! repetitions that give the end-to-end metrics, and the traced run (plus
//! probes) that gives the per-layer metrics.

use std::time::{Duration, Instant};

use workloads::setups::{ObsvOptions, SystemKind};

use crate::metrics::{self, Clock, Values};
use crate::probes;
use crate::rig::{fault_sweep, run_rep, Tally};
use crate::spec::{Regime, Spec};
use crate::stats::{iqr_share, median};
use crate::trace;

/// Result of measuring one workload in one mode.
#[derive(Default)]
pub struct Outcome {
    /// The mode's metrics by name.
    pub values: Values,
    /// Informational extras (sample counts, spreads, repetition counts):
    /// printed, never gated.
    pub notes: Values,
    pub tally: Tally,
    /// The trace dump of the first traced repetition.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// Records the median of a host-clock sample as `name`, its spread
    /// (IQR ÷ median) and size as notes.
    fn host_median(&mut self, name: &str, samples: &[f64]) {
        self.values.insert(name.to_string(), median(samples));
        self.notes
            .insert(format!("{name}.reps"), samples.len() as f64);
        if let Some(s) = iqr_share(samples) {
            self.notes.insert(format!("{name}.iqr_share"), s);
        }
    }
}

/// Repeats `body` until `budget` has elapsed (at least once).
fn repeat_for(budget: Duration, mut body: impl FnMut() -> fskit::Result<()>) -> fskit::Result<()> {
    let start = Instant::now();
    loop {
        body()?;
        if start.elapsed() >= budget {
            return Ok(());
        }
    }
}

/// End-to-end metrics: alternating untraced HiNFS and PMFS repetitions at
/// one seed for `seconds`. Modelled-clock values come from the first
/// repetition and must repeat exactly in every later one; host-clock
/// values are medians over the repetitions.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: u64) -> fskit::Result<Outcome> {
    let mut out = Outcome::default();
    let mut first: Option<(Values, Values)> = None;
    let (mut host, mut pmfs_host, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    repeat_for(Duration::from_secs(seconds), || {
        let h = run_rep(spec, SystemKind::Hinfs, seed, false, ObsvOptions::none())?;
        let p = run_rep(spec, SystemKind::Pmfs, seed, false, ObsvOptions::none())?;
        out.tally.absorb(h.tally);
        out.tally.absorb(p.tally);
        host.push(h.host_ns_per_op);
        pmfs_host.push(p.host_ns_per_op);
        setup.push(h.setup_s);
        match &first {
            None => first = Some((h.modelled, p.modelled)),
            Some((h0, p0)) => out.tally.check(*h0 == h.modelled && *p0 == p.modelled, || {
                format!(
                    "{}: modelled-clock metrics differ between repetitions at one seed",
                    spec.name
                )
            }),
        }
        Ok(())
    })?;
    let (h, p) = first.expect("at least one repetition ran");
    let declared: Vec<String> = metrics::end_to_end().into_iter().map(|d| d.name).collect();
    for (k, v) in h.into_iter().chain(p) {
        // Percentiles, sample and op counts are notes here (the per-layer
        // mode reports the percentiles); the rest are the metrics.
        if declared.contains(&k) {
            out.values.insert(k, v);
        } else {
            out.notes.insert(k, v);
        }
    }
    out.host_median("host_ns_per_op", &host);
    out.host_median("pmfs_host_ns_per_op", &pmfs_host);
    out.host_median("setup_s", &setup);

    if spec.regime == Regime::Sync {
        // The sync-bound workload also carries the crash-consistency spot
        // check: fsync-bounded durability is what it is about.
        out.tally.absorb(fault_sweep());
    }
    Ok(out)
}

/// Per-layer metrics: alternating untraced and traced HiNFS repetitions
/// at one seed for half of `seconds` (the traced run must reproduce the
/// untraced `ops_per_vsec` bit for bit), then the layer probes, then the
/// observability-preset overhead probe.
pub fn per_layer(spec: &Spec, seed: u64, seconds: u64) -> fskit::Result<Outcome> {
    let mut out = Outcome::default();
    let mut layers: Option<Values> = None;
    let (mut plain_host, mut traced_host) = (Vec::new(), Vec::new());
    let mut host_samples: Vec<Values> = Vec::new();
    repeat_for(Duration::from_secs(seconds) / 2, || {
        let plain = run_rep(spec, SystemKind::Hinfs, seed, false, ObsvOptions::none())?;
        let traced = run_rep(spec, SystemKind::Hinfs, seed, true, ObsvOptions::none())?;
        out.tally.absorb(plain.tally);
        out.tally.absorb(traced.tally);
        out.tally.check(plain.modelled == traced.modelled, || {
            format!(
                "{}: traced run perturbed the model (ops_per_vsec {} traced vs {} untraced)",
                spec.name, traced.modelled["ops_per_vsec"], plain.modelled["ops_per_vsec"]
            )
        });
        plain_host.push(plain.host_ns_per_op);
        traced_host.push(traced.host_ns_per_op);
        let l = traced
            .layers
            .expect("traced repetition carries layer metrics");
        host_samples.push(l.clone());
        if layers.is_none() {
            layers = Some(l);
            out.trace_json = traced.trace.map(|t| trace::to_json(spec.name, seed, &t));
            out.notes
                .insert("ops_per_vsec".into(), traced.modelled["ops_per_vsec"]);
        }
        Ok(())
    })?;
    out.values = layers.expect("at least one repetition ran");
    // Host-clock layer metrics: median over the traced repetitions.
    for def in metrics::per_layer() {
        if def.clock == Clock::Host && out.values.contains_key(&def.name) {
            let samples: Vec<f64> = host_samples.iter().map(|v| v[&def.name]).collect();
            out.values.insert(def.name, median(&samples));
        }
    }
    out.values.insert(
        "trace.overhead_ratio".into(),
        median(&traced_host) / median(&plain_host),
    );
    out.notes
        .insert("trace.reps".into(), traced_host.len() as f64);

    out.values.extend(probes::run_all()?);
    let pct = obsv_preset_overhead_pct(seed, &mut out)?;
    out.values
        .insert("probe.obsv.headline_preset_overhead_pct".into(), pct);
    Ok(out)
}

/// Host ns/op of `fileserver-fit` with the observability preset that
/// `experiments --bench-json` arms, over the same run with everything
/// off, as a percentage on top. Tracks ROADMAP item 2 without gating it.
fn obsv_preset_overhead_pct(seed: u64, out: &mut Outcome) -> fskit::Result<f64> {
    let spec = Spec::by_name("fileserver-fit").expect("fileserver-fit is one of the five");
    let preset = ObsvOptions::flight().with_lineage();
    let off = run_rep(&spec, SystemKind::Hinfs, seed, false, ObsvOptions::none())?;
    let on = run_rep(&spec, SystemKind::Hinfs, seed, false, preset)?;
    out.tally.absorb(off.tally);
    out.tally.absorb(on.tally);
    // The instruments only read the virtual clock; they must not move it.
    out.tally.check(off.modelled == on.modelled, || {
        "fileserver-fit: the observability preset perturbed the model".to_string()
    });
    Ok((on.host_ns_per_op / off.host_ns_per_op - 1.0) * 100.0)
}
