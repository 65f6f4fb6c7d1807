//! The metrics registry: one place every subsystem's counters, gauges and
//! histograms funnel through.
//!
//! Subsystems keep their own cheap atomic counter structs and implement
//! [`MetricSource`]; the registry holds `Arc`s to them and materialises a
//! [`RegistrySnapshot`] on demand. Snapshots support deltas (`since`) and
//! Prometheus-style text exposition, so one mechanism serves interactive
//! dumps, per-phase workload reports and tests.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::histo::HistoSnapshot;

/// Receives one subsystem's metrics during collection.
pub trait Visitor {
    /// A monotonically increasing counter.
    fn counter(&mut self, name: &str, value: u64);
    /// A point-in-time level (may go down).
    fn gauge(&mut self, name: &str, value: u64);
    /// A sample distribution.
    fn histo(&mut self, name: &str, snap: HistoSnapshot);
}

/// Anything that can report metrics into a [`Visitor`].
pub trait MetricSource: Send + Sync {
    /// Reports every metric this source owns. Must be cheap enough to call
    /// at phase boundaries (no heavy locks, no I/O).
    fn collect(&self, out: &mut dyn Visitor);
}

/// The registry. Cloneable via `Arc`; all methods take `&self`.
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<(String, Arc<dyn MetricSource>)>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("sources", &self.sources().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Locks the source list. A panic mid-push leaves whole entries
    /// behind, so a poisoned list is still valid.
    fn sources(&self) -> MutexGuard<'_, Vec<(String, Arc<dyn MetricSource>)>> {
        self.sources.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a source. `scope` is prepended to every metric name the
    /// source reports (use `""` for sources whose names are already
    /// prefixed; a non-empty scope disambiguates multiple instances).
    pub fn register(&self, scope: &str, source: Arc<dyn MetricSource>) {
        self.sources().push((scope.to_string(), source));
    }

    /// Collects every source into a snapshot. Metrics reported under the
    /// same final name are summed (counters, histograms) or last-wins
    /// (gauges).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::default();
        for (scope, source) in self.sources().iter() {
            let mut v = ScopedVisitor {
                scope,
                snap: &mut snap,
            };
            source.collect(&mut v);
        }
        snap
    }
}

struct ScopedVisitor<'a> {
    scope: &'a str,
    snap: &'a mut RegistrySnapshot,
}

impl Visitor for ScopedVisitor<'_> {
    fn counter(&mut self, name: &str, value: u64) {
        let name = format!("{}{name}", self.scope);
        *self.snap.counters.entry(name).or_insert(0) += value;
    }

    fn gauge(&mut self, name: &str, value: u64) {
        self.snap
            .gauges
            .insert(format!("{}{name}", self.scope), value);
    }

    fn histo(&mut self, name: &str, snap: HistoSnapshot) {
        let name = format!("{}{name}", self.scope);
        self.snap.histos.entry(name).or_default().merge(&snap);
    }
}

/// All metrics at one instant, keyed by final (scoped) name.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Levels.
    pub gauges: BTreeMap<String, u64>,
    /// Distributions.
    pub histos: BTreeMap<String, HistoSnapshot>,
}

impl RegistrySnapshot {
    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name.
    pub fn histo(&self, name: &str) -> Option<&HistoSnapshot> {
        self.histos.get(name)
    }

    /// The delta from `earlier` to `self`: counters and histograms are
    /// diffed (a name absent earlier counts from zero), gauges keep their
    /// later value.
    pub fn since(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let empty = HistoSnapshot::default();
        let histos = self
            .histos
            .iter()
            .map(|(k, v)| (k.clone(), v.since(earlier.histos.get(k).unwrap_or(&empty))))
            .collect();
        RegistrySnapshot {
            counters,
            gauges: self.gauges.clone(),
            histos,
        }
    }

    /// Prometheus text exposition, conforming to the text-format grammar:
    /// per family exactly one `# TYPE` immediately before its samples.
    /// Histograms render as summaries with `quantile` labels plus a
    /// separate `<name>_max` gauge family (`_max` is not part of the
    /// summary grammar).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let scalars = [("counter", &self.counters), ("gauge", &self.gauges)];
        for (kind, family) in scalars {
            for (name, v) in family {
                out.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
            }
        }
        for (name, h) in &self.histos {
            let (p50, p90, p99, p999) = h.percentiles();
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, v) in [("0.5", p50), ("0.9", p90), ("0.99", p99), ("0.999", p999)] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!(
                "{name}_sum {}\n{name}_count {}\n",
                h.sum(),
                h.count()
            ));
            out.push_str(&format!(
                "# TYPE {name}_max gauge\n{name}_max {}\n",
                h.max()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histo::Histo;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct FakeSource {
        hits: AtomicU64,
    }

    impl MetricSource for FakeSource {
        fn collect(&self, out: &mut dyn Visitor) {
            out.counter("hits", self.hits.load(Ordering::Relaxed));
            out.gauge("level", 3);
            let h = Histo::new();
            h.record(10);
            h.record(20);
            out.histo("lat_ns", h.snapshot());
        }
    }

    #[test]
    fn scoped_collection_and_lookup() {
        let reg = MetricsRegistry::new();
        let src = Arc::new(FakeSource {
            hits: AtomicU64::new(5),
        });
        reg.register("fs0_", src.clone());
        reg.register("fs1_", src.clone());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("fs0_hits"), 5);
        assert_eq!(snap.counter("fs1_hits"), 5);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauge("fs0_level"), 3);
        assert_eq!(snap.histo("fs0_lat_ns").unwrap().count(), 2);
    }

    #[test]
    fn same_name_sources_sum() {
        let reg = MetricsRegistry::new();
        let a = Arc::new(FakeSource {
            hits: AtomicU64::new(2),
        });
        let b = Arc::new(FakeSource {
            hits: AtomicU64::new(3),
        });
        reg.register("", a);
        reg.register("", b);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits"), 5);
        assert_eq!(snap.histo("lat_ns").unwrap().count(), 4);
    }

    #[test]
    fn snapshot_counters_are_monotone_and_since_reports_growth() {
        let reg = MetricsRegistry::new();
        let src = Arc::new(FakeSource {
            hits: AtomicU64::new(3),
        });
        reg.register("", src.clone());
        let s1 = reg.snapshot();
        src.hits.fetch_add(1, Ordering::Relaxed);
        let s2 = reg.snapshot();
        // Every counter is monotone across snapshots...
        for (name, v1) in &s1.counters {
            assert!(s2.counter(name) >= *v1, "{name} went backwards");
        }
        // ...and since() reports exactly the growth.
        let d = s2.since(&s1);
        assert_eq!(d.counter("hits"), 1);
    }

    #[test]
    fn since_diffs_histograms_and_keeps_gauges() {
        let reg = MetricsRegistry::new();
        let src = Arc::new(FakeSource {
            hits: AtomicU64::new(1),
        });
        reg.register("", src.clone());
        let s1 = reg.snapshot();
        src.hits.store(11, Ordering::Relaxed);
        let s2 = reg.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.counter("hits"), 10);
        assert_eq!(d.gauge("level"), 3, "gauges carry the later value");
        assert_eq!(d.histo("lat_ns").unwrap().count(), 0, "histo unchanged");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.register(
            "",
            Arc::new(FakeSource {
                hits: AtomicU64::new(7),
            }),
        );
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE hits counter\nhits 7\n"), "{text}");
        assert!(text.contains("# TYPE level gauge\nlevel 3\n"), "{text}");
        assert!(text.contains("# TYPE lat_ns summary\n"), "{text}");
        assert!(text.contains("lat_ns{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("lat_ns_count 2\n"), "{text}");
        assert!(text.contains("lat_ns_max 20\n"), "{text}");
    }

    #[test]
    fn exposition_conforms_to_the_text_format_grammar() {
        let reg = MetricsRegistry::new();
        reg.register(
            "",
            Arc::new(FakeSource {
                hits: AtomicU64::new(7),
            }),
        );
        let text = reg.snapshot().to_prometheus();

        // Line-by-line parse against the exposition grammar.
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.chars().next().unwrap().is_ascii_alphabetic()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut type_of: BTreeMap<String, String> = BTreeMap::new();
        let mut current_family: Option<String> = None;
        for line in text.lines() {
            assert!(!line.is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE has kind");
                assert!(name_ok(name), "bad family name {name:?}");
                assert!(
                    ["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind),
                    "bad TYPE {kind:?}"
                );
                assert!(
                    type_of.insert(name.to_string(), kind.to_string()).is_none(),
                    "# TYPE {name} declared twice"
                );
                current_family = Some(name.to_string());
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment {line:?}");
            // A sample: name[{labels}] value — and it must belong to the
            // family whose TYPE line is in force.
            let (name_labels, value) = line.rsplit_once(' ').expect("sample has value");
            assert!(value.parse::<f64>().is_ok(), "bad value {value:?}");
            let name = match name_labels.split_once('{') {
                Some((n, labels)) => {
                    let labels = labels.strip_suffix('}').expect("labels close");
                    for pair in labels.split(',') {
                        let (k, v) = pair.split_once('=').expect("label pair");
                        assert!(name_ok(k), "bad label name {k:?}");
                        assert!(v.starts_with('"') && v.ends_with('"'), "unquoted {v:?}");
                    }
                    n
                }
                None => name_labels,
            };
            let fam = current_family.as_deref().expect("sample before any TYPE");
            let base = match type_of.get(fam).map(String::as_str) {
                Some("summary") => name
                    .strip_suffix("_sum")
                    .or_else(|| name.strip_suffix("_count"))
                    .unwrap_or(name),
                _ => name,
            };
            assert_eq!(base, fam, "sample {name} outside its family block");
        }
    }
}
