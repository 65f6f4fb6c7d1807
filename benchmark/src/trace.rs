//! What is done with a finished [`Trace`]: per-name aggregates with self
//! time, the structural check that each step's children fit inside it on
//! both clocks, and the `trace.json` dump (aggregates, the first steps,
//! the slowest step trees).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use nvmm::ledger::ALL_CATS;

use crate::timedfs::{Span, SpanKind, Trace, ALL_OPS};

/// Steps dumped verbatim from the start of the run.
const FIRST_STEPS: usize = 2000;
/// Slowest step trees (by virtual duration) dumped verbatim.
const SLOWEST_STEPS: usize = 100;

/// Totals of one span name. Self time is the span's duration minus the
/// part of it its child spans cover; only `workloads.step` has children
/// here (spans inside the program are a later change), so for every
/// other name self equals total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_vns: u64,
    pub self_vns: u64,
    pub total_host_ns: u64,
    pub self_host_ns: u64,
}

/// One step with its calls, borrowed from the trace.
pub struct StepTree<'a> {
    pub step: &'a Span,
    pub calls: &'a [Span],
}

impl StepTree<'_> {
    /// (virtual ns, host ns) covered by the children.
    pub fn child_time(&self) -> (u64, u64) {
        self.calls
            .iter()
            .fold((0, 0), |(v, h), c| (v + c.vns(), h + c.host_ns()))
    }

    /// (virtual ns, host ns) of the step outside any child: the workload
    /// generator itself. `None` if the children do not fit inside the
    /// step, which would mean the trace is malformed.
    pub fn self_time(&self) -> Option<(u64, u64)> {
        let (cv, ch) = self.child_time();
        Some((
            self.step.vns().checked_sub(cv)?,
            self.step.host_ns().checked_sub(ch)?,
        ))
    }

    /// Children are sequential, non-overlapping and inside the step on
    /// both clocks, so children + self == step holds by measurement and
    /// not merely by the definition of self.
    pub fn well_formed(&self) -> bool {
        let mut v = self.step.v0;
        let mut h = self.step.h0;
        for c in self.calls {
            if c.step != self.step.step || c.v0 < v || c.h0 < h || c.v1 < c.v0 || c.h1 < c.h0 {
                return false;
            }
            v = c.v1;
            h = c.h1;
        }
        v <= self.step.v1 && h <= self.step.h1
    }
}

/// Iterates the step trees of a trace. Spans arrive in completion order:
/// a step's calls, the step, then the tick after it.
pub fn step_trees(spans: &[Span]) -> Vec<StepTree<'_>> {
    let mut trees = Vec::new();
    let mut first_call = 0;
    for (i, s) in spans.iter().enumerate() {
        match s.kind {
            SpanKind::Call(_) => {}
            SpanKind::Step => {
                trees.push(StepTree {
                    step: s,
                    calls: &spans[first_call..i],
                });
                first_call = i + 1;
            }
            SpanKind::Tick => first_call = i + 1,
        }
    }
    trees
}

/// Per-name aggregates over the whole trace.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut by_name: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let mut add = |s: &Span, self_v: u64, self_h: u64| {
        let a = by_name.entry(s.kind.name()).or_default();
        a.count += 1;
        a.total_vns += s.vns();
        a.self_vns += self_v;
        a.total_host_ns += s.host_ns();
        a.self_host_ns += self_h;
    };
    for s in spans {
        if s.kind != SpanKind::Step {
            add(s, s.vns(), s.host_ns());
        }
    }
    for t in step_trees(spans) {
        let (sv, sh) = t.self_time().unwrap_or((0, 0));
        add(t.step, sv, sh);
    }
    by_name
}

/// Number of step trees that are not well-formed (must be 0).
pub fn malformed_steps(spans: &[Span]) -> u64 {
    step_trees(spans)
        .iter()
        .filter(|t| !t.well_formed() || t.self_time().is_none())
        .count() as u64
}

fn span_json(out: &mut String, s: &Span) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"step\":{},\"actor\":{},\"v0\":{},\"v1\":{},\"h0\":{},\"h1\":{}}}",
        s.kind.name(),
        s.step,
        s.actor,
        s.v0,
        s.v1,
        s.h0,
        s.h1
    );
}

fn tree_json(out: &mut String, t: &StepTree<'_>) {
    let (sv, sh) = t.self_time().unwrap_or((0, 0));
    out.push_str("{\"span\":");
    span_json(out, t.step);
    let _ = write!(
        out,
        ",\"self_vns\":{sv},\"self_host_ns\":{sh},\"children\":["
    );
    for (i, c) in t.calls.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        span_json(out, c);
    }
    out.push_str("]}");
}

/// Renders the trace dump. `v*` are virtual ns on the stepping actor's
/// clock, `h*` host ns since the trace began.
pub fn to_json(workload: &str, seed: u64, trace: &Trace) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{},\"aggregates\":{{",
        trace.spans.len()
    );
    for (i, (name, a)) in aggregate(&trace.spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"count\":{},\"total_vns\":{},\"self_vns\":{},\"total_host_ns\":{},\"self_host_ns\":{}}}",
            a.count, a.total_vns, a.self_vns, a.total_host_ns, a.self_host_ns
        );
    }
    // Ledger deltas taken at the call boundary: where inside the layers
    // below fskit each op class's virtual time went.
    out.push_str("},\"ledger_vns_by_op\":{");
    let mut first = true;
    for (op, row) in ALL_OPS.iter().zip(&trace.ledger_by_op) {
        if row.iter().all(|&v| v == 0) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{{", op.label());
        let cells: Vec<String> = ALL_CATS
            .iter()
            .filter(|&&c| row[c as usize] > 0)
            .map(|&c| format!("\"{}\":{}", c.label(), row[c as usize]))
            .collect();
        out.push_str(&cells.join(","));
        out.push('}');
    }
    let trees = step_trees(&trace.spans);
    out.push_str("},\"first_steps\":[");
    for (i, t) in trees.iter().take(FIRST_STEPS).enumerate() {
        if i > 0 {
            out.push(',');
        }
        tree_json(&mut out, t);
    }
    let mut slow: Vec<&StepTree<'_>> = trees.iter().collect();
    // Ties broken by step id so the selection is deterministic.
    slow.sort_by_key(|t| (std::cmp::Reverse(t.step.vns()), t.step.step));
    out.push_str("],\"slowest_steps\":[");
    for (i, t) in slow.iter().take(SLOWEST_STEPS).enumerate() {
        if i > 0 {
            out.push(',');
        }
        tree_json(&mut out, t);
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timedfs::Op;

    fn span(kind: SpanKind, step: u32, v: (u64, u64), h: (u64, u64)) -> Span {
        Span {
            kind,
            step,
            actor: 0,
            v0: v.0,
            v1: v.1,
            h0: h.0,
            h1: h.1,
        }
    }

    fn sample() -> Vec<Span> {
        vec![
            // step 1: two calls, gaps before, between and after.
            span(SpanKind::Call(Op::Open), 1, (10, 40), (100, 150)),
            span(SpanKind::Call(Op::Write), 1, (40, 240), (160, 400)),
            span(SpanKind::Step, 1, (0, 250), (90, 420)),
            span(SpanKind::Tick, 0, (250, 250), (420, 500)),
            // step 2: no calls at all.
            span(SpanKind::Step, 2, (250, 250), (500, 530)),
            span(SpanKind::Tick, 0, (250, 250), (530, 531)),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children_on_both_clocks() {
        let spans = sample();
        let trees = step_trees(&spans);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].calls.len(), 2);
        assert_eq!(trees[0].child_time(), (230, 290));
        assert_eq!(trees[0].self_time(), Some((20, 40)));
        assert!(trees[0].well_formed());
        assert_eq!(trees[1].calls.len(), 0);
        assert_eq!(trees[1].self_time(), Some((0, 30)));
        assert_eq!(malformed_steps(&spans), 0);

        let agg = aggregate(&spans);
        let step = agg["workloads.step"];
        assert_eq!((step.count, step.total_vns, step.self_vns), (2, 250, 20));
        assert_eq!((step.total_host_ns, step.self_host_ns), (360, 70));
        let write = agg["fskit.write"];
        assert_eq!((write.total_vns, write.self_vns), (200, 200));
        assert_eq!(agg["fskit.tick"].total_host_ns, 81);
        // Children + self == parent, summed over the run.
        let child_v: u64 = ["fskit.open", "fskit.write"]
            .iter()
            .map(|n| agg[*n].total_vns)
            .sum();
        assert_eq!(child_v + step.self_vns, step.total_vns);
    }

    #[test]
    fn a_child_outside_its_step_is_malformed() {
        let mut spans = sample();
        spans[1].v1 = 300; // write ends after the step does
        assert_eq!(malformed_steps(&spans), 1);
        let mut spans = sample();
        spans[1].h0 = 140; // overlaps the open on the host clock
        assert_eq!(malformed_steps(&spans), 1);
    }

    #[test]
    fn json_dump_is_balanced_and_names_every_span() {
        let trace_spans = sample();
        let agg = aggregate(&trace_spans);
        assert_eq!(agg.len(), 4);
        let mut trace = Trace::new();
        trace.spans = trace_spans;
        trace.ledger_by_op[Op::Write as usize][nvmm::Cat::UserWrite as usize] = 180;
        let json = to_json("w", 7, &trace);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"ledger_vns_by_op\":{\"write\":{\"write-access\":180}}"));
        assert!(json.contains("\"self_vns\":20"));
    }
}
