//! The repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! hinfs-benchmark --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! hinfs-benchmark [--seed N] [--seconds S] [--out FILE]           all workloads, both modes, as a table
//! hinfs-benchmark compare A B                                     two --out files of the same build
//! hinfs-benchmark manifest                                        prints BENCHMARK.json
//! ```

mod metrics;
mod probes;
mod rig;
mod spec;
mod stats;
mod suite;
mod timedfs;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use metrics::{Clock, MetricDef, Values};
use spec::Spec;
use suite::Outcome;

/// Where the traced run's span dump goes, relative to the repo root.
const TRACE_PATH: &str = "benchmark/out/trace.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("not a number: {s} ({e})"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = parse_u64(value()?)?,
            "--seconds" => args.seconds = parse_u64(value()?)?,
            "--trace" => args.trace = parse_u64(value()?)? != 0,
            "--out" => args.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn measure(spec: &Spec, args: &Args, traced: bool) -> Result<Outcome, String> {
    let out = if traced {
        suite::per_layer(spec, args.seed, args.seconds)
    } else {
        suite::end_to_end(spec, args.seed, args.seconds)
    }
    .map_err(|e| format!("{}: a set-up or check call failed: {e}", spec.name))?;
    if let Some(json) = &out.trace_json {
        let dir = std::path::Path::new(TRACE_PATH)
            .parent()
            .expect("trace path has a directory");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(TRACE_PATH, json))
            .map_err(|e| format!("writing {TRACE_PATH}: {e}"))?;
    }
    Ok(out)
}

/// The driver's result line: exactly the declared metrics of the mode.
fn result_json(defs: &[MetricDef], out: &Outcome) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.tally.failed == 0,
        out.tally.attempted.max(1),
        out.tally.failed
    );
    for (i, d) in defs.iter().enumerate() {
        let v = out
            .values
            .get(&d.name)
            .ok_or(format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a number: {v}", d.name));
        }
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    s.push_str("}}");
    Ok(s)
}

fn clock_label(c: Clock) -> &'static str {
    match c {
        Clock::Modelled => "modelled",
        Clock::Host => "host",
    }
}

/// Prints one mode's metrics as a table; appends them to the TSV.
fn print_table(workload: &str, mode: &str, defs: &[MetricDef], out: &Outcome, tsv: &mut String) {
    for d in defs {
        let Some(v) = out.values.get(&d.name) else {
            println!("  {:<44} (not measured)", d.name);
            continue;
        };
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
        let spread = out
            .notes
            .get(&format!("{}.iqr_share", d.name))
            .map_or(String::new(), |s| {
                format!(", IQR {:.1}% of median", s * 100.0)
            });
        println!(
            "  {:<44} {:>16} {:<7} ({} is better, {} clock{bound}{spread})",
            d.name,
            format!("{v:.6}")
                .trim_end_matches('0')
                .trim_end_matches('.'),
            d.unit,
            d.better.label(),
            clock_label(d.clock),
        );
        let _ = writeln!(tsv, "{workload}\t{}\t{}\t{v}", d.name, clock_label(d.clock));
    }
    for (k, v) in &out.notes {
        println!("  note {k} = {v}");
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        out.tally.attempted, out.tally.failed
    );
    // The number of repetitions, and so of attempted calls, depends on how
    // many fit into the time budget; the number of failures may not vary.
    let _ = writeln!(
        tsv,
        "{workload}\tops_attempted.{mode}\thost\t{}",
        out.tally.attempted
    );
    let _ = writeln!(
        tsv,
        "{workload}\tops_failed.{mode}\tmodelled\t{}",
        out.tally.failed
    );
    for f in &out.tally.failures {
        println!("  FAILED {f}");
    }
}

fn run_one(spec: &Spec, args: &Args) -> Result<bool, String> {
    let out = measure(spec, args, args.trace)?;
    for f in &out.tally.failures {
        eprintln!("FAILED {f}");
    }
    let defs = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!("{}", result_json(&defs, &out)?);
    Ok(out.tally.failed == 0)
}

fn run_all(args: &Args) -> Result<bool, String> {
    let mut tsv = String::new();
    let mut ok = true;
    println!(
        "seed {:#x}, {} s per workload and mode, {} closed-loop clients, virtual time on one host thread ({} host cores)",
        args.seed,
        args.seconds,
        spec::ACTORS,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    for spec in Spec::all() {
        println!("\n== {} ==\n   {}", spec.name, spec.why);
        println!(" end to end (untraced repetitions):");
        let e2e = measure(&spec, args, false)?;
        print_table(
            spec.name,
            "end_to_end",
            &metrics::end_to_end(),
            &e2e,
            &mut tsv,
        );
        println!(" per layer (traced run, spans in {TRACE_PATH}):");
        let layer = measure(&spec, args, true)?;
        print_table(
            spec.name,
            "per_layer",
            &metrics::per_layer(),
            &layer,
            &mut tsv,
        );
        // The acceptance criterion, stated where it can be read.
        let (a, b) = (
            e2e.values.get("ops_per_vsec"),
            layer.notes.get("ops_per_vsec"),
        );
        println!(
            "  traced ops_per_vsec {} untraced ({a:?} vs {b:?})",
            if a == b { "==" } else { "!=" }
        );
        ok &= e2e.tally.failed == 0 && layer.tally.failed == 0 && a == b;
    }
    if let Some(path) = &args.out {
        std::fs::write(path, tsv).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!(
        "\n{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// `workload \t metric \t clock \t value` rows of an `--out` file.
fn read_tsv(path: &str) -> Result<Vec<(String, String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            match f[..] {
                [w, m, clock, v] => Ok((format!("{w}\t{m}"), clock.to_string(), v.to_string())),
                _ => Err(format!("{path}: malformed row: {line}")),
            }
        })
        .collect()
}

/// Compares two full sets of runs of the same build: modelled-clock
/// metrics and counts must be identical, host-clock metrics within their
/// bound (per-layer host metrics carry no bound and are only listed).
fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (read_tsv(a_path)?, read_tsv(b_path)?);
    if a.len() != b.len() {
        return Err(format!("{} vs {} rows", a.len(), b.len()));
    }
    let bounds: Values = metrics::end_to_end()
        .into_iter()
        .filter_map(|d| Some((d.name, d.bound?)))
        .collect();
    let (mut ok, mut exact) = (true, 0);
    for ((ka, clock, va), (kb, _, vb)) in a.iter().zip(&b) {
        if ka != kb {
            return Err(format!("row order differs: {ka} vs {kb}"));
        }
        let shown = ka.replace('\t', " ");
        if clock == "modelled" {
            exact += 1;
            if va != vb {
                ok = false;
                println!("DIFFERS  {shown}: {va} vs {vb} (modelled clock: must be identical)");
            }
            continue;
        }
        let (x, y): (f64, f64) = (
            va.parse().map_err(|e| format!("{shown}: {e}"))?,
            vb.parse().map_err(|e| format!("{shown}: {e}"))?,
        );
        let spread = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
        let metric = ka.split('\t').nth(1).expect("key has two fields");
        match bounds.get(metric) {
            Some(&bound) => {
                let verdict = if spread <= bound {
                    "ok      "
                } else {
                    "EXCEEDS "
                };
                ok &= spread <= bound;
                println!(
                    "{verdict} {shown}: {x} vs {y}, spread {:.1}% (bound {:.0}%)",
                    spread * 100.0,
                    bound * 100.0
                );
            }
            None => println!(
                "info     {shown}: {x} vs {y}, spread {:.1}% (no bound)",
                spread * 100.0
            ),
        }
    }
    println!(
        "{exact} modelled-clock values and counts compared for identity: {}",
        if ok {
            "two sets agree"
        } else {
            "TWO SETS DISAGREE"
        }
    );
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        Some("compare") => match &argv[1..] {
            [a, b] => compare(a, b),
            _ => Err("usage: compare A B".into()),
        },
        _ => {
            let args = parse_args(&argv)?;
            match &args.workload {
                Some(name) => {
                    let spec = Spec::by_name(name).ok_or(format!("unknown workload {name}"))?;
                    run_one(&spec, &args)
                }
                None => run_all(&args),
            }
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hinfs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::setups::{ObsvOptions, SystemKind};

    fn quick(name: &str) -> Spec {
        Spec {
            duration_ms: 40,
            ..Spec::by_name(name).unwrap()
        }
    }

    #[test]
    fn seed_changes_the_op_stream_and_the_same_seed_reproduces_it() {
        let spec = quick("fileserver-fit");
        let run = |seed| {
            rig::run_rep(&spec, SystemKind::Hinfs, seed, false, ObsvOptions::none())
                .unwrap()
                .modelled
        };
        let (a, again, other) = (run(1), run(1), run(2));
        assert_eq!(a, again, "same seed, same inputs, same modelled metrics");
        assert_ne!(a, other, "another seed draws another op stream");
        // And the flag reaches the run.
        let argv: Vec<String> = [
            "--seed",
            "0x2a",
            "--workload",
            "fio-hotfile",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let args = parse_args(&argv).unwrap();
        assert_eq!((args.seed, args.trace), (42, true));
        assert_eq!(args.seconds, metrics::RUN_SECONDS);
        assert_eq!(parse_args(&[]).unwrap().seed, spec::DEFAULT_SEED);
        assert!(parse_args(&["--seed".into()]).is_err());
        assert!(parse_args(&["--frobnicate".into()]).is_err());
    }

    #[test]
    fn traced_run_reproduces_the_untraced_model_bit_for_bit() {
        for name in ["varmail-sync", "fio-hotfile"] {
            let spec = quick(name);
            let run = |traced| {
                rig::run_rep(&spec, SystemKind::Hinfs, 7, traced, ObsvOptions::none()).unwrap()
            };
            let (plain, traced) = (run(false), run(true));
            assert_eq!(plain.modelled, traced.modelled, "{name}");
            assert!(plain.layers.is_none() && traced.layers.is_some());
            let json = trace::to_json(name, 7, &traced.trace.unwrap());
            assert!(json.contains("\"workloads.step\""), "{name}");
        }
    }

    /// The acceptance drill: `fileserver-pressure` run with the `-fit`
    /// buffer is not under pressure, and the benchmark must say so and not
    /// publish the number.
    #[test]
    fn a_workload_run_outside_its_regime_fails() {
        let flipped = Spec {
            buffer_bytes: Spec::by_name("fileserver-fit").unwrap().buffer_bytes,
            ..quick("fileserver-pressure")
        };
        let rep = rig::run_rep(&flipped, SystemKind::Hinfs, 7, false, ObsvOptions::none()).unwrap();
        assert!(rep.tally.failed > 0);
        assert!(
            rep.tally
                .failures
                .iter()
                .any(|f| f.contains("regime gauge failed")),
            "{:?}",
            rep.tally.failures
        );
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let defs = metrics::end_to_end();
        let mut out = Outcome::default();
        for (i, d) in defs.iter().enumerate() {
            out.values.insert(d.name.clone(), 1.5 + i as f64);
        }
        out.values.insert("undeclared".into(), 9.0);
        out.tally.attempted = 12;
        let line = result_json(&defs, &out).unwrap();
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"ops_per_vsec\": {\"value\": 1.5, \"unit\": \"ops/vs\"}"
        ));
        assert!(!line.contains("undeclared") && !line.contains('\n'));
        assert_eq!(line.matches("\"value\"").count(), defs.len());
        out.values.remove("setup_s");
        assert!(result_json(&defs, &out).is_err());
    }
}
