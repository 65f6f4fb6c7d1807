//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! experiments [--fig N]... [--quick] [--md PATH]
//! ```
//!
//! Without `--fig`, every experiment runs (Figs 1, 2, 6–13; the
//! span-recomputed variants are `--fig 101` and `--fig 112`). `--quick`
//! uses the smoke-test scale; `--md PATH` appends markdown tables to a
//! file (used to produce `EXPERIMENTS.md`).

use std::io::Write as _;

use hinfs_bench::{figs, Scale};

fn usage() -> ! {
    eprintln!("usage: experiments [--fig N]... [--quick] [--md PATH]");
    std::process::exit(2);
}

fn main() {
    let mut figs_wanted: Vec<u32> = Vec::new();
    let mut quick = false;
    let mut md_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fig" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => figs_wanted.push(n),
                None => usage(),
            },
            "--quick" => quick = true,
            "--md" => md_path = Some(args.next().unwrap_or_else(|| usage())),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if figs_wanted.is_empty() {
        figs_wanted = figs::ALL_FIGS.to_vec();
    }
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::default()
    };
    let mut md = String::new();
    for n in figs_wanted {
        let table = match figs::fig(n, &scale) {
            Some(Ok(table)) => table,
            Some(Err(e)) => fail(&format!("figure {n}: {e}")),
            None => {
                eprintln!("figure {n} has no experiment (figures 3-5 are architecture diagrams)");
                continue;
            }
        };
        println!("{}", table.render_text());
        md.push_str(&table.render_markdown());
    }
    if let Some(path) = md_path {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(md.as_bytes()));
        if let Err(e) = appended {
            fail(&format!("{path}: {e}"));
        }
        eprintln!("appended markdown tables to {path}");
    }
}

fn fail(why: &str) -> ! {
    eprintln!("experiments: {why}");
    std::process::exit(1);
}
