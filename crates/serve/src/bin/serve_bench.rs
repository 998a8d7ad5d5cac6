//! The campaign service CLI: run a campaign (or one shard of one),
//! streaming canonical JSONL records as cells complete, or merge
//! per-shard outputs into the canonical result file.
//!
//! ```sh
//! serve_bench [--spec FILE | --smoke] [--sweep] [--out FILE]
//!             [--journal FILE] [--halt-after N] [--quiet]
//! serve_bench --merge FILE...
//! ```
//!
//! * `--spec FILE` — campaign spec JSON (see README § "Serving
//!   campaigns"); default is the built-in smoke campaign.
//! * `--sweep` — override the spec's mode to tier-0-triaged sweep.
//! * `--out FILE` — stream records there instead of stdout.
//! * `--journal FILE` — checkpoint journal; rerunning with the same
//!   journal resumes instead of recomputing.
//! * `--halt-after N` — crash injection: stop after N newly-executed
//!   cells (exit code 3). Pair with `--journal`, then rerun to resume.
//! * `--merge FILE...` — read per-shard JSONL files, verify they agree,
//!   and print the canonical key-sorted union to stdout.
//!
//! Environment: `BALLERINO_SHARD=i/n` selects this process's slice and
//! `BALLERINO_THREADS` sizes the pool (see the README knob table). The
//! mailbox holds 2× workers; a panicking cell is retried twice with a
//! 10 ms base backoff.
//!
//! Exit codes: 0 done, 1 usage/spec error, 2 cells failed permanently,
//! 3 halted early (crash injection).

use ballerino_serve::{
    merge_records, parse_records, run_campaign, run_cell, to_jsonl, CampaignMode, CampaignSpec,
    EngineConfig, Shard,
};
use std::io::Write;
use std::path::PathBuf;

struct Args {
    spec_path: Option<PathBuf>,
    sweep: bool,
    out: Option<PathBuf>,
    journal: Option<PathBuf>,
    halt_after: Option<usize>,
    quiet: bool,
    merge: Vec<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_bench [--spec FILE | --smoke] [--sweep] [--out FILE]\n\
         \x20                  [--journal FILE] [--halt-after N] [--quiet]\n\
         \x20      serve_bench --merge FILE..."
    );
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut args = Args {
        spec_path: None,
        sweep: false,
        out: None,
        journal: None,
        halt_after: None,
        quiet: false,
        merge: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => args.spec_path = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--smoke" => args.spec_path = None,
            "--sweep" => args.sweep = true,
            "--out" => args.out = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--journal" => args.journal = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--halt-after" => {
                args.halt_after = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--quiet" => args.quiet = true,
            "--merge" => {
                args.merge = it.by_ref().map(PathBuf::from).collect();
                if args.merge.is_empty() {
                    usage();
                }
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

/// The service defaults: `BALLERINO_THREADS` workers, a mailbox of 2×
/// workers, 2 retries with a 10 ms base backoff (doubling), and the
/// slice from `BALLERINO_SHARD` (unset or empty = the whole campaign).
fn engine_config() -> Result<EngineConfig, String> {
    let workers = ballerino_bench::threads();
    let shard = match std::env::var("BALLERINO_SHARD") {
        Ok(s) if !s.trim().is_empty() => Shard::parse(&s)?,
        _ => Shard::single(),
    };
    Ok(EngineConfig {
        workers,
        mailbox_cap: 2 * workers.max(1),
        max_attempts: 3,
        backoff_ms: 10,
        shard,
        halt_after: None,
    })
}

fn merge_mode(paths: &[PathBuf]) -> ! {
    let mut sets = Vec::new();
    for p in paths {
        match std::fs::read_to_string(p) {
            Ok(text) => sets.push(parse_records(&text)),
            Err(e) => {
                eprintln!("serve_bench: {}: {e}", p.display());
                std::process::exit(1);
            }
        }
    }
    match merge_records(&sets) {
        Ok(merged) => {
            print!("{}", to_jsonl(&merged));
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("serve_bench: merge conflict: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = parse_args();
    if !args.merge.is_empty() {
        merge_mode(&args.merge);
    }

    let mut spec = match &args.spec_path {
        None => CampaignSpec::smoke(),
        Some(p) => {
            let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
                eprintln!("serve_bench: {}: {e}", p.display());
                std::process::exit(1);
            });
            CampaignSpec::from_json(&text).unwrap_or_else(|e| {
                eprintln!("serve_bench: bad spec {}: {e}", p.display());
                std::process::exit(1);
            })
        }
    };
    if args.sweep {
        spec.mode = CampaignMode::Sweep;
    }

    let mut cfg = engine_config().unwrap_or_else(|e| {
        eprintln!("serve_bench: {e}");
        std::process::exit(1);
    });
    cfg.halt_after = args.halt_after;

    let cells = spec.cells();
    if !args.quiet {
        eprintln!(
            "campaign '{}': {} cells ({} points × {} workloads), shard {}/{}, {} workers",
            spec.name,
            cells.len(),
            cells.len() / spec.workloads.len().max(1),
            spec.workloads.len(),
            cfg.shard.index,
            cfg.shard.count,
            cfg.workers
        );
    }

    // Stream records as they complete: canonical JSONL to --out or
    // stdout, progress to stderr so the record stream stays clean.
    let mut out: Box<dyn Write> = match &args.out {
        Some(p) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(p).unwrap_or_else(|e| {
                eprintln!("serve_bench: {}: {e}", p.display());
                std::process::exit(1);
            }),
        )),
        None => Box::new(std::io::stdout().lock()),
    };
    let total = cells.iter().filter(|c| cfg.shard.owns(c)).count();
    let mut streamed = 0usize;
    let report = run_campaign(&cells, &cfg, args.journal.as_deref(), run_cell, |rec| {
        writeln!(out, "{}", rec.to_line()).expect("write record");
        streamed += 1;
        if !args.quiet && (streamed.is_multiple_of(16) || streamed == total) {
            eprintln!("  {streamed}/{total} cells done");
        }
    })
    .unwrap_or_else(|e| {
        eprintln!("serve_bench: {e}");
        std::process::exit(1);
    });
    out.flush().expect("flush records");

    if !args.quiet {
        eprintln!(
            "done: {} records ({} replayed from journal, {} executed, {} coalesced, {} retries){}",
            report.records.len(),
            report.replayed,
            report.executed,
            report.coalesced,
            report.retries,
            if report.halted { " [halted]" } else { "" }
        );
    }
    if !report.failed.is_empty() {
        eprintln!(
            "serve_bench: {} cells failed permanently:",
            report.failed.len()
        );
        for key in &report.failed {
            eprintln!("  {key}");
        }
        std::process::exit(2);
    }
    if report.halted {
        std::process::exit(3);
    }
}
