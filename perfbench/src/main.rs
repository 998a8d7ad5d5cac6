//! The repository benchmark: host throughput of the Ballerino simulator
//! on four closed-loop batch workloads, with per-crate layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense_compute --seed 42 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload with one simulation worker. It sets the
//! workload up several times from a cold trace cache (`setup_s` is the
//! median), then repeats the workload's fixed unit of work (a *pass*)
//! until `--seconds` have elapsed and reports the median pass. Every
//! pass's outputs are checked outside the timed region. With `--trace 1`
//! the run interleaves untraced and traced passes, then replays each
//! layer on the workload's inputs, and reports per-layer metrics plus
//! the tracing overhead instead of the end-to-end metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! README.md in this directory documents the workloads and metrics.

mod campaign;
mod check;
mod layers;
mod matrix;
mod report;
mod spans;
mod sweep;

use ballerino_bench::{Provenance, KIND_REGISTRY};
use ballerino_sim::MachineKind;
use ballerino_workloads::TraceCache;
use check::Checker;
use layers::SelfTimes;
use report::{median, Metrics};
use spans::{SpanId, Tracer};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Fewest passes per measured side, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// The effective options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed: every trace the run simulates is generated from it.
    pub seed: u64,
    /// Seconds of measurement (the pass loop stops after this).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What one pass did.
pub struct PassStats {
    /// Host seconds of the pass's timed region.
    pub wall_s: f64,
    /// μops committed by cycle-accurate simulation in the pass.
    pub uops: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// The traces the workload simulates, as `(name, n)`.
    fn traces(&self) -> Vec<(&'static str, usize)>;
    /// Whether set-up also extracts tier-0 trace features.
    fn needs_features(&self) -> bool {
        false
    }
    /// Enumerates the workload's cells or spec (the last set-up step).
    fn enumerate(&mut self);
    /// Runs one pass: times the fixed work, then checks its outputs
    /// outside the timed region.
    fn pass(&mut self, tr: &Tracer, chk: &mut Checker) -> PassStats;
    /// Traced run only: the workload's per-layer metrics, from the self
    /// times of one traced pass (`pass_times`) and from layer replays
    /// made after the pass loop.
    fn layers(&mut self, tr: &Tracer, pass_times: &SelfTimes, chk: &mut Checker, m: &mut Metrics);
}

fn usage() -> &'static str {
    "usage: perfbench --workload <dense_compute|memory_bound|design_sweep|campaign_resume> \
     [--seed <u64>] [--seconds <n>] [--trace <0|1>]"
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => opts.workload = val.to_string(),
            "--seed" => opts.seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                opts.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {val}"))?
            }
            "--trace" => {
                opts.trace = match val {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn make_workload(opts: &Opts, run_dir: &std::path::Path) -> Option<Box<dyn Workload>> {
    Some(match opts.workload.as_str() {
        "dense_compute" => Box::new(matrix::Matrix::dense_compute(opts.seed)),
        "memory_bound" => Box::new(matrix::Matrix::memory_bound(opts.seed)),
        "design_sweep" => Box::new(sweep::Sweep::new(opts.seed)),
        "campaign_resume" => Box::new(campaign::Campaign::new(opts.seed, run_dir)),
        _ => return None,
    })
}

/// Clears every `BALLERINO_*` variable the caller's environment may
/// carry, so no outside knob changes what is measured. The sweep engine
/// is the one entry point that takes no worker count, so its pool size
/// is pinned here to the benchmark's single worker.
fn hermetic_env() {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BALLERINO_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("BALLERINO_THREADS", "1");
}

/// The registry name of a machine kind (`"ooo"`, `"ballerino-ldt"`, …).
pub fn kind_name(kind: MachineKind) -> &'static str {
    KIND_REGISTRY
        .iter()
        .find(|i| i.kind == kind)
        .map_or("other", |i| i.name)
}

/// One cold set-up: trace generation, DAG resolution and (if the
/// workload needs them) tier-0 features, then cell enumeration.
fn setup_once(w: &mut dyn Workload, seed: u64, cache: &TraceCache, tr: &Tracer) -> f64 {
    let t0 = Instant::now();
    tr.span("bench.setup", None, |sid: Option<SpanId>| {
        for (name, n) in w.traces() {
            tr.span("workloads.gen", sid, |_| cache.get(name, n, seed));
            tr.span("isa.dag_resolve", sid, |_| cache.dag(name, n, seed));
            if w.needs_features() {
                tr.span("analytic.features", sid, |_| cache.features(name, n, seed));
            }
        }
        w.enumerate();
    });
    t0.elapsed().as_secs_f64()
}

/// Runs passes until their timed regions add up to `seconds` (at least
/// [`MIN_PASSES`] per side; output checks are not counted). In a traced
/// run, passes alternate untraced/traced and both sides are returned.
fn measure(
    w: &mut dyn Workload,
    opts: &Opts,
    off: &Tracer,
    on: &Tracer,
    chk: &mut Checker,
) -> (Vec<PassStats>, Vec<PassStats>) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    while plain.len() < MIN_PASSES || measured < opts.seconds {
        plain.push(w.pass(off, chk));
        measured += plain.last().map_or(0.0, |p| p.wall_s);
        if opts.trace {
            traced.push(w.pass(on, chk));
            measured += traced.last().map_or(0.0, |p| p.wall_s);
        }
    }
    (plain, traced)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn walls(ps: &[PassStats]) -> Vec<f64> {
    ps.iter().map(|p| p.wall_s).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    hermetic_env();

    let run_id = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
        ^ u64::from(std::process::id());
    let run_dir = std::path::PathBuf::from(".perfbench_tmp").join(format!("run-{run_id:x}"));
    let Some(mut w) = make_workload(&opts, &run_dir) else {
        eprintln!("perfbench: unknown workload {}\n{}", opts.workload, usage());
        return ExitCode::from(2);
    };

    let prov = Provenance::capture();
    prov.warn_if_dirty("this perfbench result");
    let traces = w.traces();
    println!(
        "{{\"perfbench\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"traces\":[{}],\"workers\":1,\"caches\":\"cold per cell\",\"git_sha\":\"{}\",\
         \"git_dirty\":{},\"date\":\"{}\",\"run_id\":\"{run_id:x}\"}}}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        traces
            .iter()
            .map(|(t, n)| format!("\"{t}:n{n}\""))
            .collect::<Vec<_>>()
            .join(","),
        prov.git_sha,
        prov.git_dirty,
        prov.date,
    );

    let off = Tracer::new(false, run_id);
    let on = Tracer::new(true, run_id);
    let setup_tr = if opts.trace { &on } else { &off };
    let mut chk = Checker::default();

    // Set-up: the first repetition fills the process-wide cache the
    // workload's entry points read; the rest time the same work on
    // fresh caches.
    let mut setups = vec![setup_once(
        w.as_mut(),
        opts.seed,
        ballerino_workloads::cache::global(),
        setup_tr,
    )];
    for _ in 1..SETUP_REPS {
        setups.push(setup_once(
            w.as_mut(),
            opts.seed,
            &TraceCache::new(),
            setup_tr,
        ));
    }
    let setup_end = on.mark();

    let (plain, traced) = measure(w.as_mut(), &opts, &off, &on, &mut chk);
    let pass_end = on.mark();
    let mut m = Metrics::default();
    if opts.trace {
        layers::setup_metrics(&on, 0..setup_end, SETUP_REPS, &mut m);
        let pass_times = layers::per_pass(&on, setup_end..pass_end, traced.len());
        m.push(
            "bench.pass_self_s",
            pass_times.get(&("bench.pass", "")).copied().unwrap_or(0.0),
            "s",
        );
        w.layers(&on, &pass_times, &mut chk, &mut m);
        let traced_wall = median(&walls(&traced));
        let plain_wall = median(&walls(&plain));
        m.push(
            "trace.overhead_pct",
            100.0 * (traced_wall - plain_wall) / plain_wall,
            "%",
        );
        if let Err(e) = write_spans(&on, &opts) {
            eprintln!("perfbench: could not write spans: {e}");
        }
    } else {
        let wall = median(&walls(&plain));
        let rates: Vec<f64> = plain.iter().map(|p| p.uops as f64 / p.wall_s).collect();
        m.push("wall_s", wall, "s");
        m.push("sim_uops_per_s", median(&rates), "uops/s");
        m.push("setup_s", median(&setups), "s");
        m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    drop(w);
    let _ = std::fs::remove_dir_all(&run_dir);
    // Leaves the shared parent only if no other run is using it.
    let _ = std::fs::remove_dir(".perfbench_tmp");

    eprintln!(
        "perfbench: {} passes, walls {:?}, setup {:?}",
        plain.len(),
        walls(&plain),
        setups
    );
    chk.report_failures();
    println!("{}", report::result_line(&chk, &m));
    ExitCode::SUCCESS
}

/// Writes the traced run's spans to `.perfbench_out/`.
fn write_spans(tr: &Tracer, opts: &Opts) -> std::io::Result<()> {
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-s{}.jsonl", opts.workload, opts.seed));
    tr.write_jsonl(&path)?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = parse_args(&args(
            "--workload memory_bound --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workload, "memory_bound");
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, 3.0);
        assert!(o.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args("--seed 7")).is_err());
        assert!(parse_args(&args("--workload x --trace 2")).is_err());
        assert!(parse_args(&args("--workload x --seconds 0")).is_err());
        assert!(parse_args(&args("--workload x --bogus 1")).is_err());
    }
}
