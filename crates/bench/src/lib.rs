//! # ballerino-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (see DESIGN.md §3 for the index), the golden `SimResult`
//! digest ([`golden`]), and std-only micro-benchmarks of the library
//! itself (`benches/`, plain `harness = false` binaries).
//!
//! All binaries honor three environment variables:
//!
//! * `BALLERINO_N` — μops per workload (default 20 000; the paper runs
//!   300M-instruction SimPoints, so crank this up for smoother numbers),
//! * `BALLERINO_SEED` — workload generator seed (default 42),
//! * `BALLERINO_THREADS` — worker threads for the matrix runner
//!   (default: the host's available parallelism).
//!
//! ## Threading model
//!
//! [`run_cells`] flattens the `kinds × workloads` matrix into a shared
//! list of independent cells and runs them on a fixed pool of
//! [`threads`] workers that *steal* work via an atomic cursor: each
//! worker repeatedly claims the next unclaimed cell index with a
//! `fetch_add` and simulates it. Traces come from the process-wide
//! [`ballerino_workloads::TraceCache`], so a workload trace is generated
//! once per `(name, n, seed)` no matter how many machine kinds consume
//! it, and workers share the same `Arc<Trace>` instead of cloning.
//! Results are written back by cell index, so the output layout — and,
//! because every simulation is single-threaded and deterministic, every
//! cycle count — is independent of the thread count.
//!
//! Host throughput is measured by the separate `perfbench` package;
//! simulated exactness against the seed reference pipeline is checked
//! by `tests/reference_equivalence.rs`.

#![warn(missing_docs)]

pub mod cells;
pub mod golden;
pub mod provenance;
pub mod sweep;

pub use cells::{
    calib_kinds, enumerate_cells, fig11_kinds, fig12_kinds, fig15_kinds, fnv1a, grid_points,
    kind_from_name, sweep_kinds, width_from_str, KindInfo, SimCell, KIND_REGISTRY,
};
pub use provenance::Provenance;
pub use sweep::{
    anchored_survivors, pareto_indices, point_cost, promote_indices, run_sweep, simulate_points,
    tier0_scores, SweepOutcome, SweepSpec,
};

use ballerino_sim::stats::geomean;
use ballerino_sim::{MachineKind, SimResult, Width};
use ballerino_workloads::workload_names;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// μops per workload (env `BALLERINO_N`, default 20 000).
pub fn suite_len() -> usize {
    std::env::var("BALLERINO_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000)
}

/// Workload seed (env `BALLERINO_SEED`, default 42).
pub fn seed() -> u64 {
    std::env::var("BALLERINO_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Debug rendering of a result with the host-throughput fields
/// (`host_wall_s`, `cycles_skipped`) zeroed: everything that remains is
/// simulated behaviour, which the live and reference pipelines must
/// agree on exactly.
pub fn normalized(r: &SimResult) -> String {
    let mut z = r.clone();
    z.host_wall_s = 0.0;
    z.cycles_skipped = 0;
    format!("{z:?}")
}

/// Whether a boolean `BALLERINO_*` environment knob of a harness binary
/// is enabled.
///
/// Set-but-empty counts as *unset*, so CI matrices (and shell one-liners
/// like `BALLERINO_SWEEP_SMALL= sweep_bench`) can pass an empty value to
/// mean "leave the default"; any non-empty value enables the knob.
pub fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| !v.is_empty())
}

/// Worker threads for the matrix runner (env `BALLERINO_THREADS`,
/// default: the host's available parallelism; always at least 1).
pub fn threads() -> usize {
    std::env::var("BALLERINO_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

/// Runs `f` over `items` on a fixed pool of `threads` work-stealing
/// workers (the atomic-cursor scheme described in the module docs);
/// returns results in item order. Every pooled runner in this crate —
/// the kind×workload matrix, the sweep engine's two tiers, the fig
/// binaries' custom grids — funnels through here, so they all inherit
/// `BALLERINO_THREADS` semantics from one place.
pub fn run_pool<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let r = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("item not processed")
        })
        .collect()
}

/// Runs several machine kinds over the suite of `n`-μop workloads
/// generated with seed `s`, on `threads` work-stealing workers; returns
/// `[kind][workload]`.
///
/// The result is bit-for-bit independent of `threads` — workers only
/// race for *which* cell to claim next, never over a cell's inputs or
/// outputs.
pub fn run_cells(
    kinds: &[MachineKind],
    width: Width,
    n: usize,
    s: u64,
    threads: usize,
) -> Vec<Vec<SimResult>> {
    let names = workload_names();
    let points = grid_points(kinds, &[width], &[None], &[100]);
    let cells = enumerate_cells(&points, &names, n, s);

    // SimCell::run shares the cached trace per (workload, n, seed), so
    // every machine kind consumes one generation.
    let mut out = run_pool(&cells, threads, SimCell::run);

    let mut rows = Vec::with_capacity(kinds.len());
    for _ in kinds {
        let rest = out.split_off(names.len());
        rows.push(out);
        out = rest;
    }
    rows
}

/// Runs one machine kind over the whole suite at a width (the
/// environment's [`suite_len`], [`seed`] and [`threads`]).
pub fn run_suite(kind: MachineKind, width: Width) -> Vec<SimResult> {
    run_cells(&[kind], width, suite_len(), seed(), threads())
        .pop()
        .expect("one row per kind")
}

/// Per-workload speedups of `results` over `base` (paired by index),
/// followed by the geometric mean as the final element.
pub fn speedups_with_geomean(results: &[SimResult], base: &[SimResult]) -> Vec<f64> {
    assert_eq!(results.len(), base.len());
    let mut v: Vec<f64> = results
        .iter()
        .zip(base)
        .map(|(r, b)| r.speedup_over(b))
        .collect();
    v.push(geomean(&v));
    v
}

/// Prints one markdown-style table row.
pub fn print_row(label: &str, vals: &[f64], width: usize, prec: usize) {
    print!("{label:<20}");
    for v in vals {
        print!("{v:>width$.prec$}");
    }
    println!();
}

/// Prints the table header: workload names plus `GEOMEAN`.
///
/// Labels wider than the column are truncated to `width - 1` *characters*
/// (not bytes, so multi-byte labels never split a UTF-8 sequence); at
/// `width <= 1` nothing of the label fits and only spacing is printed.
pub fn print_header(cols: &[&str], width: usize) {
    print!("{:<20}", "");
    for c in cols {
        let truncated = truncate_chars(c, width.saturating_sub(1));
        print!("{truncated:>width$}");
    }
    println!();
}

/// The first `max_chars` characters of `s` (all of `s` if it is short
/// enough), never splitting inside a multi-byte character.
fn truncate_chars(s: &str, max_chars: usize) -> &str {
    match s.char_indices().nth(max_chars) {
        Some((byte_idx, _)) => &s[..byte_idx],
        None => s,
    }
}

/// Short column labels for the suite plus a geomean column.
pub fn workload_cols() -> Vec<&'static str> {
    let mut v = workload_names();
    v.push("GEOMEAN");
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        assert!(suite_len() >= 1000);
        let _ = seed();
        assert!(threads() >= 1);
    }

    #[test]
    fn workload_cols_end_with_geomean() {
        let cols = workload_cols();
        assert_eq!(*cols.last().unwrap(), "GEOMEAN");
        assert_eq!(cols.len(), 16);
    }

    #[test]
    fn truncate_chars_is_char_safe() {
        assert_eq!(truncate_chars("hello", 3), "hel");
        assert_eq!(truncate_chars("hello", 10), "hello");
        assert_eq!(truncate_chars("héllo", 2), "hé");
        assert_eq!(truncate_chars("μop-μop", 4), "μop-");
        assert_eq!(truncate_chars("anything", 0), "");
    }

    #[test]
    fn print_header_handles_degenerate_widths() {
        // Must not panic for tiny widths or non-ASCII labels (the seed
        // version byte-sliced at `width - 1`, panicking on both).
        print_header(&["alpha", "β-workload", "x"], 1);
        print_header(&["alpha", "β-workload"], 2);
        print_header(&["日本語ラベル"], 4);
    }
}
