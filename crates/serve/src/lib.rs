//! # ballerino-serve
//!
//! The campaign service: a job engine that accepts simulation
//! *campaigns* — a design-space grid × workload suite, described by a
//! [`CampaignSpec`] JSON document — decomposes them into independent
//! cells (`ballerino_bench::SimCell`), and executes them on a
//! supervised worker pool with the machinery a long-running service
//! needs and a one-shot harness doesn't:
//!
//! * request **dedup** (identical cells coalesce; traces and DAGs come
//!   from the process-wide `TraceCache`),
//! * **bounded mailboxes** (the feeder blocks on a full dispatch queue
//!   — backpressure instead of unbounded buffering),
//! * per-cell **retry with exponential backoff** under `catch_unwind`
//!   (a poisoned cell fails alone; it cannot take down the campaign),
//! * incremental **result streaming** (canonical JSONL records as cells
//!   complete),
//! * **checkpoint/resume** (an append-only journal; restart replays it
//!   and runs only the missing cells),
//! * horizontal **sharding** (a [`Shard`] `i/n` partitions cells by
//!   stable FNV-1a key hash — processes coordinate through the spec
//!   alone; `serve_bench` reads it from `BALLERINO_SHARD`).
//!
//! The determinism contract, pinned by `tests/determinism.rs` and the
//! CI serve-smoke job: the merged, key-sorted record set of a campaign
//! is **byte-identical** as canonical JSONL no matter the shard count,
//! worker count, arrival order, or crash/resume history.
//!
//! See ARCHITECTURE.md § "The campaign service" for the design and
//! README § "Serving campaigns" for a quickstart; the `serve_bench`
//! binary is the CLI front end.

#![warn(missing_docs)]

pub mod engine;
pub mod journal;
pub mod json;
pub mod spec;

pub use engine::{run_campaign, run_cell, CampaignReport, EngineConfig, Shard};
pub use journal::{
    merge_records, parse_records, read_journal, to_jsonl, CellRecord, JournalWriter,
};
pub use spec::{CampaignMode, CampaignSpec};
