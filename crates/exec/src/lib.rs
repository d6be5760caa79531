//! # fluxcomp-exec
//!
//! The workspace's **deterministic parallel sweep engine**.
//!
//! Every headline experiment of the reproduction — heading sweeps,
//! Monte-Carlo yield, thermal and production studies — evaluates many
//! *independent* scenarios of the same immutable design. This crate
//! turns that shape into throughput without giving up reproducibility:
//!
//! * [`par_map_range`] / [`par_map_range_scratch`] fan the tasks `0..n`
//!   out over a scoped `std::thread` worker pool (no dependencies, no
//!   global state) and collect results **in task order**, so any pure
//!   task function produces output bit-for-bit identical to a serial
//!   loop at every worker count; [`ExecPolicy`] is just that worker
//!   count;
//! * [`seed::derive_seed`] gives each task its own statistically
//!   independent RNG seed from a base seed and the task index, so even
//!   randomised workloads (Monte-Carlo, noise studies) stay bit-exact
//!   under parallelism — the *serial* path uses the same derivation;
//! * [`stats::StreamStats`] is the single-pass max/mean/rms/bias
//!   accumulator shared by the accuracy sweeps and the Monte-Carlo
//!   harness, and [`stats::SortedSamples`] answers quantile queries from
//!   one sort.
//!
//! ## The determinism contract
//!
//! For any `f` that is a pure function of the task index `k`:
//!
//! ```text
//! par_map_range(policy, n, f) == (0..n).map(f)   for every policy
//! ```
//!
//! Randomised tasks keep the contract by seeding from
//! `derive_seed(base, index)` instead of sharing one sequential RNG.
//! Reductions over the returned `Vec` run in index order on the calling
//! thread, so floating-point accumulation order — and therefore every
//! rounded bit — matches the serial reference.

pub mod pool;
pub mod seed;
pub mod stats;

pub use pool::{par_map_range, par_map_range_scratch, ExecPolicy};
pub use seed::{derive_seed, unit_f64};
pub use stats::{SortedSamples, StreamStats};
