//! The execution policy, the scoped worker pool and the ordered
//! parallel map.
//!
//! Tasks are distributed by **chunked self-scheduling**: a shared atomic
//! cursor hands out contiguous index chunks, so idle workers steal the
//! next chunk the moment they finish — coarse enough to keep contention
//! negligible, fine enough to balance skewed workloads (the expensive
//! transient simulations this workspace runs can vary several-fold in
//! cost across a sweep). Each worker buffers `(index, value)` pairs
//! locally; the caller scatters them back into index order afterwards,
//! which is what makes the map deterministic under any schedule.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a sweep is executed: serially on the calling thread, or on a
/// scoped worker pool. This is the single execution argument the
/// workspace's unified entry points take (`sweep_headings`,
/// `run_monte_carlo`, `worst_tilt_error`, `production_test_batch`, …) —
/// the result is bit-identical either way, so the policy is purely a
/// throughput choice.
///
/// Construct via [`ExecPolicy::serial`], [`ExecPolicy::parallel`],
/// [`ExecPolicy::auto`] or [`ExecPolicy::with_threads`]; the variants
/// themselves are non-exhaustive so invariants (nonzero worker/chunk
/// counts) always hold.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ExecPolicy {
    /// Strictly serial execution on the calling thread.
    Serial,
    /// A scoped worker pool.
    #[non_exhaustive]
    Parallel {
        /// Number of worker threads (≥ 2; smaller requests normalise to
        /// [`ExecPolicy::Serial`]).
        workers: NonZeroUsize,
        /// Tasks handed to a worker per self-scheduling grab.
        chunk: NonZeroUsize,
    },
}

impl ExecPolicy {
    /// Strictly serial execution on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::Serial
    }

    /// A pool of exactly `workers` threads; `workers <= 1` normalises
    /// to [`ExecPolicy::Serial`] so policy equality reflects behaviour.
    #[must_use]
    pub fn parallel(workers: usize) -> Self {
        match NonZeroUsize::new(workers).filter(|w| w.get() > 1) {
            Some(workers) => Self::Parallel {
                workers,
                chunk: NonZeroUsize::MIN,
            },
            None => Self::Serial,
        }
    }

    /// One worker per available core (or the `FLUXCOMP_THREADS`
    /// environment override, when set and nonzero).
    #[must_use]
    pub fn auto() -> Self {
        let env = std::env::var("FLUXCOMP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .and_then(NonZeroUsize::new);
        let threads = env
            .unwrap_or_else(|| std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN));
        Self::parallel(threads.get())
    }

    /// Exactly `threads` workers (alias of [`ExecPolicy::parallel`],
    /// kept from the original API).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self::parallel(threads)
    }

    /// Sets the self-scheduling chunk size (tasks handed to a worker per
    /// grab; clamped to at least one). The default of 1 suits this
    /// workspace's task granularity — one task is a whole transient
    /// simulation, milliseconds of work. No effect on a serial policy.
    #[must_use]
    pub fn with_chunk(self, chunk: usize) -> Self {
        match self {
            Self::Serial => Self::Serial,
            Self::Parallel { workers, .. } => Self::Parallel {
                workers,
                chunk: NonZeroUsize::new(chunk).unwrap_or(NonZeroUsize::MIN),
            },
        }
    }

    /// The worker count (1 for the serial policy).
    #[must_use]
    pub fn threads(&self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Parallel { workers, .. } => workers.get(),
        }
    }

    /// The chunk size (1 for the serial policy).
    #[must_use]
    pub fn chunk(&self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Parallel { chunk, .. } => chunk.get(),
        }
    }

    /// `true` when this policy runs on the calling thread only.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        matches!(self, Self::Serial)
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::auto()
    }
}

/// Maps `f` over `items`, returning results in item order.
///
/// `f` receives `(index, &item)`. With a serial policy (or one item)
/// this is a plain serial loop; otherwise items are processed by a
/// scoped worker pool. For pure `f` the output is bit-for-bit identical
/// in both cases — see the crate-level determinism contract.
pub fn par_map<T, U, F>(policy: &ExecPolicy, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_scratch(policy, items, || (), |_, index, item| f(index, item))
}

/// Like [`par_map`], but with a reusable per-worker scratch value.
///
/// Each execution context — the calling thread under a serial policy,
/// each worker thread otherwise — builds **one** scratch with `init`
/// (lazily, on its first task) and reuses it for every task it runs, so
/// per-task setup that would otherwise be allocated for every item (a
/// detector + counter pair, a solver workspace, …) is paid once per
/// worker instead. `f` receives `(&mut scratch, index, &item)`.
///
/// The determinism contract still holds for any `f` that is a pure
/// function of `(index, item)` *given a freshly initialised scratch it
/// fully resets per task* — which scratch between tasks `f` happens to
/// receive must not leak into the result. The compass measurement
/// scratch resets its detector and counter on every fix for exactly this
/// reason.
pub fn par_map_scratch<S, T, U, I, F>(policy: &ExecPolicy, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let n = items.len();
    let workers = policy.threads().min(n.max(1));
    fluxcomp_obs::counter_add("exec.tasks", n as u64);
    if workers <= 1 {
        fluxcomp_obs::counter_add("exec.serial_maps", 1);
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut scratch, i, t))
            .collect();
    }
    fluxcomp_obs::counter_add("exec.par_maps", 1);

    // One indexed-result buffer per worker, tagged by its first index.
    type Bucket<U> = Vec<(usize, U)>;
    let cursor = AtomicUsize::new(0);
    let chunk = policy.chunk();
    let buckets: Mutex<Vec<(usize, Bucket<U>)>> = Mutex::new(Vec::with_capacity(workers));
    // Workers record into the caller's obs scope, if it has one.
    let obs_scope = fluxcomp_obs::current_scope();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _obs = obs_scope.clone().map(fluxcomp_obs::scope);
                let busy = fluxcomp_obs::span("exec.worker_busy");
                let mut scratch: Option<S> = None;
                let mut local: Vec<(usize, U)> = Vec::new();
                let mut chunks_claimed = 0u64;
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    chunks_claimed += 1;
                    let end = (start + chunk).min(n);
                    for (i, item) in items[start..end].iter().enumerate() {
                        let index = start + i;
                        let scratch = scratch.get_or_insert_with(&init);
                        local.push((index, f(scratch, index, item)));
                    }
                }
                fluxcomp_obs::counter_add("exec.chunks_claimed", chunks_claimed);
                busy.finish();
                if !local.is_empty() {
                    let first = local[0].0;
                    buckets
                        .lock()
                        .expect("worker panicked")
                        .push((first, local));
                }
            });
        }
    });

    // Scatter the per-worker buffers back into index order.
    let mut buckets = buckets.into_inner().expect("worker panicked");
    buckets.sort_unstable_by_key(|&(first, _)| first);
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for (_, bucket) in buckets {
        for (index, value) in bucket {
            debug_assert!(out[index].is_none(), "task {index} produced twice");
            out[index] = Some(value);
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("every task produces exactly one result"))
        .collect()
}

/// Maps `f` over the index range `0..n`, returning results in order.
///
/// The index-sweep convenience wrapper around [`par_map`] used by the
/// heading sweeps (`k -> heading k·360/n`) and Monte-Carlo trials.
pub fn par_map_range<U, F>(policy: &ExecPolicy, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_range_scratch(policy, n, || (), |_, k| f(k))
}

/// Index-range twin of [`par_map_scratch`]: maps `f(&mut scratch, k)`
/// over `0..n` with one lazily built scratch per execution context.
///
/// This is the engine under the allocation-free sweeps: a serial sweep
/// reuses a single scratch across all `n` fixes, a parallel sweep one
/// per worker thread.
pub fn par_map_range_scratch<S, U, I, F>(policy: &ExecPolicy, n: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let workers = policy.threads().min(n.max(1));
    if workers <= 1 {
        fluxcomp_obs::counter_add("exec.tasks", n as u64);
        fluxcomp_obs::counter_add("exec.serial_maps", 1);
        let mut scratch = init();
        return (0..n).map(|k| f(&mut scratch, k)).collect();
    }
    let indices: Vec<usize> = (0..n).collect();
    par_map_scratch(policy, &indices, init, |scratch, _, &k| f(scratch, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        let items: Vec<f64> = (0..997).map(|k| k as f64 * 0.377).collect();
        let f = |i: usize, x: &f64| (x.sin() * (i as f64 + 1.0)).sqrt();
        let serial = par_map(&ExecPolicy::serial(), &items, f);
        for threads in [2, 3, 8, 64] {
            let par = par_map(&ExecPolicy::with_threads(threads), &items, f);
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "at {threads} threads");
            }
        }
    }

    #[test]
    fn results_are_in_index_order() {
        let out = par_map_range(&ExecPolicy::with_threads(4), 1000, |k| k * 3);
        for (k, v) in out.iter().enumerate() {
            assert_eq!(*v, k * 3);
        }
    }

    #[test]
    fn chunking_covers_everything_exactly_once() {
        for chunk in [1, 3, 7, 100, 10_000] {
            let policy = ExecPolicy::with_threads(5).with_chunk(chunk);
            let out = par_map_range(&policy, 1234, |k| k);
            assert_eq!(out, (0..1234).collect::<Vec<_>>(), "chunk {chunk}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&ExecPolicy::auto(), &empty, |_, v| *v).is_empty());
        assert_eq!(par_map_range(&ExecPolicy::auto(), 1, |k| k + 9), vec![9]);
    }

    #[test]
    fn policy_constructors() {
        assert_eq!(ExecPolicy::serial().threads(), 1);
        assert_eq!(ExecPolicy::with_threads(0).threads(), 1);
        assert_eq!(ExecPolicy::with_threads(6).threads(), 6);
        assert_eq!(ExecPolicy::with_threads(2).with_chunk(0).chunk(), 1);
        assert!(ExecPolicy::auto().threads() >= 1);
    }

    #[test]
    fn policy_normalises_degenerate_parallelism() {
        // One worker *is* serial; the enum says so, and equality agrees.
        assert_eq!(ExecPolicy::parallel(1), ExecPolicy::Serial);
        assert_eq!(ExecPolicy::parallel(0), ExecPolicy::Serial);
        assert_eq!(ExecPolicy::with_threads(1), ExecPolicy::serial());
        assert!(ExecPolicy::parallel(1).is_serial());
        assert!(!ExecPolicy::parallel(2).is_serial());
        // Chunk adjustment on a serial policy is a no-op.
        assert_eq!(ExecPolicy::serial().with_chunk(64), ExecPolicy::Serial);
        // Matching the enum works for downstream dispatch.
        match ExecPolicy::parallel(4) {
            ExecPolicy::Parallel { workers, .. } => assert_eq!(workers.get(), 4),
            _ => panic!("expected the parallel variant"),
        }
    }

    #[test]
    fn skewed_workloads_balance() {
        // Front-loaded cost: without self-scheduling one worker would do
        // nearly everything. This just asserts correctness, not timing.
        let out = par_map_range(&ExecPolicy::with_threads(4), 200, |k| {
            let spin = if k < 8 { 20_000 } else { 10 };
            let mut acc = k as u64;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (k, acc)
        });
        for (k, (kk, _)) in out.iter().enumerate() {
            assert_eq!(k, *kk);
        }
    }

    #[test]
    fn scratch_is_reused_within_a_context() {
        // Serial: one scratch sees every task in order.
        let out = par_map_range_scratch(
            &ExecPolicy::serial(),
            10,
            || 0u32,
            |calls, k| {
                *calls += 1;
                (*calls, k)
            },
        );
        for (k, &(calls, kk)) in out.iter().enumerate() {
            assert_eq!(kk, k);
            assert_eq!(calls as usize, k + 1, "serial scratch not reused");
        }
        // Parallel: results stay ordered and correct regardless of which
        // worker's scratch computed them.
        let out = par_map_range_scratch(
            &ExecPolicy::with_threads(4),
            100,
            || 0u32,
            |calls, k| {
                *calls += 1;
                k * 2
            },
        );
        assert_eq!(out, (0..100).map(|k| k * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_init_runs_at_most_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let out = par_map_range_scratch(
            &ExecPolicy::with_threads(4),
            64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u8
            },
            |_, k| k,
        );
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        let count = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&count), "scratch built {count} times");
    }

    #[test]
    fn scratch_map_over_items_matches_plain_map() {
        let items: Vec<f64> = (0..513).map(|k| k as f64 * 0.7).collect();
        let plain = par_map(&ExecPolicy::with_threads(3), &items, |i, x| {
            x.sin() + i as f64
        });
        let scratched = par_map_scratch(
            &ExecPolicy::with_threads(3),
            &items,
            || (),
            |_, i, x| x.sin() + i as f64,
        );
        for (a, b) in plain.iter().zip(&scratched) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pool_reports_work_to_the_recorder() {
        let session = fluxcomp_obs::init_scoped_for_test();
        let _ = par_map_range(&ExecPolicy::with_threads(4).with_chunk(8), 64, |k| k);
        let profile = session.profile().expect("recorder installed");
        assert_eq!(profile.counter("exec.tasks"), Some(64));
        assert_eq!(profile.counter("exec.par_maps"), Some(1));
        // 64 tasks in chunks of 8 → exactly 8 claims, however the
        // workers split them.
        assert_eq!(profile.counter("exec.chunks_claimed"), Some(8));
        let busy = profile.span("exec.worker_busy").expect("worker spans");
        assert_eq!(busy.count, 4);
    }
}
