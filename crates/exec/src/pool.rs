//! The execution policy, the scoped worker pool and the ordered
//! parallel map.
//!
//! Tasks are **self-scheduled**: a shared atomic cursor hands out
//! contiguous grabs of indices, so an idle worker takes the next grab
//! the moment it finishes its last — which balances skewed workloads
//! (the transient simulations this workspace runs can vary several-fold
//! in cost across a sweep). The grab size is computed from the task and
//! worker counts. Each worker returns its `(index, value)` pairs
//! through its join handle and the caller scatters them into index
//! order, which is what makes the map deterministic under any schedule.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Grabs each worker takes from the cursor in an evenly costed map.
///
/// A grab of `n / (workers · 8)` tasks keeps cursor traffic negligible
/// for microsecond-scale tasks (1 440 CORDIC tasks on 2 workers take 90
/// per grab), while eight grabs per worker still leave room to balance
/// a skewed sweep of millisecond-scale fixes (48 headings on 2 workers
/// take 3 per grab).
const GRABS_PER_WORKER: usize = 8;

/// How a sweep is executed: the number of threads it runs on. One
/// thread is a serial loop on the calling thread; more is a scoped
/// worker pool. This is the single execution argument the workspace's
/// unified entry points take (`sweep_headings`, `run_monte_carlo`,
/// `worst_tilt_error`, …) — the result is bit-identical either way, so
/// the policy is purely a throughput choice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExecPolicy {
    threads: NonZeroUsize,
}

impl ExecPolicy {
    /// Strictly serial execution on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::parallel(1)
    }

    /// A pool of exactly `threads` threads; `0` and `1` both mean
    /// serial, so policy equality reflects behaviour.
    #[must_use]
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads: NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN),
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
        Self { threads }
    }

    /// The worker count (1 for the serial policy).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.get()
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::auto()
    }
}

/// Maps `f` over the index range `0..n`, returning results in order.
///
/// The heading sweeps (`k -> heading k·360/n`) and Monte-Carlo trials
/// run on this; see [`par_map_range_scratch`] for the engine and the
/// determinism contract.
pub fn par_map_range<U, F>(policy: &ExecPolicy, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_range_scratch(policy, n, || (), |_, k| f(k))
}

/// Maps `f(&mut scratch, k)` over `0..n`, returning results in index
/// order, with one lazily built scratch per execution context.
///
/// With a serial policy (or at most one task) this is a plain serial
/// loop; otherwise the tasks run on a scoped worker pool. Each
/// execution context — the calling thread under a serial policy, each
/// worker thread otherwise — builds **one** scratch with `init` (on its
/// first task) and reuses it for every task it runs, so per-task setup
/// (a detector + counter pair, a solver workspace, …) is paid once per
/// worker instead of once per task.
///
/// For any `f` that is a pure function of `k` *given a scratch it fully
/// resets per task*, the output is bit-for-bit identical at every
/// worker count — which scratch `f` happens to receive must not leak
/// into the result. The compass measurement scratch resets its detector
/// and counter on every fix for exactly this reason.
pub fn par_map_range_scratch<S, U, I, F>(policy: &ExecPolicy, n: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let workers = policy.threads().min(n.max(1));
    fluxcomp_obs::counter_add("exec.tasks", n as u64);
    if workers <= 1 {
        fluxcomp_obs::counter_add("exec.serial_maps", 1);
        let mut scratch = init();
        return (0..n).map(|k| f(&mut scratch, k)).collect();
    }
    fluxcomp_obs::counter_add("exec.par_maps", 1);

    let grab = n.div_ceil(workers * GRABS_PER_WORKER);
    let cursor = AtomicUsize::new(0);
    // Workers record into the caller's obs scope, if it has one.
    let obs_scope = fluxcomp_obs::current_scope();
    let worker = || {
        let _obs = obs_scope.clone().map(fluxcomp_obs::scope);
        let busy = fluxcomp_obs::span("exec.worker_busy");
        let mut scratch: Option<S> = None;
        let mut local: Vec<(usize, U)> = Vec::new();
        let mut grabs = 0u64;
        loop {
            let start = cursor.fetch_add(grab, Ordering::Relaxed);
            if start >= n {
                break;
            }
            grabs += 1;
            let scratch = scratch.get_or_insert_with(&init);
            for k in start..(start + grab).min(n) {
                local.push((k, f(scratch, k)));
            }
        }
        fluxcomp_obs::counter_add("exec.chunks_claimed", grabs);
        busy.finish();
        local
    };

    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            let local = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (k, value) in local {
                debug_assert!(out[k].is_none(), "task {k} produced twice");
                out[k] = Some(value);
            }
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every task produces exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        let items: Vec<f64> = (0..997).map(|k| k as f64 * 0.377).collect();
        let f = |k: usize| (items[k].sin() * (k as f64 + 1.0)).sqrt();
        let serial = par_map_range(&ExecPolicy::serial(), items.len(), f);
        for threads in [2, 3, 8, 64] {
            let par = par_map_range(&ExecPolicy::parallel(threads), items.len(), f);
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "at {threads} threads");
            }
        }
    }

    #[test]
    fn results_are_in_index_order() {
        let out = par_map_range(&ExecPolicy::parallel(4), 1000, |k| k * 3);
        for (k, v) in out.iter().enumerate() {
            assert_eq!(*v, k * 3);
        }
    }

    #[test]
    fn every_grab_size_computes_each_index_once_in_order() {
        let f = |k: usize| (k as f64 * 0.7).sin() + k as f64;
        let mut short_last_grab = false;
        for n in [0, 1, 7, 63, 64, 65, 1000, 1234] {
            let serial = par_map_range(&ExecPolicy::serial(), n, f);
            for threads in [2, 3, 5, 64] {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = par_map_range(&ExecPolicy::parallel(threads), n, |k| {
                    calls[k].fetch_add(1, Ordering::Relaxed);
                    (k, f(k))
                });
                let case = format!("n {n}, {threads} threads");
                assert!(
                    calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "{case}: an index was not computed exactly once"
                );
                assert_eq!(out.len(), n, "{case}");
                for (k, (&(kk, v), s)) in out.iter().zip(&serial).enumerate() {
                    assert_eq!(kk, k, "{case}: out of order");
                    assert_eq!(v.to_bits(), s.to_bits(), "{case}: differs from serial");
                }
                let grab = n.div_ceil(threads.min(n).max(1) * GRABS_PER_WORKER);
                short_last_grab |= grab > 1 && n % grab != 0;
            }
        }
        assert!(short_last_grab, "the grid must hit a short last grab");
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(par_map_range(&ExecPolicy::auto(), 0, |k| k).is_empty());
        assert_eq!(par_map_range(&ExecPolicy::auto(), 1, |k| k + 9), vec![9]);
    }

    #[test]
    fn policy_constructors() {
        assert_eq!(ExecPolicy::serial().threads(), 1);
        assert_eq!(ExecPolicy::parallel(0).threads(), 1);
        assert_eq!(ExecPolicy::parallel(6).threads(), 6);
        assert!(ExecPolicy::auto().threads() >= 1);
    }

    #[test]
    fn policy_normalises_degenerate_parallelism() {
        // One worker *is* serial, and equality agrees.
        assert_eq!(ExecPolicy::parallel(1), ExecPolicy::serial());
        assert_eq!(ExecPolicy::parallel(0), ExecPolicy::serial());
        assert_ne!(ExecPolicy::parallel(2), ExecPolicy::serial());
    }

    #[test]
    fn skewed_workloads_balance() {
        // Front-loaded cost: without self-scheduling one worker would do
        // nearly everything. This just asserts correctness, not timing.
        let out = par_map_range(&ExecPolicy::parallel(4), 200, |k| {
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
            &ExecPolicy::parallel(4),
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
            &ExecPolicy::parallel(4),
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
    fn pool_reports_work_to_the_recorder() {
        let session = fluxcomp_obs::init_scoped_for_test();
        let _ = par_map_range(&ExecPolicy::parallel(4), 64, |k| k);
        let profile = session.profile().expect("recorder installed");
        assert_eq!(profile.counter("exec.tasks"), Some(64));
        assert_eq!(profile.counter("exec.par_maps"), Some(1));
        // 64 tasks on 4 workers → grabs of 2 → exactly 32 claims,
        // however the workers split them.
        assert_eq!(profile.counter("exec.chunks_claimed"), Some(32));
        let busy = profile.span("exec.worker_busy").expect("worker spans");
        assert_eq!(busy.count, 4);
    }
}
