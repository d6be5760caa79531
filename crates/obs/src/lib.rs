//! # fluxcomp-obs
//!
//! The workspace's **observability layer**: structured spans, monotonic
//! counters, gauges and histograms, with a zero-cost no-op default.
//!
//! The paper's compass is a staged pipeline — triangular excitation →
//! pulse-position detector → up/down counter → 8-iteration CORDIC →
//! display — and the reproduction's performance work needs to see where
//! time and solver effort go *per stage*, the same high-rate counting
//! discipline as a TDC readout chip. Every hot layer of the workspace
//! (the `msim` solver and Monte-Carlo harness, the `afe` front-end, the
//! `rtl` netsim, the `compass` pipeline, the `exec` pool) records into
//! this crate through the free functions below.
//!
//! ## Zero cost when off
//!
//! No recorder is installed by default. Every instrumentation call
//! starts with one relaxed atomic load; when it reads `false` the call
//! returns immediately — no clock read, no lock, no allocation. Spans
//! don't even take the start timestamp. The e3/e4/e5 benches budget
//! < 5 % overhead for the disabled path; instrumentation sites keep to
//! that by recording per *run* or per *chunk*, never per analogue
//! sample.
//!
//! ## Determinism
//!
//! Recording is strictly write-only from the instrumented code's point
//! of view: nothing ever reads a metric back into a computation, so
//! enabling observability cannot perturb results. The determinism suite
//! (`tests/determinism.rs`) runs a sweep with a recorder installed and
//! asserts bit-identical statistics.
//!
//! ## Selecting an exporter
//!
//! Binaries call [`init_from_env`] once at startup and hold the
//! returned [`ObsSession`] until exit:
//!
//! ```text
//! FLUXCOMP_OBS=json  → JSON-lines profile on stderr at session drop
//! FLUXCOMP_OBS=text  → human-readable table on stderr at session drop
//! FLUXCOMP_OBS=off   → (default) nothing recorded, nothing printed
//! ```
//!
//! ```
//! let session = fluxcomp_obs::init_scoped_for_test();
//! fluxcomp_obs::counter_add("demo.fixes", 2);
//! {
//!     let _span = fluxcomp_obs::span("demo.stage");
//!     // ... timed work ...
//! }
//! let profile = session.profile().expect("recorder installed");
//! assert_eq!(profile.counter("demo.fixes"), Some(2));
//! assert_eq!(profile.span("demo.stage").unwrap().count, 1);
//! ```

pub mod export;
pub mod json;
pub mod recorder;

pub use export::{write_json_lines, write_text, PROFILE_VERSION};
pub use recorder::{AggregatingRecorder, HistogramSummary, Profile, Recorder, SpanSummary};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Live sinks: 1 for the global recorder when installed, plus 1 per
/// open [`Scope`] on any thread. Non-zero means recording is on.
static ENABLED: AtomicUsize = AtomicUsize::new(0);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

thread_local! {
    /// This thread's scoped recorder, which takes precedence over the
    /// global one.
    static SCOPED: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
}

/// `true` when a recorder is installed globally or scoped on any
/// thread. The one-load fast path every instrumentation site checks
/// first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) != 0
}

/// Runs `f` on this thread's scoped recorder, else on the global one.
#[inline]
fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    match SCOPED.try_with(|scoped| scoped.borrow().clone()) {
        Ok(Some(scoped)) => f(&*scoped),
        _ => with_global(f),
    }
}

#[inline]
fn with_global(f: impl FnOnce(&dyn Recorder)) {
    if let Ok(guard) = RECORDER.read() {
        if let Some(r) = guard.as_deref() {
            f(r);
        }
    }
}

/// Installs `recorder` as the global sink and enables recording.
/// Replaces any previously installed recorder.
pub fn install(recorder: Arc<dyn Recorder>) {
    if let Ok(mut guard) = RECORDER.write() {
        if guard.replace(recorder).is_none() {
            ENABLED.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Drops the global recorder; recording stays on only for open scopes.
pub fn uninstall() {
    if let Ok(mut guard) = RECORDER.write() {
        if guard.take().is_some() {
            ENABLED.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Routes everything this thread records to `recorder` until the
/// returned guard drops, shadowing the global recorder (and any outer
/// scope) on this thread only. Other threads are unaffected, so tests
/// and in-process benches that scope their own recorder cannot see each
/// other's metrics. Worker pools carry a caller's scope onto their
/// threads with [`current_scope`].
#[must_use = "the scope ends when the guard is dropped"]
pub fn scope(recorder: Arc<dyn Recorder>) -> Scope {
    let outer = SCOPED.with(|scoped| scoped.replace(Some(recorder)));
    ENABLED.fetch_add(1, Ordering::SeqCst);
    Scope {
        outer,
        _thread: PhantomData,
    }
}

/// This thread's scoped recorder, if a [`scope`] is open.
pub fn current_scope() -> Option<Arc<dyn Recorder>> {
    if !enabled() {
        return None;
    }
    SCOPED.with(|scoped| scoped.borrow().clone())
}

/// The guard of one [`scope`]; dropping it restores the outer scope.
/// Bound to the thread that opened it.
pub struct Scope {
    outer: Option<Arc<dyn Recorder>>,
    _thread: PhantomData<*const ()>,
}

impl std::fmt::Debug for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("nested", &self.outer.is_some())
            .finish()
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let outer = self.outer.take();
        let _ = SCOPED.try_with(|scoped| scoped.replace(outer));
        ENABLED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Adds `delta` to the named monotonic counter. No-op when disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.counter_add(name, delta));
}

/// Sets the named gauge. No-op when disabled.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.gauge_set(name, value));
}

/// Records one observation into the named histogram. No-op when
/// disabled.
#[inline]
pub fn histogram_record(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.histogram_record(name, value));
}

/// Snapshot of the global recorder, if one is installed.
pub fn snapshot() -> Option<Profile> {
    let mut out = None;
    if enabled() {
        with_global(|r| out = Some(r.snapshot()));
    }
    out
}

/// Opens a wall-clock span; the elapsed time is recorded under `name`
/// when the returned guard drops. When observability is off the guard
/// is inert — not even the start timestamp is taken.
#[inline]
#[must_use = "the span measures until the guard is dropped"]
pub fn span(name: &'static str) -> SpanGuard {
    let start = if enabled() {
        Some(Instant::now())
    } else {
        None
    };
    SpanGuard { name, start }
}

/// An RAII guard for one span; see [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Completes the span now instead of at scope end.
    pub fn finish(mut self) {
        self.complete();
    }

    fn complete(&mut self) {
        if let Some(start) = self.start.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            with_recorder(|r| r.span_complete(self.name, nanos));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.complete();
    }
}

/// Which exporter (if any) the `FLUXCOMP_OBS` environment variable
/// selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Nothing recorded, nothing exported. The default.
    #[default]
    Off,
    /// JSON-lines profile on stderr when the session drops.
    Json,
    /// Human-readable table on stderr when the session drops.
    Text,
}

/// Reads `FLUXCOMP_OBS`. Unset, empty, `off`, `0` and `none` mean
/// [`ObsMode::Off`]; unknown values also fall back to `Off` (a missing
/// profile is obvious, a crashed example is not).
fn mode_from_env() -> ObsMode {
    match std::env::var("FLUXCOMP_OBS") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "json" | "jsonl" => ObsMode::Json,
            "text" | "txt" | "human" => ObsMode::Text,
            _ => ObsMode::Off,
        },
        Err(_) => ObsMode::Off,
    }
}

/// A process-lifetime observability session: holds the recorder that
/// [`init_from_env`] installed and exports its profile to stderr when
/// dropped.
#[derive(Debug)]
#[must_use = "dropping the session immediately would export an empty profile"]
pub struct ObsSession {
    mode: ObsMode,
    recorder: Option<Arc<AggregatingRecorder>>,
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        let Some(recorder) = self.recorder.take() else {
            return;
        };
        uninstall();
        let profile = recorder.snapshot();
        let stderr = std::io::stderr();
        let mut w = stderr.lock();
        let _ = match self.mode {
            ObsMode::Json => write_json_lines(&profile, &mut w),
            _ => write_text(&profile, &mut w),
        };
    }
}

/// Initialises observability from `FLUXCOMP_OBS` and returns the
/// session guard. Call once at the top of `main` and keep the guard
/// alive; the profile is exported to stderr when it drops.
pub fn init_from_env() -> ObsSession {
    let mode = mode_from_env();
    init_with_mode(mode)
}

/// Like [`init_from_env`] with an explicit mode.
fn init_with_mode(mode: ObsMode) -> ObsSession {
    let recorder = match mode {
        ObsMode::Off => None,
        ObsMode::Json | ObsMode::Text => {
            let r = Arc::new(AggregatingRecorder::new());
            install(r.clone());
            Some(r)
        }
    };
    ObsSession { mode, recorder }
}

/// A fresh [`AggregatingRecorder`] scoped to the calling thread (and
/// the pool workers it starts); see [`scope`]. Read it back with
/// [`ScopedSession::profile`]. Intended for tests that must not share a
/// recorder with tests running beside them.
pub fn init_scoped_for_test() -> ScopedSession {
    let recorder = Arc::new(AggregatingRecorder::new());
    let scope = scope(recorder.clone());
    ScopedSession {
        recorder,
        _scope: scope,
    }
}

/// The session [`init_scoped_for_test`] returns; the scope ends when it
/// drops.
#[derive(Debug)]
#[must_use = "dropping the session immediately ends the scope"]
pub struct ScopedSession {
    recorder: Arc<AggregatingRecorder>,
    _scope: Scope,
}

impl ScopedSession {
    /// Snapshot of everything recorded in the scope so far.
    pub fn profile(&self) -> Option<Profile> {
        Some(self.recorder.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The global recorder is process-wide; tests that install one are
    // serialised so `cargo test`'s threaded runner can't interleave
    // them.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_calls_are_noops() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        uninstall();
        assert!(!enabled());
        counter_add("x", 1);
        gauge_set("y", 1.0);
        histogram_record("z", 1.0);
        let g = span("s");
        assert!(g.start.is_none());
        drop(g);
        assert_eq!(snapshot(), None);
    }

    #[test]
    fn install_records_and_uninstall_stops() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        let recorder = Arc::new(AggregatingRecorder::new());
        install(recorder.clone());
        counter_add("a", 2);
        counter_add("a", 3);
        gauge_set("g", 0.5);
        histogram_record("h", 2.0);
        span("s").finish();
        let p = recorder.snapshot();
        assert_eq!(p.counter("a"), Some(5));
        assert_eq!(p.gauges, vec![("g".to_string(), 0.5)]);
        assert_eq!(p.span("s").unwrap().count, 1);
        uninstall();
        counter_add("a", 100);
        assert_eq!(recorder.snapshot().counter("a"), Some(5));
    }

    #[test]
    fn span_guard_times_real_work() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        let session = init_scoped_for_test();
        {
            let _s = span("sleepy");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let p = session.profile().unwrap();
        let s = p.span("sleepy").unwrap();
        assert_eq!(s.count, 1);
        assert!(s.total_nanos >= 1_000_000, "span too short: {s:?}");
    }

    #[test]
    fn mode_parsing() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        for (v, m) in [
            ("json", ObsMode::Json),
            ("JSONL", ObsMode::Json),
            ("text", ObsMode::Text),
            ("human", ObsMode::Text),
            ("off", ObsMode::Off),
            ("", ObsMode::Off),
            ("garbage", ObsMode::Off),
        ] {
            std::env::set_var("FLUXCOMP_OBS", v);
            assert_eq!(mode_from_env(), m, "for {v:?}");
        }
        std::env::remove_var("FLUXCOMP_OBS");
        assert_eq!(mode_from_env(), ObsMode::Off);
    }

    #[test]
    fn scope_shadows_the_global_recorder_on_its_thread_only() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        let global = Arc::new(AggregatingRecorder::new());
        install(global.clone());
        let scoped = init_scoped_for_test();
        counter_add("c", 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(current_scope().is_none());
                counter_add("c", 10);
            });
        });
        assert_eq!(scoped.profile().unwrap().counter("c"), Some(1));
        assert_eq!(snapshot().unwrap().counter("c"), Some(10));
        drop(scoped);
        counter_add("c", 100);
        assert_eq!(global.snapshot().counter("c"), Some(110));
        uninstall();
        assert!(!enabled());
    }

    #[test]
    fn nested_scopes_restore_the_outer_one() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        let outer = init_scoped_for_test();
        {
            let inner = init_scoped_for_test();
            counter_add("n", 2);
            assert_eq!(inner.profile().unwrap().counter("n"), Some(2));
        }
        counter_add("n", 3);
        assert_eq!(outer.profile().unwrap().counter("n"), Some(3));
        let carried = current_scope().expect("scope open");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _scope = scope(carried);
                counter_add("n", 4);
            });
        });
        assert_eq!(outer.profile().unwrap().counter("n"), Some(7));
        drop(outer);
        assert!(!enabled());
        assert!(current_scope().is_none());
    }

    #[test]
    fn off_session_records_nothing() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        uninstall();
        let session = init_with_mode(ObsMode::Off);
        counter_add("nope", 1);
        assert!(session.recorder.is_none());
        assert_eq!(session.mode, ObsMode::Off);
    }
}
