//! The fix server: acceptor thread, connection readers, and a fix
//! worker pool around the bounded batch queue.
//!
//! ## Threading model
//!
//! ```text
//! acceptor ──spawns──▶ reader (1 per connection)
//!                        │ decode every buffered frame
//!                        │   cache hit → reply appended to a batch
//!                        │   miss → try_push ──▶ BatchQueue (bounded)
//!                        │     Full → Overloaded reply, appended
//!                        │ batch written in one write_all before a read
//!                        │ can block
//!                        ▼
//!                      worker pool (N fix workers)
//!                        │ pop_batch(≤ batch_max)
//!                        │ deadline check → cache lookup → measure
//!                        ▼
//!                      response written under the connection's write lock
//! ```
//!
//! Answering hits on the reader keeps hot requests out of the queue: a
//! stalled worker cannot make a cached fix shed as `Overloaded`. The
//! worker still looks the cache up, which catches a fix computed while
//! its job waited.
//!
//! Each worker owns one [`MeasureScratch`] for the whole server
//! lifetime, so the steady-state fix path performs **zero allocations**:
//! requests decode into reusable buffers, measurement reuses the
//! scratch detector/counter, and responses encode into stack arrays.
//!
//! Workers share the immutable [`CompassDesign`] (`Sync`, pure
//! measurement functions) exactly like the sweep engine's workers do,
//! so a served fix is bit-identical to a direct
//! [`CompassDesign::measure_heading_scratch`] call with the same seed.
//!
//! ## Faults and fix quality
//!
//! Every computed fix runs through the health-checked compass path:
//! an optional [`FaultPlan`] (from `FLUXCOMP_FAULT_PLAN`) injects
//! seeded, deterministic sensor faults, and each worker's
//! [`DegradedTracker`] grades the result [`FixQuality::Good`],
//! `Degraded` (single-axis fallback) or `Invalid` (held heading,
//! answered as [`Status::Unmeasurable`]). Only `Good` fixes enter the
//! cache — a degraded heading depends on the worker's hold-last state
//! and must not be replayed to other clients as a pure fix.
//!
//! ## Shutdown
//!
//! [`FixServer::shutdown`] is graceful and drains: the acceptor stops,
//! readers stop picking up new frames (connection readers poll the
//! shutdown flag between reads on a 50 ms socket timeout), the queue
//! closes, and the workers finish every job already accepted — a
//! request that was queued always gets its response.

use crate::cache::{CachedFix, FixCache, FixKey};
use crate::protocol::{
    buffered_frame, read_frame_poll, write_response, FieldSpec, FixRequest, FixResponse, PollRead,
    Status,
};
use crate::queue::{BatchQueue, PushError};
use fluxcomp_compass::{
    CheckedReading, CompassDesign, DegradedTracker, FixInput, FixQuality, MeasureScratch,
};
use fluxcomp_exec::ExecPolicy;
use fluxcomp_faults::FaultPlan;
use fluxcomp_obs as obs;
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::magnetics::AmperePerMeter;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked reads and the acceptor re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
const ACCEPT_IDLE: Duration = Duration::from_millis(5);

/// Server tuning knobs. [`ServeConfig::default`] is sized for the
/// integration tests and single-host benches; [`ServeConfig::from_env`]
/// reads the `FLUXCOMP_SERVE_*` environment overrides.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Fix workers; `0` means one per core, following the
    /// `FLUXCOMP_THREADS` override exactly like [`ExecPolicy::auto`].
    pub workers: usize,
    /// Bound on queued fixes; a full queue sheds load with
    /// [`Status::Overloaded`].
    pub queue_capacity: usize,
    /// Most fixes a worker drains per wakeup.
    pub batch_max: usize,
    /// Fix-cache entries across all shards; `0` disables caching.
    pub cache_capacity: usize,
    /// Fix-cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Artificial delay inserted before every *uncached* fix — a test
    /// and chaos knob for exercising deadline and overload paths; keep
    /// at zero in production.
    pub fix_delay: Duration,
    /// Seeded fault plan injected into every computed fix; `None` (the
    /// default) serves the clean, bit-exact measurement path.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 1024,
            batch_max: 32,
            cache_capacity: 4096,
            cache_shards: 8,
            fix_delay: Duration::ZERO,
            fault_plan: None,
        }
    }
}

impl ServeConfig {
    /// Defaults overridden by the environment:
    ///
    /// | variable | field |
    /// |---|---|
    /// | `FLUXCOMP_SERVE_ADDR` | `addr` |
    /// | `FLUXCOMP_SERVE_WORKERS` | `workers` (0 = auto) |
    /// | `FLUXCOMP_SERVE_QUEUE` | `queue_capacity` |
    /// | `FLUXCOMP_SERVE_BATCH` | `batch_max` |
    /// | `FLUXCOMP_SERVE_CACHE` | `cache_capacity` (0 disables) |
    /// | `FLUXCOMP_SERVE_CACHE_SHARDS` | `cache_shards` |
    /// | `FLUXCOMP_FAULT_PLAN` | `fault_plan` (fault grammar) |
    ///
    /// Unset or unparsable variables keep the default (a malformed
    /// fault plan is reported on stderr and ignored — the server must
    /// not start silently faulty). The worker count additionally honours
    /// `FLUXCOMP_THREADS` when `workers` resolves to 0, via
    /// [`ExecPolicy::auto`].
    pub fn from_env() -> Self {
        fn num(name: &str, default: usize) -> usize {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        let d = Self::default();
        let fault_plan = match FaultPlan::from_env() {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("fluxcomp-serve: ignoring FLUXCOMP_FAULT_PLAN: {e}");
                None
            }
        };
        Self {
            addr: std::env::var("FLUXCOMP_SERVE_ADDR").unwrap_or(d.addr),
            workers: num("FLUXCOMP_SERVE_WORKERS", d.workers),
            queue_capacity: num("FLUXCOMP_SERVE_QUEUE", d.queue_capacity).max(1),
            batch_max: num("FLUXCOMP_SERVE_BATCH", d.batch_max).max(1),
            cache_capacity: num("FLUXCOMP_SERVE_CACHE", d.cache_capacity),
            cache_shards: num("FLUXCOMP_SERVE_CACHE_SHARDS", d.cache_shards),
            fix_delay: d.fix_delay,
            fault_plan,
        }
    }

    fn resolved_workers(&self) -> usize {
        match self.workers {
            0 => ExecPolicy::auto().threads(),
            n => n,
        }
    }
}

/// One connection's write half, shared between its reader (the replies
/// it answers itself) and every worker holding one of its jobs.
#[derive(Debug)]
struct Conn {
    writer: Mutex<TcpStream>,
}

impl Conn {
    /// Serialises the response under the write lock so interleaved
    /// workers never corrupt the frame stream. A peer that hung up is
    /// counted, not propagated — the job is complete either way.
    fn send(&self, response: &FixResponse) {
        let mut writer = self.writer.lock().unwrap();
        if write_response(&mut *writer, response).is_err() {
            obs::counter_add("serve.write_errors", 1);
        } else {
            obs::counter_add("serve.responses", 1);
        }
    }

    /// Writes every pending reply with one `write_all` under the write
    /// lock and empties `replies`.
    fn flush(&self, replies: &mut Replies) {
        if replies.count == 0 {
            return;
        }
        let written = self
            .writer
            .lock()
            .expect("no writer panics while holding the lock")
            .write_all(&replies.frames);
        obs::counter_add(
            if written.is_ok() {
                "serve.responses"
            } else {
                "serve.write_errors"
            },
            replies.count,
        );
        replies.frames.clear();
        replies.count = 0;
    }
}

/// Encoded response frames waiting for one write.
#[derive(Debug, Default)]
struct Replies {
    frames: Vec<u8>,
    count: u64,
}

impl Replies {
    fn push(&mut self, response: &FixResponse) {
        write_response(&mut self.frames, response).expect("a response frame fits in memory");
        self.count += 1;
    }
}

/// One accepted fix waiting for a worker.
#[derive(Debug)]
struct Job {
    conn: Arc<Conn>,
    request: FixRequest,
    enqueued: Instant,
}

#[derive(Debug)]
struct Shared {
    design: CompassDesign,
    queue: BatchQueue<Job>,
    cache: FixCache,
    shutting_down: AtomicBool,
    batch_max: usize,
    fix_delay: Duration,
    fault_plan: Option<FaultPlan>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

/// The running fix server. Dropping it performs a graceful
/// [`shutdown`](FixServer::shutdown).
#[derive(Debug)]
pub struct FixServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl FixServer {
    /// Binds, spawns the acceptor and the worker pool, and returns with
    /// the server accepting connections.
    pub fn start(design: CompassDesign, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: FixCache::new(config.cache_capacity, config.cache_shards),
            queue: BatchQueue::new(config.queue_capacity),
            shutting_down: AtomicBool::new(false),
            batch_max: config.batch_max,
            fix_delay: config.fix_delay,
            fault_plan: config.fault_plan.clone(),
            readers: Mutex::new(Vec::new()),
            design,
        });
        let workers = (0..config.resolved_workers())
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("fix-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("fix-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the OS-chosen port when the config asked
    /// for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The design being served.
    pub fn design(&self) -> &CompassDesign {
        &self.shared.design
    }

    /// Graceful shutdown: stop accepting, stop reading, drain every
    /// queued fix to its response, then join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let readers = std::mem::take(&mut *self.shared.readers.lock().unwrap());
        for reader in readers {
            let _ = reader.join();
        }
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        obs::counter_add("serve.shutdowns", 1);
    }
}

impl Drop for FixServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                obs::counter_add("serve.connections", 1);
                if spawn_reader(shared, stream).is_err() {
                    obs::counter_add("serve.accept_errors", 1);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                thread::sleep(ACCEPT_IDLE);
            }
            Err(_) => {
                obs::counter_add("serve.accept_errors", 1);
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                thread::sleep(ACCEPT_IDLE);
            }
        }
    }
}

fn spawn_reader(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    // The read timeout is the reader's shutdown poll interval; accepted
    // sockets are otherwise fully blocking.
    let _ = stream.set_nonblocking(false);
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let reader_stream = stream.try_clone()?;
    let conn = Arc::new(Conn {
        writer: Mutex::new(stream),
    });
    let shared_for_thread = Arc::clone(shared);
    let handle = thread::Builder::new()
        .name("fix-reader".to_string())
        .spawn(move || reader_loop(&shared_for_thread, &conn, reader_stream))?;
    shared.readers.lock().unwrap().push(handle);
    Ok(())
}

fn reader_loop(shared: &Shared, conn: &Arc<Conn>, stream: TcpStream) {
    let _span = obs::span("serve.connection");
    let mut stream = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut replies = Replies::default();
    let stop = || shared.shutting_down.load(Ordering::SeqCst);
    let malformed = loop {
        // Answer everything already buffered before the next read can
        // block: pending replies go out in one write.
        if buffered_frame(stream.buffer()).is_none() {
            conn.flush(&mut replies);
        }
        let request = match read_frame_poll(&mut stream, &mut buf, &stop) {
            Ok(PollRead::Frame(len)) => match FixRequest::decode_payload(&buf[..len]) {
                Ok(request) => request,
                Err(_) => break true,
            },
            Ok(PollRead::Eof) | Ok(PollRead::Stopped) => break false,
            Err(_) => break true,
        };
        obs::counter_add("serve.requests", 1);
        let received = Instant::now();
        if let Some(hit) = cached(shared, &request) {
            replies.push(&response_for(request.id, &hit, true));
            record_latency(received, FixQuality::Good);
            continue;
        }
        let job = Job {
            conn: Arc::clone(conn),
            request,
            enqueued: received,
        };
        match shared.queue.try_push(job) {
            Ok(()) => obs::gauge_set("serve.queue_depth", shared.queue.len() as f64),
            Err(PushError::Full) => {
                obs::counter_add("serve.overloaded", 1);
                replies.push(&FixResponse::failure(request.id, Status::Overloaded));
            }
            Err(PushError::Closed) => {
                replies.push(&FixResponse::failure(request.id, Status::ShuttingDown));
            }
        }
    };
    if malformed {
        // Answer and hang up — framing may be unreliable from here on.
        obs::counter_add("serve.bad_requests", 1);
        replies.push(&FixResponse::failure(0, Status::BadRequest));
    }
    conn.flush(&mut replies);
}

/// The cached fix answering `request`, if it may be served from the
/// cache and is there. The reader answers these itself; everything else
/// goes to the workers, whose own lookup still catches fixes computed
/// while a job waited.
fn cached(shared: &Shared, request: &FixRequest) -> Option<CachedFix> {
    if request.no_cache {
        return None;
    }
    let hit = shared.cache.get(&FixKey::for_request(request)?)?;
    obs::counter_add("serve.cache_hits", 1);
    Some(hit)
}

fn worker_loop(shared: &Shared) {
    // Per-worker mutable state: the reusable scratch and the
    // degraded-mode tracker (hold-last heading, health policy).
    let mut scratch = MeasureScratch::for_design(&shared.design);
    let mut tracker = DegradedTracker::for_design(&shared.design);
    let mut batch: Vec<Job> = Vec::with_capacity(shared.batch_max);
    while shared.queue.pop_batch(shared.batch_max, &mut batch) {
        obs::counter_add("serve.batches", 1);
        obs::histogram_record("serve.batch_size", batch.len() as f64);
        for job in batch.drain(..) {
            handle_job(shared, &mut scratch, &mut tracker, &job);
        }
    }
}

fn handle_job(
    shared: &Shared,
    scratch: &mut MeasureScratch,
    tracker: &mut DegradedTracker,
    job: &Job,
) {
    let span = obs::span("serve.fix");
    let request = &job.request;
    let deadline = Duration::from_millis(u64::from(request.deadline_ms));
    if request.deadline_ms > 0 && job.enqueued.elapsed() >= deadline {
        obs::counter_add("serve.deadline_exceeded", 1);
        job.conn
            .send(&FixResponse::failure(request.id, Status::DeadlineExceeded));
        span.finish();
        return;
    }
    // A request whose field floats are non-finite cannot name a fix:
    // reject it before it reaches the physics (or the cache).
    let Some(key) = FixKey::for_request(request) else {
        obs::counter_add("serve.bad_fields", 1);
        job.conn
            .send(&FixResponse::failure(request.id, Status::BadRequest));
        span.finish();
        return;
    };
    if !request.no_cache {
        if let Some(hit) = shared.cache.get(&key) {
            obs::counter_add("serve.cache_hits", 1);
            // Only Good fixes are ever inserted, so a hit is Good.
            job.conn.send(&response_for(request.id, &hit, true));
            record_latency(job.enqueued, FixQuality::Good);
            span.finish();
            return;
        }
        obs::counter_add("serve.cache_misses", 1);
    }
    if !shared.fix_delay.is_zero() {
        thread::sleep(shared.fix_delay);
    }
    let checked = measure_checked(shared, scratch, tracker, request);
    let quality = checked.quality;
    match quality {
        FixQuality::Good => {
            obs::counter_add("serve.fix_good", 1);
            if !request.no_cache {
                // Degraded/Invalid headings depend on this worker's
                // hold-last state; only pure Good fixes are shareable.
                shared.cache.insert(key, cached_fix(&checked));
            }
        }
        FixQuality::Degraded => obs::counter_add("serve.fix_degraded", 1),
        FixQuality::Invalid => obs::counter_add("serve.fix_invalid", 1),
    }
    job.conn.send(&checked_response(request.id, &checked));
    record_latency(job.enqueued, quality);
    span.finish();
}

fn measure_checked(
    shared: &Shared,
    scratch: &mut MeasureScratch,
    tracker: &mut DegradedTracker,
    request: &FixRequest,
) -> CheckedReading {
    let input = match request.field {
        FieldSpec::HeadingTruth(deg) => FixInput::heading(Degrees::new(deg), request.seed),
        FieldSpec::FieldVector { hx, hy } => FixInput::vector(
            AmperePerMeter::new(hx),
            AmperePerMeter::new(hy),
            request.seed,
        ),
    };
    tracker.assess(
        shared
            .design
            .measure(&input, shared.fault_plan.as_ref(), scratch),
    )
}

fn cached_fix(checked: &CheckedReading) -> CachedFix {
    let reading = &checked.reading;
    CachedFix {
        heading: reading.heading.value(),
        duty_x: reading.x.duty,
        duty_y: reading.y.duty,
        count_x: reading.x.count,
        count_y: reading.y.count,
        clipped: reading.x.clipped || reading.y.clipped,
    }
}

fn response_for(id: u64, fix: &CachedFix, cache_hit: bool) -> FixResponse {
    FixResponse {
        id,
        status: Status::Ok,
        quality: FixQuality::Good,
        cache_hit,
        clipped: fix.clipped,
        heading: fix.heading,
        duty_x: fix.duty_x,
        duty_y: fix.duty_y,
        count_x: fix.count_x,
        count_y: fix.count_y,
    }
}

/// The wire response for a freshly computed health-checked fix.
/// `Invalid` fixes answer [`Status::Unmeasurable`] but still carry the
/// held heading and the raw duty/count evidence, so a client can apply
/// its own policy to the stale value.
fn checked_response(id: u64, checked: &CheckedReading) -> FixResponse {
    let reading = &checked.reading;
    FixResponse {
        id,
        status: match checked.quality {
            FixQuality::Invalid => Status::Unmeasurable,
            _ => Status::Ok,
        },
        quality: checked.quality,
        cache_hit: false,
        clipped: reading.x.clipped || reading.y.clipped,
        heading: reading.heading.value(),
        duty_x: reading.x.duty,
        duty_y: reading.y.duty,
        count_x: reading.x.count,
        count_y: reading.y.count,
    }
}

fn record_latency(received: Instant, quality: FixQuality) {
    if !obs::enabled() {
        return;
    }
    let us = received.elapsed().as_secs_f64() * 1e6;
    obs::histogram_record("serve.latency_us", us);
    obs::histogram_record(
        match quality {
            FixQuality::Good => "serve.latency_us_good",
            FixQuality::Degraded => "serve.latency_us_degraded",
            FixQuality::Invalid => "serve.latency_us_invalid",
        },
        us,
    );
}
