//! The serve workloads: an in-process `FixServer` with one fix worker,
//! loaded over one connection by this crate's own driver, a sender
//! thread and a receiver thread.
//!
//! A run has two measured phases. The capacity phase is a closed loop
//! that keeps [`WINDOW`] requests outstanding; it gives `fixes_per_s`.
//! The open-loop phase sends request `k` when it is due, at
//! `start + k / rate`, whether or not earlier ones were answered, and
//! times each from its due time; it gives the latency percentiles.
//!
//! The driver aggregates replies as they arrive. Apart from one digest
//! per `serve_unique` request, nothing it keeps grows with the number of
//! requests served, so `peak_rss_mb` does not rise when the server gets
//! faster.

use crate::host::HostProbe;
use crate::inputs::{self, RequestStream};
use crate::layers::{Cycle, FIX_SPAN};
use crate::micro;
use crate::recompose::{library_fix, response_digest, Entry, Fix, FixInput, Parts};
use crate::stats::{
    median, peak_rss_mb, secs, sustained_rate, tail_note, Hist, Setups, Windowed, TAIL_WINDOW,
};
use crate::trace::Tracer;
use crate::{trace_path, Args, Report, Values, Workload, SETUP_REPS};
use fluxcomp_compass::{CompassConfig, CompassDesign, DegradedTracker, MeasureScratch};
use fluxcomp_obs::{AggregatingRecorder, Recorder};
use fluxcomp_serve::protocol::{read_frame_poll, write_request, PollRead};
use fluxcomp_serve::{CachedFix, FixKey, FixRequest, FixResponse, FixServer, ServeConfig, Status};
use std::cell::Cell;
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Open-loop rates, part of the workload definition: do not re-derive
/// them per run. They sit well below the capacity each workload measured
/// when the benchmark was defined, on a 2-vCPU x86-64 virtual machine
/// (400–620 and 62 000–95 000 fixes/s): at about half of it, host slow
/// spells saturated the `serve_unique` worker, and host stalls overflowed
/// the server's 1024-deep queue on `serve_repeat`.
pub const UNIQUE_RATE_HZ: f64 = 150.0;
pub const REPEAT_RATE_HZ: f64 = 20_000.0;

/// Requests the capacity phase keeps outstanding.
pub const WINDOW: usize = 32;

/// Share of `--seconds` spent in the capacity phase; the open-loop phase
/// takes the rest.
const CAPACITY_SHARE: f64 = 0.4;

/// Width of the buckets whose completion rates give `fixes_per_s`.
const BUCKET: Duration = Duration::from_millis(250);

/// How long the receiver waits for outstanding responses after the last
/// request went out; anything later is lost.
const DRAIN: Duration = Duration::from_secs(5);

/// Distinct requests warmed before the timed phases of `serve_unique`.
const UNIQUE_WARMUP: u64 = 32;

/// Sequential requests that give `serve.idle_rtt_us`.
const IDLE_PROBES: u64 = 100;

/// The server configuration: defaults, one fix worker.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

fn rate_hz(workload: Workload) -> f64 {
    if workload == Workload::ServeRepeat {
        REPEAT_RATE_HZ
    } else {
        UNIQUE_RATE_HZ
    }
}

/// A running server and the driver's connection to it.
struct Rig {
    conn: TcpStream,
    server: FixServer,
}

/// Builds the design, starts the server and connects: the work
/// `setup_s` times.
fn start(config: &CompassConfig) -> Rig {
    let design = CompassDesign::new(config.clone()).expect("valid design");
    let server = FixServer::start(design, serve_config()).expect("server starts");
    let conn = TcpStream::connect(server.local_addr()).expect("connect to server");
    conn.set_nodelay(true).expect("set TCP_NODELAY");
    Rig { conn, server }
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Keep `window` requests outstanding.
    Closed { window: usize },
    /// Send request `k` at `start + k / rate_hz`.
    Open { rate_hz: f64 },
}

/// What the receiver keeps of a phase's replies.
#[derive(Debug)]
pub struct Replies {
    first: u64,
    start: Instant,
    /// Open loop: request `first + k` was due at `start + k / rate`.
    rate_hz: Option<f64>,
    distinct: Option<u64>,
    /// Every request distinct: the reply digest of request `first + i`
    /// (0 while unanswered).
    by_request: Vec<u64>,
    /// A hot set: replies per `(request id % set size, reply digest)`.
    by_hot: HashMap<(u64, u64), u64>,
    pub received: u64,
    pub ok: u64,
    pub hits: u64,
    /// Replies to requests of an earlier phase.
    pub stray: u64,
    /// `Ok` replies per [`BUCKET`] since the phase started:
    /// `(count, first, last)` with arrival times in seconds.
    buckets: Vec<(u64, f64, f64)>,
    /// Open loop: due-to-reply time of each reply, infinite when not
    /// `Ok`, by due time.
    latency: Option<Windowed>,
    /// Recorded phases: `(request id, arrival)` of every reply.
    arrivals: Option<Vec<(u64, Instant)>>,
}

impl Replies {
    fn add(&mut self, at: Instant, r: &FixResponse) {
        if r.id < self.first {
            self.stray += 1;
            return;
        }
        let k = r.id - self.first;
        let digest = response_digest(r);
        match self.distinct {
            Some(n) => *self.by_hot.entry((r.id % n, digest)).or_insert(0) += 1,
            None => {
                let i = k as usize;
                if self.by_request.len() <= i {
                    self.by_request.resize(i + 1, 0);
                }
                self.by_request[i] = digest;
            }
        }
        self.received += 1;
        if let Some(arrivals) = &mut self.arrivals {
            arrivals.push((r.id, at));
        }
        if let (Some(rate), Some(latency)) = (self.rate_hz, &mut self.latency) {
            let due = Duration::from_secs_f64(k as f64 / rate);
            let ns = if r.status == Status::Ok {
                at.saturating_duration_since(self.start + due).as_nanos() as f64
            } else {
                f64::INFINITY
            };
            latency.record_ns(due, ns);
        }
        if r.status != Status::Ok {
            return;
        }
        self.ok += 1;
        self.hits += u64::from(r.cache_hit);
        let t = secs(at - self.start);
        let bucket = (t / secs(BUCKET)) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, (0, t, t));
        }
        let b = &mut self.buckets[bucket];
        *b = (b.0 + 1, b.1.min(t), t);
    }
}

/// What one phase produced.
#[derive(Debug)]
pub struct Phase {
    pub start: Instant,
    pub end: Instant,
    pub sent: u64,
    pub replies: Replies,
    /// Open loop: how late the sender put each request on the wire.
    pub late: Hist,
    /// Recorded phases: when each request was sent.
    pub sent_at: Vec<Instant>,
    /// `(seconds since the start, host scale)` probed every [`BUCKET`]
    /// on a [`scaled`] workload; empty, meaning scale 1, otherwise.
    pub probes: Vec<(f64, f64)>,
}

impl Phase {
    /// Median host scale probed in `[from, to)` seconds of the phase;
    /// the phase's median when no probe fell there.
    fn scale(&self, from: f64, to: f64) -> f64 {
        let inside: Vec<f64> = self
            .probes
            .iter()
            .filter(|(t, _)| (from..to).contains(t))
            .map(|&(_, s)| s)
            .collect();
        if !inside.is_empty() {
            median(&inside)
        } else if !self.probes.is_empty() {
            median(&self.probes.iter().map(|&(_, s)| s).collect::<Vec<_>>())
        } else {
            1.0
        }
    }

    /// The [`sustained_rate`] of `Ok` completions over the full buckets
    /// after the first, each bucket's rate timed between its first and
    /// last completion and scaled by the host probe; the phase average
    /// when the phase is too short for that.
    fn fixes_per_s(&self) -> (f64, u64) {
        let span = secs(self.end - self.start);
        let width = secs(BUCKET);
        let full = (span / width) as usize;
        if full < 3 {
            return (self.replies.ok as f64 / span * self.scale(0.0, span), 1);
        }
        let rates: Vec<f64> = (1..full)
            .map(|i| {
                let rate = match self.replies.buckets.get(i) {
                    Some(&(n, first, last)) if n > 1 && last > first => {
                        (n - 1) as f64 / (last - first)
                    }
                    Some(&(n, ..)) => n as f64 / width,
                    None => 0.0,
                };
                rate * self.scale(i as f64 * width, (i + 1) as f64 * width)
            })
            .collect();
        (sustained_rate(&rates), rates.len() as u64)
    }

    /// Open loop: the sustained `q` quantile of due-to-reply latency,
    /// each window scaled by the host probe. Returns nanoseconds and the
    /// window count.
    fn latency_ns(&self, q: f64) -> (f64, u64) {
        let width = secs(TAIL_WINDOW);
        self.latency()
            .sustained_quantile_ns(q, |i| self.scale(i as f64 * width, (i + 1) as f64 * width))
    }

    /// Open loop: due-to-reply latency, with every request that got no
    /// `Ok` reply counted as over every limit.
    fn latency(&self) -> Windowed {
        let mut w = self.replies.latency.clone().expect("an open-loop phase");
        w.record_failures(self.sent - self.replies.received);
        w
    }

    /// `(request id, sent, reply)` of every answered request of a
    /// recorded phase.
    fn round_trips(&self) -> impl Iterator<Item = (u64, Instant, Instant)> + '_ {
        let first = self.replies.first;
        self.replies
            .arrivals
            .iter()
            .flatten()
            .filter_map(move |&(id, at)| {
                let sent = *self.sent_at.get((id - first) as usize)?;
                Some((id, sent, at))
            })
    }
}

/// Drives one phase over the connection: requests `first..` of
/// `stream`, for `duration` or `limit` requests, whichever ends first.
/// A recorded phase keeps every send and arrival time.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    conn: &TcpStream,
    stream: &RequestStream,
    first: u64,
    load: Load,
    duration: Duration,
    limit: u64,
    recorded: bool,
    probe: Option<&HostProbe>,
) -> io::Result<Phase> {
    let mut writer = conn.try_clone()?;
    let mut reader = conn.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(20)))?;
    let done = AtomicBool::new(false);
    let sent_total = AtomicU64::new(0);
    let (completed, completions) = mpsc::channel::<()>();
    let start = Instant::now();
    let end = start + duration;
    let replies = Replies {
        first,
        start,
        rate_hz: match load {
            Load::Open { rate_hz } => Some(rate_hz),
            Load::Closed { .. } => None,
        },
        distinct: stream.distinct(),
        by_request: Vec::new(),
        by_hot: HashMap::new(),
        received: 0,
        ok: 0,
        hits: 0,
        stray: 0,
        buckets: Vec::new(),
        latency: match load {
            Load::Open { .. } => Some(Windowed::new(duration)),
            Load::Closed { .. } => None,
        },
        arrivals: recorded.then(Vec::new),
    };
    let (sent, replies, probes) = thread::scope(|s| {
        let receiver = s.spawn(|| receive(&mut reader, replies, &done, &sent_total, completed));
        let sender = s.spawn(|| {
            let sent = send(
                &mut writer,
                stream,
                first,
                load,
                (start, end),
                limit,
                recorded,
                completions,
            );
            sent_total.store(sent.as_ref().map_or(0, |s| s.0), Ordering::SeqCst);
            done.store(true, Ordering::SeqCst);
            sent
        });
        // The main thread probes the host while the phase runs; pinned
        // with the server, it shares the worker's CPU.
        let mut probes = Vec::new();
        while let (Some(probe), false) = (probe, done.load(Ordering::SeqCst)) {
            probes.push((secs(start.elapsed()), probe.shared_scale()));
            let next = start + BUCKET * probes.len() as u32;
            while !done.load(Ordering::SeqCst) && Instant::now() < next {
                thread::sleep(Duration::from_millis(5));
            }
        }
        let sent = sender.join().expect("sender thread");
        let replies = receiver.join().expect("receiver thread");
        (sent, replies, probes)
    });
    let (sent, late, sent_at) = sent?;
    Ok(Phase {
        start,
        end: Instant::now().min(end),
        sent,
        replies: replies?,
        late,
        sent_at,
        probes,
    })
}

/// The sender thread: returns the request count, the open loop's
/// lateness and, for a recorded phase, every send time.
#[allow(clippy::too_many_arguments)]
fn send(
    writer: &mut TcpStream,
    stream: &RequestStream,
    first: u64,
    load: Load,
    (start, end): (Instant, Instant),
    limit: u64,
    recorded: bool,
    completions: mpsc::Receiver<()>,
) -> io::Result<(u64, Hist, Vec<Instant>)> {
    let mut count = 0u64;
    let mut late = Hist::default();
    let mut sent_at = Vec::new();
    let mut send_one = |count: &mut u64| -> io::Result<Instant> {
        write_request(writer, &stream.request(first + *count))?;
        let now = Instant::now();
        if recorded {
            sent_at.push(now);
        }
        *count += 1;
        Ok(now)
    };
    match load {
        Load::Closed { window } => {
            while count < limit.min(window as u64) && Instant::now() < end {
                send_one(&mut count)?;
            }
            while count < limit {
                let now = Instant::now();
                if now >= end || completions.recv_timeout(end - now).is_err() {
                    break;
                }
                if Instant::now() < end {
                    send_one(&mut count)?;
                }
            }
        }
        Load::Open { rate_hz } => {
            while count < limit {
                let due = start + Duration::from_secs_f64(count as f64 / rate_hz);
                if due >= end {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let sent = send_one(&mut count)?;
                late.record(sent - due);
            }
        }
    }
    Ok((count, late, sent_at))
}

/// The receiver thread: reads replies until every request sent has one,
/// or [`DRAIN`] after the sender finished.
fn receive(
    reader: &mut TcpStream,
    mut replies: Replies,
    done: &AtomicBool,
    sent_total: &AtomicU64,
    completed: mpsc::Sender<()>,
) -> io::Result<Replies> {
    let mut buf = Vec::new();
    let received = Cell::new(0u64);
    let drain_from = Cell::new(None::<Instant>);
    let finished =
        || done.load(Ordering::SeqCst) && received.get() >= sent_total.load(Ordering::SeqCst);
    let stop = || {
        if !done.load(Ordering::SeqCst) {
            return false;
        }
        let from = drain_from.get().unwrap_or_else(Instant::now);
        drain_from.set(Some(from));
        finished() || from.elapsed() > DRAIN
    };
    while !finished() {
        match read_frame_poll(reader, &mut buf, &stop)? {
            PollRead::Frame(len) => {
                let at = Instant::now();
                let response = FixResponse::decode_payload(&buf[..len])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                replies.add(at, &response);
                received.set(replies.received);
                let _ = completed.send(());
            }
            PollRead::Eof | PollRead::Stopped => break,
        }
    }
    Ok(replies)
}

/// Each request re-measured directly with the same seed and a fresh
/// health tracker, on two threads.
fn expected(design: &CompassDesign, requests: &[FixRequest]) -> Vec<Fix> {
    let half = requests.len().div_ceil(2).max(1);
    thread::scope(|s| {
        let handles: Vec<_> = requests
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    let mut scratch = MeasureScratch::for_design(design);
                    chunk
                        .iter()
                        .map(|r| {
                            let mut tracker = DegradedTracker::for_design(design);
                            library_fix(
                                design,
                                &FixInput::from(r),
                                Entry::Checked(None),
                                &mut scratch,
                                &mut tracker,
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("gate thread"))
            .collect()
    })
}

/// The correctness gate: every served fix re-measured directly. Returns
/// the requests that were lost, failed, or carry a fix that differs.
/// `corrupt_expected` flips a bit of one expected fix.
fn gate(
    design: &CompassDesign,
    stream: &RequestStream,
    phases: &[&Phase],
    corrupt_expected: bool,
) -> u64 {
    let lost: u64 = phases.iter().map(|p| p.sent - p.replies.received).sum();
    let (requests, answered): (Vec<FixRequest>, Vec<u64>) = match stream.distinct() {
        Some(n) => ((0..n).map(|j| stream.request(j)).collect(), Vec::new()),
        None => phases
            .iter()
            .flat_map(|p| {
                let first = p.replies.first;
                p.replies
                    .by_request
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| **d != 0)
                    .map(move |(i, d)| (stream.request(first + i as u64), *d))
            })
            .unzip(),
    };
    let mut want: Vec<u64> = expected(design, &requests)
        .iter()
        .map(|fix| response_digest(&fix.response(0, false)))
        .collect();
    if corrupt_expected {
        if let Some(w) = want.first_mut() {
            *w ^= 1;
        }
    }
    let wrong: u64 = match stream.distinct() {
        Some(_) => phases
            .iter()
            .flat_map(|p| &p.replies.by_hot)
            .filter(|((j, digest), _)| *digest != want[*j as usize])
            .map(|(_, count)| *count)
            .sum(),
        None => answered
            .iter()
            .zip(&want)
            .filter(|(got, want)| got != want)
            .count() as u64,
    };
    lost + wrong
}

struct Setup {
    rig: Rig,
    design: CompassDesign,
    stream: RequestStream,
    rate_hz: f64,
    probe: HostProbe,
    /// Probe the host during phases and scale by it.
    scaled: bool,
}

/// Whether a workload pins itself to one CPU and scales its figures by
/// the host probe. `serve_unique`'s cost is the worker's compute, which
/// the probe tracks only from the worker's CPU: unpinned, its
/// `fixes_per_s` spread 0.28 across ten seeds, pinned and scaled 0.05.
/// `serve_repeat`'s cost is the request path across four threads, which
/// the compute probe does not describe: pinned and scaled, its
/// `latency_p50_ms` spread 0.22; on two CPUs as measured, 0.04.
fn scaled(workload: Workload) -> bool {
    workload == Workload::ServeUnique
}

/// Starts the workload's server and connection, timing `reps` set-ups,
/// after pinning the process to one CPU if the workload is [`scaled`].
fn set_up(workload: Workload, seed: u64, setups: &mut Setups, reps: usize) -> Setup {
    let scaled = scaled(workload);
    if scaled {
        crate::host::pin_to_one_cpu().expect("pin to one CPU");
    }
    let probe = HostProbe::new();
    let rig = setups.round(
        reps,
        probe.shared_scale(),
        || start(&inputs::clean_config()),
    );
    let design = rig.server.design().clone();
    Setup {
        stream: RequestStream::new(design.clone(), seed, workload == Workload::ServeRepeat),
        rate_hz: rate_hz(workload),
        rig,
        design,
        probe,
        scaled,
    }
}

/// Runs phases back to back on one connection, continuing the request
/// stream.
struct Phases<'a> {
    setup: &'a Setup,
    next: u64,
}

impl Phases<'_> {
    fn run(&mut self, load: Load, duration: Duration, limit: u64, recorded: bool) -> Phase {
        let s = self.setup;
        let phase = drive(
            &s.rig.conn,
            &s.stream,
            self.next,
            load,
            duration,
            limit,
            recorded,
            s.scaled.then_some(&s.probe),
        )
        .expect("driver phase");
        self.next += phase.sent;
        phase
    }

    /// `serve_repeat` computes and caches its hot set; `serve_unique`
    /// serves a few distinct fixes.
    fn warm_up(&mut self) -> Phase {
        let n = self.setup.stream.distinct().unwrap_or(UNIQUE_WARMUP);
        let phase = self.run(
            Load::Closed { window: 1 },
            Duration::from_secs(60),
            n,
            false,
        );
        assert_eq!(phase.sent, n, "warm-up incomplete");
        phase
    }
}

pub fn run(args: &Args, corrupt_expected: bool) -> Report {
    if args.trace {
        return traced(args);
    }
    let mut setups = Setups::default();
    let s = set_up(args.workload, args.seed, &mut setups, SETUP_REPS);
    let mut phases = Phases { setup: &s, next: 0 };
    let warm = phases.warm_up();
    let capacity = phases.run(
        Load::Closed { window: WINDOW },
        Duration::from_secs_f64(args.seconds * CAPACITY_SHARE),
        u64::MAX,
        false,
    );
    let open = phases.run(
        Load::Open { rate_hz: s.rate_hz },
        Duration::from_secs_f64(args.seconds * (1.0 - CAPACITY_SHARE)),
        u64::MAX,
        false,
    );
    let peak_rss = peak_rss_mb();
    setups.round(SETUP_REPS, s.probe.shared_scale(), || {
        start(&inputs::clean_config())
    });

    let all = [&warm, &capacity, &open];
    let failed = gate(&s.design, &s.stream, &all, corrupt_expected);
    setups.round(SETUP_REPS, s.probe.shared_scale(), || {
        start(&inputs::clean_config())
    });
    let (setup_s, setups) = setups.sustained_s();
    let attempted: u64 = all.iter().map(|p| p.sent).sum();
    let stray: u64 = all.iter().map(|p| p.replies.stray).sum();
    let (hits, ok) = (
        capacity.replies.hits + open.replies.hits,
        capacity.replies.ok + open.replies.ok,
    );

    let (fixes_per_s, buckets) = capacity.fixes_per_s();
    let latency = open.latency();
    let (p50_ns, windows) = open.latency_ns(0.5);
    let (p90_ns, _) = open.latency_ns(0.9);
    let (p99_ns, _) = open.latency_ns(0.99);
    let mut values = Values::default();
    values.set("setup_s", setup_s, setups);
    values.set("fixes_per_s", fixes_per_s, buckets);
    values.set("latency_p50_ms", p50_ns / 1e6, latency.count());
    values.set("peak_rss_mb", peak_rss, 1);
    let notes = vec![
        format!(
            "capacity phase: closed loop, {WINDOW} outstanding, {} requests; open-loop phase: {} req/s, {} requests",
            capacity.sent, s.rate_hz, open.sent
        ),
        format!(
            "gate: every served fix re-measured directly: {failed} of {attempted} lost, failed or differ; {stray} stray replies"
        ),
        format!(
            "cache hits {hits} of {ok} Ok replies after warm-up; open-loop sender late p99 {:.4} ms",
            open.late.quantile_ns(0.99) / 1e6
        ),
        format!(
            "fixes_per_s: sustained rate (25th percentile) of {buckets} capacity-phase buckets of {} ms",
            BUCKET.as_millis()
        ),
        tail_note(p90_ns, p99_ns, windows, latency.count()),
    ];
    Report::new(
        args,
        failed == 0 && stray == 0,
        attempted,
        failed,
        values,
        notes,
    )
}

/// The traced run: untraced and traced capacity phases for the tracing
/// overhead, an open-loop phase under the program's `obs` recorder,
/// idle round trips, then the compute layers recomposed over the
/// stream's fixes and the serve layers' microloops on its frames and
/// keys.
fn traced(args: &Args) -> Report {
    let s = set_up(args.workload, args.seed, &mut Setups::default(), 1);
    let budget = Duration::from_secs_f64((args.seconds / 100.0).clamp(0.01, 0.1));
    let share = Duration::from_secs_f64(args.seconds * 0.15);
    let mut phases = Phases { setup: &s, next: 0 };
    let warm = phases.warm_up();
    let untraced = phases.run(Load::Closed { window: WINDOW }, share, u64::MAX, false);

    // The traced configuration: the program's own recorder installed.
    let recorder = Arc::new(AggregatingRecorder::new());
    fluxcomp_obs::install(recorder.clone());
    let traced = phases.run(Load::Closed { window: WINDOW }, share, u64::MAX, false);
    fluxcomp_obs::uninstall();
    let recorder = Arc::new(AggregatingRecorder::new());
    fluxcomp_obs::install(recorder.clone());
    let open = phases.run(
        Load::Open { rate_hz: s.rate_hz },
        2 * share,
        u64::MAX,
        false,
    );
    fluxcomp_obs::uninstall();
    let batches = recorder
        .snapshot()
        .histograms
        .iter()
        .find(|(name, _)| name == "serve.batch_size")
        .map_or((0.0, 0), |(_, h)| (h.mean(), h.count));
    let idle = phases.run(
        Load::Closed { window: 1 },
        Duration::from_secs(60),
        IDLE_PROBES,
        true,
    );
    let next = phases.next;

    let all = [&warm, &untraced, &traced, &open, &idle];
    let failed = gate(&s.design, &s.stream, &all, false);
    let attempted: u64 = all.iter().map(|p| p.sent).sum();
    let (hits, ok) = all[1..]
        .iter()
        .fold((0, 0), |(h, o), p| (h + p.replies.hits, o + p.replies.ok));

    let mut tracer = Tracer::new();
    let mut rtt_us = Vec::new();
    for (id, sent, at) in idle.round_trips() {
        tracer.record("driver.request", id, None, sent, at);
        rtt_us.push(secs(at - sent) * 1e6);
    }
    let rtt_us = median(&rtt_us);
    let latency = open.latency();
    let mut values = Values::default();
    values.set("serve.cache_hit_ratio", hits as f64 / ok.max(1) as f64, ok);
    values.set("serve.idle_rtt_us", rtt_us, idle.replies.received);
    values.set(
        "serve.queue_wait_est_ms",
        open.latency_ns(0.5).0 / 1e6 - rtt_us / 1e3,
        latency.count(),
    );
    values.set("serve.batch_size_mean", batches.0, batches.1);
    values.set(
        "driver.late_p99_ms",
        open.late.quantile_ns(0.99) / 1e6,
        open.late.count(),
    );
    let (rate_untraced, _) = untraced.fixes_per_s();
    let (rate_traced, buckets) = traced.fixes_per_s();
    values.set(
        "trace.overhead_share",
        1.0 - rate_traced / rate_untraced,
        buckets,
    );
    let Setup {
        rig,
        design,
        stream,
        rate_hz,
        ..
    } = s;
    drop(rig);

    // The stream's distinct fixes, computed directly: the compute layers
    // are recomposed over them, and their responses feed the codec loop.
    let distinct = stream.distinct().unwrap_or(64) as usize;
    let requests: Vec<FixRequest> = (0..distinct as u64).map(|k| stream.request(k)).collect();
    let fix_inputs: Vec<FixInput> = requests.iter().map(FixInput::from).collect();
    let fixes = expected(&design, &requests);
    let responses: Vec<FixResponse> = fixes
        .iter()
        .zip(&requests)
        .map(|(f, r)| f.response(r.id, stream.distinct().is_some()))
        .collect();

    let config = serve_config();
    values.set(
        "serve.request_codec_ns",
        micro::request_codec_ns(&requests, budget),
        1,
    );
    values.set(
        "serve.response_codec_ns",
        micro::response_codec_ns(&responses, budget),
        1,
    );
    let cap = config.cache_capacity;
    let keys: Vec<FixKey> = (0..2 * cap as u64)
        .map(|k| FixKey::for_request(&stream.request(next + k)).expect("finite request"))
        .collect();
    let r0 = &responses[0];
    let value = CachedFix {
        heading: r0.heading,
        duty_x: r0.duty_x,
        duty_y: r0.duty_y,
        count_x: r0.count_x,
        count_y: r0.count_y,
        clipped: r0.clipped,
    };
    let (get_ns, insert_ns) = micro::cache_ns(&keys, value, cap, config.cache_shards, 5);
    values.set("serve.cache_get_ns", get_ns, 5);
    values.set("serve.cache_insert_ns", insert_ns, 5);
    values.set(
        "serve.queue_handoff_ns",
        micro::queue_handoff_ns(config.queue_capacity, config.batch_max, budget),
        1,
    );

    let parts = Parts::new(design.config());
    let cycle = Cycle {
        design: &design,
        parts: &parts,
        entry: Entry::Checked(None),
        inputs: &fix_inputs,
    };
    let fixes = distinct * 256usize.div_ceil(distinct);
    let accounted = cycle.account(fixes, None, &mut tracer, &mut values, budget);
    let differ = accounted.differ;

    let path = trace_path(args);
    tracer.write_jsonl(&path).expect("write trace");
    let notes = vec![
        format!(
            "phases: untraced capacity {} / capacity with obs {} / open loop {} at {rate_hz} req/s with obs / idle {}",
            untraced.sent, traced.sent, open.sent, idle.sent
        ),
        format!("gate: {failed} of {attempted} served fixes lost, failed or differ"),
        format!(
            "recomposed fixes differing from the entry point: {differ} of {fixes} ({FIX_SPAN} spans over the stream's {distinct} distinct fixes)"
        ),
        format!("spans written to {}", path.display()),
    ];
    Report::new(
        args,
        failed == 0 && differ == 0,
        attempted,
        failed + differ,
        values,
        notes,
    )
}
