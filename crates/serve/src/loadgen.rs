//! The open-loop load generator.
//!
//! Open-loop means arrivals are scheduled on a wall clock — request `k`
//! is sent at `start + k / rate` regardless of whether earlier
//! responses have come back — so a slow server faces a growing backlog
//! exactly like production traffic, instead of the coordinated-omission
//! trap of closed-loop "send, wait, send" clients whose measured
//! latency politely stops rising the moment the server saturates.
//!
//! Each connection runs a sender (paced writes) and a receiver thread
//! (tallies responses, matches request ids to send timestamps for
//! latency). Percentiles come from [`SortedSamples`] over the `Ok`
//! response latencies.
//!
//! ## Retries
//!
//! `Overloaded` responses can be retried with deterministic jittered
//! exponential backoff: attempt `a` of request `id` waits
//! `retry_backoff · 2^a · (0.5 + unit_f64(derive_seed(id, a)))`, so the
//! retry schedule is a pure function of the request and reproducible
//! run to run. Retries draw from a run-wide `retry_budget` shared by
//! all connections — a saturated server sees at most `budget` extra
//! requests, never a retry storm.

use crate::protocol::{buffered_frame, write_request, FieldSpec, FixRequest, FixResponse, Status};
use fluxcomp_compass::FixQuality;
use fluxcomp_exec::{derive_seed, unit_f64, SortedSamples};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Server address, e.g. `"127.0.0.1:9000"`.
    pub addr: String,
    /// Concurrent connections; requests are split round-robin.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Open-loop arrival rate in fixes/s across all connections;
    /// `0.0` means closed-throttle (send as fast as the sockets take).
    pub rate_hz: f64,
    /// Deadline stamped on every request (milliseconds; 0 = none).
    pub deadline_ms: u32,
    /// Set the no-cache flag on every request.
    pub no_cache: bool,
    /// Send explicit field vectors instead of heading truths.
    pub field_vector: bool,
    /// Distinct `(field, seed)` combinations cycled through; `1` sends
    /// the identical fix every time (maximally cache-friendly), large
    /// values defeat the cache.
    pub unique_fixes: usize,
    /// Base noise seed; per-fix seeds derive from it.
    pub base_seed: u64,
    /// How long receivers keep draining after the last send.
    pub drain_timeout: Duration,
    /// Per-request cap on `Overloaded` retries; `0` disables retrying.
    pub max_retries: u32,
    /// Run-wide retry budget shared across all connections; each retry
    /// send consumes one unit. `0` disables retrying.
    pub retry_budget: u64,
    /// Base backoff before the first retry (doubles per attempt, with
    /// ×[0.5, 1.5) deterministic jitter).
    pub retry_backoff: Duration,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            connections: 4,
            requests: 1000,
            rate_hz: 0.0,
            deadline_ms: 0,
            no_cache: false,
            field_vector: false,
            unique_fixes: 64,
            base_seed: 0xf1c5,
            drain_timeout: Duration::from_secs(10),
            max_retries: 0,
            retry_budget: 0,
            retry_backoff: Duration::from_millis(2),
        }
    }
}

/// Aggregated results of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests written to the sockets (retries included).
    pub sent: u64,
    /// Responses received (any status).
    pub completed: u64,
    /// `Ok` responses.
    pub ok: u64,
    /// `Ok` responses served from the fix cache.
    pub cache_hits: u64,
    /// `Ok` responses flagged [`FixQuality::Good`].
    pub quality_good: u64,
    /// `Ok` responses flagged [`FixQuality::Degraded`].
    pub quality_degraded: u64,
    /// `Unmeasurable` responses (the server held a stale heading;
    /// quality is `Invalid`).
    pub unmeasurable: u64,
    /// `Overloaded` responses.
    pub overloaded: u64,
    /// `DeadlineExceeded` responses.
    pub deadline_exceeded: u64,
    /// `ShuttingDown` responses.
    pub shutting_down: u64,
    /// Retry sends performed after `Overloaded` responses.
    pub retries: u64,
    /// Protocol-level failures: `BadRequest`/`InvalidConfig` responses,
    /// undecodable frames, responses to unknown ids, and socket errors.
    pub protocol_errors: u64,
    /// Requests that never got a response within the drain timeout.
    pub lost: u64,
    /// Wall-clock duration from first send to last response.
    pub elapsed: Duration,
    /// `Ok` responses per second of elapsed time.
    pub fixes_per_s: f64,
    /// Median `Ok` latency, milliseconds (0 when nothing succeeded).
    pub p50_ms: f64,
    /// 95th-percentile `Ok` latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile `Ok` latency, milliseconds.
    pub p99_ms: f64,
}

#[derive(Default)]
struct ConnTally {
    sent: u64,
    completed: u64,
    ok: u64,
    cache_hits: u64,
    quality_good: u64,
    quality_degraded: u64,
    unmeasurable: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    shutting_down: u64,
    retries: u64,
    protocol_errors: u64,
    latencies_ms: Vec<f64>,
}

/// The fix request for global index `k` under `config`'s mix.
fn request_for(config: &LoadGenConfig, k: usize) -> FixRequest {
    let unique = config.unique_fixes.max(1);
    let slot = k % unique;
    let heading = 360.0 * slot as f64 / unique as f64;
    let field = if config.field_vector {
        // A 12 A/m horizontal field rotated to the slot's heading —
        // the same magnitude class the paper's 15 µT environment
        // induces, swept around the circle.
        let rad = heading.to_radians();
        FieldSpec::FieldVector {
            hx: 12.0 * rad.cos(),
            hy: 12.0 * rad.sin(),
        }
    } else {
        FieldSpec::HeadingTruth(heading)
    };
    FixRequest {
        id: k as u64,
        seed: derive_seed(config.base_seed, slot as u64),
        deadline_ms: config.deadline_ms,
        no_cache: config.no_cache,
        field,
    }
}

/// Runs the configured load against the server and reports.
///
/// # Errors
///
/// Only connection establishment errors are returned; socket failures
/// mid-run are tallied as `protocol_errors` in the report.
pub fn run(config: &LoadGenConfig) -> io::Result<LoadReport> {
    let connections = config.connections.max(1);
    let start = Instant::now();
    let budget = Arc::new(AtomicU64::new(config.retry_budget));
    let mut handles = Vec::with_capacity(connections);
    for c in 0..connections {
        let stream = TcpStream::connect(&config.addr)?;
        let config = config.clone();
        let budget = Arc::clone(&budget);
        handles.push(thread::spawn(move || {
            connection_run(&config, c, stream, start, &budget)
        }));
    }
    let mut total = ConnTally::default();
    for handle in handles {
        let tally = handle.join().expect("loadgen connection thread panicked");
        total.sent += tally.sent;
        total.completed += tally.completed;
        total.ok += tally.ok;
        total.cache_hits += tally.cache_hits;
        total.quality_good += tally.quality_good;
        total.quality_degraded += tally.quality_degraded;
        total.unmeasurable += tally.unmeasurable;
        total.overloaded += tally.overloaded;
        total.deadline_exceeded += tally.deadline_exceeded;
        total.shutting_down += tally.shutting_down;
        total.retries += tally.retries;
        total.protocol_errors += tally.protocol_errors;
        total.latencies_ms.extend_from_slice(&tally.latencies_ms);
    }
    let elapsed = start.elapsed();
    let (p50, p95, p99) = if total.latencies_ms.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        let sorted = SortedSamples::new(&total.latencies_ms);
        (
            sorted.quantile(0.50),
            sorted.quantile(0.95),
            sorted.quantile(0.99),
        )
    };
    Ok(LoadReport {
        sent: total.sent,
        completed: total.completed,
        ok: total.ok,
        cache_hits: total.cache_hits,
        quality_good: total.quality_good,
        quality_degraded: total.quality_degraded,
        unmeasurable: total.unmeasurable,
        overloaded: total.overloaded,
        deadline_exceeded: total.deadline_exceeded,
        shutting_down: total.shutting_down,
        retries: total.retries,
        protocol_errors: total.protocol_errors,
        lost: total.sent.saturating_sub(total.completed),
        elapsed,
        fixes_per_s: if elapsed.as_secs_f64() > 0.0 {
            total.ok as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        p50_ms: p50,
        p95_ms: p95,
        p99_ms: p99,
    })
}

/// The deterministic jittered backoff before retry attempt `attempt`
/// (1-based) of request `id`.
fn retry_delay(config: &LoadGenConfig, id: u64, attempt: u32) -> Duration {
    let jitter = 0.5 + unit_f64(derive_seed(id, u64::from(attempt)));
    let scale = f64::from(1u32 << attempt.min(16)) / 2.0;
    Duration::from_secs_f64(config.retry_backoff.as_secs_f64() * scale * jitter)
}

fn connection_run(
    config: &LoadGenConfig,
    conn_index: usize,
    stream: TcpStream,
    start: Instant,
    budget: &Arc<AtomicU64>,
) -> ConnTally {
    let connections = config.connections.max(1);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let pending: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let sent = Arc::new(AtomicUsize::new(0));
    let sender_done = Arc::new(AtomicBool::new(false));
    // Retries are written by the receiver, so all writes to the socket
    // (paced sends and retries) go through one shared lock.
    let writer = Arc::new(Mutex::new(
        stream.try_clone().expect("clone loadgen socket"),
    ));

    let receiver = {
        let config = config.clone();
        let pending = Arc::clone(&pending);
        let sent = Arc::clone(&sent);
        let sender_done = Arc::clone(&sender_done);
        let writer = Arc::clone(&writer);
        let budget = Arc::clone(budget);
        thread::spawn(move || {
            receive_loop(
                &config,
                stream,
                &pending,
                &sent,
                &sender_done,
                &writer,
                &budget,
            )
        })
    };

    let mut send_errors = 0u64;
    let mut k = conn_index;
    let mut j = 0usize;
    while k < config.requests {
        if config.rate_hz > 0.0 {
            let due = start + Duration::from_secs_f64(k as f64 / config.rate_hz);
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
        }
        let request = request_for(config, k);
        // Record the pending send *before* the write so a fast response
        // can never race the bookkeeping.
        pending.lock().unwrap().insert(request.id, Instant::now());
        if write_request(&mut *writer.lock().unwrap(), &request).is_err() {
            pending.lock().unwrap().remove(&request.id);
            send_errors += 1;
            break;
        }
        sent.fetch_add(1, Ordering::SeqCst);
        j += 1;
        k = conn_index + j * connections;
    }
    sender_done.store(true, Ordering::SeqCst);
    let mut tally = receiver.join().expect("loadgen receiver thread panicked");
    tally.sent = sent.load(Ordering::SeqCst) as u64;
    tally.protocol_errors += send_errors;
    tally
}

/// A retry scheduled for `due`; `attempt` is how many times the request
/// has already been sent.
struct PendingRetry {
    due: Instant,
    id: u64,
    attempt: u32,
}

/// Outcome of one [`ResponseReader::next`] call.
#[derive(Debug)]
enum Received {
    /// One complete response frame, decoded.
    Response(FixResponse),
    /// The read timed out with no complete frame buffered.
    Idle,
    /// The server closed the stream on a frame boundary.
    Eof,
}

/// Reads response frames off a stream with a read timeout.
///
/// A timeout can fire in the middle of a frame. The bytes read before it
/// stay in `inbox` and the next read appends to them, so the framing
/// survives any split.
struct ResponseReader<R> {
    stream: R,
    inbox: Vec<u8>,
    /// Offset of the first byte in `inbox` not yet decoded.
    start: usize,
}

impl<R: Read> ResponseReader<R> {
    fn new(stream: R) -> Self {
        Self {
            stream,
            inbox: Vec::new(),
            start: 0,
        }
    }

    fn next(&mut self) -> io::Result<Received> {
        loop {
            if let Some(frame) = buffered_frame(&self.inbox[self.start..]) {
                let invalid = |e| io::Error::new(io::ErrorKind::InvalidData, e);
                let payload = frame.map_err(invalid)?;
                let response = FixResponse::decode_payload(payload).map_err(invalid)?;
                self.start += 4 + payload.len();
                return Ok(Received::Response(response));
            }
            self.inbox.drain(..self.start);
            self.start = 0;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) if self.inbox.is_empty() => return Ok(Received::Eof),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof inside frame",
                    ))
                }
                Ok(n) => self.inbox.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    return Ok(Received::Idle)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn receive_loop(
    config: &LoadGenConfig,
    stream: TcpStream,
    pending: &Mutex<HashMap<u64, Instant>>,
    sent: &AtomicUsize,
    sender_done: &AtomicBool,
    writer: &Mutex<TcpStream>,
    budget: &AtomicU64,
) -> ConnTally {
    let mut tally = ConnTally::default();
    let mut reader = ResponseReader::new(stream);
    let mut drain_start: Option<Instant> = None;
    // Attempts already made per request id (first send = attempt 1).
    let mut attempts: HashMap<u64, u32> = HashMap::new();
    let mut retries: Vec<PendingRetry> = Vec::new();
    loop {
        // Fire due retries before checking for completion so a
        // scheduled retry is never abandoned by an early exit.
        let now = Instant::now();
        let mut i = 0;
        while i < retries.len() {
            if retries[i].due <= now {
                let retry = retries.swap_remove(i);
                let request = request_for(config, retry.id as usize);
                pending.lock().unwrap().insert(request.id, Instant::now());
                if write_request(&mut *writer.lock().unwrap(), &request).is_err() {
                    pending.lock().unwrap().remove(&request.id);
                    tally.protocol_errors += 1;
                } else {
                    sent.fetch_add(1, Ordering::SeqCst);
                    tally.retries += 1;
                    attempts.insert(retry.id, retry.attempt + 1);
                }
            } else {
                i += 1;
            }
        }
        let done = sender_done.load(Ordering::SeqCst);
        if done && retries.is_empty() && tally.completed as usize >= sent.load(Ordering::SeqCst) {
            break;
        }
        if done && retries.is_empty() {
            let since = drain_start.get_or_insert_with(Instant::now);
            if since.elapsed() > config.drain_timeout {
                break;
            }
        }
        match reader.next() {
            Ok(Received::Response(response)) => {
                tally.completed += 1;
                drain_start = None;
                let sent_at = pending.lock().unwrap().remove(&response.id);
                match (response.status, sent_at) {
                    (Status::Ok, Some(at)) => {
                        tally.ok += 1;
                        if response.cache_hit {
                            tally.cache_hits += 1;
                        }
                        match response.quality {
                            FixQuality::Good => tally.quality_good += 1,
                            FixQuality::Degraded => tally.quality_degraded += 1,
                            FixQuality::Invalid => {}
                        }
                        tally.latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
                    }
                    (Status::Ok, None) => tally.protocol_errors += 1,
                    (Status::Unmeasurable, _) => tally.unmeasurable += 1,
                    (Status::Overloaded, _) => {
                        tally.overloaded += 1;
                        let attempt = *attempts.entry(response.id).or_insert(1);
                        if attempt <= config.max_retries
                            && budget
                                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                                    b.checked_sub(1)
                                })
                                .is_ok()
                        {
                            retries.push(PendingRetry {
                                due: Instant::now() + retry_delay(config, response.id, attempt),
                                id: response.id,
                                attempt,
                            });
                        }
                    }
                    (Status::DeadlineExceeded, _) => tally.deadline_exceeded += 1,
                    (Status::ShuttingDown, _) => tally.shutting_down += 1,
                    (_, _) => tally.protocol_errors += 1,
                }
            }
            Ok(Received::Idle) => {}
            Ok(Received::Eof) => break,
            Err(_) => {
                tally.protocol_errors += 1;
                break;
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_response;
    use std::collections::VecDeque;

    /// A stream that replays scripted reads: byte chunks (handed out
    /// over as many reads as the caller's buffer needs) and errors.
    struct Scripted(VecDeque<io::Result<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.0.push_front(Ok(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn frames_split_by_read_timeouts_all_decode() {
        let responses: Vec<FixResponse> = (1..=3)
            .map(|id| FixResponse {
                heading: 10.0 * id as f64,
                count_x: id as i64,
                ..FixResponse::failure(id, Status::Ok)
            })
            .collect();
        let mut wire = Vec::new();
        for response in &responses {
            write_response(&mut wire, response).unwrap();
        }
        let frame = wire.len() / responses.len();
        // One cut inside the second frame's payload, one inside the
        // third frame's length prefix; a timeout fires at each.
        let cuts = [frame + 10, 2 * frame + 2];
        let timeout = || Err(io::Error::new(io::ErrorKind::TimedOut, "read timeout"));
        let mut reader = ResponseReader::new(Scripted(VecDeque::from([
            Ok(wire[..cuts[0]].to_vec()),
            timeout(),
            Ok(wire[cuts[0]..cuts[1]].to_vec()),
            timeout(),
            Ok(wire[cuts[1]..].to_vec()),
        ])));
        let mut decoded = Vec::new();
        let mut idles = 0;
        loop {
            match reader.next().unwrap() {
                Received::Response(response) => decoded.push(response),
                Received::Idle => idles += 1,
                Received::Eof => break,
            }
        }
        assert_eq!(decoded, responses);
        assert_eq!(idles, 2, "each timeout must surface so retries can fire");
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let mut wire = Vec::new();
        write_response(&mut wire, &FixResponse::failure(1, Status::Ok)).unwrap();
        wire.pop();
        let mut reader = ResponseReader::new(Scripted(VecDeque::from([Ok(wire)])));
        let err = reader.next().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn request_mix_cycles_unique_fixes() {
        let config = LoadGenConfig {
            unique_fixes: 4,
            ..LoadGenConfig::default()
        };
        let a = request_for(&config, 1);
        let b = request_for(&config, 5);
        // Same slot → same field and seed, different id.
        assert_eq!(a.field, b.field);
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.id, b.id);
        // Different slot → different fix.
        let c = request_for(&config, 2);
        assert_ne!(a.field, c.field);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn field_vector_mix_stays_on_the_12_am_circle() {
        let config = LoadGenConfig {
            field_vector: true,
            unique_fixes: 8,
            ..LoadGenConfig::default()
        };
        for k in 0..8 {
            match request_for(&config, k).field {
                FieldSpec::FieldVector { hx, hy } => {
                    assert!((hx.hypot(hy) - 12.0).abs() < 1e-9);
                }
                other => panic!("expected a field vector, got {other:?}"),
            }
        }
    }
}
