//! End-to-end tests of the fix server over real localhost sockets:
//! bit-exactness against direct measurement, overload shedding,
//! deadline enforcement, malformed-frame handling, and graceful
//! shutdown draining.

use fluxcomp_compass::{CompassConfig, CompassDesign, MeasureScratch};
use fluxcomp_serve::protocol::{
    read_frame_poll, write_request, FieldSpec, FixRequest, FixResponse, PollRead, Status,
    REQUEST_LEN_VECTOR,
};
use fluxcomp_serve::{loadgen, FixServer, LoadGenConfig, ServeConfig};
use fluxcomp_units::angle::Degrees;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn design() -> CompassDesign {
    CompassDesign::new(CompassConfig::paper_design()).unwrap()
}

fn test_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

fn connect(server: &FixServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn round_trip(stream: &mut TcpStream, request: &FixRequest) -> FixResponse {
    write_request(stream, request).unwrap();
    read_one(stream)
}

/// Stops a read at the socket's first read timeout, so a lost response
/// fails the test instead of hanging it.
fn give_up() -> bool {
    true
}

fn read_one(stream: &mut TcpStream) -> FixResponse {
    let mut buf = Vec::new();
    match read_frame_poll(stream, &mut buf, &give_up).unwrap() {
        PollRead::Frame(len) => FixResponse::decode_payload(&buf[..len]).unwrap(),
        PollRead::Eof => panic!("server closed the connection without a response"),
        PollRead::Stopped => panic!("no response within the read timeout"),
    }
}

#[test]
fn served_heading_fix_is_bit_identical_to_direct_measurement() {
    let design = design();
    let mut scratch = MeasureScratch::for_design(&design);
    let mut server = FixServer::start(design.clone(), test_config()).unwrap();
    let mut stream = connect(&server);
    for (i, (truth, seed)) in [
        (0.0, 1000),
        (33.0, 1001),
        (77.5, 0xE13),
        (123.0, 1002),
        (251.25, 0xE15),
        (287.25, 1003),
        (359.0, 1004),
    ]
    .into_iter()
    .enumerate()
    {
        let request = FixRequest {
            id: i as u64,
            seed,
            deadline_ms: 0,
            no_cache: false,
            field: FieldSpec::HeadingTruth(truth),
        };
        // First fix computes (miss), second must hit the cache; both
        // match the direct scratch measurement bit for bit.
        let direct = design.measure_heading_scratch(Degrees::new(truth), seed, &mut scratch);
        for expect_hit in [false, true] {
            let response = round_trip(&mut stream, &request);
            assert_eq!(response.status, Status::Ok);
            assert_eq!(response.id, request.id);
            assert_eq!(response.cache_hit, expect_hit, "truth {truth}");
            assert_eq!(response.heading.to_bits(), direct.heading.value().to_bits());
            assert_eq!(response.duty_x.to_bits(), direct.x.duty.to_bits());
            assert_eq!(response.duty_y.to_bits(), direct.y.duty.to_bits());
            assert_eq!(response.count_x, direct.x.count);
            assert_eq!(response.count_y, direct.y.count);
            assert_eq!(response.clipped, direct.x.clipped || direct.y.clipped);
        }
    }
    server.shutdown();
}

#[test]
fn served_field_vector_fix_matches_direct_and_no_cache_recomputes() {
    let design = design();
    let mut scratch = MeasureScratch::for_design(&design);
    let mut server = FixServer::start(design.clone(), test_config()).unwrap();
    let mut stream = connect(&server);
    for (i, truth) in [0.0, 77.5, 123.0, 251.25, 359.0].into_iter().enumerate() {
        let seed = 0xE12 + i as u64;
        let (hx, hy) = design.axial_fields(Degrees::new(truth));
        let direct = design.measure_field_scratch(hx, hy, seed, &mut scratch);
        let request = FixRequest {
            id: 40 + i as u64,
            seed,
            deadline_ms: 0,
            no_cache: true,
            field: FieldSpec::FieldVector {
                hx: hx.value(),
                hy: hy.value(),
            },
        };
        for _ in 0..2 {
            let response = round_trip(&mut stream, &request);
            assert_eq!(response.status, Status::Ok);
            // no_cache never reports a hit and never populates the cache.
            assert!(!response.cache_hit, "truth {truth}");
            assert_eq!(response.heading.to_bits(), direct.heading.value().to_bits());
            assert_eq!(response.count_x, direct.x.count);
            assert_eq!(response.count_y, direct.y.count);
        }
        // The same fix *with* caching also agrees (field-vector path and
        // heading-truth path share the measurement core).
        let cached = round_trip(
            &mut stream,
            &FixRequest {
                no_cache: false,
                ..request
            },
        );
        assert_eq!(cached.status, Status::Ok);
        assert!(!cached.cache_hit, "truth {truth}: no_cache left no entry");
        assert_eq!(cached.heading.to_bits(), direct.heading.value().to_bits());
    }
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_typed_overloaded() {
    let mut server = FixServer::start(
        design(),
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            batch_max: 1,
            cache_capacity: 0,
            // Slow fixes so the queue jams while requests keep arriving.
            fix_delay: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut stream = connect(&server);
    let burst = 16u64;
    for id in 0..burst {
        write_request(
            &mut stream,
            &FixRequest {
                id,
                seed: id,
                deadline_ms: 0,
                no_cache: true,
                field: FieldSpec::HeadingTruth(id as f64),
            },
        )
        .unwrap();
    }
    let mut ok = 0;
    let mut overloaded = 0;
    for _ in 0..burst {
        match read_one(&mut stream).status {
            Status::Ok => ok += 1,
            Status::Overloaded => overloaded += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    // Every request was answered: some computed, the shed ones typed.
    assert!(ok >= 1, "at least the in-flight fix completes");
    assert!(overloaded >= 1, "a 16-deep burst must overflow capacity 2");
    assert_eq!(ok + overloaded, burst);
    server.shutdown();
}

#[test]
fn cache_hit_is_answered_while_the_queue_is_full() {
    let mut server = FixServer::start(
        design(),
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            batch_max: 1,
            fix_delay: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut stream = connect(&server);
    let request = |id: u64, truth: f64| FixRequest {
        id,
        seed: 3,
        deadline_ms: 0,
        no_cache: false,
        field: FieldSpec::HeadingTruth(truth),
    };
    // Warm the cache with one fix.
    let warm = round_trip(&mut stream, &request(0, 10.0));
    assert_eq!((warm.status, warm.cache_hit), (Status::Ok, false));
    // Park a miss in the worker, then fill the one-slot queue. (The
    // pause only lets the worker pick the first miss up; the hit below is
    // answered whatever the queue holds.)
    write_request(&mut stream, &request(1, 20.0)).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    write_request(&mut stream, &request(2, 30.0)).unwrap();
    write_request(&mut stream, &request(3, 10.0)).unwrap();
    let mut replies: Vec<FixResponse> = (0..3).map(|_| read_one(&mut stream)).collect();
    replies.sort_by_key(|r| r.id);
    let hit = replies[2];
    assert_eq!(hit.status, Status::Ok);
    assert!(hit.cache_hit);
    assert_eq!(hit.heading.to_bits(), warm.heading.to_bits());
    for miss in &replies[..2] {
        assert!(matches!(miss.status, Status::Ok | Status::Overloaded));
    }
    server.shutdown();
}

#[test]
fn expired_deadline_yields_deadline_exceeded_not_a_stale_fix() {
    let mut server = FixServer::start(
        design(),
        ServeConfig {
            workers: 1,
            cache_capacity: 0,
            fix_delay: Duration::from_millis(150),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut stream = connect(&server);
    // First request occupies the single worker for 150 ms; the second,
    // with a 10 ms deadline, expires in the queue behind it.
    for (id, deadline_ms) in [(1u64, 0u32), (2, 10)] {
        write_request(
            &mut stream,
            &FixRequest {
                id,
                seed: id,
                deadline_ms,
                no_cache: true,
                field: FieldSpec::HeadingTruth(45.0),
            },
        )
        .unwrap();
    }
    let mut statuses = std::collections::HashMap::new();
    for _ in 0..2 {
        let response = read_one(&mut stream);
        statuses.insert(response.id, response.status);
    }
    assert_eq!(statuses[&1], Status::Ok);
    assert_eq!(statuses[&2], Status::DeadlineExceeded);
    server.shutdown();
}

#[test]
fn malformed_frame_gets_bad_request_then_close() {
    let mut server = FixServer::start(design(), test_config()).unwrap();
    // A well-formed request tagged with protocol version 1, which this
    // server does not speak.
    let mut v1 = [0u8; REQUEST_LEN_VECTOR];
    let len = FixRequest {
        id: 3,
        seed: 4,
        deadline_ms: 0,
        no_cache: false,
        field: FieldSpec::HeadingTruth(42.0),
    }
    .encode_payload(&mut v1);
    v1[1] = 1;
    // Valid length prefix, garbage payload; then the v1 frame.
    for payload in [&[0xffu8; 24][..], &v1[..len]] {
        let mut stream = connect(&server);
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(payload).unwrap();
        let response = read_one(&mut stream);
        assert_eq!(response.status, Status::BadRequest);
        // The server hangs up after a protocol violation.
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame_poll(&mut stream, &mut buf, &give_up),
            Ok(PollRead::Eof) | Err(_)
        ));
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_every_queued_request() {
    let mut server = FixServer::start(
        design(),
        ServeConfig {
            workers: 1,
            cache_capacity: 0,
            fix_delay: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut stream = connect(&server);
    let n = 8u64;
    for id in 0..n {
        write_request(
            &mut stream,
            &FixRequest {
                id,
                seed: id,
                deadline_ms: 0,
                no_cache: true,
                field: FieldSpec::HeadingTruth(10.0 * id as f64),
            },
        )
        .unwrap();
    }
    // Give the reader a moment to enqueue the burst, then shut down
    // while most fixes are still pending.
    std::thread::sleep(Duration::from_millis(100));
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    // Drain: every accepted request still gets a response.
    let mut answered = 0;
    for _ in 0..n {
        let response = read_one(&mut stream);
        assert_eq!(response.status, Status::Ok);
        answered += 1;
    }
    assert_eq!(answered, n);
    shutdown.join().unwrap();
}

#[test]
fn loadgen_round_trip_with_cache_hits() {
    let mut server = FixServer::start(design(), test_config()).unwrap();
    let report = loadgen::run(&LoadGenConfig {
        addr: server.local_addr().to_string(),
        requests: 200,
        connections: 4,
        unique_fixes: 10,
        ..LoadGenConfig::default()
    })
    .unwrap();
    assert_eq!(report.sent, 200);
    assert_eq!(report.ok, 200);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.lost, 0);
    // 10 unique fixes: everything beyond the first computation of each
    // is a hit (≥ 200 − 10, modulo races between concurrent misses).
    assert!(
        report.cache_hits >= 150,
        "expected heavy cache hits, got {}",
        report.cache_hits
    );
    assert!(report.p50_ms >= 0.0 && report.p99_ms >= report.p50_ms);
    assert!(report.fixes_per_s > 0.0);
    server.shutdown();
}

#[test]
fn loadgen_open_loop_paced_run_completes() {
    let mut server = FixServer::start(design(), test_config()).unwrap();
    let report = loadgen::run(&LoadGenConfig {
        addr: server.local_addr().to_string(),
        requests: 50,
        connections: 2,
        rate_hz: 500.0,
        field_vector: true,
        no_cache: true,
        unique_fixes: 50,
        ..LoadGenConfig::default()
    })
    .unwrap();
    assert_eq!(report.ok, 50);
    assert_eq!(report.cache_hits, 0, "no_cache must bypass the cache");
    assert_eq!(report.protocol_errors, 0);
    // Open-loop pacing: 50 requests at 500/s take at least ~98 ms.
    assert!(report.elapsed >= Duration::from_millis(90));
    server.shutdown();
}
