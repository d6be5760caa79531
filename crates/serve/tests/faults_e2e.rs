//! End-to-end fault-injection tests over real localhost sockets: fix
//! quality on the wire, single-axis degraded fixes with bounded
//! heading error, `Unmeasurable` held headings, negative-zero cache
//! aliasing, non-finite field rejection, and `Overloaded` retry in the
//! load generator.

use fluxcomp_compass::{CompassConfig, CompassDesign, FixInput, FixQuality, MeasureScratch};
use fluxcomp_faults::{AxisSel, FaultKind, FaultPlan, FaultSpec};
use fluxcomp_serve::protocol::{
    read_frame_poll, write_request, FieldSpec, FixRequest, FixResponse, PollRead, Status,
};
use fluxcomp_serve::{loadgen, FixServer, LoadGenConfig, ServeConfig};
use fluxcomp_units::angle::Degrees;
use std::net::TcpStream;
use std::time::Duration;

fn design() -> CompassDesign {
    CompassDesign::new(CompassConfig::paper_design()).unwrap()
}

fn connect(server: &FixServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Stops a read at the socket's first read timeout, so a lost response
/// fails the test instead of hanging it.
fn give_up() -> bool {
    true
}

fn round_trip(stream: &mut TcpStream, request: &FixRequest) -> FixResponse {
    write_request(stream, request).unwrap();
    let mut buf = Vec::new();
    match read_frame_poll(stream, &mut buf, &give_up).unwrap() {
        PollRead::Frame(len) => FixResponse::decode_payload(&buf[..len]).unwrap(),
        PollRead::Eof => panic!("server closed the connection without a response"),
        PollRead::Stopped => panic!("no response within the read timeout"),
    }
}

fn heading_request(id: u64, truth: f64, seed: u64) -> FixRequest {
    FixRequest {
        id,
        seed,
        deadline_ms: 0,
        no_cache: true,
        field: FieldSpec::HeadingTruth(truth),
    }
}

#[test]
fn open_pickup_yields_degraded_fixes_with_bounded_error_never_good_garbage() {
    // A stationary platform (fixed truth) polled repeatedly while the X
    // pickup goes open on a share of fixes: Good fixes stay within the
    // 1° spec, Degraded fixes fall back to the Y axis anchored at the
    // last good heading and stay bounded, and a large-error fix is never
    // flagged Good. At 40% every fix is bounded; at 90% the fixes before
    // the first Good one have no anchor yet, so the bound starts there.
    for (truth, rate, fixes, bounded_from_start) in
        [(77.0, 0.4, 40u64, true), (150.0, 0.9, 80, false)]
    {
        let plan = FaultPlan::new(0xE2E1).with(FaultSpec {
            kind: FaultKind::OpenPickup,
            axis: AxisSel::X,
            rate,
        });
        let mut server = FixServer::start(
            design(),
            ServeConfig {
                workers: 1,
                cache_capacity: 0,
                fault_plan: Some(plan),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut stream = connect(&server);
        let mut degraded = 0;
        let mut good = 0;
        for k in 0..fixes {
            let response = round_trip(&mut stream, &heading_request(k, truth, 9000 + k));
            let error = {
                let d = (response.heading - truth).abs() % 360.0;
                d.min(360.0 - d)
            };
            match response.quality {
                FixQuality::Good => {
                    assert_eq!(response.status, Status::Ok);
                    assert!(
                        error <= 1.0,
                        "{truth}° fix {k}: Good fix with {error:.2}° error"
                    );
                    good += 1;
                }
                FixQuality::Degraded => {
                    assert_eq!(response.status, Status::Ok);
                    assert!(
                        error <= 5.0 || !(bounded_from_start || good > 0),
                        "{truth}° fix {k}: Degraded fix error {error:.2}° is unbounded"
                    );
                    degraded += 1;
                }
                FixQuality::Invalid => {
                    assert_eq!(response.status, Status::Unmeasurable);
                }
            }
        }
        assert!(good >= 1, "rate {rate}: some fixes must stay Good");
        assert!(degraded >= 1, "rate {rate}: some fixes must degrade");
        server.shutdown();
    }
}

#[test]
fn dual_axis_fault_answers_unmeasurable_with_held_heading() {
    // Both pickups open on every fix: the first fixes have no anchor
    // (held heading 0°); nothing is ever Good, so the cache never
    // serves a hit even though caching is enabled.
    let plan = FaultPlan::new(0xE2E2).with(FaultSpec {
        kind: FaultKind::OpenPickup,
        axis: AxisSel::Both,
        rate: 1.0,
    });
    let design = design();
    let mut scratch = MeasureScratch::for_design(&design);
    let mut server = FixServer::start(
        design.clone(),
        ServeConfig {
            workers: 1,
            fault_plan: Some(plan.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut stream = connect(&server);
    for k in 0..6u64 {
        let request = FixRequest {
            no_cache: false,
            ..heading_request(k, 120.0, 100 + k)
        };
        let response = round_trip(&mut stream, &request);
        // The heading is held, but the duty and count fields carry the
        // failed fix's raw evidence, bit for bit.
        let direct = design.measure(
            &FixInput::heading(Degrees::new(120.0), 100 + k),
            Some(&plan),
            &mut scratch,
        );
        assert_eq!(
            response.duty_x.to_bits(),
            direct.x.duty.to_bits(),
            "fix {k}"
        );
        assert_eq!(
            response.duty_y.to_bits(),
            direct.y.duty.to_bits(),
            "fix {k}"
        );
        assert_eq!(response.count_x, direct.x.count, "fix {k}");
        assert_eq!(response.count_y, direct.y.count, "fix {k}");
        assert_eq!(response.status, Status::Unmeasurable, "fix {k}");
        assert_eq!(response.quality, FixQuality::Invalid, "fix {k}");
        assert!(!response.cache_hit, "fix {k}: Invalid fixes must not cache");
        assert_eq!(
            response.heading.to_bits(),
            0.0f64.to_bits(),
            "fix {k}: with no good anchor the held heading is 0°"
        );
    }
    server.shutdown();
}

#[test]
fn negative_zero_field_hits_the_positive_zero_cache_entry() {
    let mut server = FixServer::start(
        design(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut stream = connect(&server);
    let request = |id: u64, hy: f64| FixRequest {
        id,
        seed: 42,
        deadline_ms: 0,
        no_cache: false,
        field: FieldSpec::FieldVector { hx: 11.9, hy },
    };
    let miss = round_trip(&mut stream, &request(1, 0.0));
    assert_eq!(miss.status, Status::Ok);
    assert!(!miss.cache_hit);
    // The sign of a zero field is not part of the fix's identity.
    let hit = round_trip(&mut stream, &request(2, -0.0));
    assert_eq!(hit.status, Status::Ok);
    assert!(hit.cache_hit, "-0.0 must hit the 0.0 cache entry");
    assert_eq!(hit.heading.to_bits(), miss.heading.to_bits());
    assert_eq!(hit.count_x, miss.count_x);
    assert_eq!(hit.count_y, miss.count_y);
    server.shutdown();
}

#[test]
fn non_finite_fields_are_rejected_with_bad_request() {
    // The protocol layer refuses non-finite field floats at decode, so
    // a hostile frame gets a typed BadRequest (and a hang-up, since the
    // stream can no longer be trusted) — never a NaN-poisoned fix or a
    // NaN-keyed cache entry.
    let mut server = FixServer::start(
        design(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for (hx, hy) in [
        (f64::NAN, 0.0),
        (12.0, f64::INFINITY),
        (f64::NEG_INFINITY, 1.0),
    ] {
        let mut stream = connect(&server);
        let response = round_trip(
            &mut stream,
            &FixRequest {
                id: 9,
                seed: 1,
                deadline_ms: 0,
                no_cache: false,
                field: FieldSpec::FieldVector { hx, hy },
            },
        );
        assert_eq!(response.status, Status::BadRequest);
        assert_eq!(response.quality, FixQuality::Invalid);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame_poll(&mut stream, &mut buf, &give_up),
            Ok(PollRead::Eof) | Err(_)
        ));
    }
    // A fresh connection with a clean request still gets its fix.
    let mut stream = connect(&server);
    let ok = round_trip(&mut stream, &heading_request(4, 10.0, 1));
    assert_eq!(ok.status, Status::Ok);
    server.shutdown();
}

#[test]
fn loadgen_retries_overloaded_responses_within_budget() {
    // A deliberately tiny server sheds most of a burst; with retries
    // enabled the load generator wins back shed requests while staying
    // within its run-wide budget.
    let mut server = FixServer::start(
        design(),
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            batch_max: 1,
            cache_capacity: 0,
            fix_delay: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let report = loadgen::run(&LoadGenConfig {
        addr: server.local_addr().to_string(),
        requests: 24,
        connections: 2,
        no_cache: true,
        unique_fixes: 24,
        max_retries: 3,
        retry_budget: 64,
        retry_backoff: Duration::from_millis(30),
        ..LoadGenConfig::default()
    })
    .unwrap();
    server.shutdown();
    assert!(report.overloaded >= 1, "the tiny queue must shed something");
    assert!(report.retries >= 1, "shed requests must be retried");
    assert!(report.retries <= 64, "retries must respect the budget");
    assert_eq!(report.sent, 24 + report.retries);
    assert_eq!(report.lost, 0, "every send (retries included) is answered");
    assert_eq!(report.protocol_errors, 0);
}
