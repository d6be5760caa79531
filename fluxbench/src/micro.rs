//! Microloops: one layer's public function called in a tight loop on
//! the workload's own inputs, reported as the median cost per call.

use crate::recompose::Parts;
use crate::stats::{median, ns_per_call};
use fluxcomp_afe::PulsePositionDetector;
use fluxcomp_compass::{DegradedTracker, Reading};
use fluxcomp_faults::FaultPlan;
use fluxcomp_fluxgate::noise::GaussianNoise;
use fluxcomp_rtl::UpDownCounter;
use fluxcomp_serve::protocol::{REQUEST_LEN_VECTOR, RESPONSE_LEN};
use fluxcomp_serve::{BatchQueue, CachedFix, FixCache, FixKey, FixRequest, FixResponse};
use fluxcomp_units::{AmperePerMeter, Volt};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `Fluxgate::pickup_emf` over one period of the excitation table.
pub fn pickup_emf_ns(parts: &Parts, h_ext: AmperePerMeter, budget: Duration) -> f64 {
    let sensor = parts.frontend.sensor();
    let table = parts.frontend.excitation_table().samples();
    ns_per_call(budget, || {
        let mut acc = 0.0;
        for d in table {
            acc += sensor
                .pickup_emf(black_box(d.h_drive + h_ext), d.dh_dt)
                .value();
        }
        black_box(acc);
        table.len() as u64
    })
}

/// `GaussianNoise::sample` at the workload's noise level.
pub fn noise_sample_ns(parts: &Parts, seed: u64, budget: Duration) -> f64 {
    let mut noise = GaussianNoise::new(parts.frontend.config().pickup_noise_rms, seed);
    ns_per_call(budget, || {
        let mut acc = 0.0;
        for _ in 0..4096 {
            acc += noise.sample();
        }
        black_box(acc);
        4096
    })
}

/// One axis's pickup trace (settle and measurement periods, nominal
/// noise included) and the detector output over it.
fn recorded_axis(parts: &Parts, h_ext: AmperePerMeter, seed: u64) -> (Vec<Volt>, Vec<bool>) {
    let sensor = parts.frontend.sensor();
    let table = parts.frontend.excitation_table().samples();
    let mut noise = GaussianNoise::new(parts.frontend.config().pickup_noise_rms, seed);
    let pickup: Vec<Volt> = (0..parts.samples_per_axis() as usize)
        .map(|g| {
            let d = &table[g % table.len()];
            sensor.pickup_emf(d.h_drive + h_ext, d.dh_dt) + Volt::new(noise.sample())
        })
        .collect();
    let mut detector = PulsePositionDetector::new(parts.frontend.config().detector);
    let outputs = pickup.iter().map(|&v| detector.step(v)).collect();
    (pickup, outputs)
}

/// `PulsePositionDetector::step` over a recorded pickup trace.
pub fn detector_step_ns(parts: &Parts, h_ext: AmperePerMeter, seed: u64, budget: Duration) -> f64 {
    let (pickup, _) = recorded_axis(parts, h_ext, seed);
    let mut detector = PulsePositionDetector::new(parts.frontend.config().detector);
    ns_per_call(budget, || {
        detector.reset();
        let mut high = 0u64;
        for &v in &pickup {
            high += u64::from(detector.step(black_box(v)));
        }
        black_box(high);
        pickup.len() as u64
    })
}

/// `UpDownCounter::clock_n` through the `ClockSchedule` over a recorded
/// detector output.
pub fn clock_n_ns(parts: &Parts, h_ext: AmperePerMeter, seed: u64, budget: Duration) -> f64 {
    let (_, outputs) = recorded_axis(parts, h_ext, seed);
    let window = &outputs[outputs.len() - parts.schedule.samples()..];
    let mut counter = UpDownCounter::paper_design();
    ns_per_call(budget, || {
        counter.reset();
        for (i, &up) in window.iter().enumerate() {
            counter.clock_n(black_box(up), parts.schedule.edges_at(i));
        }
        black_box(counter.value());
        window.len() as u64
    })
}

/// `CordicArctan::heading` on the workload's counter pairs.
pub fn cordic_ns(parts: &Parts, readings: &[Reading], budget: Duration) -> f64 {
    ns_per_call(budget, || {
        for r in readings {
            let _ = black_box(parts.cordic.heading(black_box(-r.x.count), -r.y.count));
        }
        readings.len() as u64
    })
}

/// `DegradedTracker::assess` on the workload's readings.
pub fn health_ns(tracker: &DegradedTracker, readings: &[Reading], budget: Duration) -> f64 {
    let mut tracker = tracker.clone();
    ns_per_call(budget, || {
        for r in readings {
            black_box(tracker.assess(black_box(r.clone())));
        }
        readings.len() as u64
    })
}

/// `FaultPlan::compile` for both axes of the workload's fix seeds.
pub fn compile_ns(plan: &FaultPlan, seeds: &[u64], budget: Duration) -> f64 {
    ns_per_call(budget, || {
        for &seed in seeds {
            for axis in 0..2 {
                black_box(plan.compile(axis, black_box(seed)));
            }
        }
        2 * seeds.len() as u64
    })
}

/// Encode plus decode of each request frame.
pub fn request_codec_ns(requests: &[FixRequest], budget: Duration) -> f64 {
    let mut buf = [0u8; REQUEST_LEN_VECTOR];
    ns_per_call(budget, || {
        for r in requests {
            let len = black_box(r).encode_payload(&mut buf);
            black_box(FixRequest::decode_payload(&buf[..len]).expect("round trip"));
        }
        requests.len() as u64
    })
}

/// Encode plus decode of each response frame.
pub fn response_codec_ns(responses: &[FixResponse], budget: Duration) -> f64 {
    let mut buf = [0u8; RESPONSE_LEN];
    ns_per_call(budget, || {
        for r in responses {
            let len = black_box(r).encode_payload(&mut buf);
            black_box(FixResponse::decode_payload(&buf[..len]).expect("round trip"));
        }
        responses.len() as u64
    })
}

/// `FixCache::get` and `FixCache::insert` driven with the workload's key
/// stream, the way the server drives them: a cache filled with the first
/// `capacity` keys, then a get and an insert for each of the next
/// `capacity` keys. Returns `(get_ns, insert_ns)`.
pub fn cache_ns(
    keys: &[FixKey],
    value: CachedFix,
    capacity: usize,
    shards: usize,
    reps: usize,
) -> (f64, f64) {
    assert_eq!(
        keys.len(),
        2 * capacity,
        "key stream must cover fill and probe"
    );
    let (fill, probe) = keys.split_at(capacity);
    let mut gets = Vec::new();
    let mut inserts = Vec::new();
    for _ in 0..reps.max(3) {
        let cache = FixCache::new(capacity, shards);
        for &k in fill {
            cache.insert(k, value);
        }
        let t = Instant::now();
        for k in probe {
            black_box(cache.get(black_box(k)));
        }
        gets.push(t.elapsed().as_nanos() as f64 / probe.len() as f64);
        let t = Instant::now();
        for &k in probe {
            cache.insert(black_box(k), value);
        }
        inserts.push(t.elapsed().as_nanos() as f64 / probe.len() as f64);
    }
    (median(&gets), median(&inserts))
}

/// `BatchQueue::try_push` then `pop_batch`, one batch at a time, on one
/// thread: the hand-off cost without contention.
pub fn queue_handoff_ns(capacity: usize, batch_max: usize, budget: Duration) -> f64 {
    let queue = BatchQueue::new(capacity);
    let mut out = Vec::with_capacity(batch_max);
    ns_per_call(budget, || {
        for round in 0..32u64 {
            for i in 0..batch_max as u64 {
                queue
                    .try_push(black_box(round ^ i))
                    .expect("queue has room");
            }
            assert!(queue.pop_batch(batch_max, &mut out));
            black_box(&out);
            out.clear();
        }
        32 * batch_max as u64
    })
}
