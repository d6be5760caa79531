//! Absolute output bits of the reproduction, pinned.
//!
//! The traced front-end run is the fast path's measurement kernel with
//! folding off and every noise draw evaluated, so tests that compare the
//! two cannot see a change to the kernel or to a primitive they share
//! (the pickup EMF, the excitation table, the noise stream). This suite
//! pins the bits themselves and is the independent reference: golden
//! digests of the `paper_design` heading grid, noise-free and at 2 mV
//! under a mixed fault plan; an oracle — a plain per-sample loop over
//! the excitation table, the sensor EMF, the fault effects, the detector
//! and the counter that shares no loop with the front-end — that must
//! agree with the fast path fix for fix; the raw clean-EMF rows; and
//! golden digests of every waveform the traced run records.

use fluxcomp::afe::{FrontEnd, FrontEndConfig, FrontEndResult, PulsePositionDetector};
use fluxcomp::compass::{
    AxisMeasurement, CheckedReading, CompassConfig, CompassDesign, DegradedTracker, FixQuality,
    MeasureScratch, Reading,
};
use fluxcomp::exec::{derive_seed, unit_f64};
use fluxcomp::faults::{AxisSel, FaultKind, FaultPlan, FaultSpec, FixFaults};
use fluxcomp::fluxgate::noise::GaussianNoise;
use fluxcomp::fluxgate::pair::Axis;
use fluxcomp::fluxgate::FluxgateParams;
use fluxcomp::rtl::counter::ClockSchedule;
use fluxcomp::rtl::{CordicArctan, UpDownCounter};
use fluxcomp::units::{AmperePerMeter, Degrees, Ohm, Volt};

/// Headings in the pinned grid: every fifth point of the 1° grid (the
/// full grid would add ~9 s to a debug-build test run).
const HEADINGS: usize = 72;
/// The oracle checks every `ORACLE_STRIDE`-th heading of the grid.
const ORACLE_STRIDE: usize = 4;
const SEEDS: [u64; 2] = [1, 987654];

/// A pinned case: a design and an optional fault plan for a workload
/// seed.
struct Case {
    name: &'static str,
    config: CompassConfig,
    plan: fn(u64) -> Option<FaultPlan>,
}

fn cases() -> [Case; 2] {
    let mut noisy = CompassConfig::paper_design();
    noisy.frontend.pickup_noise_rms = 2e-3;
    [
        Case {
            name: "clean",
            config: CompassConfig::paper_design(),
            plan: |_| None,
        },
        Case {
            name: "noisy_mixed",
            config: noisy,
            plan: |seed| Some(mixed_plan(seed)),
        },
    ]
}

/// An open X pickup at rate 0.2 plus a 0.05 V RMS burst over 30–70 % of
/// the window on either axis at rate 0.4, with a seed-derived plan seed.
fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(derive_seed(seed, 3))
        .with(FaultSpec {
            kind: FaultKind::OpenPickup,
            axis: AxisSel::X,
            rate: 0.2,
        })
        .with(FaultSpec {
            kind: FaultKind::NoiseBurst {
                rms: 0.05,
                from: 0.3,
                until: 0.7,
            },
            axis: AxisSel::Both,
            rate: 0.4,
        })
}

/// Point `k` of the 360-point 1° grid for a workload seed, rotated by a
/// seed-derived sub-degree offset, with its own noise seed.
fn grid_point(seed: u64, k: usize) -> (Degrees, u64) {
    let offset = unit_f64(derive_seed(seed, 1));
    let noise = derive_seed(seed, 2);
    (
        Degrees::new(k as f64 + offset),
        derive_seed(noise, k as u64),
    )
}

/// The grid points the digests cover.
fn grid(seed: u64) -> impl Iterator<Item = (Degrees, u64)> {
    (0..360)
        .step_by(360 / HEADINGS)
        .map(move |k| grid_point(seed, k))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends an FNV-1a digest by the eight bytes of `word`.
fn chain(digest: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(digest, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of every output bit of a checked fix: heading, both duties and
/// counts, clipping, CORDIC cycles and quality.
fn fix_digest(fix: &CheckedReading) -> u64 {
    let r = &fix.reading;
    let quality = match fix.quality {
        FixQuality::Good => 0,
        FixQuality::Degraded => 1,
        FixQuality::Invalid => 2,
    };
    [
        r.heading.value().to_bits(),
        r.x.duty.to_bits(),
        r.y.duty.to_bits(),
        r.x.count as u64,
        r.y.count as u64,
        u64::from(r.x.clipped) | u64::from(r.y.clipped) << 1,
        u64::from(r.cordic_cycles),
        quality,
    ]
    .into_iter()
    .fold(FNV_OFFSET, chain)
}

/// The per-fix digests of the fast path over `points`, one health
/// tracker carried across them in order.
fn fast_digests(case: &Case, seed: u64, points: impl Iterator<Item = (Degrees, u64)>) -> Vec<u64> {
    let design = CompassDesign::new(case.config.clone()).expect("valid design");
    let plan = (case.plan)(seed);
    let mut scratch = MeasureScratch::for_design(&design);
    let mut tracker = DegradedTracker::for_design(&design);
    points
        .map(|(heading, fix_seed)| {
            fix_digest(&design.measure_heading_checked(
                heading,
                fix_seed,
                &mut scratch,
                plan.as_ref(),
                &mut tracker,
            ))
        })
        .collect()
}

/// The blocks of a design, built from its configuration.
struct Oracle {
    config: CompassConfig,
    design: CompassDesign,
    frontend: FrontEnd,
    cordic: CordicArctan,
    schedule: ClockSchedule,
}

impl Oracle {
    fn new(config: &CompassConfig) -> Self {
        let mut fe_config = config.frontend.clone();
        fe_config.sensor = config.pair.element;
        let window =
            config.frontend.measure_periods as f64 / config.frontend.excitation.frequency().value();
        Self {
            design: CompassDesign::new(config.clone()).expect("valid design"),
            frontend: FrontEnd::new(fe_config).expect("valid front-end"),
            cordic: CordicArctan::new(config.cordic_iterations),
            schedule: ClockSchedule::new(
                config.frontend.measure_periods * config.frontend.samples_per_period,
                window,
                config.clock.master(),
            ),
            config: config.clone(),
        }
    }

    /// One fix: both axes sample by sample, the CORDIC with the
    /// polarity fold, and the health verdict.
    fn fix(
        &self,
        heading: Degrees,
        seed: u64,
        plan: Option<&FaultPlan>,
        tracker: &mut DegradedTracker,
    ) -> CheckedReading {
        let (hx, hy) = self.design.axial_fields(heading);
        let faults = |index| plan.map_or_else(FixFaults::none, |p| p.compile(index, seed));
        let x = self.axis(Axis::X, hx, seed, &faults(0));
        let y = self.axis(Axis::Y, hy, seed, &faults(1));
        let (heading, cordic_cycles) = match self.cordic.heading(-x.count, -y.count) {
            Ok(r) => (r.heading, r.cycles),
            Err(_) => (Degrees::ZERO, self.cordic.iterations()),
        };
        tracker.assess(Reading {
            heading,
            x,
            y,
            cordic_cycles,
        })
    }

    /// One axis, one sample at a time: the sensor EMF over the
    /// excitation table, the fault effects in physical order, the
    /// nominal noise draw, the detector, and the counter clocked
    /// through the schedule.
    fn axis(
        &self,
        axis: Axis,
        h_ext: AmperePerMeter,
        seed: u64,
        faults: &FixFaults,
    ) -> AxisMeasurement {
        let cfg = &self.config.frontend;
        let sensor = self.frontend.sensor();
        let table = self.frontend.excitation_table().samples();
        let mut detector = PulsePositionDetector::new(cfg.detector);
        let mut counter = UpDownCounter::paper_design();
        let mut noise = GaussianNoise::new(cfg.pickup_noise_rms, seed);
        let mut burst = faults.burst.map(|b| (b, GaussianNoise::new(b.rms, b.seed)));
        let total = (cfg.settle_periods + cfg.measure_periods) * cfg.samples_per_period;
        let settle = cfg.settle_periods * cfg.samples_per_period;
        let mut high = 0u64;
        for g in 0..total {
            let drive = &table[g % table.len()];
            let frac = g as f64 * (1.0 / total as f64);
            let dropped = faults
                .dropout
                .is_some_and(|(from, until)| frac >= from && frac < until);
            let (h_drive, dh_dt) = if dropped {
                (AmperePerMeter::ZERO, 0.0)
            } else {
                (drive.h_drive, drive.dh_dt)
            };
            let h = h_drive + h_ext + AmperePerMeter::new(faults.hk_ramp * frac);
            let mut v = sensor.pickup_emf(h, dh_dt);
            if faults.pickup_gain != 1.0 {
                v = Volt::new(v.value() * faults.pickup_gain);
            }
            v += Volt::new(noise.sample());
            if let Some((b, stream)) = burst.as_mut() {
                if frac >= b.from && frac < b.until {
                    v += Volt::new(stream.sample());
                }
            }
            let out = detector.step(v);
            let out = faults.stuck_output.unwrap_or(out);
            if g >= settle {
                high += u64::from(out);
                counter.clock_n(out, self.schedule.edges_at(g - settle));
            }
        }
        AxisMeasurement {
            axis,
            duty: high as f64 / (total - settle) as f64,
            count: counter.value(),
            clipped: self.frontend.excitation_table().any_clips(),
        }
    }
}

/// The fast path's grid digest per case and seed, computed with the
/// per-sample kernel before the measurement path was optimised.
const GOLDEN_GRID: [(&str, u64, u64); 4] = [
    ("clean", 1, 0x2b5179238951502e),
    ("clean", 987654, 0x2b5179238951502e),
    ("noisy_mixed", 1, 0x1cd5fd4ec5063ea5),
    ("noisy_mixed", 987654, 0x6de11b76eb36d5cb),
];

/// The oracle's digest over its subset of the grid, per case and seed.
const GOLDEN_ORACLE: [(&str, u64, u64); 4] = [
    ("clean", 1, 0x388232630eb0561e),
    ("clean", 987654, 0x388232630eb0561e),
    ("noisy_mixed", 1, 0xc263150b8d1ad655),
    ("noisy_mixed", 987654, 0x891c561af511205a),
];

/// Runs `f` for every case and seed on its own thread and collects
/// `(case, seed, f(case, seed))` in order.
fn per_case<T: Send>(f: impl Fn(&Case, u64) -> T + Sync) -> Vec<(&'static str, u64, T)> {
    let cases = cases();
    std::thread::scope(|s| {
        let runs: Vec<_> = cases
            .iter()
            .flat_map(|case| SEEDS.map(|seed| (case, seed)))
            .map(|(case, seed)| {
                let f = &f;
                (case.name, seed, s.spawn(move || f(case, seed)))
            })
            .collect();
        runs.into_iter()
            .map(|(name, seed, run)| (name, seed, run.join().expect("no panic")))
            .collect()
    })
}

/// Digest of the raw clean pickup-EMF rows of `paper_design`, one row
/// per external field over the excitation table. Output digests cannot
/// see a one-ULP change to the EMF (no output bit on the grid moves), so
/// the rows themselves are pinned.
const GOLDEN_EMF: u64 = 0x68e3_3556_d9e2_1f84;

#[test]
fn clean_emf_rows_match_their_golden_digest() {
    let config = CompassConfig::paper_design();
    let mut fe_config = config.frontend.clone();
    fe_config.sensor = config.pair.element;
    let frontend = FrontEnd::new(fe_config).expect("valid front-end");
    let sensor = frontend.sensor();
    let table = frontend.excitation_table().samples();
    let peak = frontend.peak_excitation_field().value();
    let digest = [0.0, 12.0, -12.0, 1.2 * peak, -1.2 * peak]
        .into_iter()
        .flat_map(|h_ext| {
            table.iter().map(move |drive| {
                let h = drive.h_drive + AmperePerMeter::new(h_ext);
                sensor.pickup_emf(h, drive.dh_dt).value().to_bits()
            })
        })
        .fold(FNV_OFFSET, chain);
    assert_eq!(digest, GOLDEN_EMF);
}

#[test]
fn fast_path_matches_golden_grid_digests() {
    let got = per_case(|case, seed| {
        fast_digests(case, seed, grid(seed))
            .into_iter()
            .fold(FNV_OFFSET, chain)
    });
    assert_eq!(got, GOLDEN_GRID);
}

#[test]
fn oracle_matches_the_fast_path_and_its_golden_digests() {
    let got = per_case(|case, seed| {
        let points: Vec<_> = grid(seed).step_by(ORACLE_STRIDE).collect();
        let oracle = Oracle::new(&case.config);
        let plan = (case.plan)(seed);
        let mut tracker = DegradedTracker::for_design(&oracle.design);
        let reference: Vec<u64> = points
            .iter()
            .map(|&(heading, fix_seed)| {
                fix_digest(&oracle.fix(heading, fix_seed, plan.as_ref(), &mut tracker))
            })
            .collect();
        let fast = fast_digests(case, seed, points.into_iter());
        assert_eq!(
            fast, reference,
            "{}: fast path differs from the oracle at seed {seed}",
            case.name
        );
        reference.into_iter().fold(FNV_OFFSET, chain)
    });
    assert_eq!(got, GOLDEN_ORACLE);
}

/// Digest of every output bit of a traced front-end run: the four
/// traces (time in picoseconds and value bits), the measurement-window
/// detector samples, the duty bits and the clip flag.
fn waveform_digest(digest: u64, run: &FrontEndResult) -> u64 {
    let traces = ["i_exc", "v_exc", "v_pickup", "detector"]
        .into_iter()
        .flat_map(|name| {
            let trace = run.traces.by_name(name).expect("traced channel");
            trace
                .samples()
                .iter()
                .flat_map(|&(t, v)| [t.picos() as u64, v.to_bits()])
        });
    let samples = run
        .detector_samples
        .chunks(64)
        .map(|c| c.iter().fold(0u64, |w, &b| w << 1 | u64::from(b)));
    traces
        .chain(samples)
        .chain([
            run.detector_samples.len() as u64,
            run.duty.to_bits(),
            u64::from(run.clipped),
        ])
        .fold(digest, chain)
}

/// Digest of `run_with_seed` over the paper channel, 2 mV noise, a
/// clipping drive, a hysteretic core, a 3 mV comparator offset and the
/// 0+2 split of the waveform figures, at fields 0, −0, ±1.2·H_peak and
/// two seeds each.
const GOLDEN_WAVEFORMS: [(&str, u64); 6] = [
    ("paper", 0x022493d72aca64ad),
    ("noisy", 0xcb64b55a044624a9),
    ("clipping", 0xf75411030dc86d95),
    ("hysteretic", 0xf7f6ac289fad61dd),
    ("offset", 0xc3f4f39e80a29d4d),
    ("split_0_2", 0x5c1abc86c5bc110d),
];

#[test]
fn traced_waveforms_match_their_golden_digests() {
    let with = |edit: fn(&mut FrontEndConfig)| {
        let mut config = FrontEndConfig::paper_design();
        edit(&mut config);
        config
    };
    let configs = [
        ("paper", with(|_| {})),
        ("noisy", with(|c| c.pickup_noise_rms = 2e-3)),
        (
            "clipping",
            with(|c| c.sensor.r_excitation = Ohm::new(2_000.0)),
        ),
        (
            "hysteretic",
            with(|c| c.sensor = FluxgateParams::adapted_hysteretic(0.1)),
        ),
        ("offset", with(|c| c.detector.offset = Volt::new(3e-3))),
        (
            "split_0_2",
            with(|c| {
                c.settle_periods = 0;
                c.measure_periods = 2;
            }),
        ),
    ];
    let got: Vec<(&str, u64)> = std::thread::scope(|s| {
        let runs: Vec<_> = configs
            .into_iter()
            .map(|(name, config)| {
                s.spawn(move || {
                    let frontend = FrontEnd::new(config).expect("valid front-end");
                    let reach = frontend.peak_excitation_field() * 1.2;
                    let fields = [
                        AmperePerMeter::ZERO,
                        AmperePerMeter::new(-0.0),
                        reach,
                        -reach,
                    ];
                    let digest = fields
                        .into_iter()
                        .flat_map(|h| [1, 0x5EED].map(|seed| (h, seed)))
                        .fold(FNV_OFFSET, |digest, (h, seed)| {
                            waveform_digest(digest, &frontend.run_with_seed(h, seed))
                        });
                    (name, digest)
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("no panic"))
            .collect()
    });
    assert_eq!(got, GOLDEN_WAVEFORMS);
}
