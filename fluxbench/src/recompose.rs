//! Three ways to compute one fix, all from the program's public API:
//!
//! * [`library_fix`] — the fix entry point a user calls; this is what
//!   the end-to-end runs time.
//! * [`Parts::recomposed`] — the same fix rebuilt stage by stage
//!   (axial projection, fault compilation, `FrontEnd::measure_into`
//!   feeding the counter, CORDIC, health scoring) with a span around each
//!   stage. `CompassDesign` keeps its front-end private, so the traced
//!   run builds its own copy of the blocks from the configuration.
//! * [`Parts::reference`] — a plain per-sample loop over the excitation
//!   table, detector, counter and fault effects. It shares no loop with
//!   the program's measurement kernels, so the correctness gates catch a
//!   kernel that stops reproducing the sampled physics bit for bit.

use crate::trace::Tracer;
use fluxcomp_afe::{FrontEnd, MeasureResult, PulsePositionDetector};
use fluxcomp_compass::{
    AxisMeasurement, CompassConfig, CompassDesign, DegradedTracker, FixQuality, MeasureScratch,
    Reading,
};
use fluxcomp_faults::{FaultPlan, FixFaults};
use fluxcomp_fluxgate::noise::GaussianNoise;
use fluxcomp_fluxgate::pair::Axis;
use fluxcomp_fluxgate::SensorPair;
use fluxcomp_rtl::counter::ClockSchedule;
use fluxcomp_rtl::{CordicArctan, UpDownCounter};
use fluxcomp_serve::{FieldSpec, FixRequest, FixResponse, Status};
use fluxcomp_units::{AmperePerMeter, Degrees, Volt};
use std::time::Instant;

/// What a fix measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field {
    /// A true platform heading in the design's earth field.
    Heading(Degrees),
    /// Explicit axial fields `(hx, hy)`.
    Vector(AmperePerMeter, AmperePerMeter),
}

/// One fix's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixInput {
    pub field: Field,
    pub seed: u64,
}

impl From<&FixRequest> for FixInput {
    fn from(request: &FixRequest) -> Self {
        let field = match request.field {
            FieldSpec::HeadingTruth(deg) => Field::Heading(Degrees::new(deg)),
            FieldSpec::FieldVector { hx, hy } => {
                Field::Vector(AmperePerMeter::new(hx), AmperePerMeter::new(hy))
            }
        };
        Self {
            field,
            seed: request.seed,
        }
    }
}

/// Which fix entry point a workload calls.
#[derive(Debug, Clone, Copy)]
pub enum Entry<'a> {
    /// `measure_heading_scratch` / `measure_field_scratch`: no health
    /// scoring.
    Scratch,
    /// `measure_heading_checked` / `measure_field_checked` under an
    /// optional fault plan.
    Checked(Option<&'a FaultPlan>),
}

impl<'a> Entry<'a> {
    fn plan(self) -> Option<&'a FaultPlan> {
        match self {
            Entry::Scratch => None,
            Entry::Checked(plan) => plan,
        }
    }
}

/// A fix result: the reading and, on the checked entry points, its
/// health verdict.
#[derive(Debug, Clone)]
pub struct Fix {
    pub reading: Reading,
    pub quality: Option<FixQuality>,
}

impl Fix {
    /// Digest of every output bit: heading, both duties and counts,
    /// clipping, CORDIC cycles and quality.
    pub fn digest(&self) -> u64 {
        let r = &self.reading;
        let quality = self.quality.map_or(0, |q| 1 + quality_code(q));
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

    /// The response a server sends for this fix.
    pub fn response(&self, id: u64, cache_hit: bool) -> FixResponse {
        let r = &self.reading;
        let quality = self.quality.unwrap_or(FixQuality::Good);
        FixResponse {
            id,
            status: if quality == FixQuality::Invalid {
                Status::Unmeasurable
            } else {
                Status::Ok
            },
            cache_hit,
            clipped: r.x.clipped || r.y.clipped,
            quality,
            heading: r.heading.value(),
            duty_x: r.x.duty,
            duty_y: r.y.duty,
            count_x: r.x.count,
            count_y: r.y.count,
        }
    }
}

fn quality_code(q: FixQuality) -> u64 {
    match q {
        FixQuality::Good => 0,
        FixQuality::Degraded => 1,
        FixQuality::Invalid => 2,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends an FNV-1a digest by the eight bytes of `word`.
pub fn chain(digest: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(digest, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a sequence of digests, in order.
pub fn chain_all(digests: &[u64]) -> u64 {
    digests.iter().copied().fold(FNV_OFFSET, chain)
}

/// Digest of every fix bit a response carries (its id and cache flag
/// excluded), so a served response can be checked against a fix through
/// [`Fix::response`].
pub fn response_digest(r: &FixResponse) -> u64 {
    [
        r.status as u64,
        quality_code(r.quality),
        r.heading.to_bits(),
        r.duty_x.to_bits(),
        r.duty_y.to_bits(),
        r.count_x as u64,
        r.count_y as u64,
        u64::from(r.clipped),
    ]
    .into_iter()
    .fold(FNV_OFFSET, chain)
}

/// One fix through the program's entry point for `entry`.
pub fn library_fix(
    design: &CompassDesign,
    input: &FixInput,
    entry: Entry<'_>,
    scratch: &mut MeasureScratch,
    tracker: &mut DegradedTracker,
) -> Fix {
    let seed = input.seed;
    match (entry, input.field) {
        (Entry::Scratch, Field::Heading(h)) => Fix {
            reading: design.measure_heading_scratch(h, seed, scratch),
            quality: None,
        },
        (Entry::Scratch, Field::Vector(hx, hy)) => Fix {
            reading: design.measure_field_scratch(hx, hy, seed, scratch),
            quality: None,
        },
        (Entry::Checked(plan), Field::Heading(h)) => {
            let c = design.measure_heading_checked(h, seed, scratch, plan, tracker);
            Fix {
                reading: c.reading,
                quality: Some(c.quality),
            }
        }
        (Entry::Checked(plan), Field::Vector(hx, hy)) => {
            let c = design.measure_field_checked(hx, hy, seed, scratch, plan, tracker);
            Fix {
                reading: c.reading,
                quality: Some(c.quality),
            }
        }
    }
}

/// Span names of the recomposed fix.
pub const RECOMPOSED: &str = "fix.recomposed";
pub const STAGE_AXIAL: &str = "fluxgate.axial_fields";
pub const STAGE_COMPILE: &str = "faults.compile";
pub const STAGE_MEASURE: &str = "afe.measure_into";
pub const STAGE_CORDIC: &str = "rtl.cordic";
pub const STAGE_HEALTH: &str = "compass.health";
/// Every stage span, in fix order.
pub const STAGES: [&str; 5] = [
    STAGE_AXIAL,
    STAGE_COMPILE,
    STAGE_MEASURE,
    STAGE_CORDIC,
    STAGE_HEALTH,
];

/// Reusable detector and counter for the recomposed fix.
#[derive(Debug, Clone)]
pub struct Scratch {
    detector: PulsePositionDetector,
    counter: UpDownCounter,
}

/// The blocks of a design, built from its configuration exactly as
/// `CompassDesign::new` builds them.
#[derive(Debug, Clone)]
pub struct Parts {
    pub config: CompassConfig,
    pub frontend: FrontEnd,
    pub pair: SensorPair,
    pub cordic: CordicArctan,
    pub schedule: ClockSchedule,
}

impl Parts {
    pub fn new(config: &CompassConfig) -> Self {
        let mut fe_config = config.frontend.clone();
        fe_config.sensor = config.pair.element;
        let window =
            config.frontend.measure_periods as f64 / config.frontend.excitation.frequency().value();
        Self {
            frontend: FrontEnd::new(fe_config).expect("valid front-end"),
            pair: SensorPair::new(config.pair),
            cordic: CordicArctan::new(config.cordic_iterations),
            schedule: ClockSchedule::new(
                config.frontend.measure_periods * config.frontend.samples_per_period,
                window,
                config.clock.master(),
            ),
            config: config.clone(),
        }
    }

    pub fn scratch(&self) -> Scratch {
        Scratch {
            detector: PulsePositionDetector::new(self.frontend.config().detector),
            counter: UpDownCounter::paper_design(),
        }
    }

    /// Analogue samples stepped per axis (settle + measurement periods).
    pub fn samples_per_axis(&self) -> u64 {
        let fe = self.frontend.config();
        ((fe.settle_periods + fe.measure_periods) * fe.samples_per_period) as u64
    }

    /// The floating-point reference heading of a fix's field.
    pub fn reference_heading(&self, field: &Field) -> Degrees {
        let (hx, hy) = self.axial(field);
        Degrees::atan2(hy.value(), hx.value()).normalized()
    }

    fn axial(&self, field: &Field) -> (AmperePerMeter, AmperePerMeter) {
        match *field {
            Field::Heading(h) => self.pair.axial_fields(&self.config.field, h),
            Field::Vector(hx, hy) => (hx, hy),
        }
    }

    /// CORDIC and polarity fold, holding 0° on a null field as the
    /// hardware result register does.
    fn fold(&self, x: AxisMeasurement, y: AxisMeasurement) -> Reading {
        let (heading, cordic_cycles) = match self.cordic.heading(-x.count, -y.count) {
            Ok(r) => (r.heading, r.cycles),
            Err(_) => (Degrees::ZERO, self.cordic.iterations()),
        };
        Reading {
            heading,
            x,
            y,
            cordic_cycles,
        }
    }

    /// The fix of [`library_fix`], rebuilt stage by stage with one span
    /// per stage under a [`RECOMPOSED`] parent span, all tagged `id`.
    /// Returns the fix and how many of its axes a compiled fault struck.
    #[allow(clippy::too_many_arguments)]
    pub fn recomposed(
        &self,
        input: &FixInput,
        entry: Entry<'_>,
        scratch: &mut Scratch,
        tracker: &mut DegradedTracker,
        tracer: &mut Tracer,
        id: u64,
    ) -> (Fix, u32) {
        let parent = Some(RECOMPOSED);
        let fix_start = Instant::now();
        let t = Instant::now();
        let (hx, hy) = self.axial(&input.field);
        if matches!(input.field, Field::Heading(_)) {
            tracer.record(STAGE_AXIAL, id, parent, t, Instant::now());
        }
        let mut struck_axes = 0;
        let [x, y] = [(Axis::X, hx, 0u32), (Axis::Y, hy, 1u32)].map(|(axis, h, index)| {
            let faults = entry.plan().map(|plan| {
                let t = Instant::now();
                let faults = plan.compile(index, input.seed);
                tracer.record(STAGE_COMPILE, id, parent, t, Instant::now());
                faults
            });
            let Scratch { detector, counter } = &mut *scratch;
            counter.reset();
            let schedule = &self.schedule;
            let on_sample = |i: usize, up: bool| counter.clock_n(up, schedule.edges_at(i));
            let t = Instant::now();
            let result: MeasureResult = match &faults {
                Some(f) => self
                    .frontend
                    .measure_into_faulted(h, input.seed, detector, f, on_sample),
                None => self
                    .frontend
                    .measure_into(h, input.seed, detector, on_sample),
            };
            tracer.record(STAGE_MEASURE, id, parent, t, Instant::now());
            struck_axes += u32::from(faults.is_some_and(|f| !f.is_none()));
            AxisMeasurement {
                axis,
                duty: result.duty,
                count: scratch.counter.value(),
                clipped: result.clipped,
            }
        });
        let t = Instant::now();
        let reading = self.fold(x, y);
        tracer.record(STAGE_CORDIC, id, parent, t, Instant::now());
        let fix = self.finish(reading, entry, tracker, Some((&mut *tracer, id)));
        tracer.record(RECOMPOSED, id, None, fix_start, Instant::now());
        (fix, struck_axes)
    }

    /// Health scoring for the checked entry points.
    fn finish(
        &self,
        reading: Reading,
        entry: Entry<'_>,
        tracker: &mut DegradedTracker,
        tracer: Option<(&mut Tracer, u64)>,
    ) -> Fix {
        if let Entry::Scratch = entry {
            return Fix {
                reading,
                quality: None,
            };
        }
        let t = Instant::now();
        let checked = tracker.assess(reading);
        if let Some((tracer, id)) = tracer {
            tracer.record(STAGE_HEALTH, id, Some(RECOMPOSED), t, Instant::now());
        }
        Fix {
            reading: checked.reading,
            quality: Some(checked.quality),
        }
    }

    /// The fix of [`library_fix`] from the reference sample loop.
    pub fn reference(
        &self,
        input: &FixInput,
        entry: Entry<'_>,
        tracker: &mut DegradedTracker,
    ) -> Fix {
        let (hx, hy) = self.axial(&input.field);
        let faults = |index| {
            entry
                .plan()
                .map_or_else(FixFaults::none, |plan| plan.compile(index, input.seed))
        };
        let x = self.reference_axis(Axis::X, hx, input.seed, &faults(0));
        let y = self.reference_axis(Axis::Y, hy, input.seed, &faults(1));
        self.finish(self.fold(x, y), entry, tracker, None)
    }

    /// One axis, one sample at a time: sensor EMF over the excitation
    /// table, the fault effects in physical order, the nominal noise
    /// draw, the detector, and the counter clocked through the schedule.
    fn reference_axis(
        &self,
        axis: Axis,
        h_ext: AmperePerMeter,
        seed: u64,
        faults: &FixFaults,
    ) -> AxisMeasurement {
        let cfg = self.frontend.config();
        let sensor = self.frontend.sensor();
        let table = self.frontend.excitation_table().samples();
        let mut detector = PulsePositionDetector::new(cfg.detector);
        let mut counter = UpDownCounter::paper_design();
        let mut noise = GaussianNoise::new(cfg.pickup_noise_rms, seed);
        let mut burst = faults.burst.map(|b| (b, GaussianNoise::new(b.rms, b.seed)));
        let total = self.samples_per_axis() as usize;
        let settle = cfg.settle_periods * cfg.samples_per_period;
        let mut high = 0u64;
        for g in 0..total {
            let drive = &table[g % table.len()];
            let out = if faults.is_none() {
                let v = sensor.pickup_emf(drive.h_drive + h_ext, drive.dh_dt)
                    + Volt::new(noise.sample());
                detector.step(v)
            } else {
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
                faults.stuck_output.unwrap_or(out)
            };
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
