//! The integrated compass system — the paper's contribution (Fig. 1).
//!
//! [`CompassDesign`] wires the whole signal chain together and runs one
//! compass fix the way the silicon would:
//!
//! 1. the X sensor is multiplexed onto the single excitation channel;
//!    the analogue front-end runs for the configured number of 8 kHz
//!    periods;
//! 2. the **pulse-position detector**'s digital output is sampled at the
//!    4.194304 MHz counter clock and integrated by the **up/down
//!    counter** into the integer `x`;
//! 3. the same happens for the Y sensor (`y`);
//! 4. the **CORDIC** computes `atan` of the pair in 8 cycles.
//!
//! Every stage is the actual substrate model — transient sensor physics,
//! behavioural analogue blocks, cycle-level digital — so the end-to-end
//! accuracy measured here *is* the reproduction of the paper's
//! "accuracy of one degree" claim.
//!
//! A design is the immutable configuration-plus-derived-blocks bundle,
//! and [`measure_heading`](CompassDesign::measure_heading) is a pure
//! function of the design and the true heading. That purity is what the
//! parallel sweep engine (`fluxcomp-exec`) exploits — many worker
//! threads can share one `&CompassDesign` and the results are
//! bit-identical to a serial loop. A caller that shows a fix owns a
//! [`DisplayDriver`](fluxcomp_rtl::lcd::DisplayDriver) and latches the
//! heading itself; the power gating of the paper's control logic is the
//! duty-cycled schedule of [`crate::energy`].

use crate::config::{BuildError, CompassConfig};
use fluxcomp_afe::detector::PulsePositionDetector;
use fluxcomp_afe::frontend::FrontEnd;
use fluxcomp_fluxgate::pair::{Axis, SensorPair};
use fluxcomp_rtl::cordic::CordicArctan;
use fluxcomp_rtl::counter::{ClockSchedule, UpDownCounter};
use fluxcomp_units::angle::Degrees;
use fluxcomp_units::magnetics::AmperePerMeter;

/// The result of measuring one axis.
#[derive(Debug, Clone)]
pub struct AxisMeasurement {
    /// Which axis.
    pub axis: Axis,
    /// Detector duty cycle over the measurement window.
    pub duty: f64,
    /// The up/down counter's integer output.
    pub count: i64,
    /// `true` if the V-I converter clipped.
    pub clipped: bool,
}

/// One complete compass fix.
#[derive(Debug, Clone)]
pub struct Reading {
    /// The computed heading, `[0, 360)`.
    pub heading: Degrees,
    /// The X-axis measurement.
    pub x: AxisMeasurement,
    /// The Y-axis measurement.
    pub y: AxisMeasurement,
    /// CORDIC cycles spent (8 in the paper).
    pub cordic_cycles: u32,
}

/// What a fix measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FixField {
    /// A true platform heading in the design's configured earth field,
    /// projected onto the sensor pair.
    Heading(Degrees),
    /// Explicit axial field components `(hx, hy)` in A/m: what a client
    /// that already knows the field at its own sensor sends.
    Vector(AmperePerMeter, AmperePerMeter),
}

/// The inputs of one fix — the field and the seed — as
/// [`CompassDesign::measure`] takes them.
///
/// The seed drives the front-end noise of both axes and, under a fault
/// plan, which faults strike. A fix is a pure function of the design,
/// the input and the plan. A [`FixInput::vector`] carrying
/// [`CompassDesign::axial_fields`] of a heading gives the same bits as
/// the [`FixInput::heading`] fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixInput {
    /// What the fix measures.
    pub field: FixField,
    /// The noise (and fault-activation) seed.
    pub seed: u64,
}

impl FixInput {
    /// A fix with the platform at `true_heading`.
    pub fn heading(true_heading: Degrees, seed: u64) -> Self {
        Self {
            field: FixField::Heading(true_heading),
            seed,
        }
    }

    /// A fix of the explicit axial field vector `(hx, hy)`.
    pub fn vector(hx: AmperePerMeter, hy: AmperePerMeter, seed: u64) -> Self {
        Self {
            field: FixField::Vector(hx, hy),
            seed,
        }
    }
}

/// The immutable measurement core: configuration plus the derived
/// analogue/digital blocks, with no per-fix state.
///
/// Every measurement method takes `&self` and is a pure function of the
/// design and its arguments (noise is re-seeded from the configuration —
/// or an explicit seed — on every run), so a design can be shared across
/// threads (`Sync`) and swept in parallel with deterministic results.
#[derive(Debug, Clone)]
pub struct CompassDesign {
    config: CompassConfig,
    frontend: FrontEnd,
    pair: SensorPair,
    cordic: CordicArctan,
    /// Counter edges per analogue sample — precomputed once so the fast
    /// path never re-derives the clock/grid alignment per fix.
    schedule: ClockSchedule,
}

/// Reusable per-worker state for the duty-only fast path: one detector
/// and one up/down counter, both fully reset at the start of every fix.
///
/// Build one per worker with [`MeasureScratch::for_design`] and pass it
/// to [`CompassDesign::measure`]; results are bit-identical to a fresh
/// scratch's, so the sweep engine can keep a scratch alive across
/// thousands of fixes without allocating. A scratch built for another
/// design gives this design's bits too: the detector is rebuilt from
/// the design's configuration at the start of every axis.
#[derive(Debug, Clone)]
pub struct MeasureScratch {
    detector: PulsePositionDetector,
    counter: UpDownCounter,
}

impl MeasureScratch {
    /// Scratch blocks matching `design`'s detector configuration and the
    /// paper's counter width.
    pub fn for_design(design: &CompassDesign) -> Self {
        Self {
            detector: PulsePositionDetector::new(design.config.frontend.detector),
            counter: UpDownCounter::paper_design(),
        }
    }
}

impl CompassDesign {
    /// Validates and builds the measurement core.
    ///
    /// # Errors
    ///
    /// Any [`BuildError`] from [`CompassConfig::validate`] — bad CORDIC
    /// iteration counts, an analogue grid slower than the counter clock,
    /// or invalid front-end/sensor-pair parameters (which used to panic
    /// inside the block constructors).
    pub fn new(config: CompassConfig) -> Result<Self, BuildError> {
        config.validate()?;
        let window =
            config.frontend.measure_periods as f64 / config.frontend.excitation.frequency().value();
        let schedule = ClockSchedule::new(
            config.frontend.measure_periods * config.frontend.samples_per_period,
            window,
            config.clock.master(),
        );
        Ok(Self {
            frontend: FrontEnd::new(config.channel())
                .map_err(|reason| BuildError::BadFrontEnd { reason })?,
            pair: SensorPair::new(config.pair),
            cordic: CordicArctan::new(config.cordic_iterations),
            schedule,
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &CompassConfig {
        &self.config
    }

    /// The peak excitation field of the front-end — the `H_peak` of the
    /// duty-cycle equation.
    pub fn peak_excitation_field(&self) -> AmperePerMeter {
        self.frontend.peak_excitation_field()
    }

    /// One fix: both axes measured through a caller-owned scratch on the
    /// fast path (under `plan`, if any), then the CORDIC fold.
    ///
    /// This is the one fix entry point; every other `measure_*` method
    /// forwards to it. The detector output of each axis is fed straight
    /// into the up/down counter via the precomputed [`ClockSchedule`] —
    /// no waveform traces, no detector-sample buffer, no clock-domain
    /// resampling pass — and the count is bit-identical to clocking the
    /// counter edge by edge with `sample_at_clock`'s stream of the traced
    /// front-end run. Which faults strike is a
    /// pure function of `(plan, axis, input.seed)` (see the
    /// `fluxcomp-faults` determinism contract); when nothing strikes, the
    /// axis takes the plain fast path, so a zero plan leaves the
    /// bitstream untouched by construction.
    ///
    /// The duty-cycle equation is `duty = 1/2 − H/(2·H_peak)`, so the
    /// counter output is **−count ∝ H**; the CORDIC fold flips the sign —
    /// the "and vice versa" wiring the paper mentions for the detector
    /// polarity.
    pub fn measure(
        &self,
        input: &FixInput,
        plan: Option<&fluxcomp_faults::FaultPlan>,
        scratch: &mut MeasureScratch,
    ) -> Reading {
        let (hx, hy) = self.fields(input.field);
        let x = self.measure_axis(Axis::X, hx, input.seed, plan, scratch);
        let y = self.measure_axis(Axis::Y, hy, input.seed, plan, scratch);
        self.fold_heading(x, y)
    }

    /// Runs one full fix with the platform at `true_heading`, noise (if
    /// configured) seeded from the configuration's `noise_seed`.
    pub fn measure_heading(&self, true_heading: Degrees) -> Reading {
        let input = FixInput::heading(true_heading, self.config.frontend.noise_seed);
        self.measure(&input, None, &mut MeasureScratch::for_design(self))
    }

    /// [`measure`](Self::measure) of a true heading with no fault plan —
    /// the sweep engine's per-worker entry point.
    pub fn measure_heading_scratch(
        &self,
        true_heading: Degrees,
        noise_seed: u64,
        scratch: &mut MeasureScratch,
    ) -> Reading {
        self.measure(&FixInput::heading(true_heading, noise_seed), None, scratch)
    }

    /// [`measure`](Self::measure) of an explicit field vector `(hx, hy)`
    /// — the two axial field components in A/m — with no fault plan.
    pub fn measure_field_scratch(
        &self,
        hx: AmperePerMeter,
        hy: AmperePerMeter,
        noise_seed: u64,
        scratch: &mut MeasureScratch,
    ) -> Reading {
        self.measure(&FixInput::vector(hx, hy, noise_seed), None, scratch)
    }

    /// One health-checked fix from a true heading: measure (under
    /// `plan`, if any), score both axes, and fold the result into a
    /// [`CheckedReading`](crate::degraded::CheckedReading) with a typed
    /// [`FixQuality`](crate::degraded::FixQuality) — `Good` when both
    /// axes pass, `Degraded` (single-axis fallback) when one fails,
    /// `Invalid` (hold last good heading) when both fail.
    pub fn measure_heading_checked(
        &self,
        true_heading: Degrees,
        noise_seed: u64,
        scratch: &mut MeasureScratch,
        plan: Option<&fluxcomp_faults::FaultPlan>,
        tracker: &mut crate::degraded::DegradedTracker,
    ) -> crate::degraded::CheckedReading {
        tracker.assess(self.measure(&FixInput::heading(true_heading, noise_seed), plan, scratch))
    }

    /// One health-checked fix from an explicit field vector. See
    /// [`measure_heading_checked`](Self::measure_heading_checked).
    pub fn measure_field_checked(
        &self,
        hx: AmperePerMeter,
        hy: AmperePerMeter,
        noise_seed: u64,
        scratch: &mut MeasureScratch,
        plan: Option<&fluxcomp_faults::FaultPlan>,
        tracker: &mut crate::degraded::DegradedTracker,
    ) -> crate::degraded::CheckedReading {
        tracker.assess(self.measure(&FixInput::vector(hx, hy, noise_seed), plan, scratch))
    }

    /// The axial field components a fix measures.
    fn fields(&self, field: FixField) -> (AmperePerMeter, AmperePerMeter) {
        match field {
            FixField::Heading(true_heading) => self.axial_fields(true_heading),
            FixField::Vector(hx, hy) => (hx, hy),
        }
    }

    /// One axis on the fast path: the front-end measurement (under the
    /// faults `plan` compiles for this axis and seed) fused with counter
    /// integration through `scratch`.
    fn measure_axis(
        &self,
        axis: Axis,
        h_ext: AmperePerMeter,
        noise_seed: u64,
        plan: Option<&fluxcomp_faults::FaultPlan>,
        scratch: &mut MeasureScratch,
    ) -> AxisMeasurement {
        let faults = plan.map_or_else(fluxcomp_faults::FixFaults::none, |plan| {
            plan.compile(fault_axis_index(axis), noise_seed)
        });
        // One span covers the fused excitation→detector→counter pass.
        let _excitation = fluxcomp_obs::span("compass.stage.excitation");
        let MeasureScratch { detector, counter } = scratch;
        counter.reset();
        let schedule = &self.schedule;
        let outcome = self.frontend.measure_into_faulted(
            h_ext,
            noise_seed,
            detector,
            &faults,
            |index, up| counter.clock_n(up, schedule.edges_at(index)),
        );
        AxisMeasurement {
            axis,
            duty: outcome.duty,
            count: counter.value(),
            clipped: outcome.clipped,
        }
    }

    /// Runs one axis's front-end on the fast path and passes its
    /// detector output to `on_edge` once per master-clock edge: the bit
    /// stream the up/down counter integrates, for a counter that takes
    /// one edge at a time.
    pub(crate) fn clock_edges(
        &self,
        h_ext: AmperePerMeter,
        noise_seed: u64,
        mut on_edge: impl FnMut(bool),
    ) {
        let mut detector = PulsePositionDetector::new(self.config.frontend.detector);
        self.frontend
            .measure_into(h_ext, noise_seed, &mut detector, |index, up| {
                (0..self.schedule.edges_at(index)).for_each(|_| on_edge(up));
            });
    }

    /// CORDIC + polarity fold shared by every fix entry point.
    fn fold_heading(&self, x: AxisMeasurement, y: AxisMeasurement) -> Reading {
        let _cordic_stage = fluxcomp_obs::span("compass.stage.cordic");
        let (heading, cycles) = match self.cordic.heading(-x.count, -y.count) {
            Ok(r) => (r.heading, r.cycles),
            // A fully null field (shielded sensor) or a datapath
            // overflow: hold 0° like the hardware's result register
            // would.
            Err(_) => (Degrees::ZERO, self.cordic.iterations()),
        };
        Reading {
            heading,
            x,
            y,
            cordic_cycles: cycles,
        }
    }

    /// The axial field components `(hx, hy)` the sensor pair sees with
    /// the platform at `true_heading` in the configured earth field —
    /// the field vector a [`FixInput::vector`] must carry to reproduce
    /// the [`FixInput::heading`] fix bit for bit.
    pub fn axial_fields(&self, true_heading: Degrees) -> (AmperePerMeter, AmperePerMeter) {
        self.pair.axial_fields(&self.config.field, true_heading)
    }

    /// The floating-point reference heading for the current field and a
    /// true heading — the oracle the digital pipeline is compared
    /// against.
    pub fn reference_heading(&self, true_heading: Degrees) -> Degrees {
        let (hx, hy) = self.pair.axial_fields(&self.config.field, true_heading);
        Degrees::atan2(hy.value(), hx.value()).normalized()
    }

    /// Total counter clock edges in one axis's measurement window — the
    /// full-scale `|count|` reached when the axial field equals
    /// `±H_peak` (`count ≈ full_scale · (2·duty − 1)`), and the scale
    /// factor the degraded-mode health checks use to cross-validate a
    /// count against its duty.
    pub fn counter_full_scale(&self) -> i64 {
        self.schedule.total_edges() as i64
    }
}

/// The activation-draw axis index of the fault subsystem (0 = X, 1 = Y).
fn fault_axis_index(axis: Axis) -> u32 {
    match axis {
        Axis::X => 0,
        Axis::Y => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompassConfig;
    use fluxcomp_rtl::counter::sample_at_clock;

    fn compass() -> CompassDesign {
        CompassDesign::new(CompassConfig::paper_design()).expect("valid config")
    }

    /// The per-edge reference fix: each axis's traced front-end run, its
    /// measurement-window detector samples resampled onto master-clock
    /// edges by `sample_at_clock` and integrated edge by edge, then the
    /// CORDIC fold.
    fn per_edge_fix(design: &CompassDesign, input: &FixInput) -> Reading {
        let fe = &design.config.frontend;
        let window = fe.measure_periods as f64 / fe.excitation.frequency().value();
        let clock = design.config.clock.master();
        let measure = |axis, h_ext| {
            let traced = design.frontend.run_with_seed(h_ext, input.seed);
            let stream = sample_at_clock(&traced.detector_samples, window, clock);
            AxisMeasurement {
                axis,
                duty: traced.duty,
                count: UpDownCounter::paper_design().run(stream),
                clipped: traced.clipped,
            }
        };
        let (hx, hy) = design.fields(input.field);
        design.fold_heading(measure(Axis::X, hx), measure(Axis::Y, hy))
    }

    #[test]
    fn cardinal_headings_within_one_degree() {
        let c = compass();
        for deg in [0.0, 90.0, 180.0, 270.0] {
            let r = c.measure_heading(Degrees::new(deg));
            let err = r.heading.angular_distance(Degrees::new(deg)).value();
            assert!(err <= 1.0, "heading {deg}: got {}, err {err}", r.heading);
            assert_eq!(r.cordic_cycles, 8);
        }
    }

    #[test]
    fn oblique_headings_within_one_degree() {
        let c = compass();
        for deg in [33.0, 123.0, 201.5, 287.25, 359.0] {
            let r = c.measure_heading(Degrees::new(deg));
            let err = r.heading.angular_distance(Degrees::new(deg)).value();
            assert!(err <= 1.0, "heading {deg}: got {}, err {err}", r.heading);
        }
    }

    #[test]
    fn fast_path_matches_traced_path_bitwise() {
        let mut cfg = CompassConfig::paper_design();
        cfg.frontend.pickup_noise_rms = 2e-3;
        cfg.frontend.detector.hysteresis = fluxcomp_units::Volt::new(0.016);
        let design = CompassDesign::new(cfg).unwrap();
        let seed = design.config().frontend.noise_seed;
        for deg in [0.0, 45.0, 123.0, 287.25, 359.0] {
            let truth = Degrees::new(deg);
            let fast = design.measure(
                &FixInput::heading(truth, seed),
                None,
                &mut MeasureScratch::for_design(&design),
            );
            let traced = per_edge_fix(&design, &FixInput::heading(truth, seed));
            assert_eq!(
                fast.heading.value().to_bits(),
                traced.heading.value().to_bits(),
                "heading at {deg}"
            );
            for (f, t) in [(&fast.x, &traced.x), (&fast.y, &traced.y)] {
                assert_eq!(f.count, t.count, "count at {deg}");
                assert_eq!(f.duty.to_bits(), t.duty.to_bits(), "duty at {deg}");
                assert_eq!(f.clipped, t.clipped, "clipped at {deg}");
            }
        }
    }

    /// The folded front-end under the fused counter: for the noise-free
    /// configurations, every fast fix over 360 headings at the paper's
    /// 1+8 period split, and over field vectors up to 1.2·H_peak and
    /// other splits every 10°, equals the per-edge reference bit for bit.
    /// (The `afe` fold test covers the sample stream itself on the full
    /// grid.)
    #[test]
    fn folded_fixes_match_traced_fixes_bitwise() {
        fn assert_same(fast: &Reading, traced: &Reading, at: &str) {
            assert_eq!(
                fast.heading.value().to_bits(),
                traced.heading.value().to_bits(),
                "heading {at}"
            );
            for (f, t) in [(&fast.x, &traced.x), (&fast.y, &traced.y)] {
                assert_eq!(f.count, t.count, "count {at}");
                assert_eq!(f.duty.to_bits(), t.duty.to_bits(), "duty {at}");
                assert_eq!(f.clipped, t.clipped, "clipped {at}");
            }
        }
        let paper = CompassConfig::paper_design();
        let mut clipping = paper.clone();
        clipping.pair.element.r_excitation = fluxcomp_units::Ohm::new(2_000.0);
        let mut hysteretic = paper.clone();
        hysteretic.pair.element =
            fluxcomp_fluxgate::transducer::FluxgateParams::adapted_hysteretic(0.1);
        let mut offset = paper.clone();
        offset.frontend.detector.offset = fluxcomp_units::Volt::new(3e-3);
        let configs = [
            ("paper", paper),
            ("clipping", clipping),
            ("hysteretic", hysteretic),
            ("offset", offset),
        ];
        std::thread::scope(|s| {
            for (name, base) in configs {
                s.spawn(move || {
                    for (settle, measure) in [(1, 8), (0, 2), (2, 3)] {
                        let mut cfg = base.clone();
                        cfg.frontend.settle_periods = settle;
                        cfg.frontend.measure_periods = measure;
                        let design = CompassDesign::new(cfg).unwrap();
                        let mut scratch = MeasureScratch::for_design(&design);
                        let reach = design.peak_excitation_field() * 1.2;
                        for k in 0..360 {
                            let at = format!("{name} {settle}+{measure} at {k}");
                            if settle == 1 || k % 10 == 0 {
                                let truth = Degrees::new(k as f64);
                                let fast = design.measure_heading_scratch(truth, 5, &mut scratch);
                                let traced = per_edge_fix(&design, &FixInput::heading(truth, 5));
                                assert_same(&fast, &traced, &at);
                            }
                            if k % 10 != 0 {
                                continue;
                            }
                            let angle = (k as f64).to_radians();
                            let (hx, hy) = (reach * angle.cos(), reach * angle.sin());
                            let fast = design.measure_field_scratch(hx, hy, 5, &mut scratch);
                            let traced = per_edge_fix(&design, &FixInput::vector(hx, hy, 5));
                            assert_same(&fast, &traced, &format!("field {at}"));
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn reused_scratch_matches_fresh_state() {
        let design = CompassDesign::new(CompassConfig::paper_design()).unwrap();
        let seed = design.config().frontend.noise_seed;
        let mut scratch = MeasureScratch::for_design(&design);
        for deg in [10.0, 200.0, 355.5, 10.0] {
            let truth = Degrees::new(deg);
            let reused = design.measure_heading_scratch(truth, seed, &mut scratch);
            let fresh = design.measure(
                &FixInput::heading(truth, seed),
                None,
                &mut MeasureScratch::for_design(&design),
            );
            assert_eq!(
                reused.heading.value().to_bits(),
                fresh.heading.value().to_bits(),
                "at {deg}"
            );
            assert_eq!(reused.x.count, fresh.x.count);
            assert_eq!(reused.y.count, fresh.y.count);
        }
    }

    #[test]
    fn field_vector_fix_matches_heading_fix_bitwise() {
        // A fix from the explicit field vector the pair would project is
        // the same computation as a fix from the heading itself, with or
        // without a fault plan.
        use fluxcomp_faults::{AxisSel, FaultKind, FaultPlan, FaultSpec};
        let design = CompassDesign::new(CompassConfig::paper_design()).unwrap();
        let seed = design.config().frontend.noise_seed;
        let mut scratch = MeasureScratch::for_design(&design);
        let mixed = FaultPlan::new(0xDE7E12)
            .with(FaultSpec {
                kind: FaultKind::OpenPickup,
                axis: AxisSel::X,
                rate: 0.3,
            })
            .with(FaultSpec {
                kind: FaultKind::NoiseBurst {
                    rms: 0.05,
                    from: 0.2,
                    until: 0.6,
                },
                axis: AxisSel::Both,
                rate: 0.5,
            });
        assert!(
            (0..2).any(|axis| !mixed.compile(axis, seed).is_none()),
            "the plan must strike this fix"
        );
        for plan in [None, Some(&mixed)] {
            for deg in [0.0, 33.0, 123.0, 287.25, 359.0] {
                let truth = Degrees::new(deg);
                let (hx, hy) = design.axial_fields(truth);
                let from_field =
                    design.measure(&FixInput::vector(hx, hy, seed), plan, &mut scratch);
                let from_heading =
                    design.measure(&FixInput::heading(truth, seed), plan, &mut scratch);
                assert_eq!(
                    from_field.heading.value().to_bits(),
                    from_heading.heading.value().to_bits(),
                    "at {deg}"
                );
                assert_eq!(from_field.x.count, from_heading.x.count);
                assert_eq!(from_field.y.count, from_heading.y.count);
                assert_eq!(
                    from_field.x.duty.to_bits(),
                    from_heading.x.duty.to_bits(),
                    "at {deg}"
                );
            }
        }
    }

    #[test]
    fn foreign_scratch_gives_the_designs_own_bits() {
        // A scratch built for a design with another detector must not
        // leak that detector into this design's fixes.
        let design = CompassDesign::new(CompassConfig::paper_design()).unwrap();
        let mut other = CompassConfig::paper_design();
        other.frontend.detector.hysteresis = fluxcomp_units::Volt::new(0.016);
        let other = CompassDesign::new(other).unwrap();
        let seed = design.config().frontend.noise_seed;
        let mut own = MeasureScratch::for_design(&design);
        let mut foreign = MeasureScratch::for_design(&other);
        for k in 0..36 {
            let truth = Degrees::new(k as f64 * 10.0);
            let expected = design.measure_heading_scratch(truth, seed, &mut own);
            let got = design.measure_heading_scratch(truth, seed, &mut foreign);
            assert_eq!(
                got.heading.value().to_bits(),
                expected.heading.value().to_bits(),
                "heading at {k}"
            );
            for (g, e) in [(&got.x, &expected.x), (&got.y, &expected.y)] {
                assert_eq!(g.count, e.count, "count at {k}");
                assert_eq!(g.duty.to_bits(), e.duty.to_bits(), "duty at {k}");
            }
        }
    }

    #[test]
    fn design_is_shareable_across_threads() {
        let design = CompassDesign::new(CompassConfig::paper_design()).unwrap();
        let r = std::thread::scope(|s| {
            let h = s.spawn(|| design.measure_heading(Degrees::new(90.0)));
            h.join().expect("no panic")
        });
        assert!(r.heading.angular_distance(Degrees::new(90.0)).value() <= 1.0);
    }

    #[test]
    fn counts_have_expected_magnitude_and_sign() {
        let c = compass();
        // North: full field on X, none on Y.
        let r = c.measure_heading(Degrees::new(0.0));
        assert!(-r.x.count > 0, "x count should be positive: {}", r.x.count);
        assert!(r.y.count.abs() < 6, "y count should be ≈0: {}", r.y.count);
        // Expected |x|: f_clk·T_window·H/H_peak ≈ 4194·(11.94/240) ≈ 209.
        let expect = 4194.0 * (11.936_621 / 240.0);
        assert!(
            ((-r.x.count) as f64 - expect).abs() < 12.0,
            "x = {} vs expected {expect}",
            -r.x.count
        );
        assert!(!r.x.clipped && !r.y.clipped);
    }

    #[test]
    fn zero_field_reads_zero_heading_without_panic() {
        let mut cfg = CompassConfig::paper_design();
        cfg.field = fluxcomp_fluxgate::earth::EarthField::horizontal(
            fluxcomp_units::Tesla::from_microtesla(0.0),
        );
        let c = CompassDesign::new(cfg).unwrap();
        let r = c.measure_heading(Degrees::new(45.0));
        assert_eq!(r.heading, Degrees::ZERO);
    }

    #[test]
    fn reference_heading_matches_truth_for_ideal_pair() {
        let c = compass();
        for deg in [0.0, 45.0, 123.0, 359.5] {
            let reference = c.reference_heading(Degrees::new(deg));
            assert!(reference.angular_distance(Degrees::new(deg)).value() < 1e-9);
        }
    }

    #[test]
    fn bad_configs_rejected() {
        let mut cfg = CompassConfig::paper_design();
        cfg.cordic_iterations = 0;
        assert_eq!(
            CompassDesign::new(cfg).unwrap_err(),
            BuildError::BadCordicIterations { got: 0 }
        );
        let mut cfg = CompassConfig::paper_design();
        cfg.frontend.samples_per_period = 16; // 128 kHz ≪ 4.19 MHz
        assert!(matches!(
            CompassDesign::new(cfg).unwrap_err(),
            BuildError::SamplingTooCoarse { .. }
        ));
        // Field combos that used to panic inside the block constructors
        // now come back as errors through the same path.
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.element.magnetic_length = 0.0;
        assert!(matches!(
            CompassDesign::new(cfg).unwrap_err(),
            BuildError::BadFrontEnd { .. }
        ));
        for rms in [-1e-3, f64::NAN, f64::INFINITY] {
            let mut cfg = CompassConfig::paper_design();
            cfg.frontend.pickup_noise_rms = rms;
            assert_eq!(
                CompassDesign::new(cfg).unwrap_err(),
                BuildError::BadFrontEnd {
                    reason: fluxcomp_afe::frontend::FrontEndError::BadPickupNoise
                },
                "noise RMS {rms}"
            );
        }
        let mut cfg = CompassConfig::paper_design();
        cfg.pair.gain_mismatch = f64::NAN;
        assert!(matches!(
            CompassDesign::new(cfg).unwrap_err(),
            BuildError::BadSensorPair { .. }
        ));
        // Every constructor validates through `CompassConfig::validate`,
        // so all three reject a bad configuration with the same typed
        // error instead of panicking in a block constructor.
        use crate::baseline::SecondHarmonicCompass;
        use crate::gate_level::GateLevelCompass;
        use fluxcomp_afe::frontend::FrontEndError;
        use fluxcomp_units::Volt;
        let front_end = |reason| BuildError::BadFrontEnd { reason };
        type Case = (&'static str, fn(&mut CompassConfig), BuildError);
        let cases: [Case; 6] = [
            (
                "bad detector",
                |c| c.frontend.detector.hysteresis = Volt::new(-1e-3),
                front_end(FrontEndError::BadDetector {
                    reason: "hysteresis must be finite and non-negative",
                }),
            ),
            (
                "bad noise",
                |c| c.frontend.pickup_noise_rms = f64::NAN,
                front_end(FrontEndError::BadPickupNoise),
            ),
            (
                "too few samples",
                |c| c.frontend.samples_per_period = 8,
                BuildError::SamplingTooCoarse {
                    sample_rate: 64_000.0,
                    clock: 4_194_304.0,
                },
            ),
            (
                "zero measurement periods",
                |c| c.frontend.measure_periods = 0,
                front_end(FrontEndError::NoMeasurePeriods),
            ),
            (
                "bad element",
                |c| c.pair.element.magnetic_length = 0.0,
                front_end(FrontEndError::BadSensor {
                    reason: "magnetic length must be positive",
                }),
            ),
            (
                "bad pair gain",
                |c| c.pair.gain_mismatch = 0.0,
                BuildError::BadSensorPair {
                    reason: "gain mismatch must be positive and finite",
                },
            ),
        ];
        for (what, spoil, expected) in cases {
            let mut cfg = CompassConfig::paper_design();
            spoil(&mut cfg);
            let errors = [
                CompassDesign::new(cfg.clone()).unwrap_err(),
                GateLevelCompass::new(cfg.clone()).unwrap_err(),
                SecondHarmonicCompass::new(cfg, 10).unwrap_err(),
            ];
            for (constructor, err) in errors.iter().enumerate() {
                assert_eq!(err, &expected, "{what}: constructor {constructor}");
            }
        }
    }
}
