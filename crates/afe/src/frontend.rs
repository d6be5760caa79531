//! Transient simulation of the complete analogue front-end.
//!
//! [`FrontEnd`] wires the triangular oscillator, a V-I converter, one
//! fluxgate element and the pulse-position detector into the transient
//! readout chain of Fig. 1's analogue section, and runs it over a
//! configurable number of excitation periods.
//!
//! One kernel steps the sensor and the detector, fed from a precomputed
//! [`ExcitationTable`] (built once per channel — the drive chain is
//! periodic and field-independent). It has two callers:
//!
//! * [`FrontEnd::measure`] — the **duty-only fast path**: tallies the
//!   detector output inline (duty, clipping, pulse edges) with zero
//!   per-sample allocation. This is what every heading fix, sweep and
//!   Monte-Carlo trial runs.
//! * [`FrontEnd::run`] — the **traced run**: the same kernel with
//!   folding off and every noise draw evaluated, which additionally
//!   records the full `i_exc`/`v_exc`/`v_pickup`/`detector` waveform set
//!   through a per-sample tap, for the Fig. 3 / Fig. 4 reproductions and
//!   the spectrum tests.
//!
//! The fast path computes only what can change an output bit. The
//! drive repeats every period and the sensor is stateless, so it
//! evaluates the clean pickup EMF once per table sample, as one row
//! that serves every period. On a noise-free channel it stops stepping
//! once the detector state repeats from one excitation period to the
//! next and replays the repeating period instead, and it evaluates the
//! row only inside each pulse's window: outside it the EMF is provably
//! too small to move either comparator, so zero stands in for it (see
//! `windows` for the proof). A noisy channel takes each excitation
//! period in two phases. It first draws the period's noise, in stream
//! order, into one reusable buffer of stepping values, evaluating the
//! Gaussian value only when the draw could move a comparator across a
//! trip point and leaving a value that steps the detector alike
//! otherwise (see [`FrontEnd::measure_into`]); then it steps the
//! detector through the buffer. Its row holds the EMF only inside
//! windows cut at half the release point where one noise floor covers
//! every sample outside them. Inside a noise burst's window it brackets
//! both streams' values from table lookups and evaluates them only when
//! the bracketed sum straddles a trip point, and it steps the detector
//! there with its branch-free step. The same bits as the traced run,
//! less work; this module's tests pin the two against each other.
//!
//! A function this module or the compass calls once per analogue
//! sample from another crate is `#[inline]` (`CoreModel::mu_diff`,
//! `UpDownCounter::clock_n`, `ClockSchedule::edges_at`): the workspace
//! builds without LTO, and the benchmark is a workspace of its own, so
//! no profile setting reaches across crates and the attribute is the
//! only way the call can be inlined. [`PulsePositionDetector::step`]
//! and the comparator step it makes are `#[inline]` as well, because
//! the kernel runs measurably slower when either is left out of line.
//!
//! The closed-form expectation, derived in the [`detector`](crate::detector)
//! docs, is `duty = 1/2 − H_ext/(2·H_peak)`; the simulation reproduces it
//! including all modelled non-idealities (comparator thresholds, noise,
//! clipping, hysteretic cores).

use crate::detector::{DetectorConfig, PulsePositionDetector};
use crate::excitation::ExcitationTable;
use crate::oscillator::TriangleWave;
use crate::vi_converter::ViConverter;
use fluxcomp_fluxgate::core_model::Sweep;
use fluxcomp_fluxgate::noise::GaussianNoise;
use fluxcomp_fluxgate::transducer::{Fluxgate, FluxgateParams};
use fluxcomp_msim::time::SimTime;
use fluxcomp_msim::trace::TraceSet;
use fluxcomp_units::magnetics::AmperePerMeter;
use fluxcomp_units::si::{Seconds, Volt};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Why a front-end channel configuration was rejected.
///
/// Each variant corresponds to one structural constraint of the readout
/// chain, so callers that relay the failure over a wire (the serve
/// layer's typed statuses) or fold it into a larger build error
/// (`compass::BuildError::BadFrontEnd`) can match on the cause instead
/// of parsing a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FrontEndError {
    /// The analogue grid is too coarse to resolve the pulse shape:
    /// fewer than 16 samples per excitation period.
    TooFewSamplesPerPeriod {
        /// The rejected `samples_per_period`.
        got: usize,
    },
    /// `measure_periods == 0` — there would be no measurement window.
    NoMeasurePeriods,
    /// The sensor element parameters are invalid.
    BadSensor {
        /// The message [`FluxgateParams::check`] rejected them with.
        reason: &'static str,
    },
    /// `pickup_noise_rms` is negative, NaN or infinite.
    BadPickupNoise,
    /// The detector design is invalid.
    BadDetector {
        /// The message [`DetectorConfig::check`] rejected it with.
        reason: &'static str,
    },
}

impl fmt::Display for FrontEndError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontEndError::TooFewSamplesPerPeriod { got } => {
                write!(f, "need at least 16 samples per period, got {got}")
            }
            FrontEndError::NoMeasurePeriods => write!(f, "need at least one measurement period"),
            FrontEndError::BadSensor { reason } => write!(f, "invalid sensor element: {reason}"),
            FrontEndError::BadPickupNoise => {
                write!(f, "pickup noise RMS must be finite and non-negative")
            }
            FrontEndError::BadDetector { reason } => write!(f, "invalid detector: {reason}"),
        }
    }
}

impl Error for FrontEndError {}

/// Configuration of one front-end channel.
#[derive(Debug, Clone)]
pub struct FrontEndConfig {
    /// The excitation waveform.
    pub excitation: TriangleWave,
    /// The V-I converter driving the sensor.
    pub vi: ViConverter,
    /// The sensor element.
    pub sensor: FluxgateParams,
    /// The pulse detector.
    pub detector: DetectorConfig,
    /// RMS noise added to the pickup voltage, in volts.
    pub pickup_noise_rms: f64,
    /// Noise seed.
    pub noise_seed: u64,
    /// Analogue samples per excitation period.
    pub samples_per_period: usize,
    /// Settling periods discarded before measurement.
    pub settle_periods: usize,
    /// Measurement periods.
    pub measure_periods: usize,
}

impl FrontEndConfig {
    /// The paper's operating point: 12 mA p-p @ 8 kHz through the adapted
    /// sensor, paper detector design, no noise, 4096 samples/period
    /// (the analogue grid is synchronous with the excitation, so the
    /// detector edges quantise to it — 4096 keeps that quantisation well
    /// below the counter's own), 1 settle + 4 measure periods.
    pub fn paper_design() -> Self {
        Self {
            excitation: TriangleWave::paper_excitation(),
            vi: ViConverter::paper_design(),
            sensor: FluxgateParams::adapted(),
            detector: DetectorConfig::paper_design(),
            pickup_noise_rms: 0.0,
            noise_seed: 0x5EED,
            samples_per_period: 4096,
            settle_periods: 1,
            measure_periods: 4,
        }
    }

    /// Validates the configuration without constructing a channel.
    ///
    /// Returns the same [`FrontEndError`] [`FrontEnd::new`] reports, so
    /// callers can check a configuration before handing it over.
    pub fn check(&self) -> Result<(), FrontEndError> {
        if self.samples_per_period < 16 {
            return Err(FrontEndError::TooFewSamplesPerPeriod {
                got: self.samples_per_period,
            });
        }
        if self.measure_periods == 0 {
            return Err(FrontEndError::NoMeasurePeriods);
        }
        if !(self.pickup_noise_rms >= 0.0 && self.pickup_noise_rms.is_finite()) {
            return Err(FrontEndError::BadPickupNoise);
        }
        self.detector
            .check()
            .map_err(|reason| FrontEndError::BadDetector { reason })?;
        self.sensor
            .check()
            .map_err(|reason| FrontEndError::BadSensor { reason })
    }
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        Self::paper_design()
    }
}

/// Result of a traced front-end transient run.
#[derive(Debug, Clone)]
pub struct FrontEndResult {
    /// Measured high fraction of the detector output over the
    /// measurement periods.
    pub duty: f64,
    /// Detector output samples (measurement periods only), in time order.
    pub detector_samples: Vec<bool>,
    /// Full waveform set: `i_exc`, `v_exc`, `v_pickup`, `detector`.
    pub traces: TraceSet,
    /// `true` if the V-I converter clipped at any point in the run.
    pub clipped: bool,
}

impl FrontEndResult {
    /// The field estimate implied by the duty cycle, inverted through the
    /// ideal detector equation `duty = 1/2 − H/(2·H_peak)`.
    pub fn field_estimate(&self, h_peak: AmperePerMeter) -> AmperePerMeter {
        h_peak * ((0.5 - self.duty) * 2.0)
    }
}

/// Result of a duty-only fast measurement — the tallies the digital
/// counter side actually consumes, with no waveform capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureResult {
    /// Measured high fraction of the detector output over the
    /// measurement periods. Bit-identical to the traced
    /// [`FrontEndResult::duty`] for the same configuration and seed.
    pub duty: f64,
    /// `true` if the V-I converter clips anywhere in the (periodic)
    /// drive.
    pub clipped: bool,
    /// Detector output edges over the whole run (settle + measurement).
    pub pulse_edges: u64,
    /// Detector-high samples within the measurement window.
    pub high_samples: u64,
    /// Total samples in the measurement window.
    pub measure_samples: u64,
}

impl MeasureResult {
    /// The field estimate implied by the duty cycle, inverted through the
    /// ideal detector equation `duty = 1/2 − H/(2·H_peak)`.
    pub fn field_estimate(&self, h_peak: AmperePerMeter) -> AmperePerMeter {
        h_peak * ((0.5 - self.duty) * 2.0)
    }
}

/// One analogue front-end channel (oscillator → V-I → sensor → detector).
#[derive(Debug, Clone)]
pub struct FrontEnd {
    config: FrontEndConfig,
    sensor: Fluxgate,
    table: ExcitationTable,
    /// The table halves a noise-free clean row may be windowed over;
    /// `None` when the table or the detector rules windows out.
    windowing: Option<Windowing>,
}

/// What [`FrontEnd::windows`] needs to know about a channel, found once
/// when it is built.
#[derive(Debug, Clone)]
struct Windowing {
    /// The two halves of the excitation table (the rising and the
    /// falling sweep): each one run of samples with a single `dh_dt`,
    /// along which `h_drive` strictly rises if `dh_dt > 0` and strictly
    /// falls otherwise.
    halves: [Range<usize>; 2],
    /// The comparators' release point `release > 0`: every value within
    /// `±band`, `band = release·(1 − 1e-9)`, steps the detector exactly
    /// as [`Volt::ZERO`] does.
    release: f64,
    /// The noise bound `b = (band − release/2)·(1 − 1e-9)` outside the
    /// windows of a noisy row: for every `|v| ≤ release/2` and `|x| ≤ b`,
    /// `v + x` steps the detector as zero does. `None` if the
    /// comparators' arithmetic does not bear that out at `±(release/2 + b)`.
    outside: Option<f64>,
}

impl Windowing {
    /// The windowing of `table` under `detector`, or `None` if the table
    /// clips, does not split into two such halves, or zero does not step
    /// the detector alike with every EMF up to its release point in
    /// magnitude.
    fn new(table: &ExcitationTable, detector: &DetectorConfig) -> Option<Self> {
        let samples = table.samples();
        let turn = samples.iter().position(|d| d.dh_dt != samples[0].dh_dt)?;
        let halves = [0..turn, turn..samples.len()];
        let strict_half = |half: &Range<usize>| {
            let run = &samples[half.clone()];
            let dh_dt = run[0].dh_dt;
            run.iter().all(|d| d.dh_dt == dh_dt)
                && run.windows(2).all(|w| {
                    if dh_dt > 0.0 {
                        w[0].h_drive < w[1].h_drive
                    } else {
                        w[0].h_drive > w[1].h_drive
                    }
                })
        };
        if table.any_clips() || !halves.iter().all(strict_half) {
            return None;
        }
        // The positive comparator releases below `release` and the
        // negative one above `−release`; check the bands with the
        // comparators' own arithmetic.
        let release = trip_points(detector)[0];
        let band = release * (1.0 - 1e-9);
        let probe = PulsePositionDetector::new(*detector);
        let alike = |v: Volt| probe.steps_alike(v, Volt::ZERO) && probe.steps_alike(-v, Volt::ZERO);
        if !(release > 0.0 && alike(Volt::new(band))) {
            return None;
        }
        let level = release / 2.0;
        let b = (band - level) * (1.0 - 1e-9);
        let outside = alike(Volt::new(level) + Volt::new(b)).then_some(b);
        Some(Self {
            halves,
            release,
            outside,
        })
    }
}

/// The most draws outside its windows a noisy row may evaluate, as a
/// share of those draws: at the outside floor's share or above, the full
/// row is cheaper to build and keeps its per-sample floors. The paper
/// design at 2 mV evaluates ~4e-5 of them.
const LAZY_SHARE: f64 = 1e-3;

/// Output toggles one scanned period may record for folding; a period
/// with more falls back to the plain scan. The paper design toggles
/// twice per period.
const FOLD_TOGGLES: usize = 16;

/// How the measurement kernel steps the detector.
#[derive(Debug, Clone, Default)]
struct Stepping {
    /// When set, overrides the detector output; the detector is still
    /// stepped.
    stuck: Option<bool>,
    /// The run samples on which the detector takes its branch-free
    /// [`step_loud`](PulsePositionDetector::step_loud): a noise burst
    /// drives them across the trip points at random.
    loud: Range<usize>,
}

/// The detector output of one excitation period: its toggles (the
/// sample index within the period and the new level, in time order)
/// and the level the period ends at, which the next period starts from.
#[derive(Debug)]
struct Toggles<const CAP: usize> {
    at: Vec<(usize, bool)>,
    level: bool,
}

impl<const CAP: usize> Toggles<CAP> {
    /// No toggles yet, at the output level of a fresh detector.
    fn new(level: bool) -> Self {
        Self {
            at: Vec::with_capacity(CAP),
            level,
        }
    }

    /// Forgets the toggles, keeping the level.
    fn clear(&mut self) {
        self.at.clear();
    }

    /// Records a toggle.
    #[inline(always)]
    fn push(&mut self, sample: usize, level: bool) {
        self.at.push((sample, level));
    }

    /// Whether the period toggled more often than folding allows.
    fn overflowed(&self) -> bool {
        self.at.len() > CAP
    }

    fn len(&self) -> usize {
        self.at.len()
    }

    /// Replays one period of `samples` outputs that starts at output
    /// level `from_level` as runs of equal outputs, passing each run's
    /// indices, offset by `offset`, and level to `emit` in time order.
    fn replay(
        &self,
        from_level: bool,
        offset: usize,
        samples: usize,
        mut emit: impl FnMut(Range<usize>, bool),
    ) {
        let mut level = from_level;
        let mut from = 0;
        for &(at, next) in &self.at {
            emit(offset + from..offset + at, level);
            level = next;
            from = at;
        }
        emit(offset + from..offset + samples, level);
    }
}

/// Where the kernel sends the detector output of the measurement
/// samples: one call per run of equal outputs with the run's sample
/// indices, in time order. The kernel takes it as a trait object, so it
/// is compiled once, in this crate, whatever closure a caller passes to
/// [`FrontEnd::measure_into`].
type Runs<'a> = &'a mut dyn FnMut(Range<usize>, bool);

/// The runs sink that passes every sample of each run to `on_sample`.
///
/// This loop is the one part of the kernel compiled once per caller
/// crate, and on a noise-free channel it is the hot one: a sample's
/// `on_sample` is a few instructions. Stepped one sample per iteration,
/// its speed moved ~10 % with where the linker placed it, so two
/// byte-identical copies in one binary could time that far apart. Eight
/// samples per iteration keep that spread to a few percent.
fn each_sample(mut on_sample: impl FnMut(usize, bool)) -> impl FnMut(Range<usize>, bool) {
    move |run, out| {
        let mut index = run.start;
        while index + 8 <= run.end {
            (index..index + 8).for_each(|index| on_sample(index, out));
            index += 8;
        }
        (index..run.end).for_each(|index| on_sample(index, out));
    }
}

/// Where the kernel takes each excitation period's stepping values
/// from: the pickup EMF of every sample, noise included.
trait Periods {
    /// The values the detector steps with through the period that starts
    /// at run sample `first`, one per table sample; `first` counts from
    /// the first settle sample.
    fn period(&mut self, first: usize) -> &[Volt];
}

/// A noise-free row: every period steps through the same values.
impl Periods for &[Volt] {
    fn period(&mut self, _: usize) -> &[Volt] {
        self
    }
}

/// One period's buffer, which `fill(first, buffer)` refills for each
/// period in turn.
struct Filled<F> {
    buffer: Vec<Volt>,
    fill: F,
}

impl<F: FnMut(usize, &mut [Volt])> Filled<F> {
    fn new(samples: usize, fill: F) -> Self {
        Self {
            buffer: vec![Volt::ZERO; samples],
            fill,
        }
    }
}

impl<F: FnMut(usize, &mut [Volt])> Periods for Filled<F> {
    fn period(&mut self, first: usize) -> &[Volt] {
        (self.fill)(first, &mut self.buffer);
        &self.buffer
    }
}

/// What [`FrontEnd::scan_period`] threads through the samples of one
/// period: where the period starts, the values its samples step with,
/// the output level so far, and the tap that sees each sample.
struct Scan<'a, T, const CAP: usize> {
    first: usize,
    values: &'a [Volt],
    stuck: Option<bool>,
    detector: &'a mut PulsePositionDetector,
    level: bool,
    toggles: &'a mut Toggles<CAP>,
    tap: T,
}

impl<T, const CAP: usize> Scan<'_, T, CAP>
where
    T: FnMut(usize, usize, Volt, bool),
{
    /// Steps the period's samples `js`, with the detector's branch-free
    /// [`step_loud`](PulsePositionDetector::step_loud) if `LOUD`.
    #[inline(always)]
    fn samples<const LOUD: bool>(&mut self, js: Range<usize>) {
        for j in js {
            let v_pickup = self.values[j];
            let mut out = if LOUD {
                self.detector.step_loud(v_pickup)
            } else {
                self.detector.step(v_pickup)
            };
            if let Some(stuck) = self.stuck {
                out = stuck;
            }
            if out != self.level {
                self.toggles.push(j, out);
                self.level = out;
            }
            (self.tap)(self.first + j, j, v_pickup, out);
        }
    }
}

impl FrontEnd {
    /// Builds the channel, precomputing one period of the excitation
    /// drive chain (shared by every subsequent run and measurement).
    ///
    /// # Errors
    ///
    /// The [`FrontEndConfig::check`] error if `samples_per_period < 16`,
    /// `measure_periods == 0`, the pickup noise RMS is negative or not
    /// finite, or the sensor parameters are invalid.
    pub fn new(config: FrontEndConfig) -> Result<Self, FrontEndError> {
        config.check()?;
        let sensor = Fluxgate::new(config.sensor);
        let table = ExcitationTable::build(
            &config.excitation,
            &config.vi,
            &sensor,
            config.samples_per_period,
        );
        let windowing = Windowing::new(&table, &config.detector);
        Ok(Self {
            config,
            sensor,
            table,
            windowing,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &FrontEndConfig {
        &self.config
    }

    /// The sensor element.
    pub fn sensor(&self) -> &Fluxgate {
        &self.sensor
    }

    /// The precomputed one-period excitation drive table.
    pub fn excitation_table(&self) -> &ExcitationTable {
        &self.table
    }

    /// The peak excitation field the configured drive produces (after
    /// V-I compliance limiting).
    pub fn peak_excitation_field(&self) -> AmperePerMeter {
        let demanded =
            self.config.excitation.amplitude_pp() / 2.0 + self.config.excitation.dc_offset().abs();
        let delivered = self
            .config
            .vi
            .drive(demanded, self.config.sensor.r_excitation);
        self.sensor.h_from_current(delivered)
    }

    /// Runs the traced transient readout with external axial field
    /// `h_ext` and returns the measured duty cycle plus all waveforms.
    ///
    /// This is the measurement kernel with folding off and every noise
    /// draw evaluated; the waveforms are recorded through its per-sample
    /// tap, settle periods included.
    ///
    /// Noise is seeded from the configured `noise_seed`; this call is a
    /// pure function of the configuration and `h_ext`, so repeated runs
    /// return bit-identical results. Sweep-style callers that discard the
    /// waveforms should use [`measure`](Self::measure) instead.
    pub fn run(&self, h_ext: AmperePerMeter) -> FrontEndResult {
        self.run_with_seed(h_ext, self.config.noise_seed)
    }

    /// Like [`run`](Self::run), but with an explicit noise seed.
    ///
    /// This is the entry point for repeat/Monte-Carlo studies that need
    /// a *different* noise realisation per run while staying fully
    /// deterministic: derive one seed per run (e.g. with
    /// `fluxcomp_exec::derive_seed`) instead of mutating shared state.
    pub fn run_with_seed(&self, h_ext: AmperePerMeter, noise_seed: u64) -> FrontEndResult {
        let _run = fluxcomp_obs::span("afe.run");
        let cfg = &self.config;
        let period = 1.0 / cfg.excitation.frequency().value();
        let dt = period / cfg.samples_per_period as f64;
        let total_samples = self.run_samples();

        let mut traces = TraceSet::new();
        let ch_i = traces.add_with_capacity("i_exc", total_samples);
        let ch_ve = traces.add_with_capacity("v_exc", total_samples);
        let ch_vp = traces.add_with_capacity("v_pickup", total_samples);
        let ch_d = traces.add_with_capacity("detector", total_samples);
        let table = self.table.samples();
        let tap = |run_sample: usize, j: usize, v_pickup: Volt, out: bool| {
            let sim_t = SimTime::from_seconds(Seconds::new(run_sample as f64 * dt));
            let drive = &table[j];
            let v_exc = self.sensor.excitation_voltage(drive.i, drive.di_dt, h_ext);
            traces.record(ch_i, sim_t, drive.i.value());
            traces.record(ch_ve, sim_t, v_exc.value());
            traces.record(ch_vp, sim_t, v_pickup.value());
            traces.record(ch_d, sim_t, if out { 1.0 } else { 0.0 });
        };

        let mut detector_samples = Vec::with_capacity(cfg.measure_periods * cfg.samples_per_period);
        let row = self.clean_row(h_ext, 1.0);
        let mut noise = GaussianNoise::new(cfg.pickup_noise_rms, noise_seed);
        let mut periods = Filled::new(row.len(), |_, values: &mut [Volt]| {
            for (value, &v) in values.iter_mut().zip(&row) {
                *value = v + Volt::new(noise.sample());
            }
        });
        let result = self.measure_folded::<FOLD_TOGGLES>(
            &mut PulsePositionDetector::new(cfg.detector),
            &mut periods,
            Stepping::default(),
            false,
            &mut |run, out| detector_samples.resize(detector_samples.len() + run.len(), out),
            tap,
        );
        FrontEndResult {
            duty: result.duty,
            detector_samples,
            traces,
            clipped: result.clipped,
        }
    }

    /// Runs the duty-only fast measurement with external axial field
    /// `h_ext`: same physics, same noise sequence and same detector
    /// stepping as [`run`](Self::run), but the detector output is tallied
    /// inline — no waveform capture, no per-sample allocation.
    ///
    /// The returned duty is bit-identical to the traced path's.
    pub fn measure(&self, h_ext: AmperePerMeter) -> MeasureResult {
        self.measure_with_seed(h_ext, self.config.noise_seed)
    }

    /// Like [`measure`](Self::measure), but with an explicit noise seed.
    fn measure_with_seed(&self, h_ext: AmperePerMeter, noise_seed: u64) -> MeasureResult {
        let mut detector = PulsePositionDetector::new(self.config.detector);
        self.measure_into(h_ext, noise_seed, &mut detector, |_, _| {})
    }

    /// The core of the fast path: measures into a caller-provided
    /// detector (re-initialised from this channel's detector
    /// configuration on entry, so a scratch detector can be reused
    /// across any number of measurements, even one built for another
    /// channel) and reports every measurement-window sample to
    /// `on_sample(index, output)`, one excitation period at a time.
    ///
    /// `on_sample` is how the digital side rides along without an
    /// intermediate buffer: the compass feeds each sample straight into
    /// the up/down counter via its precomputed clock schedule. Indices
    /// run `0..measure_periods·samples_per_period` in time order. The
    /// kernel hands each period's output over as runs of equal samples,
    /// and only the loop that passes a run's samples to
    /// `on_sample` is compiled for the caller's closure, so every caller
    /// runs the one copy of the kernel this crate holds.
    ///
    /// A noise-free channel is **period-folded**: the drive is periodic
    /// and the sensor stateless, so once the detector's full state at a
    /// period boundary equals its state at the previous boundary, every
    /// later period repeats the last one sample for sample. From there
    /// the period's recorded output toggles are replayed instead of
    /// stepping the sensor and detector — same `on_sample` stream, same
    /// tallies, bit for bit. A noisy channel, a period with more than 16
    /// toggles, or a state that never repeats keeps the plain scan. The
    /// noise-free row holds the clean EMF only inside the two pulse
    /// windows and zero elsewhere, which steps the detector alike; the
    /// `afe.emf_evals` counter reports the EMF evaluations made.
    ///
    /// A noisy channel steps every sample, in two phases per period.
    /// First it draws the period's noise in stream order into one
    /// reusable buffer of stepping values, as the traced run draws it,
    /// and evaluates only what can change a step: a draw whose first
    /// uniform shows that the noise is smaller than the clean value's
    /// distance to the nearest comparator trip point leaves the clean
    /// value in the buffer; only the rest pay for `ln`, `sqrt` and
    /// `sin`/`cos`. On the paper design at 2 mV that is about 4 % of the
    /// samples (the `afe.noise_evals` and `afe.noise_draws` counters,
    /// which count the draws and the full evaluations of every stream).
    /// Where one noise floor covers every sample outside the pulse
    /// windows cut at half the release point, the row holds the clean
    /// EMF only inside them, and a draw below that floor evaluates its
    /// EMF when it is drawn. Then the detector steps through the buffer.
    pub fn measure_into(
        &self,
        h_ext: AmperePerMeter,
        noise_seed: u64,
        detector: &mut PulsePositionDetector,
        on_sample: impl FnMut(usize, bool),
    ) -> MeasureResult {
        let _run = fluxcomp_obs::span("afe.measure");
        let none = fluxcomp_faults::FixFaults::none();
        let runs = &mut each_sample(on_sample);
        self.measure_row(h_ext, noise_seed, detector, &none, true, runs)
    }

    /// The kernel run over the clean row of `h_ext` under `faults`,
    /// which must change no drive field: no dropout and no H_K ramp.
    ///
    /// The noise-free row is folded when `fold` allows it, and then, if
    /// nothing struck, evaluated only inside its pulse windows (see
    /// [`windowed_row`](Self::windowed_row)). Otherwise each period's
    /// stepping values are drawn first (see [`Noisy`]), then stepped.
    fn measure_row(
        &self,
        h_ext: AmperePerMeter,
        noise_seed: u64,
        detector: &mut PulsePositionDetector,
        faults: &fluxcomp_faults::FixFaults,
        fold: bool,
        runs: Runs<'_>,
    ) -> MeasureResult {
        let cfg = &self.config;
        let stuck = faults.stuck_output;
        if cfg.pickup_noise_rms == 0.0 && faults.burst.is_none() {
            let row = (fold && faults.is_none())
                .then(|| self.windowed_row(h_ext))
                .flatten()
                .unwrap_or_else(|| self.clean_row(h_ext, faults.pickup_gain));
            return self.measure_folded::<FOLD_TOGGLES>(
                detector,
                &mut row.as_slice(),
                Stepping { stuck, loud: 0..0 },
                fold,
                runs,
                no_tap,
            );
        }
        let noise = GaussianNoise::new(cfg.pickup_noise_rms, noise_seed);
        let (burst, stream) = self.burst(faults);
        let row = self.noisy_row(h_ext, faults.pickup_gain, &noise, burst.is_empty());
        let mut noisy = Noisy {
            front_end: self,
            h_ext,
            gain: faults.pickup_gain,
            row,
            noise,
            burst: burst.clone(),
            stream,
            probe: PulsePositionDetector::new(cfg.detector),
            values: vec![Volt::ZERO; self.table.len()],
            noise_evals: 0,
            emf_evals: 0,
        };
        let stepping = Stepping { stuck, loud: burst };
        let result = self
            .measure_folded::<FOLD_TOGGLES>(detector, &mut noisy, stepping, false, runs, no_tap);
        let draws =
            drawn(&noisy.noise, self.run_samples()) + drawn(&noisy.stream, noisy.burst.len());
        count_noise(draws, noisy.noise_evals);
        fluxcomp_obs::counter_add("afe.emf_evals", noisy.emf_evals);
        result
    }

    /// Settle plus measurement samples in one run.
    fn run_samples(&self) -> usize {
        (self.config.settle_periods + self.config.measure_periods) * self.config.samples_per_period
    }

    /// The run samples a noise burst covers and its stream: an empty
    /// range and a silent stream when `faults` has no burst.
    fn burst(&self, faults: &fluxcomp_faults::FixFaults) -> (Range<usize>, GaussianNoise) {
        faults.burst.map_or_else(
            || (0..0, GaussianNoise::silent()),
            |b| {
                let window = window(self.run_samples(), b.from, b.until);
                (window, GaussianNoise::new(b.rms, b.seed))
            },
        )
    }

    /// The noise-free pickup EMF of each excitation-table sample in
    /// external field `h_ext`, scaled by `gain` unless it is 1 (an open
    /// pickup). The drive repeats every period and the sensor is
    /// stateless, so this one row holds the clean EMF of every period.
    ///
    /// Built once per measurement and kept out of line, as is
    /// [`windowed_row`](Self::windowed_row): left for the compiler to
    /// inline into the kernel's caller, the two cost `sweep_clean` ~6 %
    /// in paired runs.
    #[inline(never)]
    fn clean_row(&self, h_ext: AmperePerMeter, gain: f64) -> Vec<Volt> {
        let row: Vec<Volt> = (0..self.table.len())
            .map(|j| self.clean_emf(h_ext, j, gain))
            .collect();
        fluxcomp_obs::counter_add("afe.emf_evals", row.len() as u64);
        row
    }

    /// The noise-free pickup EMF of excitation-table sample `j` in
    /// external field `h_ext`, scaled by `gain` unless it is 1.
    #[inline(always)]
    fn clean_emf(&self, h_ext: AmperePerMeter, j: usize, gain: f64) -> Volt {
        let drive = &self.table.samples()[j];
        let v_pickup = self.sensor.pickup_emf(drive.h_drive + h_ext, drive.dh_dt);
        if gain == 1.0 {
            v_pickup
        } else {
            Volt::new(v_pickup.value() * gain)
        }
    }

    /// The clean row of `h_ext` with the EMF evaluated only inside the
    /// two pulse [`windows`](Self::windows) cut at the release point and
    /// [`Volt::ZERO`] elsewhere, or `None` where windows do not apply;
    /// the detector steps through it exactly as through
    /// [`clean_row`](Self::clean_row).
    ///
    /// Why a sample outside the windows may step with zero: its float
    /// EMF is below the release point less 1e-9 in magnitude, and
    /// [`Windowing::new`] checked that every value that close to zero
    /// steps both comparators as zero does.
    #[inline(never)]
    fn windowed_row(&self, h_ext: AmperePerMeter) -> Option<Vec<Volt>> {
        let release = self.windowing.as_ref()?.release;
        let mut evals = 0;
        let windows = self.windows(h_ext, 1.0, release, &mut evals);
        let row = windows.map(|windows| {
            let mut row = vec![Volt::ZERO; self.table.len()];
            for j in windows.into_iter().flatten() {
                row[j] = self.clean_emf(h_ext, j, 1.0);
                evals += 1;
            }
            row
        });
        fluxcomp_obs::counter_add("afe.emf_evals", evals);
        row
    }

    /// The two pulse windows of the clean row of `h_ext` scaled by `gain`
    /// at `level`, or `None` where windows do not apply: outside them
    /// every sample's float EMF is below `level` less a relative 1e-9 in
    /// magnitude. Counts the EMF evaluations it makes into `evals`.
    ///
    /// On each half of the table `dh_dt` is one constant and `h_drive`
    /// is strictly monotone (checked when the channel is built), so the
    /// EMF is a `sech²` bell of one sign, peaking where `h_drive + h_ext`
    /// crosses the core's [`peak_field`](fluxcomp_fluxgate::CoreModel::peak_field).
    /// Bisection finds that peak sample, then on each side of it the
    /// nearest *quiet* sample, whose EMF magnitude is below `level` less
    /// a relative 1e-6. Each window runs from one quiet sample to the
    /// other, both excluded; it is empty where the peak sample and the one
    /// before it are both quiet, as on an open pickup.
    ///
    /// Why every sample outside is below `level` less 1e-9: exact `µ` is
    /// monotone in `|h − peak_field|`, and the float `h_drive + h_ext` is
    /// monotone along the half, so every sample farther from the peak
    /// than a quiet one has an exact EMF no larger, and so, scaled by the
    /// same `gain`, no larger in magnitude. The float EMF is within
    /// ~1e-14 of the exact one, which the 1e-6 margin covers. This holds
    /// at whatever index the bisection returns, even where rounding makes
    /// the float EMF non-monotone, because the certificate is the quiet
    /// sample itself. A half whose peak has no quiet sample on one side
    /// (a field near ±H_peak) gives `None`.
    ///
    /// Two rows rest on this. [`windowed_row`](Self::windowed_row) cuts
    /// at the release point, where zero steps the detector as the EMF
    /// does. [`noisy_row`](Self::noisy_row) cuts at half of it, and one
    /// noise floor covers every sample outside, with the bound
    /// `b = (band − level)·(1 − 1e-9)` of [`Windowing::outside`]. Where
    /// the full row steps with `v` or with the traced run's `v + x`, the
    /// windowed one steps with a value that leaves the same detector
    /// state, in each of the three cases of a draw outside the windows:
    ///
    /// * at or above the outside floor, whether or not the draw is below
    ///   `v`'s own floor: `|x| ≤ b` and `|v| ≤ level`, so `v + x` lies
    ///   between `−(level + b)` and `level + b` (float addition is
    ///   monotone), which step the detector as zero does (checked with
    ///   the comparators' own arithmetic when the channel is built). The
    ///   verdicts are monotone, so zero stands in for `v + x`, and for `v`
    ///   too, which steps alike `v + x` where `v`'s own floor skips;
    /// * below the outside floor only: the full row steps with `v`, which
    ///   steps alike `v + x` (see [`skip_bound`]); the windowed row
    ///   evaluates `v` and `x` and steps with `v + x`;
    /// * below both floors: both rows step with `v + x`.
    fn windows(
        &self,
        h_ext: AmperePerMeter,
        gain: f64,
        level: f64,
        evals: &mut u64,
    ) -> Option<[Range<usize>; 2]> {
        let windowing = self.windowing.as_ref()?;
        let samples = self.table.samples();
        let core = &self.config.sensor.core;
        let quiet_below = level * (1.0 - 1e-6);
        let mut quiet = |j: usize| {
            *evals += 1;
            self.clean_emf(h_ext, j, gain).value().abs() < quiet_below
        };
        let mut windows = [0..0, 0..0];
        for (window, half) in windows.iter_mut().zip(&windowing.halves) {
            let dh_dt = samples[half.start].dh_dt;
            let peak_field = core.peak_field(Sweep::from_dh_dt(dh_dt));
            let before_peak = |j: usize| {
                let h = samples[j].h_drive + h_ext;
                if dh_dt > 0.0 {
                    h < peak_field
                } else {
                    h > peak_field
                }
            };
            let start = half.start;
            let peak = start + partition_point(half.len(), |i| before_peak(start + i));
            let from = start + partition_point(peak - start, |i| quiet(start + i));
            let until = peak + partition_point(half.end - peak, |i| !quiet(peak + i));
            if from == half.start || until == half.end {
                return None;
            }
            *window = from..until;
        }
        Some(windows)
    }

    /// The clean row of `h_ext` scaled by `gain` that a noisy measurement
    /// draws its noise against, with each sample's noise floor.
    ///
    /// Where `may_window` (no burst, whose brackets need every sample's
    /// EMF) and one floor, that of [`Windowing::outside`], covers every
    /// sample outside the [`windows`](Self::windows) cut at half the
    /// release point at no more than [`LAZY_SHARE`] of their draws, the
    /// row holds the EMF only inside those windows and zero outside, and
    /// the samples outside take that one floor. Otherwise the full row is
    /// evaluated, and every sample takes the floor of its own value's
    /// [`skip_bound`].
    fn noisy_row(
        &self,
        h_ext: AmperePerMeter,
        gain: f64,
        noise: &GaussianNoise,
        may_window: bool,
    ) -> NoisyRow {
        let detector = PulsePositionDetector::new(self.config.detector);
        let trips = trip_points(&self.config.detector);
        let floor = |v: Volt| noise.floor_within(skip_bound(&detector, &trips, v));
        let mut evals = 0;
        let windowing = self.windowing.as_ref().filter(|_| may_window);
        let windowed = windowing.and_then(|windowing| {
            let outside = noise.floor_within(windowing.outside?);
            if outside > LAZY_SHARE {
                return None;
            }
            let windows = self.windows(h_ext, gain, windowing.release / 2.0, &mut evals)?;
            let mut row = vec![Volt::ZERO; self.table.len()];
            let mut floors = vec![outside; self.table.len()];
            for j in windows.clone().into_iter().flatten() {
                row[j] = self.clean_emf(h_ext, j, gain);
                floors[j] = floor(row[j]);
                evals += 1;
            }
            Some(NoisyRow {
                row,
                floors,
                windows: Some(windows),
            })
        });
        fluxcomp_obs::counter_add("afe.emf_evals", evals);
        windowed.unwrap_or_else(|| {
            let row = self.clean_row(h_ext, gain);
            let floors = row.iter().map(|&v| floor(v)).collect();
            NoisyRow {
                row,
                floors,
                windows: None,
            }
        })
    }

    /// The one measurement kernel, folding once a period toggles no more
    /// than `CAP` times.
    ///
    /// `periods` gives each period's stepping values (see [`Periods`]).
    /// `stepping` says how the detector is stepped (see [`Stepping`]).
    /// `fold` allows period folding and must only be set
    /// when every period sees the same inputs. `runs` receives the
    /// measurement samples' output (see [`Runs`]). `tap(run_sample, j,
    /// pickup, output)` sees every stepped sample, settle periods
    /// included; a measurement that records nothing passes [`no_tap`].
    fn measure_folded<const CAP: usize>(
        &self,
        detector: &mut PulsePositionDetector,
        periods: &mut impl Periods,
        stepping: Stepping,
        fold: bool,
        runs: Runs<'_>,
        mut tap: impl FnMut(usize, usize, Volt, bool),
    ) -> MeasureResult {
        let cfg = &self.config;
        *detector = PulsePositionDetector::new(cfg.detector);
        let n = cfg.samples_per_period;
        let total_periods = cfg.settle_periods + cfg.measure_periods;
        let mut pulse_edges = 0u64;
        let mut high_samples = 0u64;
        let mut emit = |run: Range<usize>, out: bool| {
            high_samples += if out { run.len() as u64 } else { 0 };
            runs(run, out);
        };
        // The measurement index of the first sample of `period`.
        let offset = |period: usize| (period - cfg.settle_periods) * n;

        // Scan period by period, keeping the detector state at the last
        // boundary and the toggles of the period just scanned.
        let mut toggles = Toggles::<CAP>::new(detector.output());
        let mut boundary = detector.clone();
        let mut stepped = 0;
        while stepped < total_periods {
            let from_level = toggles.level;
            toggles.clear();
            let first = stepped * n;
            let values = periods.period(first);
            self.scan_period(first, values, &stepping, detector, &mut toggles, &mut tap);
            if stepped >= cfg.settle_periods {
                toggles.replay(from_level, offset(stepped), n, &mut emit);
            }
            pulse_edges += toggles.len() as u64;
            stepped += 1;
            if fold && !toggles.overflowed() && *detector == boundary {
                break;
            }
            boundary.clone_from(detector);
        }

        // Folded: every remaining period repeats the one just scanned,
        // starting (and ending) at the level that period ended on.
        for period in stepped..total_periods {
            pulse_edges += toggles.len() as u64;
            if period >= cfg.settle_periods {
                toggles.replay(toggles.level, offset(period), n, &mut emit);
            }
        }

        let measure_samples = (cfg.measure_periods * n) as u64;
        let duty = high_samples as f64 / measure_samples as f64;
        let clipped = self.table.any_clips();
        fluxcomp_obs::counter_add("msim.analog_steps", (stepped * n) as u64);
        fluxcomp_obs::counter_add("afe.measures", 1);
        fluxcomp_obs::counter_add("afe.pulse_edges", pulse_edges);
        fluxcomp_obs::counter_add("afe.clipped_runs", u64::from(clipped));
        fluxcomp_obs::histogram_record("afe.duty", duty);
        MeasureResult {
            duty,
            clipped,
            pulse_edges,
            high_samples,
            measure_samples,
        }
    }

    /// Steps the detector through the excitation period starting at run
    /// sample `first` with its stepping `values`, recording its toggles
    /// and passing each sample to `tap(run_sample, j, pickup, output)`.
    ///
    /// The samples before, inside and after the period's share of the
    /// loud run samples are three loops, so a quiet sample pays no test
    /// for which step to take.
    #[inline(always)]
    fn scan_period<const CAP: usize>(
        &self,
        first: usize,
        values: &[Volt],
        stepping: &Stepping,
        detector: &mut PulsePositionDetector,
        toggles: &mut Toggles<CAP>,
        tap: impl FnMut(usize, usize, Volt, bool),
    ) {
        let n = values.len();
        let loud = within(&stepping.loud, first, n);
        let mut scan = Scan {
            first,
            values,
            stuck: stepping.stuck,
            detector,
            level: toggles.level,
            toggles,
            tap,
        };
        scan.samples::<false>(0..loud.start);
        scan.samples::<true>(loud.clone());
        scan.samples::<false>(loud.end..n);
        scan.toggles.level = scan.level;
    }

    /// [`measure_into`](Self::measure_into) under injected faults.
    ///
    /// When `faults` [is none](fluxcomp_faults::FixFaults::is_none) this
    /// **delegates** to the plain fast path — the no-fault bitstream is
    /// untouched by construction, not by tolerance. When faults are
    /// active, the same kernel runs with folding off (a fault window or
    /// drift ramp makes every period different) and the fault effects
    /// applied in physical order. Without a dropout or a drift ramp the
    /// field is unchanged, so the clean row and the lazy noise of
    /// [`measure_into`](Self::measure_into) still apply, and inside a
    /// burst window both streams are bracketed and evaluated only when
    /// the brackets leave the step in doubt:
    ///
    /// 1. excitation dropout zeroes the drive field over its window;
    /// 2. the H_K drift ramp adds a linearly growing field offset;
    /// 3. an open pickup scales the EMF by its residual gain;
    /// 4. the nominal noise stream is added (always stepped, in the
    ///    same order as the clean path, so a fault never perturbs any
    ///    *other* fix's draw sequence);
    /// 5. a noise burst adds draws from its own derived stream over its
    ///    window;
    /// 6. a stuck comparator overrides the detector output (the
    ///    detector is still stepped — its internal state evolves as the
    ///    real damaged circuit's would).
    ///
    /// Window fractions cover the full settle+measure run.
    pub fn measure_into_faulted(
        &self,
        h_ext: AmperePerMeter,
        noise_seed: u64,
        detector: &mut PulsePositionDetector,
        faults: &fluxcomp_faults::FixFaults,
        on_sample: impl FnMut(usize, bool),
    ) -> MeasureResult {
        if faults.is_none() {
            return self.measure_into(h_ext, noise_seed, detector, on_sample);
        }
        let _run = fluxcomp_obs::span("faults.measure");
        let runs = &mut each_sample(on_sample);
        let result = if faults.dropout.is_none() && faults.hk_ramp == 0.0 {
            self.measure_row(h_ext, noise_seed, detector, faults, false, runs)
        } else {
            self.measure_drifting(h_ext, noise_seed, detector, faults, runs)
        };
        fluxcomp_obs::counter_add("faults.faulted_measures", 1);
        result
    }

    /// The faulted kernel when a dropout or an H_K ramp changes the
    /// field: the EMF and the noise of every sample are evaluated.
    fn measure_drifting(
        &self,
        h_ext: AmperePerMeter,
        noise_seed: u64,
        detector: &mut PulsePositionDetector,
        faults: &fluxcomp_faults::FixFaults,
        runs: Runs<'_>,
    ) -> MeasureResult {
        let mut noise = GaussianNoise::new(self.config.pickup_noise_rms, noise_seed);
        let total = self.run_samples();
        let inv_total = 1.0 / total as f64;
        let dropout = faults
            .dropout
            .map_or(0..0, |(from, until)| window(total, from, until));
        let (burst, mut stream) = self.burst(faults);
        let table = self.table.samples();
        let mut periods = Filled::new(table.len(), |first, values: &mut [Volt]| {
            for (j, value) in values.iter_mut().enumerate() {
                let run_sample = first + j;
                let (h_drive, dh_dt) = if dropout.contains(&run_sample) {
                    (AmperePerMeter::ZERO, 0.0)
                } else {
                    (table[j].h_drive, table[j].dh_dt)
                };
                let frac = run_sample as f64 * inv_total;
                let h = h_drive + h_ext + AmperePerMeter::new(faults.hk_ramp * frac);
                let mut v_pickup = self.sensor.pickup_emf(h, dh_dt);
                if faults.pickup_gain != 1.0 {
                    v_pickup = Volt::new(v_pickup.value() * faults.pickup_gain);
                }
                v_pickup += Volt::new(noise.sample());
                if burst.contains(&run_sample) {
                    v_pickup += Volt::new(stream.sample());
                }
                *value = v_pickup;
            }
        });
        let result = self.measure_folded::<FOLD_TOGGLES>(
            detector,
            &mut periods,
            Stepping {
                stuck: faults.stuck_output,
                loud: burst.clone(),
            },
            false,
            runs,
            no_tap,
        );
        let draws = drawn(&noise, total) + drawn(&stream, burst.len());
        count_noise(draws, draws);
        fluxcomp_obs::counter_add("afe.emf_evals", total as u64);
        result
    }
}

/// The tap of a measurement that records no sample.
fn no_tap(_: usize, _: usize, _: Volt, _: bool) {}

/// The clean row a noisy measurement draws its noise against (see
/// [`FrontEnd::noisy_row`]).
struct NoisyRow {
    /// The clean EMF of each table sample, or zero outside `windows`.
    row: Vec<Volt>,
    /// The least first uniform of a draw at which a sample may step
    /// with its row value.
    floors: Vec<f64>,
    /// The windows outside which the row holds zero for the EMF, if it
    /// is windowed.
    windows: Option<[Range<usize>; 2]>,
}

impl NoisyRow {
    /// Whether table sample `j`'s EMF is left out of the row, to be
    /// evaluated when a draw falls below its floor.
    fn lazy(&self, j: usize) -> bool {
        self.windows
            .as_ref()
            .is_some_and(|windows| !windows.iter().any(|w| w.contains(&j)))
    }
}

/// A noisy measurement's stepping values, drawn one excitation period at
/// a time into one reusable buffer before the detector steps through
/// them. The nominal stream is drawn in stream order, as the traced run
/// draws it, but only what can change a step is evaluated:
///
/// * outside the burst window, one [`GaussianNoise::draw_below`] per run
///   of samples compares each draw against its sample's floor and
///   evaluates only the draws below it; the others leave the row value,
///   which steps the detector as the noisy one would (see [`skip_bound`],
///   and [`FrontEnd::windows`] for a windowed row's zeros);
/// * inside it, each sample draws both streams and brackets them
///   ([`GaussianNoise::bracket`]). Float addition is monotone in each
///   argument, so the sum `(v + x₁) + x₂` lies between `(v + lo₁) + lo₂`
///   and `(v + hi₁) + hi₂`; if the detector steps those two alike, it
///   steps every value between them alike, and the lower one stands in
///   for the sum. Otherwise both values are evaluated.
struct Noisy<'a> {
    front_end: &'a FrontEnd,
    h_ext: AmperePerMeter,
    gain: f64,
    row: NoisyRow,
    noise: GaussianNoise,
    /// The run samples the burst covers.
    burst: Range<usize>,
    /// The burst's stream; silent without a burst.
    stream: GaussianNoise,
    probe: PulsePositionDetector,
    /// One period's stepping values.
    values: Vec<Volt>,
    /// Draws of either stream evaluated in full.
    noise_evals: u64,
    /// EMFs evaluated for draws below the floor outside a windowed row.
    emf_evals: u64,
}

impl Noisy<'_> {
    /// Draws the nominal noise of the period's samples `js`, none of them
    /// in the burst window, into the values, which hold their row values.
    fn draw_quiet(&mut self, js: Range<usize>) {
        let Self {
            front_end,
            h_ext,
            gain,
            row,
            noise,
            values,
            noise_evals,
            emf_evals,
            ..
        } = self;
        noise.draw_below(&row.floors[js.clone()], |i, x| {
            let j = js.start + i;
            let v = if row.lazy(j) {
                *emf_evals += 1;
                front_end.clean_emf(*h_ext, j, *gain)
            } else {
                row.row[j]
            };
            values[j] = v + Volt::new(x);
            *noise_evals += 1;
        });
    }
}

impl Periods for Noisy<'_> {
    fn period(&mut self, first: usize) -> &[Volt] {
        let n = self.values.len();
        let loud = within(&self.burst, first, n);
        self.values.copy_from_slice(&self.row.row);
        self.draw_quiet(0..loud.start);
        for j in loud.clone() {
            let v = self.row.row[j];
            self.noise.draw();
            self.stream.draw();
            let [lo_1, hi_1] = self.noise.bracket();
            let [lo_2, hi_2] = self.stream.bracket();
            let lo = (v + Volt::new(lo_1)) + Volt::new(lo_2);
            let hi = (v + Volt::new(hi_1)) + Volt::new(hi_2);
            self.values[j] = if self.probe.steps_alike(lo, hi) {
                lo
            } else {
                self.noise_evals += drawn(&self.noise, 1) + drawn(&self.stream, 1);
                (v + Volt::new(self.noise.value())) + Volt::new(self.stream.value())
            };
        }
        self.draw_quiet(loud.end..n);
        &self.values
    }
}

/// The samples of `run` within the `n`-sample period that starts at run
/// sample `first`, as indices into the period.
fn within(run: &Range<usize>, first: usize, n: usize) -> Range<usize> {
    let within = |k: usize| k.clamp(first, first + n) - first;
    within(run.start)..within(run.end)
}

/// `draws` if `noise` is not silent, else 0: a silent source draws and
/// evaluates nothing.
fn drawn(noise: &GaussianNoise, draws: usize) -> u64 {
    if noise.std_dev() == 0.0 {
        0
    } else {
        draws as u64
    }
}

/// Counts one measurement's noise draws on both streams and how many of
/// them were evaluated in full.
fn count_noise(draws: u64, evals: u64) {
    if draws != 0 {
        fluxcomp_obs::counter_add("afe.noise_draws", draws);
        fluxcomp_obs::counter_add("afe.noise_evals", evals);
    }
}

/// The pickup voltages at which one of the detector's comparators
/// trips: the release and set points `threshold ∓ hysteresis/2` less
/// the offset for the positive comparator, and their mirror images for
/// the negative one, which sees the inverted pickup.
fn trip_points(config: &DetectorConfig) -> [f64; 4] {
    let half = config.hysteresis.value() / 2.0;
    let (threshold, offset) = (config.threshold.value(), config.offset.value());
    [
        threshold - half - offset,
        threshold + half - offset,
        offset - threshold + half,
        offset - threshold - half,
    ]
}

/// The largest noise magnitude `b` for which stepping `detector` with
/// the clean pickup `v` leaves the same state as stepping it with
/// `v + x` for every `|x| ≤ b`, whatever state it is in.
///
/// The bound is the distance from `v` to the nearest of the `trips`,
/// shrunk by a relative 1e-9 and checked at both ends with the
/// comparators' own arithmetic. Rounding is monotone, so every `v + x`
/// in between gets the verdicts `v` gets. A bound that fails the check
/// is 0, which no noise draw is sure to stay within.
fn skip_bound(detector: &PulsePositionDetector, trips: &[f64; 4], v: Volt) -> f64 {
    let margin = trips
        .iter()
        .fold(f64::INFINITY, |m, &t| m.min((v.value() - t).abs()));
    let bound = margin * (1.0 - 1e-9);
    if detector.steps_alike(v - Volt::new(bound), v + Volt::new(bound)) {
        bound
    } else {
        0.0
    }
}

/// The run samples `k` of `total` whose window fraction `k / total`
/// lies in `[from, until)`, by the same float comparison a per-sample
/// test would make. The fraction is monotone in `k`, so the samples
/// form one range; a NaN edge leaves it empty.
fn window(total: usize, from: f64, until: f64) -> Range<usize> {
    let inv_total = 1.0 / total as f64;
    let frac = |k: usize| k as f64 * inv_total;
    partition_point(total, |k| frac(k) < from || from.is_nan())..partition_point(total, |k| {
        frac(k) < until
    })
}

/// The first `k` in `0..total` at which `before(k)` fails, for a
/// `before` that holds on a prefix of the range.
fn partition_point(total: usize, mut before: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, total);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl Default for FrontEnd {
    fn default() -> Self {
        Self::new(FrontEndConfig::default()).expect("paper design is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_units::magnetics::MU_0;

    fn h_from_microtesla(ut: f64) -> AmperePerMeter {
        AmperePerMeter::new(ut * 1e-6 / MU_0)
    }

    #[test]
    fn zero_field_gives_half_duty() {
        let fe = FrontEnd::default();
        let r = fe.run(AmperePerMeter::ZERO);
        assert!(
            (r.duty - 0.5).abs() < 0.005,
            "duty = {} should be 0.5",
            r.duty
        );
        assert!(!r.clipped);
    }

    #[test]
    fn duty_shift_is_linear_in_field() {
        let fe = FrontEnd::default();
        let h_peak = fe.peak_excitation_field();
        // 15 µT ≈ 11.9 A/m; H_peak = 240 A/m → expected shift ≈ 0.0249.
        let h1 = h_from_microtesla(15.0);
        let d1 = fe.run(h1).duty;
        let expected1 = 0.5 - h1.value() / (2.0 * h_peak.value());
        assert!((d1 - expected1).abs() < 0.005, "{d1} vs {expected1}");
        // Twice the field → twice the shift, within tolerance.
        let h2 = h_from_microtesla(30.0);
        let d2 = fe.run(h2).duty;
        let shift1 = 0.5 - d1;
        let shift2 = 0.5 - d2;
        assert!(
            (shift2 / shift1 - 2.0).abs() < 0.15,
            "shift ratio {}",
            shift2 / shift1
        );
    }

    #[test]
    fn negative_field_shifts_duty_the_other_way() {
        let fe = FrontEnd::default();
        let plus = fe.run(h_from_microtesla(20.0)).duty;
        let minus = fe.run(h_from_microtesla(-20.0)).duty;
        assert!(plus < 0.5 && minus > 0.5);
        // Symmetric response.
        assert!(((0.5 - plus) - (minus - 0.5)).abs() < 0.005);
    }

    #[test]
    fn field_estimate_inverts_duty() {
        let fe = FrontEnd::default();
        let h = h_from_microtesla(25.0);
        let r = fe.run(h);
        let est = r.field_estimate(fe.peak_excitation_field());
        let rel = (est.value() - h.value()).abs() / h.value();
        assert!(rel < 0.05, "estimate {est} vs {h}, rel err {rel}");
    }

    #[test]
    fn traces_are_complete() {
        let fe = FrontEnd::default();
        let r = fe.run(AmperePerMeter::ZERO);
        for name in ["i_exc", "v_exc", "v_pickup", "detector"] {
            let tr = r.traces.by_name(name).unwrap();
            assert_eq!(tr.len(), (1 + 4) * 4096, "{name}");
        }
        // Pickup shows both polarities of pulses.
        let (lo, hi) = r.traces.by_name("v_pickup").unwrap().value_range().unwrap();
        assert!(lo < -0.02 && hi > 0.02, "pulses missing: {lo}..{hi}");
    }

    #[test]
    fn peak_excitation_field_matches_design_point() {
        let fe = FrontEnd::default();
        // ±6 mA × 40 turns / 1 mm = 240 A/m = 2× saturation field.
        assert!((fe.peak_excitation_field().value() - 240.0).abs() < 1e-9);
    }

    #[test]
    fn noise_perturbs_but_does_not_break_readout() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.pickup_noise_rms = 2e-3; // 2 mV RMS on ~58 mV pulses
                                     // Size the hysteresis well above the noise (≫ 3σ both ways), as a
                                     // real detector design would — otherwise comparator chatter inside
                                     // a pulse releases the latch early (see the E1 hysteresis
                                     // ablation, which sweeps this deliberately).
        cfg.detector.hysteresis = fluxcomp_units::Volt::new(0.016);
        cfg.measure_periods = 8;
        let fe = FrontEnd::new(cfg).expect("valid config");
        let h = h_from_microtesla(20.0);
        let r = fe.run(h);
        let est = r.field_estimate(fe.peak_excitation_field());
        let rel = (est.value() - h.value()).abs() / h.value();
        assert!(rel < 0.15, "rel err {rel} under noise");
    }

    #[test]
    fn excessive_drive_reports_clipping() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.sensor.r_excitation = fluxcomp_units::Ohm::new(2_000.0);
        let fe = FrontEnd::new(cfg).expect("valid config");
        let r = fe.run(AmperePerMeter::ZERO);
        assert!(r.clipped);
        assert!(fe.excitation_table().any_clips());
    }

    #[test]
    fn hysteretic_core_still_reads_field() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.sensor = FluxgateParams::adapted_hysteretic(0.1);
        let fe = FrontEnd::new(cfg).expect("valid config");
        let h = h_from_microtesla(20.0);
        let est = fe.run(h).field_estimate(fe.peak_excitation_field());
        let rel = (est.value() - h.value()).abs() / h.value();
        assert!(rel < 0.1, "rel err {rel} with hysteresis");
    }

    #[test]
    fn too_few_samples_rejected() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.samples_per_period = 8;
        let err = FrontEnd::new(cfg).unwrap_err();
        assert_eq!(err, FrontEndError::TooFewSamplesPerPeriod { got: 8 });
        assert!(err.to_string().contains("16 samples"));
    }

    #[test]
    fn zero_measure_periods_rejected() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.measure_periods = 0;
        let err = FrontEnd::new(cfg).unwrap_err();
        assert_eq!(err, FrontEndError::NoMeasurePeriods);
        assert!(err.to_string().contains("measurement period"));
    }

    #[test]
    fn bad_pickup_noise_rejected() {
        for rms in [-1e-3, f64::NAN, f64::INFINITY] {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.pickup_noise_rms = rms;
            let err = FrontEnd::new(cfg).unwrap_err();
            assert_eq!(err, FrontEndError::BadPickupNoise, "noise RMS {rms}");
            assert!(err.to_string().contains("noise RMS"));
        }
    }

    #[test]
    fn bad_detector_rejected() {
        let paper = DetectorConfig::paper_design();
        let hysteresis = |v| DetectorConfig {
            hysteresis: Volt::new(v),
            ..paper
        };
        let cases = [
            (hysteresis(-1e-3), "hysteresis"),
            (hysteresis(f64::NAN), "hysteresis"),
            (hysteresis(f64::INFINITY), "hysteresis"),
            (
                DetectorConfig {
                    threshold: Volt::new(f64::NAN),
                    ..paper
                },
                "threshold",
            ),
            (
                DetectorConfig {
                    offset: Volt::new(f64::NEG_INFINITY),
                    ..paper
                },
                "offset",
            ),
        ];
        for (detector, what) in cases {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.detector = detector;
            let err = FrontEnd::new(cfg).unwrap_err();
            assert!(
                matches!(err, FrontEndError::BadDetector { reason } if reason.contains(what)),
                "{detector:?}: {err:?}"
            );
            assert!(err.to_string().starts_with("invalid detector: "));
        }
    }

    #[test]
    fn bad_sensor_reports_the_element_reason() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.sensor.turns_pickup = 0;
        assert_eq!(
            FrontEnd::new(cfg).unwrap_err(),
            FrontEndError::BadSensor {
                reason: "pickup coil needs turns"
            }
        );
    }

    /// The contract the whole fast path rests on: for every configuration
    /// class (clean, noisy, clipping, hysteretic core), every seed and
    /// every field, folding and lazy noise change no bit — the duty-only
    /// fast path reproduces the traced run, which scans every period and
    /// evaluates every noise draw.
    #[test]
    fn measure_matches_run_bitwise() {
        let noisy = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.pickup_noise_rms = 2e-3;
            cfg.detector.hysteresis = fluxcomp_units::Volt::new(0.016);
            cfg
        };
        let clipping = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.sensor.r_excitation = fluxcomp_units::Ohm::new(2_000.0);
            cfg
        };
        let hysteretic = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.sensor = FluxgateParams::adapted_hysteretic(0.1);
            cfg
        };
        let configs = [
            ("paper", FrontEndConfig::paper_design()),
            ("noisy", noisy),
            ("clipping", clipping),
            ("hysteretic", hysteretic),
        ];
        for (name, cfg) in configs {
            let fe = FrontEnd::new(cfg).expect("valid config");
            for seed in [0x5EED_u64, 1, 0xDEAD_BEEF] {
                for ut in [-20.0, 0.0, 15.0] {
                    let h = h_from_microtesla(ut);
                    let traced = fe.run_with_seed(h, seed);
                    let fast = fe.measure_with_seed(h, seed);
                    assert_eq!(
                        traced.duty.to_bits(),
                        fast.duty.to_bits(),
                        "{name}: duty differs at seed {seed:#x}, {ut} µT"
                    );
                    assert_eq!(traced.clipped, fast.clipped, "{name}");
                    let high = traced.detector_samples.iter().filter(|&&s| s).count() as u64;
                    assert_eq!(high, fast.high_samples, "{name}");
                    assert_eq!(
                        traced.detector_samples.len() as u64,
                        fast.measure_samples,
                        "{name}"
                    );
                }
            }
        }
    }

    /// The noise-free configurations period folding applies to.
    fn noise_free_configs() -> [(&'static str, FrontEndConfig); 4] {
        let clipping = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.sensor.r_excitation = fluxcomp_units::Ohm::new(2_000.0);
            cfg
        };
        let hysteretic = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.sensor = FluxgateParams::adapted_hysteretic(0.1);
            cfg
        };
        let offset = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.detector.offset = fluxcomp_units::Volt::new(3e-3);
            cfg
        };
        [
            ("paper", FrontEndConfig::paper_design()),
            ("clipping", clipping),
            ("hysteretic", hysteretic),
            ("offset", offset),
        ]
    }

    /// Detector output toggles over the whole traced run.
    fn traced_edges(traced: &FrontEndResult) -> u64 {
        let detector = traced.traces.by_name("detector").expect("detector trace");
        let mut prev = 0.0;
        let mut edges = 0;
        for &(_, v) in detector.samples() {
            edges += u64::from(v != prev);
            prev = v;
        }
        edges
    }

    /// Runs `measure` with the paper's analogue steps counted in a
    /// thread-scoped recorder; returns the result, the `on_sample`
    /// stream and the steps taken.
    fn counted(
        measure: impl FnOnce(&mut dyn FnMut(usize, bool)) -> MeasureResult,
    ) -> (MeasureResult, Vec<bool>, u64) {
        counted_by("msim.analog_steps", measure)
    }

    /// [`counted`], reporting the obs counter `name` instead.
    fn counted_by(
        name: &str,
        measure: impl FnOnce(&mut dyn FnMut(usize, bool)) -> MeasureResult,
    ) -> (MeasureResult, Vec<bool>, u64) {
        let session = fluxcomp_obs::init_scoped_for_test();
        let mut seen = Vec::new();
        let result = measure(&mut |index, out| {
            assert_eq!(index, seen.len(), "on_sample out of order");
            seen.push(out);
        });
        let count = session.profile().and_then(|p| p.counter(name)).unwrap_or(0);
        (result, seen, count)
    }

    /// The windows' contract: for every noise-free configuration, 720
    /// headings in the paper's 15 µT field and fields out to ±1.2·H_peak,
    /// the windowed clean row gives the same `MeasureResult` and
    /// `on_sample` stream as the full row, bit for bit. Windows apply at
    /// every heading except on the clipping drive, and fall back to the
    /// full row near ±H_peak. A wide-loop core (`h_c = 1.5·H_K`) moves
    /// each pulse's peak farther than its window reaches, so a window
    /// placed around the wrong peak shows.
    #[test]
    fn windowed_row_matches_the_full_row_bitwise() {
        let wide_loop = {
            let mut cfg = FrontEndConfig::paper_design();
            cfg.sensor = FluxgateParams::adapted_hysteretic(1.5);
            ("wide_loop", cfg)
        };
        std::thread::scope(|s| {
            for (name, mut cfg) in noise_free_configs().into_iter().chain([wide_loop]) {
                s.spawn(move || {
                    cfg.measure_periods = 8;
                    let fe = FrontEnd::new(cfg).expect("valid config");
                    let h_peak = fe.peak_excitation_field();
                    let mut detector = PulsePositionDetector::new(fe.config().detector);
                    let headings = (0..720).map(|k| {
                        let angle = (k as f64 * 0.5).to_radians();
                        (h_from_microtesla(15.0 * angle.cos()), true)
                    });
                    let sweep = (-120..=120).map(|k| (h_peak * (f64::from(k) / 100.0), false));
                    let mut fell_back = 0;
                    for (k, (h, heading)) in headings.chain(sweep).enumerate() {
                        let row = fe.clean_row(h, 1.0);
                        let (full, full_seen, _) = counted(|on_sample| {
                            fe.measure_folded::<FOLD_TOGGLES>(
                                &mut detector,
                                &mut row.as_slice(),
                                Stepping::default(),
                                true,
                                &mut each_sample(on_sample),
                                no_tap,
                            )
                        });
                        let (windowed, seen, evals) = counted_by("afe.emf_evals", |on_sample| {
                            fe.measure_into(h, 7, &mut detector, on_sample)
                        });
                        let at = format!("{name} at field {k} ({} A/m)", h.value());
                        assert_eq!(windowed.duty.to_bits(), full.duty.to_bits(), "{at}");
                        assert_eq!(windowed, full, "{at}");
                        assert_eq!(seen, full_seen, "{at}");
                        let windowed_here = evals < 4096;
                        if heading {
                            assert_eq!(windowed_here, name != "clipping", "{at}: {evals} evals");
                        }
                        fell_back += u32::from(!windowed_here);
                    }
                    if name != "clipping" {
                        assert!(fell_back > 0, "{name}: windows never fell back");
                    }
                });
            }
        });
    }

    /// A paper-design axis evaluates the clean EMF at fewer than half of
    /// its 4096 table samples: only inside the two pulse windows and at
    /// the bisection probes that find them.
    #[test]
    fn paper_design_evaluates_under_half_the_row() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.measure_periods = 8;
        let fe = FrontEnd::new(cfg).expect("valid config");
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        for ut in [-15.0, -7.5, 0.0, 10.0, 15.0] {
            let (_, _, evals) = counted_by("afe.emf_evals", |on_sample| {
                fe.measure_into(h_from_microtesla(ut), 1, &mut detector, on_sample)
            });
            assert!(
                evals > 0 && evals < 2048,
                "{ut} µT: {evals} EMF evaluations"
            );
        }
        // The traced run evaluates the whole row.
        let session = fluxcomp_obs::init_scoped_for_test();
        fe.run(h_from_microtesla(15.0));
        let profile = session.profile().expect("recording");
        assert_eq!(profile.counter("afe.emf_evals"), Some(4096));
    }

    /// An unburst paper-design axis at 2 mV evaluates the clean EMF at
    /// fewer than half of its 4096 table samples: inside the two windows
    /// cut at half the release point, at the bisection probes that find
    /// them, and for the rare draw below the floor outside them.
    #[test]
    fn noisy_axis_evaluates_under_half_the_row() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.pickup_noise_rms = 2e-3;
        cfg.measure_periods = 8;
        let fe = FrontEnd::new(cfg).expect("valid config");
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        for (seed, ut) in [(1, -15.0), (2, -7.5), (3, 0.0), (4, 10.0), (5, 15.0)] {
            let (_, _, evals) = counted_by("afe.emf_evals", |on_sample| {
                fe.measure_into(h_from_microtesla(ut), seed, &mut detector, on_sample)
            });
            assert!(
                evals > 0 && evals < 2048,
                "{ut} µT: {evals} EMF evaluations"
            );
        }
    }

    /// The fold's contract: for every noise-free configuration, several
    /// settle/measure splits and 360 fields up to ±1.2·H_peak, the
    /// folded measurement reproduces the plain scan of the traced run bit
    /// for bit — sample stream, duty, high samples and pulse edges.
    #[test]
    fn folded_measure_matches_run_bitwise() {
        let splits = [(1, 8), (0, 1), (0, 3), (2, 2)];
        std::thread::scope(|s| {
            for (name, base) in noise_free_configs() {
                s.spawn(move || {
                    for (settle, measure) in splits {
                        let mut cfg = base.clone();
                        cfg.settle_periods = settle;
                        cfg.measure_periods = measure;
                        let fe = FrontEnd::new(cfg).expect("valid config");
                        let h_peak = fe.peak_excitation_field();
                        let mut detector = PulsePositionDetector::new(fe.config().detector);
                        let mut folded = 0;
                        for k in 0..360 {
                            let h = h_peak * (1.2 * (k as f64).to_radians().sin());
                            let traced = fe.run_with_seed(h, 7);
                            let (fast, seen, steps) = counted(|on_sample| {
                                fe.measure_into(h, 7, &mut detector, on_sample)
                            });
                            let at = format!("{name} {settle}+{measure} at field {k}");
                            assert_eq!(seen, traced.detector_samples, "{at}");
                            assert_eq!(fast.duty.to_bits(), traced.duty.to_bits(), "{at}");
                            let high = traced.detector_samples.iter().filter(|&&s| s).count();
                            assert_eq!(fast.high_samples, high as u64, "{at}");
                            assert_eq!(fast.pulse_edges, traced_edges(&traced), "{at}");
                            let full = ((settle + measure) * 4096) as u64;
                            assert!(steps <= full, "{at}: {steps} steps");
                            folded += u64::from(steps < full);
                        }
                        if settle + measure > 2 {
                            assert!(folded > 0, "{name} {settle}+{measure} never folded");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn paper_design_folds_after_two_periods() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.measure_periods = 8;
        let fe = FrontEnd::new(cfg).expect("valid config");
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        for ut in [-40.0, 0.0, 15.0] {
            let (_, _, steps) = counted(|on_sample| {
                fe.measure_into(h_from_microtesla(ut), 1, &mut detector, on_sample)
            });
            assert_eq!(steps, 2 * 4096, "{ut} µT");
        }
    }

    #[test]
    fn toggle_overflow_falls_back_to_the_scan() {
        // The paper design toggles twice per period: past a fold limit
        // of one toggle every period overflows, so nothing folds — and
        // the scan still matches the traced run.
        let mut cfg = FrontEndConfig::paper_design();
        cfg.measure_periods = 8;
        let fe = FrontEnd::new(cfg).expect("valid config");
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        let h = h_from_microtesla(15.0);
        let row = fe.clean_row(h, 1.0);
        let (scanned, seen, steps) = counted(|on_sample| {
            fe.measure_folded::<1>(
                &mut detector,
                &mut row.as_slice(),
                Stepping::default(),
                true,
                &mut each_sample(on_sample),
                no_tap,
            )
        });
        assert_eq!(steps, 9 * 4096);
        let traced = fe.run_with_seed(h, 1);
        assert_eq!(seen, traced.detector_samples);
        assert_eq!(scanned.pulse_edges, traced_edges(&traced));
        assert_eq!(scanned, fe.measure_with_seed(h, 1));
    }

    #[test]
    fn noise_disables_folding() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.pickup_noise_rms = 1e-12;
        cfg.measure_periods = 8;
        let fe = FrontEnd::new(cfg).expect("valid config");
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        let h = h_from_microtesla(15.0);
        let (noisy, seen, steps) =
            counted(|on_sample| fe.measure_into(h, 3, &mut detector, on_sample));
        assert_eq!(steps, 9 * 4096, "a noisy channel must scan every period");
        let traced = fe.run_with_seed(h, 3);
        assert_eq!(seen, traced.detector_samples);
        assert_eq!(noisy.pulse_edges, traced_edges(&traced));
    }

    #[test]
    fn measure_into_reports_every_measurement_sample_in_order() {
        let fe = FrontEnd::default();
        let h = h_from_microtesla(15.0);
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        let mut seen = Vec::new();
        let result = fe.measure_into(h, fe.config().noise_seed, &mut detector, |index, out| {
            assert_eq!(index, seen.len());
            seen.push(out);
        });
        let traced = fe.run(h);
        assert_eq!(seen, traced.detector_samples);
        assert_eq!(result.measure_samples as usize, seen.len());
        // Reuse: the detector is reset on entry, so a second measurement
        // with the same (dirty) detector reproduces the first.
        let again = fe.measure_into(h, fe.config().noise_seed, &mut detector, |_, _| {});
        assert_eq!(result, again);
    }

    #[test]
    fn measure_field_estimate_matches_traced_estimate() {
        let fe = FrontEnd::default();
        let h = h_from_microtesla(25.0);
        let traced = fe.run(h).field_estimate(fe.peak_excitation_field());
        let fast = fe.measure(h).field_estimate(fe.peak_excitation_field());
        assert_eq!(traced.value().to_bits(), fast.value().to_bits());
    }

    #[test]
    fn faulted_path_with_no_faults_is_bit_identical_to_fast_path() {
        let fe = FrontEnd::default();
        let none = fluxcomp_faults::FixFaults::none();
        for ut in [-20.0, 0.0, 15.0] {
            let h = h_from_microtesla(ut);
            for seed in [1u64, 0x5EED] {
                let mut detector = PulsePositionDetector::new(fe.config().detector);
                let mut clean_samples = Vec::new();
                let clean = fe.measure_into(h, seed, &mut detector, |_, out| {
                    clean_samples.push(out);
                });
                let mut faulted_samples = Vec::new();
                let faulted = fe.measure_into_faulted(h, seed, &mut detector, &none, |_, out| {
                    faulted_samples.push(out);
                });
                assert_eq!(clean.duty.to_bits(), faulted.duty.to_bits(), "{ut} µT");
                assert_eq!(clean, faulted);
                assert_eq!(clean_samples, faulted_samples);
            }
        }
    }

    #[test]
    fn open_pickup_collapses_duty_and_edges() {
        let fe = FrontEnd::default();
        let mut faults = fluxcomp_faults::FixFaults::none();
        faults.pickup_gain = fluxcomp_faults::OPEN_PICKUP_GAIN;
        faults.injected = 1;
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        let h = h_from_microtesla(15.0);
        let r = fe.measure_into_faulted(h, 1, &mut detector, &faults, |_, _| {});
        // µV-scale EMF never crosses the comparator threshold: the
        // detector output is flat and the duty is pinned at an
        // implausible extreme (0 or 1 depending on idle polarity).
        assert_eq!(r.pulse_edges, 0, "open pickup must kill every pulse edge");
        assert!(r.duty == 0.0 || r.duty == 1.0, "duty {} not pinned", r.duty);
    }

    #[test]
    fn stuck_comparator_pins_duty_and_is_deterministic() {
        let fe = FrontEnd::default();
        let mut faults = fluxcomp_faults::FixFaults::none();
        faults.stuck_output = Some(true);
        faults.injected = 1;
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        let h = h_from_microtesla(15.0);
        let a = fe.measure_into_faulted(h, 9, &mut detector, &faults, |_, _| {});
        assert_eq!(a.duty, 1.0);
        // One edge at most: the idle-low → welded-high transition.
        assert!(a.pulse_edges <= 1, "edges {}", a.pulse_edges);
        let b = fe.measure_into_faulted(h, 9, &mut detector, &faults, |_, _| {});
        assert_eq!(a, b, "faulted measurement must be reproducible");
    }

    /// Extends an FNV-1a digest by the eight bytes of `word`.
    fn chain(digest: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(digest, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pins the faulted path bit for bit. For the paper design at 1+8
    /// periods, noise-free and at 2 mV, each fault kind alone and a
    /// mixed plan digest 72 headings × 2 axes to fixed values: duty
    /// bits, high samples, pulse edges, measurement samples and the
    /// whole `on_sample` stream. A struck run never folds: it steps all
    /// 9 × 4096 samples even without noise.
    #[test]
    fn faulted_measure_matches_golden_digests() {
        use fluxcomp_faults::{AxisSel, FaultKind, FaultPlan, FaultSpec};
        let single = |kind| {
            FaultPlan::new(0xE13F).with(FaultSpec {
                kind,
                axis: AxisSel::Both,
                rate: 1.0,
            })
        };
        let burst = FaultKind::NoiseBurst {
            rms: 0.05,
            from: 0.2,
            until: 0.6,
        };
        let mixed = FaultPlan::new(0xDE7E12)
            .with(FaultSpec {
                kind: FaultKind::OpenPickup,
                axis: AxisSel::X,
                rate: 0.3,
            })
            .with(FaultSpec {
                kind: burst,
                axis: AxisSel::Both,
                rate: 0.5,
            });
        let plans = [
            ("open_pickup", single(FaultKind::OpenPickup)),
            (
                "stuck_high",
                single(FaultKind::StuckComparator { output: true }),
            ),
            (
                "stuck_low",
                single(FaultKind::StuckComparator { output: false }),
            ),
            ("hk_ramp", single(FaultKind::HkDriftRamp { h_end: 8.0 })),
            (
                "dropout",
                single(FaultKind::ExcitationDropout {
                    from: 0.2,
                    until: 0.6,
                }),
            ),
            ("burst", single(burst)),
            ("mixed", mixed),
        ];
        let expected: [(&str, [u64; 2]); 7] = [
            ("open_pickup", [0xb080a385d29a2325, 0xb080a385d29a2325]),
            ("stuck_high", [0x4df788a216b99b25, 0x4df788a216b99b25]),
            ("stuck_low", [0xb080a385d29a2325, 0xb080a385d29a2325]),
            ("hk_ramp", [0xd0e5b0a9f194c515, 0x5b368df71dc3458c]),
            ("dropout", [0x9299944dc8f698fd, 0x9bcd17d0361a83e8]),
            ("burst", [0xc76981a09373c45a, 0x73ffa295c788bc9f]),
            ("mixed", [0x8ecbbf387d7c8d72, 0xf3b7b4a06e976240]),
        ];
        let full = 9 * 4096;
        let got: Vec<(&str, [u64; 2])> = std::thread::scope(|s| {
            let runs: Vec<_> = plans
                .iter()
                .map(|(name, plan)| {
                    s.spawn(move || {
                        let digests = [0.0, 2e-3].map(|noise| {
                            let mut cfg = FrontEndConfig::paper_design();
                            cfg.pickup_noise_rms = noise;
                            cfg.measure_periods = 8;
                            let fe = FrontEnd::new(cfg).expect("valid config");
                            let mut detector = PulsePositionDetector::new(fe.config().detector);
                            let mut digest = 0xcbf2_9ce4_8422_2325;
                            for k in 0..72u64 {
                                let angle = (k as f64 * 5.0).to_radians();
                                let seed = 1000 + k;
                                for (axis, ut) in [(0, angle.cos()), (1, angle.sin())] {
                                    let faults = plan.compile(axis, seed);
                                    let h = h_from_microtesla(15.0 * ut);
                                    let (r, seen, steps) = counted(|on_sample| {
                                        fe.measure_into_faulted(
                                            h,
                                            seed,
                                            &mut detector,
                                            &faults,
                                            on_sample,
                                        )
                                    });
                                    if !faults.is_none() {
                                        assert_eq!(steps, full, "{name}: a faulted run folded");
                                    }
                                    let words = seen.chunks(64).map(|c| {
                                        c.iter().fold(0u64, |w, &b| w << 1 | u64::from(b))
                                    });
                                    digest = [
                                        r.duty.to_bits(),
                                        r.high_samples,
                                        r.pulse_edges,
                                        r.measure_samples,
                                    ]
                                    .into_iter()
                                    .chain(words)
                                    .fold(digest, chain);
                                }
                            }
                            digest
                        });
                        (*name, digests)
                    })
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("no panic"))
                .collect()
        });
        assert_eq!(got, expected);
    }

    /// On an unstruck paper-design axis at 2 mV, every sample draws its
    /// noise but fewer than one in ten evaluates it: the rest are too
    /// far from a trip point for the draw to matter.
    #[test]
    fn noisy_axis_evaluates_under_a_tenth_of_its_draws() {
        let mut cfg = FrontEndConfig::paper_design();
        cfg.pickup_noise_rms = 2e-3;
        cfg.measure_periods = 8;
        let fe = FrontEnd::new(cfg).expect("valid config");
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        for (seed, ut) in [(1, 0.0), (2, 7.5), (3, -15.0)] {
            let session = fluxcomp_obs::init_scoped_for_test();
            fe.measure_into(h_from_microtesla(ut), seed, &mut detector, |_, _| {});
            let profile = session.profile().expect("recording");
            let draws = profile.counter("afe.noise_draws").unwrap_or(0);
            let evals = profile.counter("afe.noise_evals").unwrap_or(0);
            assert_eq!(draws, 9 * 4096, "{ut} µT: every sample draws");
            assert!(
                evals * 10 < draws,
                "{ut} µT: {evals} of {draws} draws evaluated"
            );
        }
    }

    /// What a plain per-sample loop measures under `faults`: the EMF of
    /// every sample with the fault effects in physical order, plus every
    /// draw of the nominal stream and, inside the burst window, of the
    /// burst stream, all evaluated; returns the result and the
    /// measurement-window outputs.
    fn eager_faulted(
        fe: &FrontEnd,
        h_ext: AmperePerMeter,
        seed: u64,
        faults: &fluxcomp_faults::FixFaults,
    ) -> (MeasureResult, Vec<bool>) {
        let cfg = fe.config();
        let table = fe.excitation_table().samples();
        let mut detector = PulsePositionDetector::new(cfg.detector);
        let mut noise = GaussianNoise::new(cfg.pickup_noise_rms, seed);
        let mut burst = faults.burst.map(|b| (b, GaussianNoise::new(b.rms, b.seed)));
        let total = fe.run_samples();
        let settle = cfg.settle_periods * cfg.samples_per_period;
        let (mut level, mut pulse_edges, mut seen) = (false, 0, Vec::new());
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
            let mut v = fe.sensor().pickup_emf(h, dh_dt);
            if faults.pickup_gain != 1.0 {
                v = Volt::new(v.value() * faults.pickup_gain);
            }
            v += Volt::new(noise.sample());
            if let Some((b, stream)) = burst.as_mut() {
                if frac >= b.from && frac < b.until {
                    v += Volt::new(stream.sample());
                }
            }
            let out = faults.stuck_output.unwrap_or(detector.step(v));
            pulse_edges += u64::from(out != level);
            level = out;
            if g >= settle {
                seen.push(out);
            }
        }
        let high_samples = seen.iter().filter(|&&out| out).count() as u64;
        let measure_samples = seen.len() as u64;
        let result = MeasureResult {
            duty: high_samples as f64 / measure_samples as f64,
            clipped: fe.excitation_table().any_clips(),
            pulse_edges,
            high_samples,
            measure_samples,
        };
        (result, seen)
    }

    /// The burst kernel's contract: bracketed noise and the branch-free
    /// step change no bit. Over burst RMS from well under the hysteresis
    /// to far above the pulses, with and without nominal noise, on the
    /// paper detector, one without hysteresis and one with an offset, an
    /// open pickup, a dropout and a drift ramp among them, several seeds
    /// and fields, the faulted measurement gives the `MeasureResult` and
    /// `on_sample` stream of the eager per-sample loop, bit for bit.
    #[test]
    fn burst_kernel_matches_the_eager_loop() {
        use fluxcomp_faults::{BurstFault, FixFaults};
        let detectors = [
            ("paper", DetectorConfig::paper_design()),
            (
                "no_hysteresis",
                DetectorConfig {
                    hysteresis: Volt::ZERO,
                    ..DetectorConfig::paper_design()
                },
            ),
            (
                "offset",
                DetectorConfig {
                    offset: Volt::new(3e-3),
                    ..DetectorConfig::paper_design()
                },
            ),
        ];
        std::thread::scope(|s| {
            for (name, detector_config) in detectors {
                s.spawn(move || {
                    for nominal in [0.0, 2e-3] {
                        let mut cfg = FrontEndConfig::paper_design();
                        cfg.detector = detector_config;
                        cfg.pickup_noise_rms = nominal;
                        let fe = FrontEnd::new(cfg).expect("valid config");
                        let mut detector = PulsePositionDetector::new(detector_config);
                        for (case, rms) in [5e-4, 5e-3, 5e-2, 0.5].into_iter().enumerate() {
                            for (seed, ut) in [(11u64, -12.0), (12, 3.0), (13, 15.0), (14, 7.0)] {
                                let faults = FixFaults {
                                    dropout: (seed == 13).then_some((0.5, 0.6)),
                                    hk_ramp: if seed == 14 { 8.0 } else { 0.0 },
                                    pickup_gain: if seed == 12 {
                                        fluxcomp_faults::OPEN_PICKUP_GAIN
                                    } else {
                                        1.0
                                    },
                                    burst: Some(BurstFault {
                                        rms,
                                        from: 0.15 + 0.1 * case as f64,
                                        until: 0.75,
                                        seed: seed ^ 0xB0B5,
                                    }),
                                    injected: 1,
                                    ..FixFaults::none()
                                };
                                let h = h_from_microtesla(ut);
                                let (expected, expected_seen) =
                                    eager_faulted(&fe, h, seed, &faults);
                                let (got, seen, _) = counted(|on_sample| {
                                    fe.measure_into_faulted(
                                        h,
                                        seed,
                                        &mut detector,
                                        &faults,
                                        on_sample,
                                    )
                                });
                                let at =
                                    format!("{name}, nominal {nominal}, burst {rms}, seed {seed}");
                                assert_eq!(got.duty.to_bits(), expected.duty.to_bits(), "{at}");
                                assert_eq!(got, expected, "{at}");
                                assert!(seen == expected_seen, "{at}: on_sample streams differ");
                            }
                        }
                    }
                });
            }
        });
    }

    /// The windowed noisy row's contract: zero outside the windows cut at
    /// half the release point, the one outside floor and the EMF
    /// evaluated when a draw falls below it change no bit. On the paper
    /// detector, one without hysteresis and one with an offset, on the
    /// paper, a hysteretic and a wide-loop core, at 2, 4 and 8 mV, unstruck,
    /// with an open pickup and with a stuck comparator, over fields out
    /// to ±1.2·H_peak, the measurement gives the `MeasureResult` and
    /// `on_sample` stream of the eager per-sample loop, bit for bit. The
    /// row is windowed on every unstruck configuration at 2 mV out to
    /// ±0.4·H_peak, and falls back to the full row at 8 mV, where the
    /// outside floor would evaluate too many draws.
    #[test]
    fn windowed_noisy_row_matches_the_eager_loop() {
        use fluxcomp_faults::FixFaults;
        let paper = FrontEndConfig::paper_design();
        let with_detector = |detector| FrontEndConfig {
            detector,
            ..paper.clone()
        };
        let with_core = |h_c| FrontEndConfig {
            sensor: FluxgateParams::adapted_hysteretic(h_c),
            ..paper.clone()
        };
        let configs = [
            ("paper", paper.clone()),
            (
                "no_hysteresis",
                with_detector(DetectorConfig {
                    hysteresis: Volt::ZERO,
                    ..DetectorConfig::paper_design()
                }),
            ),
            (
                "offset",
                with_detector(DetectorConfig {
                    offset: Volt::new(3e-3),
                    ..DetectorConfig::paper_design()
                }),
            ),
            ("hysteretic", with_core(0.1)),
            ("wide_loop", with_core(1.5)),
        ];
        let open = FixFaults {
            pickup_gain: fluxcomp_faults::OPEN_PICKUP_GAIN,
            injected: 1,
            ..FixFaults::none()
        };
        let stuck = FixFaults {
            stuck_output: Some(true),
            injected: 1,
            ..FixFaults::none()
        };
        let fields = [
            -1.2, -1.0, -0.9, -0.4, -0.06, 0.0, 0.03, 0.25, 0.8, 0.97, 1.2,
        ];
        std::thread::scope(|s| {
            for (name, base) in configs {
                s.spawn(move || {
                    for sigma in [2e-3, 4e-3, 8e-3] {
                        let fe = FrontEnd::new(FrontEndConfig {
                            pickup_noise_rms: sigma,
                            ..base.clone()
                        })
                        .expect("valid config");
                        let h_peak = fe.peak_excitation_field();
                        let mut detector = PulsePositionDetector::new(fe.config().detector);
                        for (case, faults) in [FixFaults::none(), open, stuck].iter().enumerate() {
                            for (k, &field) in fields.iter().enumerate() {
                                let seed = 100 * case as u64 + k as u64;
                                let h = h_peak * field;
                                let (expected, expected_seen) = eager_faulted(&fe, h, seed, faults);
                                let (got, seen, evals) = counted_by("afe.emf_evals", |on_sample| {
                                    fe.measure_into_faulted(
                                        h,
                                        seed,
                                        &mut detector,
                                        faults,
                                        on_sample,
                                    )
                                });
                                let at =
                                    format!("{name} at {sigma} V, faults {case}, field {field}");
                                assert_eq!(got.duty.to_bits(), expected.duty.to_bits(), "{at}");
                                assert_eq!(got, expected, "{at}");
                                assert!(seen == expected_seen, "{at}: on_sample streams differ");
                                if case != 2 && sigma == 2e-3 && field.abs() <= 0.4 {
                                    // An open pickup's windows are empty.
                                    let most = if case == 0 { 2048 } else { 100 };
                                    assert!(evals < most, "{at}: {evals} EMF evaluations");
                                }
                                if sigma == 8e-3 {
                                    assert!(evals >= 4096, "{at}: windowed");
                                }
                            }
                        }
                    }
                });
            }
        });
    }

    /// Inside a 50 mV burst on top of 2 mV nominal noise, fewer than one
    /// sample in ten evaluates its draws: `afe.noise_evals` counts the
    /// exact evaluations of both streams and `afe.noise_draws` their
    /// draws.
    #[test]
    fn burst_window_evaluates_under_a_tenth_of_its_draws() {
        use fluxcomp_faults::{BurstFault, FixFaults};
        let mut cfg = FrontEndConfig::paper_design();
        cfg.pickup_noise_rms = 2e-3;
        cfg.measure_periods = 8;
        let fe = FrontEnd::new(cfg).expect("valid config");
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        let faults = FixFaults {
            burst: Some(BurstFault {
                rms: 0.05,
                from: 0.0,
                until: 1.0,
                seed: 7,
            }),
            injected: 1,
            ..FixFaults::none()
        };
        let session = fluxcomp_obs::init_scoped_for_test();
        fe.measure_into_faulted(h_from_microtesla(7.5), 3, &mut detector, &faults, |_, _| {});
        let profile = session.profile().expect("recording");
        let draws = profile.counter("afe.noise_draws").unwrap_or(0);
        let evals = profile.counter("afe.noise_evals").unwrap_or(0);
        assert_eq!(draws, 2 * 9 * 4096, "both streams draw on every sample");
        assert!(
            evals > 0 && evals * 10 < draws,
            "{evals} of {draws} draws evaluated"
        );
    }

    /// The skip is exact. Over random detector designs, states, noise
    /// levels and clean values, many of them next to or on a trip point:
    /// stepping with the clean value moved by the whole bound either way
    /// leaves the same detector as stepping with the clean value, and so
    /// does stepping with any noisy value whose draw is at or above its
    /// floor (the noise is evaluated anyway to compare).
    #[test]
    fn skipped_noise_never_changes_the_detector() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (mut skipped, mut skipped_near) = (0, 0);
        for case in 0..20_000u64 {
            let config = DetectorConfig {
                threshold: Volt::new(rng.gen_range(1e-3..50e-3)),
                hysteresis: Volt::new(rng.gen_range(0.0..10e-3)),
                offset: Volt::new(rng.gen_range(-5e-3..5e-3)),
            };
            let mut detector = PulsePositionDetector::new(config);
            for _ in 0..rng.gen_range(0..6) {
                detector.step(Volt::new(rng.gen_range(-80e-3..80e-3)));
            }
            let trips = trip_points(&config);
            let trip = trips[rng.gen_range(0..4usize)];
            let v = Volt::new(match case % 4 {
                0 | 1 => rng.gen_range(-80e-3..80e-3),
                2 => trip + rng.gen_range(-1e-4..1e-4),
                _ => trip,
            });
            let bound = skip_bound(&detector, &trips, v);
            let stepped = |x: f64| {
                let mut d = detector.clone();
                d.step(v + Volt::new(x));
                d
            };
            assert_eq!(stepped(-bound), stepped(0.0), "case {case}: −bound");
            assert_eq!(stepped(bound), stepped(0.0), "case {case}: +bound");
            // Next to a trip point, noise small enough that draws skip.
            let sigma = if case % 4 < 2 { 10e-3 } else { 50e-6 };
            let mut noise = GaussianNoise::new(rng.gen_range(0.0..sigma), case);
            let floor = noise.floor_within(bound);
            for _ in 0..8 {
                if noise.draw() >= floor {
                    let x = noise.value();
                    assert_eq!(stepped(x), stepped(0.0), "case {case}: noise {x}");
                    skipped += 1;
                    skipped_near += u32::from(bound < 1e-3);
                }
            }
        }
        assert!(skipped > 50_000, "only {skipped} skips");
        assert!(
            skipped_near > 1_000,
            "only {skipped_near} skips within 1 mV of a trip point"
        );
    }

    /// A window's sample range holds exactly the samples whose fraction
    /// of the run passes the per-sample comparison.
    #[test]
    fn window_ranges_match_the_per_sample_comparison() {
        let total = 9 * 4096;
        let inv_total = 1.0 / total as f64;
        let edges = [
            0.0,
            0.2,
            0.3,
            0.6,
            0.7,
            1.0,
            1.5,
            4096.0 / total as f64,
            f64::NAN,
        ];
        for from in edges {
            for until in edges {
                let range = window(total, from, until);
                for k in 0..total {
                    let frac = k as f64 * inv_total;
                    let inside = frac >= from && frac < until;
                    assert_eq!(range.contains(&k), inside, "[{from}, {until}) at {k}");
                }
            }
        }
    }

    #[test]
    fn hk_ramp_shifts_duty_beyond_clean_value() {
        let fe = FrontEnd::default();
        let mut faults = fluxcomp_faults::FixFaults::none();
        faults.hk_ramp = 60.0; // a quarter of H_peak by window end
        faults.injected = 1;
        let mut detector = PulsePositionDetector::new(fe.config().detector);
        let h = h_from_microtesla(15.0);
        let clean = fe.measure_with_seed(h, 3);
        let drifted = fe.measure_into_faulted(h, 3, &mut detector, &faults, |_, _| {});
        // duty = 1/2 − H/(2·H_peak): a positive field offset pushes the
        // duty further down than the clean measurement.
        assert!(
            drifted.duty < clean.duty - 0.01,
            "drift did not move duty: clean {} vs drifted {}",
            clean.duty,
            drifted.duty
        );
    }
}
