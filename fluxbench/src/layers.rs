//! The compute layers' per-layer metrics, shared by every traced run:
//! the recomposed fix with one span per stage, the program's own `obs`
//! counters over a few fixes, and the compute microloops.

use crate::micro;
use crate::recompose::{library_fix, Entry, Field, FixInput, Parts, STAGES, STAGE_MEASURE};
use crate::stats::{quantile, sorted};
use crate::trace::Tracer;
use crate::Values;
use fluxcomp_compass::{CompassDesign, DegradedTracker, MeasureScratch};
use fluxcomp_obs::{AggregatingRecorder, Recorder};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span name of the program's fix entry point in a traced run.
pub const FIX_SPAN: &str = "compass.fix";

/// Fixes whose program counters give the per-fix sample and edge counts.
const COUNTED_FIXES: usize = 36;

/// The fixes a traced run accounts for: fix `k` used
/// `inputs[k % inputs.len()]`, with the health tracker reset whenever
/// `k % inputs.len() == 0`.
pub struct Cycle<'a> {
    pub design: &'a CompassDesign,
    pub parts: &'a Parts,
    pub entry: Entry<'a>,
    pub inputs: &'a [FixInput],
}

/// What an accounting loop did.
#[derive(Debug, Clone, Copy)]
pub struct Accounted {
    pub fixes: u64,
    /// Recomposed fixes that differed from the entry point's.
    pub differ: u64,
    /// Fixes per second of the loop, recomposition and spans included.
    pub fixes_per_s: f64,
}

impl Cycle<'_> {
    /// Runs fixes `k = 0, 1, …` until `limit` fixes or `deadline`: each
    /// through the program's entry point inside a [`FIX_SPAN`] span, then
    /// recomposed stage by stage under the same id and checked bit for
    /// bit. Interleaving the two keeps them under the same host
    /// conditions. Then sets every compute-layer metric.
    pub fn account(
        &self,
        limit: usize,
        deadline: Option<Instant>,
        tracer: &mut Tracer,
        values: &mut Values,
        budget: Duration,
    ) -> Accounted {
        let mut scratch = MeasureScratch::for_design(self.design);
        let mut parts_scratch = self.parts.scratch();
        let mut tracker = DegradedTracker::for_design(self.design);
        let mut recomposed_tracker = tracker.clone();
        let mut readings = Vec::new();
        let (mut struck, mut differ) = (0u64, 0u64);
        let start = Instant::now();
        let mut k = 0;
        while k < limit && deadline.is_none_or(|d| Instant::now() < d) {
            if k % self.inputs.len() == 0 {
                tracker.reset();
                recomposed_tracker.reset();
            }
            let input = &self.inputs[k % self.inputs.len()];
            let t0 = Instant::now();
            let fix = library_fix(self.design, input, self.entry, &mut scratch, &mut tracker);
            tracer.record(FIX_SPAN, k as u64, None, t0, Instant::now());
            let (recomposed, struck_axes) = self.parts.recomposed(
                input,
                self.entry,
                &mut parts_scratch,
                &mut recomposed_tracker,
                tracer,
                k as u64,
            );
            differ += u64::from(recomposed.digest() != fix.digest());
            struck += u64::from(struck_axes);
            if readings.len() < self.inputs.len() {
                readings.push(recomposed.reading);
            }
            k += 1;
        }
        let fixes = k as u64;
        let accounted = Accounted {
            fixes,
            differ,
            fixes_per_s: fixes as f64 / start.elapsed().as_secs_f64(),
        };
        let tracker = recomposed_tracker;
        let fix_ns = sorted(tracer.durations_ns(FIX_SPAN));
        let stage_ns: u64 = STAGES.iter().map(|s| tracer.total_ns(s)).sum();
        let (samples_per_fix, edges_per_sample) = self.program_counters();
        let parts = self.parts;
        let h_ext = match self.inputs[0].field {
            Field::Heading(h) => parts.pair.axial_fields(&parts.config.field, h).0,
            Field::Vector(hx, _) => hx,
        };
        let seed = self.inputs[0].seed;
        let counted = COUNTED_FIXES.min(self.inputs.len()) as u64;

        let v = values;
        v.set(
            "fluxgate.pickup_emf_ns",
            micro::pickup_emf_ns(parts, h_ext, budget),
            1,
        );
        v.set(
            "fluxgate.noise_sample_ns",
            micro::noise_sample_ns(parts, seed, budget),
            1,
        );
        v.set(
            "afe.measure_into_us",
            tracer.mean_ns(STAGE_MEASURE) / 1e3,
            tracer.named(STAGE_MEASURE).count() as u64,
        );
        v.set(
            "afe.detector_step_ns",
            micro::detector_step_ns(parts, h_ext, seed, budget),
            1,
        );
        v.set("afe.samples_per_fix", samples_per_fix, counted);
        v.set("afe.edges_per_sample", edges_per_sample, counted);
        v.set(
            "rtl.clock_n_ns",
            micro::clock_n_ns(parts, h_ext, seed, budget),
            1,
        );
        v.set(
            "rtl.cordic_ns",
            micro::cordic_ns(parts, &readings, budget),
            1,
        );
        v.set("compass.fix_us", quantile(&fix_ns, 0.5) / 1e3, fixes);
        v.set("compass.fix_p99_us", quantile(&fix_ns, 0.99) / 1e3, fixes);
        v.set(
            "compass.unexplained_share",
            1.0 - stage_ns as f64 / tracer.total_ns(FIX_SPAN) as f64,
            fixes,
        );
        if let Entry::Checked(plan) = self.entry {
            v.set(
                "compass.health_ns",
                micro::health_ns(&tracker, &readings, budget),
                1,
            );
            if let Some(plan) = plan {
                let seeds: Vec<u64> = self.inputs.iter().map(|i| i.seed).collect();
                v.set(
                    "faults.compile_ns",
                    micro::compile_ns(plan, &seeds, budget),
                    1,
                );
                v.set(
                    "faults.struck_axis_share",
                    struck as f64 / (2 * fixes) as f64,
                    2 * fixes,
                );
            }
        }
        accounted
    }

    /// Analogue samples per fix and detector edges per sample, from the
    /// program's own `msim.analog_steps` and `afe.pulse_edges` counters
    /// over the first fixes, with a recorder installed for just that
    /// work.
    fn program_counters(&self) -> (f64, f64) {
        let fixes = COUNTED_FIXES.min(self.inputs.len());
        let recorder = Arc::new(AggregatingRecorder::new());
        fluxcomp_obs::install(recorder.clone());
        let mut scratch = MeasureScratch::for_design(self.design);
        let mut tracker = DegradedTracker::for_design(self.design);
        for input in &self.inputs[..fixes] {
            library_fix(self.design, input, self.entry, &mut scratch, &mut tracker);
        }
        fluxcomp_obs::uninstall();
        let profile = recorder.snapshot();
        let steps = profile.counter("msim.analog_steps").unwrap_or(0) as f64;
        let edges = profile.counter("afe.pulse_edges").unwrap_or(0) as f64;
        (steps / fixes as f64, edges / steps.max(1.0))
    }
}
