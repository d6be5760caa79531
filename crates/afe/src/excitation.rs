//! The precomputed excitation drive table.
//!
//! The oscillator → V-I converter → excitation-coil chain is strictly
//! periodic and completely independent of the external field: at grid
//! sample `k` of a run the demanded current, the delivered (compliance-
//! limited) current, its slew rate and the resulting core drive field
//! depend only on `k mod samples_per_period`. The analogue grid is
//! synchronous with the excitation (the front-end samples each period at
//! the same phases), so **one period of the drive chain — evaluated once
//! at construction — covers every settle and measure period of every
//! run**, for every axis, heading and worker thread.
//!
//! [`ExcitationTable`] is that single period. The one measurement
//! kernel of [`FrontEnd`](crate::frontend::FrontEnd) reads its drive
//! values from it, for the duty-only fast path and the traced run alike.

use crate::oscillator::TriangleWave;
use crate::vi_converter::ViConverter;
use fluxcomp_fluxgate::transducer::Fluxgate;
use fluxcomp_units::magnetics::AmperePerMeter;
use fluxcomp_units::si::Ampere;
use std::sync::Arc;

/// The heading-invariant drive state at one analogue grid sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveSample {
    /// Delivered excitation current (after V-I compliance limiting).
    pub i: Ampere,
    /// Delivered current slew rate in A/s (zero while the converter
    /// clips: the current is pinned at the compliance limit).
    pub di_dt: f64,
    /// Core drive field produced by `i` alone (the external field adds
    /// on top at measurement time).
    pub h_drive: AmperePerMeter,
    /// Core drive-field slew rate in A/m/s.
    pub dh_dt: f64,
    /// Whether the V-I converter clips at this sample.
    pub clips: bool,
}

/// One period of the periodic oscillator → V-I → coil drive chain,
/// sampled on the front-end's analogue grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ExcitationTable {
    /// Shared by every clone: the table never changes once built.
    samples: Arc<[DriveSample]>,
    any_clips: bool,
}

impl ExcitationTable {
    /// Evaluates the drive chain over one period of `samples` grid
    /// points: sample `k` is taken at `t = k·(T/samples)`, matching the
    /// transient loop's grid exactly.
    pub fn build(
        excitation: &TriangleWave,
        vi: &ViConverter,
        sensor: &Fluxgate,
        samples: usize,
    ) -> Self {
        let period = 1.0 / excitation.frequency().value();
        let dt = period / samples as f64;
        let load = sensor.params().r_excitation;
        let samples: Arc<[DriveSample]> = (0..samples)
            .map(|k| {
                let t = k as f64 * dt;
                let demanded = excitation.value(t);
                let i = vi.drive(demanded, load);
                let di_dt = if i == demanded {
                    excitation.slope(t)
                } else {
                    0.0
                };
                DriveSample {
                    i,
                    di_dt,
                    h_drive: sensor.h_from_current(i),
                    dh_dt: sensor.dh_dt_from_current(di_dt),
                    clips: vi.clips(demanded, load),
                }
            })
            .collect();
        let any_clips = samples.iter().any(|d| d.clips);
        Self { samples, any_clips }
    }

    /// The drive samples of one period, in grid order.
    pub fn samples(&self) -> &[DriveSample] {
        &self.samples
    }

    /// Number of grid samples per period.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` for a zero-length table (never produced by `build` with a
    /// validated front-end configuration).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Whether the V-I converter clips anywhere in the period — and
    /// therefore (by periodicity) anywhere in any run.
    pub fn any_clips(&self) -> bool {
        self.any_clips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxcomp_fluxgate::transducer::FluxgateParams;
    use fluxcomp_units::si::Ohm;

    fn paper_table() -> ExcitationTable {
        let excitation = TriangleWave::paper_excitation();
        let vi = ViConverter::paper_design();
        let sensor = Fluxgate::new(FluxgateParams::adapted());
        ExcitationTable::build(&excitation, &vi, &sensor, 4096)
    }

    #[test]
    fn table_is_one_period_of_the_grid() {
        let table = paper_table();
        assert_eq!(table.len(), 4096);
        assert!(!table.is_empty());
        assert!(!table.any_clips());
    }

    #[test]
    fn entries_match_direct_evaluation() {
        let excitation = TriangleWave::paper_excitation();
        let vi = ViConverter::paper_design();
        let sensor = Fluxgate::new(FluxgateParams::adapted());
        let n = 512;
        let table = ExcitationTable::build(&excitation, &vi, &sensor, n);
        let dt = (1.0 / excitation.frequency().value()) / n as f64;
        for (k, drive) in table.samples().iter().enumerate() {
            let t = k as f64 * dt;
            let demanded = excitation.value(t);
            let i = vi.drive(demanded, sensor.params().r_excitation);
            assert_eq!(drive.i, i, "sample {k}");
            assert_eq!(drive.h_drive, sensor.h_from_current(i), "sample {k}");
            let di_dt = if i == demanded {
                excitation.slope(t)
            } else {
                0.0
            };
            assert_eq!(drive.di_dt.to_bits(), di_dt.to_bits(), "sample {k}");
            assert_eq!(
                drive.dh_dt.to_bits(),
                sensor.dh_dt_from_current(di_dt).to_bits(),
                "sample {k}"
            );
        }
    }

    #[test]
    fn clipping_load_marks_the_table() {
        let excitation = TriangleWave::paper_excitation();
        let vi = ViConverter::paper_design();
        let mut params = FluxgateParams::adapted();
        params.r_excitation = Ohm::new(2_000.0); // beyond the 800 Ω limit
        let sensor = Fluxgate::new(params);
        let table = ExcitationTable::build(&excitation, &vi, &sensor, 1024);
        assert!(table.any_clips());
        // Clipped samples carry zero slew — the current is pinned.
        for drive in table.samples().iter().filter(|d| d.clips) {
            assert_eq!(drive.di_dt, 0.0);
            assert_eq!(drive.dh_dt, 0.0);
        }
        // The triangle crosses zero, so not every sample clips.
        assert!(table.samples().iter().any(|d| !d.clips));
    }
}
