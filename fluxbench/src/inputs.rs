//! Every input the benchmark feeds the program, derived from the
//! workload seed. The program only ever sees the generated values.

use crate::recompose::{Field, FixInput};
use fluxcomp_compass::{CompassConfig, CompassDesign};
use fluxcomp_exec::{derive_seed, unit_f64};
use fluxcomp_faults::{AxisSel, FaultKind, FaultPlan, FaultSpec};
use fluxcomp_serve::{FieldSpec, FixRequest};
use fluxcomp_units::Degrees;

/// Headings in one sweep pass: a 1° grid.
pub const GRID: usize = 360;

/// Distinct fixes a `serve_repeat` client cycles through.
pub const HOT_FIXES: u64 = 16;

// Independent streams drawn from the one workload seed.
const GRID_OFFSET: u64 = 1;
const NOISE_SEEDS: u64 = 2;
const PLAN_SEED: u64 = 3;
const SERVE_HEADINGS: u64 = 4;
const SERVE_SEEDS: u64 = 5;

/// The paper design, noise-free: `sweep_clean` and both serve workloads.
pub fn clean_config() -> CompassConfig {
    CompassConfig::paper_design()
}

/// The paper design with 2 mV RMS pickup noise, the value the
/// determinism suite and the fault experiment use.
pub fn noisy_config() -> CompassConfig {
    let mut config = CompassConfig::paper_design();
    config.frontend.pickup_noise_rms = 2e-3;
    config
}

/// The fault experiment's `mixed` plan with a seed-derived plan seed:
/// a 20 % open X pickup plus a 40 % noise burst on either axis.
pub fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(derive_seed(seed, PLAN_SEED))
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

/// One sweep pass: the 1° heading grid rotated by a seed-derived
/// sub-degree offset, each fix with its own noise seed.
pub fn sweep_grid(seed: u64) -> Vec<FixInput> {
    let offset = unit_f64(derive_seed(seed, GRID_OFFSET));
    let noise = derive_seed(seed, NOISE_SEEDS);
    (0..GRID)
        .map(|k| FixInput {
            field: Field::Heading(Degrees::new(k as f64 + offset)),
            seed: derive_seed(noise, k as u64),
        })
        .collect()
}

/// The request stream of a serve workload.
///
/// Request `k` of `serve_unique` names its own random heading and noise
/// seed; even requests send the heading, odd ones the axial field vector
/// the sensor pair would see at that heading, so both fix entry points
/// are served. `serve_repeat` cycles the first [`HOT_FIXES`] of the
/// same stream. The request id is always `k`.
#[derive(Debug, Clone)]
pub struct RequestStream {
    design: CompassDesign,
    headings: u64,
    seeds: u64,
    distinct: Option<u64>,
}

impl RequestStream {
    /// The stream for `seed`; `repeat` selects the hot-set variant.
    pub fn new(design: CompassDesign, seed: u64, repeat: bool) -> Self {
        Self {
            design,
            headings: derive_seed(seed, SERVE_HEADINGS),
            seeds: derive_seed(seed, SERVE_SEEDS),
            distinct: repeat.then_some(HOT_FIXES),
        }
    }

    /// Request `k`.
    pub fn request(&self, k: u64) -> FixRequest {
        let j = self.distinct.map_or(k, |n| k % n);
        let heading = 360.0 * unit_f64(derive_seed(self.headings, j));
        let field = if j.is_multiple_of(2) {
            FieldSpec::HeadingTruth(heading)
        } else {
            let (hx, hy) = self.design.axial_fields(Degrees::new(heading));
            FieldSpec::FieldVector {
                hx: hx.value(),
                hy: hy.value(),
            }
        };
        FixRequest {
            id: k,
            seed: derive_seed(self.seeds, j),
            deadline_ms: 0,
            no_cache: false,
            field,
        }
    }

    /// How many distinct fixes the stream names (`None`: every request
    /// is distinct).
    pub fn distinct(&self) -> Option<u64> {
        self.distinct
    }
}
