//! # fluxcomp-msim
//!
//! The simulation support the reproduction runs — the workspace's
//! stand-in for what the paper used the Anacad **ELDO** simulator for.
//! The front-end transient itself is `fluxcomp_afe::FrontEnd`'s own
//! sample loop; this crate supplies the pieces around it:
//!
//! * [`time`] — an integer simulation time base (picoseconds) so that
//!   analogue samples and digital clock edges order deterministically;
//! * [`solver`] — the RK4 integrator behind the relaxation-oscillator
//!   check (`fluxcomp_afe::relaxation_sim`);
//! * [`trace`] — waveform recording with CSV, VCD and ASCII-art output
//!   (the Fig. 3 / Fig. 4 scope shots are regenerated from these traces);
//! * [`montecarlo`] — deterministic tolerance sampling and yield
//!   analysis (the ELDO Monte-Carlo mode; experiment X3);
//! * [`spectrum`] — Goertzel bins and harmonic profiles (the
//!   even-harmonic physics behind second-harmonic readout).
//!
//! ## Example: RC discharge
//!
//! ```
//! use fluxcomp_msim::solver::OdeSolver;
//!
//! // dv/dt = -v / RC with RC = 1 ms.
//! let mut solver = OdeSolver::new(1);
//! let mut v = [5.0_f64];
//! let rc = 1e-3;
//! let dt = 1e-6;
//! for _ in 0..1000 {
//!     solver.step(0.0, dt, &mut v, |_t, y, dy| dy[0] = -y[0] / rc);
//! }
//! // After one time constant, v ≈ 5/e.
//! assert!((v[0] - 5.0 / std::f64::consts::E).abs() < 1e-3);
//! ```

pub mod montecarlo;
pub mod solver;
pub mod spectrum;
pub mod time;
pub mod trace;

pub use montecarlo::{run_monte_carlo, MonteCarloResult, Tolerance};
pub use solver::OdeSolver;
pub use spectrum::{bin_magnitude, even_odd_ratio, goertzel, harmonic_profile};
pub use time::SimTime;
pub use trace::{Trace, TraceSet};
