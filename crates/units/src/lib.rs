//! # fluxcomp-units
//!
//! Strongly-typed physical quantities and angle types shared by every
//! crate in the *fluxcomp* workspace.
//!
//! The 1997 integrated-compass paper mixes two physical worlds:
//!
//! * **Analogue circuit quantities** — volts, amperes, ohms, farads, hertz,
//!   seconds ([`si`]);
//! * **Magnetic quantities** — tesla, ampere-per-metre and the CGS oersted
//!   used by the sensor literature ([`magnetics`]).
//!
//! The digital side needs no type here: the CORDIC datapath of Fig. 8
//! works on raw `i64` registers with a 128× prescale, and its angles are
//! integers scaled by `rtl::atan_rom::ANGLE_SCALE`.
//!
//! Keeping these distinct at the type level prevents the classic
//! mixed-signal modelling bugs (feeding amperes where the model expects
//! ampere-per-metre, or degrees where radians are required).
//!
//! ## Example
//!
//! ```
//! use fluxcomp_units::si::{Volt, Ohm};
//! use fluxcomp_units::angle::Degrees;
//!
//! let v = Volt::new(5.0);
//! let r = Ohm::new(800.0);
//! let i = v / r; // Ampere
//! assert!((i.value() - 6.25e-3).abs() < 1e-12);
//!
//! let heading = Degrees::new(450.0).normalized();
//! assert_eq!(heading, Degrees::new(90.0));
//! ```

pub mod angle;
pub mod eng;
pub mod magnetics;
pub mod si;

pub use angle::{Degrees, Radians};
pub use eng::eng;
pub use magnetics::{AmperePerMeter, Oersted, Tesla, MU_0};
pub use si::{Ampere, Farad, Henry, Hertz, Ohm, Seconds, Volt, Watt};
