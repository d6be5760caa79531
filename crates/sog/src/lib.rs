//! # fluxcomp-sog
//!
//! A model of the **fishbone Sea-of-Gates array** the compass is mapped
//! onto (paper §2, Fig. 2, \[Fre94\]): 4 quarters × ~50k pmos/nmos pairs
//! (200k transistors), two metal layers, per-quarter power supplies,
//! metal2-over-metal1 capacitors with the > 400 pF components banished to
//! the MCM substrate.
//!
//! * [`fabric`] — the array geometry, power domains and the capacitor
//!   placement rule;
//! * [`floorplan`] — transistor-count → site conversion (with a
//!   routing-utilisation factor) and greedy quarter placement, producing
//!   the occupancy report of experiment E6;
//! * [`library`] — site costs of the analogue macros (\[Haa95\]/\[Don94\]
//!   style analogue-on-SoG design);
//! * [`power_grid`] — supply-spine IR droop, quantifying why the paper
//!   gives the analogue section its own supply quarter.
//!
//! ## Example
//!
//! ```
//! use fluxcomp_sog::floorplan::{Block, Floorplan};
//! use fluxcomp_sog::fabric::PowerDomain;
//!
//! # fn main() -> Result<(), fluxcomp_sog::floorplan::PlaceBlockError> {
//! let mut fp = Floorplan::fishbone();
//! fp.place(Block::from_transistors(
//!     "cordic", 12_000, 0.30, PowerDomain::Digital,
//! ))?;
//! assert_eq!(fp.quarters_touched(PowerDomain::Digital), 1);
//! # Ok(())
//! # }
//! ```

pub mod fabric;
pub mod floorplan;
pub mod library;
pub mod power_grid;

pub use fabric::{CapacitorPlan, PowerDomain, Quarter, SogArray};
pub use floorplan::{Block, Floorplan, PlaceBlockError, Placement};
pub use library::AnalogMacro;
pub use power_grid::{isolation_report, IsolationReport, SupplySpine};
