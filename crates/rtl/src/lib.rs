//! # fluxcomp-rtl
//!
//! The **digital back-end** of the integrated compass (paper §4, Fig. 1
//! right half), modelled at two levels:
//!
//! **Cycle-accurate behavioural RTL** (the VHDL the paper describes):
//!
//! * [`clock`] — the 4.194304 MHz (= 2²²) master clock;
//! * [`counter`] — the high-speed up/down counter digitising the pulse
//!   detector's duty cycle;
//! * [`atan_rom`] / [`cordic`] — the Fig. 8 greedy vectoring CORDIC that
//!   computes the heading "with an accuracy of one degree" in 8 cycles;
//! * [`watch`] / [`watch_extras`] / [`lcd`] — the "common watch
//!   options" (time, alarm, stopwatch, calendar) and the display driver
//!   selecting direction or time;
//! * [`adc`] — the SAR ADC the second-harmonic baseline needs
//!   (experiment E8).
//!
//! **Gate level** (the paper's Sea-of-Gates synthesis flow):
//!
//! * [`gates`] — structural netlists with CMOS transistor costs;
//! * [`netsim`] — a deterministic event-driven gate simulator;
//! * [`synth`] — datapath builders (adders, the counter, a CORDIC
//!   micro-rotation) validated against the behavioural models, plus the
//!   transistor inventory of the whole digital section for the
//!   Sea-of-Gates occupancy experiment (E6);
//! * [`cordic_netlist`] — the whole Fig. 8 kernel unrolled into one
//!   gate-level netlist, equivalence-checked against the behavioural
//!   unit;
//! * [`timing`] — static timing analysis: the proof that the counter
//!   closes timing at 4.194304 MHz on mid-90s gates, and that the
//!   CORDIC *must* be iterated rather than unrolled;
//! * [`scan`] — scan-chain insertion (design-for-test of the logic
//!   itself, complementing the MCM's boundary scan).
//!
//! ## Example: the Fig. 8 arctangent
//!
//! ```
//! use fluxcomp_rtl::cordic::CordicArctan;
//! use fluxcomp_units::Degrees;
//!
//! # fn main() -> Result<(), fluxcomp_rtl::cordic::ComputeHeadingError> {
//! let cordic = CordicArctan::paper(); // 8 iterations, ×128 prescale
//! let result = cordic.heading(1000, 1000)?;
//! assert!(result.heading.angular_distance(Degrees::new(45.0)).value() < 1.0);
//! assert_eq!(result.cycles, 8);
//! # Ok(())
//! # }
//! ```

pub mod adc;
pub mod atan_rom;
pub mod clock;
pub mod cordic;
pub mod cordic_netlist;
pub mod counter;
pub mod gates;
pub mod lcd;
pub mod netsim;
pub mod scan;
pub mod synth;
pub mod timing;
pub mod watch;
pub mod watch_extras;

pub use adc::SarAdc;
pub use atan_rom::AtanRom;
pub use clock::ClockTree;
pub use cordic::{ComputeHeadingError, CordicArctan, HeadingResult};
pub use cordic_netlist::{cordic_kernel_netlist, CordicKernelNets};
pub use counter::UpDownCounter;
pub use gates::{GateKind, NetId, Netlist, NetlistStats};
pub use lcd::{DisplayDriver, DisplayFrame, DisplayMode};
pub use netsim::GateSim;
pub use scan::{insert_scan, ScanChain};
pub use timing::{analyze as timing_analyze, DelayModel, TimingReport};
pub use watch::{TimeOfDay, Watch};
pub use watch_extras::{Alarm, CalendarDate, Stopwatch};
