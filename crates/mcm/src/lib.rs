//! # fluxcomp-mcm
//!
//! The **multi-chip module** that carries the compass (paper §2, §6,
//! \[Oli96\]): the Sea-of-Gates die and the two micro-machined fluxgate
//! sensor dies on a silicon substrate, together with the passives that
//! cannot live on chip (the 12.5 MΩ oscillator resistor, capacitors
//! above 400 pF) — all "equipped with boundary scan test structures".
//!
//! * [`substrate`] — the module netlist with injectable opens/shorts,
//!   and each die's boundary-register map;
//! * [`bscan`] — a full IEEE 1149.1 TAP controller, IR table and
//!   boundary register;
//! * [`chain`] — the three dies' TAPs daisy-chained over the substrate:
//!   IR loads, DR scans that capture what the substrate carries, and
//!   scan-path integrity checks;
//! * [`interconnect_test`] — the EXTEST counting-sequence interconnect
//!   test, run through the TAP chain, and its fault-coverage evaluation
//!   (experiment E10);
//! * [`bsdl`] — BSDL-style description generation for the SoG die's
//!   scan resources (correct by construction, parsed back in tests);
//! * [`diagnosis`] — a fault dictionary mapping failure signatures back
//!   to physical defect candidates.
//!
//! ## Example
//!
//! ```
//! use fluxcomp_mcm::interconnect_test;
//! use fluxcomp_mcm::substrate::{Fault, McmAssembly};
//!
//! let mut module = McmAssembly::paper_module();
//! assert!(interconnect_test::run(&module).passed());
//!
//! module.inject(Fault::Open { net: 2 });
//! assert_eq!(interconnect_test::run(&module).failing_nets, [2]);
//! ```

pub mod bscan;
pub mod bsdl;
pub mod chain;
pub mod diagnosis;
pub mod interconnect_test;
pub mod substrate;

pub use bscan::{Instruction, TapController, TapState};
pub use bsdl::{generate_bsdl, parse_bsdl, BsdlSummary};
pub use chain::TapChain;
pub use diagnosis::{diagnose_module, FaultDictionary, Signature};
pub use interconnect_test::TestReport;
pub use substrate::{Die, Fault, McmAssembly, McmNet, SubstratePassive};
