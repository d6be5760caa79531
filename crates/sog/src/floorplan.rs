//! Block placement on the Sea-of-Gates array.
//!
//! Gate arrays never use raw transistor pairs 1:1 — with only two metal
//! layers (one of which also builds the capacitors), routing consumes
//! most sites. [`Block::from_transistors`] converts a netlist transistor
//! count into committed array sites through a **utilisation factor**
//! (default 0.30: a mid-90s channelless SoG with 2 metal layers routes at
//! roughly 25–35 % site utilisation; \[Fre94\]-era practice).
//!
//! [`Floorplan`] then assigns blocks to quarters greedily, keeping power
//! domains apart (the paper wires separate supplies to the digital and
//! analogue quarters), and reports per-quarter occupancy — the numbers
//! behind the paper's claim that "the digital part … occupies 3 quarters
//! fully and the analogue part 1 quarter for less than 15 %".

use crate::fabric::{PowerDomain, SogArray};
use std::error::Error;
use std::fmt;

/// Default routing-limited utilisation of a 2-metal SoG.
pub const DEFAULT_UTILIZATION: f64 = 0.30;

/// A block to be placed.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block name (for the report).
    pub name: String,
    /// Array sites the block commits (logic + routing shadow).
    pub sites: u32,
    /// Which supply the block must sit on.
    pub domain: PowerDomain,
}

impl Block {
    /// A block from a raw site count.
    pub fn new(name: impl Into<String>, sites: u32, domain: PowerDomain) -> Self {
        Self {
            name: name.into(),
            sites,
            domain,
        }
    }

    /// Converts a transistor count to committed sites:
    /// `sites = ceil(transistors / 2 / utilization)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < utilization ≤ 1`.
    pub fn from_transistors(
        name: impl Into<String>,
        transistors: u32,
        utilization: f64,
        domain: PowerDomain,
    ) -> Self {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1]"
        );
        let sites = ((transistors as f64 / 2.0) / utilization).ceil() as u32;
        Self::new(name, sites, domain)
    }
}

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlaceBlockError {
    /// A single block exceeds a whole quarter.
    BlockTooLarge {
        /// The offending block.
        block: String,
        /// Its site demand.
        sites: u32,
    },
    /// The array ran out of quarters for a domain.
    OutOfCapacity {
        /// The domain that could not be extended.
        domain: PowerDomain,
    },
}

impl fmt::Display for PlaceBlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceBlockError::BlockTooLarge { block, sites } => {
                write!(
                    f,
                    "block `{block}` needs {sites} sites, more than a quarter"
                )
            }
            PlaceBlockError::OutOfCapacity { domain } => {
                write!(f, "no remaining quarter for the {domain} domain")
            }
        }
    }
}

impl Error for PlaceBlockError {}

/// One placed block.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The block.
    pub block: Block,
    /// Quarter it landed in.
    pub quarter: usize,
}

/// The floorplan: an array plus the placements made on it.
///
/// Digital blocks fill quarters from index 0 upward; analogue blocks
/// fill from index 3 downward — mirroring the paper's arrangement and
/// guaranteeing the two supplies never share a quarter.
#[derive(Debug, Clone)]
pub struct Floorplan {
    array: SogArray,
    placements: Vec<Placement>,
}

impl Floorplan {
    /// An empty floorplan on the given array.
    pub fn new(array: SogArray) -> Self {
        Self {
            array,
            placements: Vec::new(),
        }
    }

    /// The paper's array, empty.
    pub fn fishbone() -> Self {
        Self::new(SogArray::fishbone())
    }

    /// The array with current occupancy.
    pub fn array(&self) -> &SogArray {
        &self.array
    }

    /// All placements so far.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Places one block (first-fit within its domain's quarters).
    ///
    /// # Errors
    ///
    /// See [`PlaceBlockError`].
    pub fn place(&mut self, block: Block) -> Result<usize, PlaceBlockError> {
        let n = self.array.quarters().len();
        let cap = self.array.quarters()[0].capacity_sites;
        if block.sites > cap {
            return Err(PlaceBlockError::BlockTooLarge {
                block: block.name.clone(),
                sites: block.sites,
            });
        }
        let order: Vec<usize> = match block.domain {
            PowerDomain::Digital => (0..n).collect(),
            PowerDomain::Analog => (0..n).rev().collect(),
        };
        for qi in order {
            let q = &self.array.quarters()[qi];
            // A quarter is eligible if unassigned or already in the right
            // domain, and has room.
            let eligible = match q.domain {
                None => true,
                Some(d) => d == block.domain,
            };
            if eligible && q.free_sites() >= block.sites {
                let quarters = self.array.quarters_mut();
                quarters[qi].used_sites += block.sites;
                quarters[qi].domain = Some(block.domain);
                self.placements.push(Placement { block, quarter: qi });
                return Ok(qi);
            }
        }
        Err(PlaceBlockError::OutOfCapacity {
            domain: block.domain,
        })
    }

    /// Equivalent quarters a domain *fills*: committed sites / quarter
    /// capacity — the paper's "occupies 3 quarters fully" metric.
    pub fn quarters_filled(&self, domain: PowerDomain) -> f64 {
        let cap = self.array.quarters()[0].capacity_sites as f64;
        let used: u32 = self
            .placements
            .iter()
            .filter(|p| p.block.domain == domain)
            .map(|p| p.block.sites)
            .sum();
        used as f64 / cap
    }

    /// Occupancy of the *most analogue* quarter, as a fraction — the
    /// paper's "less than 15 %" figure.
    pub fn analog_quarter_occupancy(&self) -> f64 {
        self.array
            .quarters()
            .iter()
            .filter(|q| q.domain == Some(PowerDomain::Analog))
            .map(|q| q.occupancy())
            .fold(0.0, f64::max)
    }

    /// A plain-text occupancy report.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Sea-of-Gates floorplan ({} quarters)",
            self.array.quarters().len()
        );
        for q in self.array.quarters() {
            let domain = q
                .domain
                .map(|d| d.to_string())
                .unwrap_or_else(|| "unused".into());
            let _ = writeln!(
                out,
                "  quarter {}: {:>6}/{} sites ({:>5.1} %) [{}]",
                q.index,
                q.used_sites,
                q.capacity_sites,
                q.occupancy() * 100.0,
                domain
            );
        }
        for p in &self.placements {
            let _ = writeln!(
                out,
                "    {:<28} {:>6} sites -> quarter {}",
                p.block.name, p.block.sites, p.quarter
            );
        }
        out
    }
}

impl Default for Floorplan {
    fn default() -> Self {
        Self::fishbone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digital_fills_from_front_analog_from_back() {
        let mut fp = Floorplan::fishbone();
        let d = fp
            .place(Block::new("digital", 10_000, PowerDomain::Digital))
            .unwrap();
        let a = fp
            .place(Block::new("analog", 1_000, PowerDomain::Analog))
            .unwrap();
        assert_eq!(d, 0);
        assert_eq!(a, 3);
    }

    #[test]
    fn domains_never_share_a_quarter() {
        let mut fp = Floorplan::fishbone();
        // Fill three quarters with digital.
        for k in 0..3 {
            fp.place(Block::new(format!("d{k}"), 25_000, PowerDomain::Digital))
                .unwrap();
        }
        // Analogue still lands in quarter 3.
        assert_eq!(
            fp.place(Block::new("a", 100, PowerDomain::Analog)).unwrap(),
            3
        );
        // A further digital block cannot enter the analogue quarter.
        assert_eq!(
            fp.place(Block::new("d3", 100, PowerDomain::Digital)),
            Err(PlaceBlockError::OutOfCapacity {
                domain: PowerDomain::Digital
            })
        );
    }

    #[test]
    fn first_fit_spills_into_next_quarter() {
        let mut fp = Floorplan::fishbone();
        fp.place(Block::new("d0", 20_000, PowerDomain::Digital))
            .unwrap();
        let q = fp
            .place(Block::new("d1", 10_000, PowerDomain::Digital))
            .unwrap();
        assert_eq!(q, 1, "second block cannot fit in quarter 0");
        // A small block still backfills quarter 0.
        let q = fp
            .place(Block::new("d2", 2_500, PowerDomain::Digital))
            .unwrap();
        assert_eq!(q, 0);
    }

    #[test]
    fn utilization_conversion() {
        let b = Block::from_transistors("x", 15_000, 0.30, PowerDomain::Digital);
        assert_eq!(b.sites, 25_000);
        let b = Block::from_transistors("y", 30_000, 1.0, PowerDomain::Digital);
        assert_eq!(b.sites, 15_000);
    }

    #[test]
    fn quarters_filled_metric() {
        let mut fp = Floorplan::fishbone();
        fp.place(Block::new("d", 25_000, PowerDomain::Digital))
            .unwrap();
        fp.place(Block::new("d2", 12_500, PowerDomain::Digital))
            .unwrap();
        assert!((fp.quarters_filled(PowerDomain::Digital) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn analog_occupancy_metric() {
        let mut fp = Floorplan::fishbone();
        fp.place(Block::new("a", 3_000, PowerDomain::Analog))
            .unwrap();
        assert!((fp.analog_quarter_occupancy() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn oversized_block_rejected() {
        let mut fp = Floorplan::fishbone();
        let err = fp
            .place(Block::new("huge", 25_001, PowerDomain::Digital))
            .unwrap_err();
        assert!(matches!(err, PlaceBlockError::BlockTooLarge { .. }));
        assert!(err.to_string().contains("huge"));
    }

    #[test]
    fn report_contains_quarters_and_blocks() {
        let mut fp = Floorplan::fishbone();
        fp.place(Block::new("cordic", 9_000, PowerDomain::Digital))
            .unwrap();
        let report = fp.report();
        assert!(report.contains("quarter 0"));
        assert!(report.contains("cordic"));
        assert!(report.contains("digital"));
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn bad_utilization_rejected() {
        let _ = Block::from_transistors("x", 100, 0.0, PowerDomain::Digital);
    }
}
