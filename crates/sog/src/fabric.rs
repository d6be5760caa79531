//! The fishbone Sea-of-Gates array (paper §2, Fig. 2, \[Fre94\]).
//!
//! "The fishbone SoG consists of 4 quarters, each with circa 50k
//! pmos/nmos pairs. … Since each quarter has a separate power supply, we
//! have used two different power supplies for both the digital and
//! analogue parts."
//!
//! [`SogArray`] models that: four [`Quarter`]s of 25 000 transistor-pair
//! sites each (see [`SITES_PER_QUARTER`] for how the paper's ambiguous
//! headcount is resolved), each quarter assignable to one power domain.
//! Analogue design on this digital array follows \[Haa95\]/\[Don94\];
//! on-chip capacitors are built "by putting the second metal layer above
//! the first one", with very large capacitors (> 400 pF) and resistors
//! banished to the MCM substrate — the rule [`CapacitorPlan`] encodes.

use fluxcomp_units::si::Farad;
use std::fmt;

/// Power domain of a quarter (the paper uses separate analogue and
/// digital supplies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerDomain {
    /// The digital supply.
    Digital,
    /// The analogue supply.
    Analog,
}

impl fmt::Display for PowerDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerDomain::Digital => write!(f, "digital"),
            PowerDomain::Analog => write!(f, "analog"),
        }
    }
}

/// One quarter of the fishbone array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quarter {
    /// Quarter index, 0..4.
    pub index: usize,
    /// Total transistor-pair sites.
    pub capacity_sites: u32,
    /// Sites committed to placed blocks.
    pub used_sites: u32,
    /// The supply this quarter is wired to (set by the floorplan).
    pub domain: Option<PowerDomain>,
}

impl Quarter {
    /// Free sites remaining.
    pub fn free_sites(&self) -> u32 {
        self.capacity_sites - self.used_sites
    }

    /// Occupancy as a fraction of capacity.
    pub fn occupancy(&self) -> f64 {
        self.used_sites as f64 / self.capacity_sites as f64
    }
}

/// The four-quarter fishbone array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SogArray {
    quarters: Vec<Quarter>,
}

/// Sites (transistor pairs) per quarter.
///
/// The paper's headline is a "Sea-of-Gates array of 200k transistors";
/// §2 says "4 quarters, each with circa 50k pmos/nmos pairs", which would
/// be 400k transistors — the two statements are inconsistent in the
/// original text. We follow the headline (and the abstract): 200k
/// transistors total = 100k pairs = 25k pair-sites per quarter, reading
/// §2's "50k" as counting transistors per quarter rather than pairs.
pub const SITES_PER_QUARTER: u32 = 25_000;

impl SogArray {
    /// The paper's fishbone array: 4 quarters totalling 200k transistors.
    pub fn fishbone() -> Self {
        Self::with_quarters(4, SITES_PER_QUARTER)
    }

    /// An array with arbitrary geometry (for what-if floorplans).
    ///
    /// # Panics
    ///
    /// Panics if `quarters` or `sites_per_quarter` is zero.
    pub fn with_quarters(quarters: usize, sites_per_quarter: u32) -> Self {
        assert!(quarters > 0, "need at least one quarter");
        assert!(sites_per_quarter > 0, "quarters need capacity");
        Self {
            quarters: (0..quarters)
                .map(|index| Quarter {
                    index,
                    capacity_sites: sites_per_quarter,
                    used_sites: 0,
                    domain: None,
                })
                .collect(),
        }
    }

    /// The quarters.
    pub fn quarters(&self) -> &[Quarter] {
        &self.quarters
    }

    /// Mutable access for the floorplanner.
    pub(crate) fn quarters_mut(&mut self) -> &mut [Quarter] {
        &mut self.quarters
    }

    /// Total committed sites across quarters.
    pub fn used_sites(&self) -> u32 {
        self.quarters.iter().map(|q| q.used_sites).sum()
    }
}

impl Default for SogArray {
    fn default() -> Self {
        Self::fishbone()
    }
}

/// Where a capacitor of a given value can be realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacitorPlan {
    /// Metal2-over-metal1 on-chip capacitor occupying array sites.
    OnChip {
        /// Sites shadowed by the capacitor plates.
        sites: u32,
    },
    /// Too large for on-chip plates: realised on the MCM substrate
    /// (paper: "very large capacitors (> 400 pF) and resistors should be
    /// realised … on the substrate of the MCM").
    McmSubstrate,
}

/// The paper's on-chip limit.
pub const ON_CHIP_CAP_LIMIT: Farad = Farad::new(400e-12);

/// Sites shadowed per picofarad of metal-metal capacitance.
///
/// Estimate: metal2/metal1 plate capacitance ≈ 0.05 fF/µm² in a mid-90s
/// 2-metal process, one SoG pair site ≈ 170 µm² → ≈ 8.5 fF/site →
/// ≈ 120 sites/pF. The Fig. 7 oscillator layout — where the 10 pF
/// capacitor visibly dominates the block — is consistent with this
/// order of magnitude.
pub const SITES_PER_PICOFARAD: f64 = 120.0;

impl CapacitorPlan {
    /// Plans a capacitor of the given value.
    ///
    /// # Panics
    ///
    /// Panics if the value is not strictly positive.
    pub fn for_value(c: Farad) -> Self {
        assert!(c.value() > 0.0, "capacitance must be positive");
        if c > ON_CHIP_CAP_LIMIT {
            CapacitorPlan::McmSubstrate
        } else {
            let pf = c.value() * 1e12;
            CapacitorPlan::OnChip {
                sites: (pf * SITES_PER_PICOFARAD).ceil() as u32,
            }
        }
    }

    /// Sites consumed on the array (zero when on the MCM).
    pub fn sites(&self) -> u32 {
        match *self {
            CapacitorPlan::OnChip { sites } => sites,
            CapacitorPlan::McmSubstrate => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fishbone_is_200k_transistors() {
        let array = SogArray::fishbone();
        // 4 quarters × 25 000 pair sites × 2 transistors per site.
        assert_eq!(array.quarters().len(), 4);
        assert!(array.quarters().iter().all(|q| q.capacity_sites == 25_000));
    }

    #[test]
    fn quarter_accounting() {
        let mut array = SogArray::fishbone();
        array.quarters_mut()[0].used_sites = 12_500;
        let q = array.quarters()[0];
        assert_eq!(q.free_sites(), 12_500);
        assert!((q.occupancy() - 0.5).abs() < 1e-12);
        assert_eq!(array.used_sites(), 12_500);
    }

    #[test]
    fn paper_10pf_capacitor_fits_on_chip() {
        let plan = CapacitorPlan::for_value(Farad::new(10e-12));
        match plan {
            CapacitorPlan::OnChip { sites } => {
                assert_eq!(sites, 1_200);
                // A visible chunk of an oscillator block but tiny vs a
                // 50k-site quarter.
                assert!(sites < SITES_PER_QUARTER / 10);
            }
            CapacitorPlan::McmSubstrate => panic!("10 pF must be on-chip"),
        }
    }

    #[test]
    fn large_capacitors_go_to_mcm() {
        assert_eq!(
            CapacitorPlan::for_value(Farad::new(500e-12)),
            CapacitorPlan::McmSubstrate
        );
        assert_eq!(CapacitorPlan::for_value(Farad::new(500e-12)).sites(), 0);
        // Exactly at the limit: still on chip.
        assert!(matches!(
            CapacitorPlan::for_value(Farad::new(400e-12)),
            CapacitorPlan::OnChip { .. }
        ));
    }

    #[test]
    fn domain_display() {
        assert_eq!(PowerDomain::Digital.to_string(), "digital");
        assert_eq!(PowerDomain::Analog.to_string(), "analog");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = SogArray::with_quarters(4, 0);
    }
}
