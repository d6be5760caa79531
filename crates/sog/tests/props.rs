//! Property tests for the Sea-of-Gates models.

use fluxcomp_sog::fabric::{CapacitorPlan, PowerDomain, SogArray, ON_CHIP_CAP_LIMIT};
use fluxcomp_sog::floorplan::{Block, Floorplan};
use fluxcomp_units::si::Farad;
use proptest::prelude::*;

proptest! {
    /// No quarter is ever overfilled, whatever blocks are thrown at the
    /// placer; failures are reported, not silently absorbed.
    #[test]
    fn quarters_never_overfill(sizes in prop::collection::vec(1u32..30_000, 1..20)) {
        let mut fp = Floorplan::fishbone();
        for (k, s) in sizes.iter().enumerate() {
            let domain = if k % 3 == 0 { PowerDomain::Analog } else { PowerDomain::Digital };
            let _ = fp.place(Block::new(format!("b{k}"), *s, domain));
        }
        for q in fp.array().quarters() {
            prop_assert!(q.used_sites <= q.capacity_sites);
        }
        // Conservation: placed sites equal the sum of accepted blocks.
        let placed: u32 = fp.placements().iter().map(|p| p.block.sites).sum();
        prop_assert_eq!(placed, fp.array().used_sites());
    }

    /// Domains never share a quarter, for any placement order.
    #[test]
    fn domains_stay_separated(sizes in prop::collection::vec(1u32..20_000, 1..16), seed in any::<u64>()) {
        let mut fp = Floorplan::fishbone();
        for (k, s) in sizes.iter().enumerate() {
            let domain = if (seed >> (k % 60)) & 1 == 1 {
                PowerDomain::Analog
            } else {
                PowerDomain::Digital
            };
            let _ = fp.place(Block::new(format!("b{k}"), *s, domain));
        }
        for p in fp.placements() {
            prop_assert_eq!(
                fp.array().quarters()[p.quarter].domain,
                Some(p.block.domain)
            );
        }
    }

    /// The capacitor rule is a clean threshold at 400 pF and on-chip
    /// area grows monotonically with value.
    #[test]
    fn capacitor_rule_threshold(pf in 0.1f64..1000.0) {
        let plan = CapacitorPlan::for_value(Farad::new(pf * 1e-12));
        if pf * 1e-12 > ON_CHIP_CAP_LIMIT.value() {
            prop_assert_eq!(plan, CapacitorPlan::McmSubstrate);
        } else {
            match plan {
                CapacitorPlan::OnChip { sites } => {
                    let smaller = CapacitorPlan::for_value(Farad::new(pf * 0.5e-12));
                    if let CapacitorPlan::OnChip { sites: s2 } = smaller {
                        prop_assert!(s2 <= sites);
                    }
                }
                CapacitorPlan::McmSubstrate => prop_assert!(false, "should be on-chip"),
            }
        }
    }

    /// Utilisation conversion: sites ≥ transistors/2 always (utilisation
    /// ≤ 1 can only inflate).
    #[test]
    fn sites_at_least_raw_pairs(t in 1u32..1_000_000, util_pct in 1u32..100) {
        let b = Block::from_transistors("x", t, util_pct as f64 / 100.0, PowerDomain::Digital);
        prop_assert!(b.sites as u64 >= (t as u64).div_ceil(2));
    }

    /// Array accounting: total transistors is twice the site count.
    #[test]
    fn array_transistor_accounting(quarters in 1usize..8, sites in 1u32..100_000) {
        let array = SogArray::with_quarters(quarters, sites);
        prop_assert_eq!(array.total_transistors(), quarters as u64 * sites as u64 * 2);
    }
}
