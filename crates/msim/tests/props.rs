//! Property tests for the simulation kernel.

use fluxcomp_msim::solver::OdeSolver;
use fluxcomp_msim::time::SimTime;
use fluxcomp_msim::trace::Trace;
use proptest::prelude::*;

proptest! {
    /// Trace interpolation is exact at sample points and bounded by the
    /// neighbouring samples in between.
    #[test]
    fn trace_interpolation_bounds(values in prop::collection::vec(-100.0f64..100.0, 2..40)) {
        let mut tr = Trace::new("t");
        for (k, &v) in values.iter().enumerate() {
            tr.push(SimTime::from_picos((k as i64 * 10) * 1_000), v);
        }
        for (k, &v) in values.iter().enumerate() {
            let got = tr.sample_at(SimTime::from_picos((k as i64 * 10) * 1_000)).unwrap();
            prop_assert!((got - v).abs() < 1e-12);
        }
        for k in 0..values.len() - 1 {
            let mid = tr.sample_at(SimTime::from_picos((k as i64 * 10 + 5) * 1_000)).unwrap();
            let lo = values[k].min(values[k + 1]);
            let hi = values[k].max(values[k + 1]);
            prop_assert!(mid >= lo - 1e-12 && mid <= hi + 1e-12);
        }
    }

    /// Rising and falling crossing counts of any trace differ by at
    /// most one (a continuous signal must come back down to cross up
    /// again).
    #[test]
    fn crossings_alternate(values in prop::collection::vec(-10.0f64..10.0, 2..100), thr in -5.0f64..5.0) {
        let mut tr = Trace::new("t");
        for (k, &v) in values.iter().enumerate() {
            tr.push(SimTime::from_picos((k as i64) * 1_000), v);
        }
        let up = tr.crossings(thr, true).len() as i64;
        let down = tr.crossings(thr, false).len() as i64;
        prop_assert!((up - down).abs() <= 1, "up {up} down {down}");
    }

    /// The RK4 solver reproduces exponential decay to high accuracy for
    /// random rates: at `rate·dt ≤ 0.005` its global error is O(dt⁴),
    /// far under the bound.
    #[test]
    fn rk4_tracks_exact_decay(rate in 0.1f64..5.0) {
        let mut s = OdeSolver::new(1);
        let mut y = [1.0];
        let dt = 1e-3;
        for k in 0..1000 {
            s.step(k as f64 * dt, dt, &mut y, |_t, y, dy| dy[0] = -rate * y[0]);
        }
        let err = (y[0] - (-rate).exp()).abs();
        prop_assert!(err < 1e-12, "rate {rate}: error {err}");
    }
}
