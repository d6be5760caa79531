//! Heading filters.
//!
//! A watch compass takes repeated fixes; under pickup noise or magnetic
//! clutter the displayed heading should be steadied without lagging a
//! real turn too much. Angles live on a circle, so naive averaging fails
//! catastrophically around north (the mean of 359° and 1° is *not*
//! 180°). The spread metric and the smoother here work on unit vectors,
//! the standard circular statistics approach.

use fluxcomp_units::angle::Degrees;

/// The circular standard deviation `√(−2·ln R)` in degrees — the spread
/// metric for repeated-fix noise studies.
pub fn circular_std(headings: &[Degrees]) -> Option<Degrees> {
    if headings.is_empty() {
        return None;
    }
    let (sx, sy) = headings
        .iter()
        .fold((0.0, 0.0), |(x, y), h| (x + h.cos(), y + h.sin()));
    let r = ((sx * sx + sy * sy).sqrt() / headings.len() as f64).clamp(1e-12, 1.0);
    Some(Degrees::new((-2.0 * r.ln()).sqrt().to_degrees()))
}

/// An exponential smoother on the unit circle: each update blends the
/// new fix's unit vector into the state with weight `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadingSmoother {
    alpha: f64,
    state: Option<(f64, f64)>,
}

impl HeadingSmoother {
    /// Creates a smoother; `alpha` in `(0, 1]` (1.0 = no smoothing).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is out of range.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, state: None }
    }

    /// Feeds a new fix; returns the smoothed heading.
    pub fn update(&mut self, fix: Degrees) -> Degrees {
        let v = (fix.cos(), fix.sin());
        let s = match self.state {
            None => v,
            Some((x, y)) => (x + self.alpha * (v.0 - x), y + self.alpha * (v.1 - y)),
        };
        self.state = Some(s);
        Degrees::atan2(s.1, s.0).normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_of_tight_cluster_is_small() {
        let tight: Vec<Degrees> = (0..10)
            .map(|k| Degrees::new(90.0 + 0.1 * k as f64))
            .collect();
        let loose: Vec<Degrees> = (0..10)
            .map(|k| Degrees::new(90.0 + 10.0 * k as f64))
            .collect();
        let s_tight = circular_std(&tight).unwrap().value();
        let s_loose = circular_std(&loose).unwrap().value();
        assert!(s_tight < 1.0, "{s_tight}");
        assert!(s_loose > 5.0 * s_tight);
        assert_eq!(circular_std(&[]), None);
    }

    #[test]
    fn smoother_converges_to_constant_input() {
        let mut f = HeadingSmoother::new(0.3);
        let mut out = Degrees::ZERO;
        for _ in 0..50 {
            out = f.update(Degrees::new(200.0));
        }
        assert!(out.angular_distance(Degrees::new(200.0)).value() < 1e-6);
    }

    #[test]
    fn smoother_attenuates_jitter() {
        let mut f = HeadingSmoother::new(0.2);
        // Alternate ±4° around 90°: the output must stay much tighter.
        let mut worst = 0.0f64;
        for k in 0..200 {
            let jitter = if k % 2 == 0 { 4.0 } else { -4.0 };
            let out = f.update(Degrees::new(90.0 + jitter));
            if k > 20 {
                worst = worst.max(out.angular_distance(Degrees::new(90.0)).value());
            }
        }
        assert!(worst < 1.5, "smoothed jitter {worst}");
    }

    #[test]
    fn smoother_tracks_across_north() {
        let mut f = HeadingSmoother::new(0.5);
        // Rotate steadily through north: 350 → 10.
        let mut out = Degrees::ZERO;
        for deg in [350.0, 354.0, 358.0, 2.0, 6.0, 10.0] {
            out = f.update(Degrees::new(deg));
        }
        // The smoothed heading lags but must be near north, NOT near 180°.
        assert!(
            out.angular_distance(Degrees::new(5.0)).value() < 10.0,
            "{out}"
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let _ = HeadingSmoother::new(0.0);
    }
}
