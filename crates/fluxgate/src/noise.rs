//! Seeded noise sources.
//!
//! The pulse-position detector's robustness (comparator threshold +
//! hysteresis ablations in experiment E1) is studied under additive
//! Gaussian noise on the pickup voltage. Everything is seeded so that
//! every experiment in `EXPERIMENTS.md` is bit-reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded white Gaussian noise source (Box-Muller transform).
///
/// A sample is two steps: [`draw`](Self::draw) takes the uniforms from
/// the generator and [`value`](Self::value) turns them into the Gaussian
/// value. A caller that only needs to know whether the value stays
/// within some bound can compare the drawn `u1` against
/// [`floor_within`](Self::floor_within) and skip the `ln`, `sqrt` and
/// `sin`/`cos` of the evaluation; the generator advances the same either
/// way, so the stream of values is unchanged.
///
/// # Example
///
/// ```
/// use fluxcomp_fluxgate::noise::GaussianNoise;
///
/// let mut n = GaussianNoise::new(1.0, 42);
/// let samples: Vec<f64> = (0..10_000).map(|_| n.sample()).collect();
/// let mean = samples.iter().sum::<f64>() / samples.len() as f64;
/// assert!(mean.abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianNoise {
    std_dev: f64,
    rng: StdRng,
    /// The Box-Muller pair of the last draw.
    pair: Pair,
    /// The last draw took the pair's cosine half, so the next one takes
    /// its sine half without touching the generator.
    spare: bool,
}

/// The uniforms of one Box-Muller pair, and its radius once a half of
/// the pair has been evaluated.
#[derive(Debug, Clone, Copy)]
struct Pair {
    u1: f64,
    u2: f64,
    r: Option<f64>,
}

/// Relative raise of [`GaussianNoise::floor_within`] over the exact
/// threshold, far above the few-ulp rounding of `exp`, `ln`, `sqrt` and
/// the products, so a draw at or above the floor is within the bound.
const FLOOR_MARGIN: f64 = 1e-6;

impl GaussianNoise {
    /// Creates a source with standard deviation `std_dev`, seeded with
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn new(std_dev: f64, seed: u64) -> Self {
        assert!(
            std_dev >= 0.0 && std_dev.is_finite(),
            "standard deviation must be finite and non-negative"
        );
        Self {
            std_dev,
            rng: StdRng::seed_from_u64(seed),
            // No pair drawn yet: radius zero.
            pair: Pair {
                u1: 1.0,
                u2: 0.0,
                r: Some(0.0),
            },
            spare: false,
        }
    }

    /// A source that always returns zero (noise disabled).
    pub fn silent() -> Self {
        Self::new(0.0, 0)
    }

    /// The configured standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one sample `~ N(0, std_dev²)`.
    pub fn sample(&mut self) -> f64 {
        self.draw();
        self.value()
    }

    /// Advances to the next sample without evaluating it and returns its
    /// first uniform `u1`, the one that sets the Box-Muller radius
    /// `√(−2·ln u1)`. A silent source draws nothing and returns 1.0, the
    /// `u1` of radius zero.
    #[inline]
    pub fn draw(&mut self) -> f64 {
        if self.std_dev == 0.0 {
            return 1.0;
        }
        if self.spare {
            self.spare = false;
        } else {
            // Box-Muller: two uniforms → two independent standard normals.
            self.pair = Pair {
                u1: self.rng.gen_range(f64::MIN_POSITIVE..1.0),
                u2: self.rng.gen_range(0.0..1.0),
                r: None,
            };
            self.spare = true;
        }
        self.pair.u1
    }

    /// The value of the sample last drawn. Evaluating it or not leaves
    /// every later value unchanged.
    pub fn value(&mut self) -> f64 {
        if self.std_dev == 0.0 {
            return 0.0;
        }
        let Pair { u1, u2, r } = &mut self.pair;
        let r = *r.get_or_insert_with(|| (-2.0 * u1.ln()).sqrt());
        let theta = std::f64::consts::TAU * *u2;
        if self.spare {
            r * theta.cos() * self.std_dev
        } else {
            r * theta.sin() * self.std_dev
        }
    }

    /// The least `u1` at which a drawn sample is sure to lie within
    /// `±bound`: when [`draw`](Self::draw) returns at least this,
    /// `|value()| ≤ bound`.
    ///
    /// `u1 ≥ e^(−q²/2)` with `q = bound/std_dev` means the radius
    /// `√(−2·ln u1)` is at most `q`, and `|cos|` and `|sin|` never
    /// exceed one. The threshold is raised by a relative 1e-6 so that
    /// rounding here and in [`value`](Self::value) cannot break the
    /// implication. A bound that is not positive gets a floor above
    /// every draw.
    pub fn floor_within(&self, bound: f64) -> f64 {
        if bound.is_nan() || bound <= 0.0 {
            return f64::INFINITY;
        }
        if self.std_dev == 0.0 {
            return 0.0;
        }
        let q = bound / self.std_dev;
        (-0.5 * q * q).exp() * (1.0 + FLOOR_MARGIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = GaussianNoise::new(2.0, 7);
        let mut b = GaussianNoise::new(2.0, 7);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = GaussianNoise::new(1.0, 1);
        let mut b = GaussianNoise::new(1.0, 2);
        let same = (0..50).filter(|_| a.sample() == b.sample()).count();
        assert!(same < 5);
    }

    #[test]
    fn statistics_match_parameters() {
        let mut n = GaussianNoise::new(3.0, 123);
        let count = 100_000;
        let samples: Vec<f64> = (0..count).map(|_| n.sample()).collect();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / count as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn silent_source_is_zero() {
        let mut n = GaussianNoise::silent();
        assert_eq!(n.std_dev(), 0.0);
        for _ in 0..10 {
            assert_eq!(n.sample(), 0.0);
        }
    }

    /// Values evaluated lazily equal the eager stream at the same index,
    /// whichever draws are skipped: the generator advances the same way
    /// either way, and a pair's radius is computed by whichever half is
    /// evaluated first.
    #[test]
    fn lazy_values_match_the_eager_stream() {
        let sigma = 2e-3;
        for seed in [0x5EED_u64, 1, 987654] {
            let mut eager = GaussianNoise::new(sigma, seed);
            let mut lazy = GaussianNoise::new(sigma, seed);
            let mut mask = StdRng::seed_from_u64(seed ^ 0x3A5C);
            // A 2σ bound: about one draw in seven falls in the tail.
            let bound = 2.0 * sigma;
            let floor = lazy.floor_within(bound);
            let mut tail = 0;
            for index in 0..20_000 {
                let expected = eager.sample();
                let u1 = lazy.draw();
                if u1 < floor || mask.gen_range(0..2) == 0 {
                    tail += u32::from(u1 < floor);
                    let got = lazy.value();
                    assert_eq!(
                        got.to_bits(),
                        expected.to_bits(),
                        "seed {seed} index {index}"
                    );
                } else {
                    assert!(expected.abs() <= bound, "seed {seed} index {index}");
                }
            }
            assert!(tail > 2_000, "seed {seed}: only {tail} tail draws");
        }
    }

    /// At each floor and at the next double above it, the value a draw
    /// evaluates to stays within the bound, on both halves of the pair
    /// and at the angles where `|cos|` or `|sin|` is largest.
    #[test]
    fn floor_and_its_next_up_stay_within_the_bound() {
        for sigma in [1e-9, 2e-3, 0.05, 3.0] {
            let source = GaussianNoise::new(sigma, 0);
            for k in 1..=420 {
                let bound = sigma * k as f64 * 0.1;
                let floor = source.floor_within(bound).max(f64::MIN_POSITIVE);
                assert!(floor < 1.0, "σ {sigma}: a {k}/10 σ bound never skips");
                for u1 in [floor, floor.next_up()] {
                    for u2 in [0.0, 0.125, 0.25, 0.5, 0.75, 1.0 - f64::EPSILON / 2.0] {
                        for spare in [true, false] {
                            let mut probe = source.clone();
                            probe.pair = Pair { u1, u2, r: None };
                            probe.spare = spare;
                            let x = probe.value();
                            assert!(
                                x.abs() <= bound,
                                "σ {sigma} bound {bound}: |{x}| at u1 {u1}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn floor_of_a_bound_that_is_not_positive_is_never_reached() {
        let source = GaussianNoise::new(1.0, 0);
        for bound in [0.0, -1.0, f64::NAN] {
            assert_eq!(source.floor_within(bound), f64::INFINITY);
        }
        let mut silent = GaussianNoise::silent();
        assert!(silent.draw() >= silent.floor_within(1e-12));
        assert_eq!(silent.value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_std_rejected() {
        let _ = GaussianNoise::new(-1.0, 0);
    }
}
