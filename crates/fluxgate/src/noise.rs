//! Seeded noise sources.
//!
//! The pulse-position detector's robustness (comparator threshold +
//! hysteresis ablations in experiment E1) is studied under additive
//! Gaussian noise on the pickup voltage. Everything is seeded so that
//! every experiment in `EXPERIMENTS.md` is bit-reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;
use std::sync::OnceLock;

/// A seeded white Gaussian noise source (Box-Muller transform).
///
/// A sample is two steps: [`draw`](Self::draw) takes the uniforms from
/// the generator and [`value`](Self::value) turns them into the Gaussian
/// value. A caller that only needs to know whether the value stays
/// within some bound can compare the drawn `u1` against
/// [`floor_within`](Self::floor_within) and skip the `ln`, `sqrt` and
/// `sin`/`cos` of the evaluation; the generator advances the same either
/// way, so the stream of values is unchanged. A caller that needs more
/// than a magnitude bound can take [`bracket`](Self::bracket), an
/// interval sure to hold the value, from two table lookups.
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
    /// The bracket of the sine half, found with the cosine half's.
    sin_bracket: Option<[f64; 2]>,
}

/// Relative raise of [`GaussianNoise::floor_within`] over the exact
/// threshold and relative widening of [`GaussianNoise::bracket`], far
/// above the few-ulp rounding of `exp`, `ln`, `sqrt`, `sin`/`cos` and
/// the products, so a draw at or above the floor is within the bound and
/// a value within its bracket.
const MARGIN: f64 = 1e-6;

/// Bits of `u1`'s representation below its radius-bucket key: the key
/// is the exponent plus the top 6 mantissa bits, 64 buckets per binade.
const RADIUS_KEY_SHIFT: u32 = 52 - 6;
/// The key of 2⁻⁵⁴, the first bucket. Every draw but the zero draw
/// (`u1 = MIN_POSITIVE`) is at least 2⁻⁵³.
const RADIUS_KEY_BASE: u64 = (1023 - 54) << 6;
/// Radius buckets over `[2⁻⁵⁴, 1)`.
const RADIUS_BUCKETS: usize = 54 << 6;
/// Angle buckets per turn, a multiple of four so that the quarter turns,
/// where `cos` and `sin` peak, fall on bucket edges.
const ANGLE_BUCKETS: usize = 1024;
/// Bound on `|fl(TAU·u2) − 2π·u2|` plus the angle error of a table edge:
/// `TAU` is within 2.5e-16 of 2π, the product rounds by at most half an
/// ulp of 2π (4.5e-16), and an edge's angle is off by at most 1.7e-16.
const ANGLE_SLACK: f64 = 1e-15;

/// Bounds on the Box–Muller radius and angle factors, shared by every
/// source in the process and built on the first [`GaussianNoise::bracket`].
struct Tables {
    /// `√(−2·ln e)` at each radius-bucket edge `e`, ascending in `e`, so
    /// descending in value; the last edge is 1, of radius 0.
    radius: [f64; RADIUS_BUCKETS + 1],
    /// `[cos, sin]` of the exact angle `2π·b/ANGLE_BUCKETS` at each angle
    /// bucket edge `b`, mirrored from one quarter wave so that the
    /// quarter turns are exactly 0 and ±1.
    angle: [[f64; 2]; ANGLE_BUCKETS + 1],
}

impl Tables {
    #[inline]
    fn get() -> &'static Self {
        static TABLES: OnceLock<Tables> = OnceLock::new();
        TABLES.get_or_init(Self::build)
    }

    /// Builds both tables from 64 logarithms and 257 sines, through
    /// `ln(2^e·m) = e·ln 2 + ln m` and the quarter-wave symmetry. Each
    /// entry is then a few ulps from a direct evaluation, which the
    /// relative margin covers.
    fn build() -> Self {
        const PER_BINADE: usize = 1 << (52 - RADIUS_KEY_SHIFT);
        let mut ln_mantissa = [0.0; PER_BINADE];
        for (k, l) in ln_mantissa.iter_mut().enumerate() {
            *l = (1.0 + k as f64 / PER_BINADE as f64).ln();
        }
        let mut radius = [0.0; RADIUS_BUCKETS + 1];
        for (i, r) in radius.iter_mut().enumerate() {
            let exponent = (i / PER_BINADE) as f64 - 54.0;
            let ln_edge = exponent * std::f64::consts::LN_2 + ln_mantissa[i % PER_BINADE];
            *r = (-2.0 * ln_edge).sqrt();
        }
        const QUARTER: usize = ANGLE_BUCKETS / 4;
        let mut wave = [0.0; QUARTER + 1];
        for (k, s) in wave.iter_mut().enumerate() {
            *s = (TAU * (k as f64 / ANGLE_BUCKETS as f64)).sin();
        }
        let sin_at = |b: usize| {
            let k = b % QUARTER;
            match b / QUARTER % 4 {
                0 => wave[k],
                1 => wave[QUARTER - k],
                2 => -wave[k],
                _ => -wave[QUARTER - k],
            }
        };
        let mut angle = [[0.0; 2]; ANGLE_BUCKETS + 1];
        for (b, cos_sin) in angle.iter_mut().enumerate() {
            *cos_sin = [sin_at(b + QUARTER), sin_at(b)];
        }
        Self { radius, angle }
    }
}

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
                sin_bracket: None,
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
                sin_bracket: None,
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
        let Pair { u1, u2, r, .. } = &mut self.pair;
        let r = *r.get_or_insert_with(|| (-2.0 * u1.ln()).sqrt());
        let theta = TAU * *u2;
        if self.spare {
            r * theta.cos() * self.std_dev
        } else {
            r * theta.sin() * self.std_dev
        }
    }

    /// An interval `[lo, hi]` sure to hold the value of the sample last
    /// drawn, the `f64` that [`value`](Self::value) would return, found
    /// without evaluating it. A silent source gives `[0, 0]`.
    ///
    /// `u1` falls in one of 64 buckets per binade, keyed by the top bits
    /// of its representation, and the radius `√(−2·ln u1)` falls between
    /// its values at the bucket's edges. `u2` falls in one of 1 024 angle
    /// buckets, inside which `cos` and `sin` are monotone because the
    /// quarter turns are bucket edges, so the factor lies between its
    /// values at the two edges. Those are values at exact angles, and
    /// the evaluated angle `fl(TAU·u2)` is off by at most 1e-15, which
    /// moves the factor by at most 1e-15 times the largest slope in the
    /// bucket, the larger `|sin|` (or `|cos|`) at its edges: that is the
    /// absolute term. The product's bounds are then widened by a relative
    /// 1e-6 for the rounding of `ln`, `sqrt`, `sin`/`cos` and the products.
    /// The zero draw (`u1 = MIN_POSITIVE`, radius ~38.6) is outside the
    /// radius table and gets `[−∞, ∞]`.
    ///
    /// Both halves of a pair share their buckets, so the first bracket of
    /// a pair finds the second one's too, and keeps it. The tables are
    /// built on the first call in the process, ~44 KB.
    #[inline]
    pub fn bracket(&mut self) -> [f64; 2] {
        if self.std_dev == 0.0 {
            return [0.0; 2];
        }
        // The cosine half of the pair is taken first (`spare` is then set).
        if let (false, Some(sin)) = (self.spare, self.pair.sin_bracket) {
            return sin;
        }
        let [cos, sin] = self.pair_brackets();
        self.pair.sin_bracket = Some(sin);
        if self.spare {
            cos
        } else {
            sin
        }
    }

    /// The brackets of the cosine and the sine half of the current pair.
    #[inline]
    fn pair_brackets(&self) -> [[f64; 2]; 2] {
        let Pair { u1, u2, .. } = self.pair;
        let key = (u1.to_bits() >> RADIUS_KEY_SHIFT).wrapping_sub(RADIUS_KEY_BASE) as usize;
        let b = (u2 * ANGLE_BUCKETS as f64) as usize;
        if key >= RADIUS_BUCKETS || b >= ANGLE_BUCKETS {
            return [[f64::NEG_INFINITY, f64::INFINITY]; 2];
        }
        let tables = Tables::get();
        let (r_lo, r_hi) = (tables.radius[key + 1], tables.radius[key]);
        let [edge, next] = [tables.angle[b], tables.angle[b + 1]];
        // Half `h` is `cos` or `sin`; the other function is its slope.
        let bracket = |h: usize| {
            let slope = max(edge[1 - h].abs(), next[1 - h].abs());
            let slack = ANGLE_SLACK * (slope + ANGLE_SLACK);
            let t_lo = min(edge[h], next[h]) - slack;
            let t_hi = max(edge[h], next[h]) + slack;
            let lo = min(r_lo * t_lo, r_hi * t_lo);
            let hi = max(r_lo * t_hi, r_hi * t_hi);
            [
                (lo - lo.abs() * MARGIN) * self.std_dev,
                (hi + hi.abs() * MARGIN) * self.std_dev,
            ]
        };
        [bracket(0), bracket(1)]
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
        (-0.5 * q * q).exp() * (1.0 + MARGIN)
    }
}

/// The lesser of two numbers that are not NaN: one compare, without the
/// NaN handling of `f64::min`, which made two brackets ~13 % slower in a
/// microbenchmark.
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// The greater of two numbers that are not NaN.
#[inline(always)]
fn max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
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
                            probe.pair = Pair {
                                u1,
                                u2,
                                r: None,
                                sin_bracket: None,
                            };
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

    /// The value of `source` at the uniforms `(u1, u2)` on the given half
    /// of the pair, and its bracket.
    fn value_and_bracket(source: &GaussianNoise, u1: f64, u2: f64, spare: bool) -> (f64, [f64; 2]) {
        let mut probe = source.clone();
        probe.pair = Pair {
            u1,
            u2,
            r: None,
            sin_bracket: None,
        };
        probe.spare = spare;
        (probe.value(), probe.bracket())
    }

    /// Every bracket holds its value: at every radius-bucket edge and
    /// the doubles either side of it, at every angle-bucket edge ±1 ulp
    /// (the quarter turns included, where `cos` or `sin` is ~1e-16, not
    /// 0), on both halves of the pair, and over 10⁶ seeded draws.
    #[test]
    fn bracket_contains_the_value() {
        let around = |x: f64| [x.next_down(), x, x.next_up()];
        let u1_edges: Vec<f64> = (0..=RADIUS_BUCKETS as u64)
            .map(|i| f64::from_bits((RADIUS_KEY_BASE + i) << RADIUS_KEY_SHIFT))
            .flat_map(around)
            .filter(|&u1| (f64::MIN_POSITIVE..1.0).contains(&u1))
            .collect();
        let u2_edges: Vec<f64> = (0..ANGLE_BUCKETS)
            .map(|b| b as f64 / ANGLE_BUCKETS as f64)
            .flat_map(around)
            .chain([1.0 - f64::EPSILON / 2.0])
            .filter(|&u2| (0.0..1.0).contains(&u2))
            .collect();
        let quarters = [0.0, 0.25, 0.5, 0.75, 1.0 - f64::EPSILON / 2.0, 0.125, 0.3];
        let u2_probes: Vec<f64> = quarters
            .into_iter()
            .flat_map(around)
            .filter(|u2| (0.0..1.0).contains(u2))
            .collect();
        let u1_probes = [
            2f64.powi(-53),
            1e-9,
            0.01,
            0.3,
            0.5,
            0.7,
            0.999,
            1.0 - f64::EPSILON / 2.0,
        ];
        let grid = u1_edges
            .iter()
            .flat_map(|&u1| u2_probes.iter().map(move |&u2| (u1, u2)))
            .chain(
                u1_probes
                    .iter()
                    .flat_map(|&u1| u2_edges.iter().map(move |&u2| (u1, u2))),
            );
        let points: Vec<(f64, f64)> = grid.collect();
        for sigma in [1e-9, 2e-3, 0.05, 3.0] {
            let source = GaussianNoise::new(sigma, 0);
            for &(u1, u2) in &points {
                for spare in [true, false] {
                    let (x, [lo, hi]) = value_and_bracket(&source, u1, u2, spare);
                    assert!(
                        lo <= x && x <= hi,
                        "σ {sigma} u1 {u1:e} u2 {u2:e} spare {spare}: {x:e} not in [{lo:e}, {hi:e}]"
                    );
                }
            }
            let mut draws = GaussianNoise::new(sigma, 0xB0A7 ^ sigma.to_bits());
            let mut width = 0.0;
            for index in 0..1_000_000 {
                // Some draws go unbracketed, so some second halves find no
                // bracket kept for them.
                if index % 7 == 0 {
                    draws.draw();
                }
                draws.draw();
                let [lo, hi] = draws.bracket();
                let x = draws.value();
                assert!(
                    lo <= x && x <= hi,
                    "σ {sigma} draw {index}: {x:e} not in [{lo:e}, {hi:e}]"
                );
                width += (hi - lo) / sigma;
            }
            // Narrow enough to decide most steps: ~1 % of σ on average.
            let mean = width / 1e6;
            assert!(mean < 0.05, "σ {sigma}: mean width {mean}");
        }
    }

    #[test]
    fn bracket_of_a_silent_source_or_the_zero_draw() {
        let mut silent = GaussianNoise::silent();
        silent.draw();
        assert_eq!(silent.bracket(), [0.0, 0.0]);
        let source = GaussianNoise::new(1.0, 0);
        for spare in [true, false] {
            let (x, bracket) = value_and_bracket(&source, f64::MIN_POSITIVE, 0.1, spare);
            assert!(x.is_finite());
            assert_eq!(bracket, [f64::NEG_INFINITY, f64::INFINITY]);
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
