//! The high-speed up/down counter (paper §4).
//!
//! "The pulse count part contains a high-frequency (4.194304 MHz)
//! up-down counter, which transforms the output of the pulse detector
//! into two integer values x and y, each indicating the field component
//! of the x- and y-sensor."
//!
//! At every master-clock edge the counter samples the detector output:
//! it counts **up while the detector is high and down while it is low**.
//! Over `N` whole excitation periods the accumulated value is
//!
//! ```text
//! count = N · f_clk/f_exc · (2·duty − 1)  =  −N · f_clk/f_exc · H_ext/H_peak
//! ```
//!
//! i.e. a signed integer directly proportional to the measured field
//! component. The counter's finite clock is the dominant quantisation in
//! the whole signal chain; experiment E5 sweeps it.
//!
//! Like its gate-level netlist (`synth::updown_counter`), the counter has
//! no count-enable: it counts on every edge it is clocked with, and the
//! control logic powers it only while an axis is measured.

use fluxcomp_units::si::Hertz;
use std::sync::Arc;

/// A synchronous up/down counter with saturating width limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UpDownCounter {
    width: u32,
    value: i64,
}

impl UpDownCounter {
    /// Creates a counter with a two's-complement `width` (bits including
    /// sign); the value saturates at ±(2^(width−1) − 1).
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ width ≤ 32`.
    pub fn new(width: u32) -> Self {
        assert!((2..=32).contains(&width), "width must be in 2..=32");
        Self { width, value: 0 }
    }

    /// The paper's counter: sized for the multi-period measurement —
    /// 16 bits holds ±8 periods × 524 counts with margin.
    pub fn paper_design() -> Self {
        Self::new(16)
    }

    /// Current count.
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Saturation limit (positive side).
    pub fn max_value(&self) -> i64 {
        (1 << (self.width - 1)) - 1
    }

    /// Clears the count.
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// One master-clock edge: counts up if `up` is high, down otherwise.
    /// Saturates at the width limits.
    pub fn clock(&mut self, up: bool) {
        let max = self.max_value();
        let min = -max - 1;
        self.value = if up {
            (self.value + 1).min(max)
        } else {
            (self.value - 1).max(min)
        };
    }

    /// Applies `edges` consecutive master-clock edges that all sample the
    /// same detector level — the closed form of calling
    /// [`clock`](Self::clock) `edges` times. Exactly equivalent,
    /// including saturation: a saturating add of `edges` lands on the
    /// same value as `edges` saturating adds of one.
    ///
    /// This is what makes the zero-order-hold resampling free on the fast
    /// measurement path: the edges within one analogue sample all see the
    /// same detector output, so a [`ClockSchedule`] can batch them.
    ///
    /// `#[inline]`: the compass calls it once per analogue sample from
    /// another crate.
    #[inline]
    pub fn clock_n(&mut self, up: bool, edges: u32) {
        if edges == 0 {
            return;
        }
        let max = self.max_value();
        let min = -max - 1;
        self.value = if up {
            (self.value + i64::from(edges)).min(max)
        } else {
            (self.value - i64::from(edges)).max(min)
        };
    }

    /// Runs the counter over a pre-sampled detector stream (one sample
    /// per master-clock edge) and returns the final count.
    pub fn run(&mut self, detector_at_clock: impl IntoIterator<Item = bool>) -> i64 {
        for up in detector_at_clock {
            self.clock(up);
        }
        self.value
    }
}

impl Default for UpDownCounter {
    fn default() -> Self {
        Self::paper_design()
    }
}

/// Resamples a detector waveform (uniform samples over the measurement
/// window) onto master-clock edges — the boundary where the analogue
/// world meets the counter.
///
/// `detector` holds `n` uniform samples covering `window_seconds`;
/// returns one boolean per master-clock edge in the same window
/// (zero-order hold).
pub fn sample_at_clock(detector: &[bool], window_seconds: f64, clock: Hertz) -> Vec<bool> {
    if detector.is_empty() || window_seconds <= 0.0 {
        return Vec::new();
    }
    let edges = (window_seconds * clock.value()) as usize;
    let n = detector.len();
    (0..edges)
        .map(|e| {
            let t = e as f64 / clock.value();
            let idx = ((t / window_seconds) * n as f64) as usize;
            detector[idx.min(n - 1)]
        })
        .collect()
}

/// The precomputed zero-order-hold resampling of [`sample_at_clock`]:
/// how many master-clock edges land on each analogue grid sample of the
/// measurement window.
///
/// The edge→sample mapping depends only on the grid size, the window
/// length and the clock — not on the detector data — so a design
/// computes it once and every fix replays it with
/// [`UpDownCounter::clock_n`]. Because the mapping is monotone
/// nondecreasing in edge index, applying the edges grouped per sample in
/// sample order is exactly the per-edge [`UpDownCounter::run`] over
/// [`sample_at_clock`]'s stream — including counter saturation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockSchedule {
    /// Shared by every clone: the schedule never changes once built.
    edges_per_sample: Arc<[u32]>,
    total_edges: usize,
}

impl ClockSchedule {
    /// Builds the schedule for `n_samples` uniform detector samples
    /// covering `window_seconds`, clocked at `clock`. Degenerate inputs
    /// (no samples, non-positive window) yield an empty schedule, same
    /// as [`sample_at_clock`]'s empty stream.
    pub fn new(n_samples: usize, window_seconds: f64, clock: Hertz) -> Self {
        if n_samples == 0 || window_seconds <= 0.0 {
            return Self {
                edges_per_sample: Arc::new([]),
                total_edges: 0,
            };
        }
        let edges = (window_seconds * clock.value()) as usize;
        let mut edges_per_sample: Arc<[u32]> = std::iter::repeat_n(0, n_samples).collect();
        let counts = Arc::get_mut(&mut edges_per_sample).expect("a new Arc is unique");
        // Mirror sample_at_clock's mapping expression exactly so the
        // fast path quantises like the traced path, bit for bit.
        for e in 0..edges {
            let t = e as f64 / clock.value();
            let idx = ((t / window_seconds) * n_samples as f64) as usize;
            counts[idx.min(n_samples - 1)] += 1;
        }
        Self {
            edges_per_sample,
            total_edges: edges,
        }
    }

    /// Master-clock edges landing on analogue sample `index`.
    ///
    /// `#[inline]`: the compass calls it once per analogue sample from
    /// another crate.
    #[inline]
    pub fn edges_at(&self, index: usize) -> u32 {
        self.edges_per_sample[index]
    }

    /// Number of analogue grid samples covered.
    pub fn samples(&self) -> usize {
        self.edges_per_sample.len()
    }

    /// Total master-clock edges in the window.
    pub fn total_edges(&self) -> usize {
        self.total_edges
    }
}

/// The ideal (real-valued) count for a given duty cycle, clock and
/// measurement window — the quantity the integer counter approximates.
pub fn ideal_count(duty: f64, clock: Hertz, window_seconds: f64) -> f64 {
    clock.value() * window_seconds * (2.0 * duty - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_up_and_down() {
        let mut c = UpDownCounter::new(8);
        c.clock(true);
        c.clock(true);
        c.clock(false);
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn balanced_stream_nets_zero() {
        let mut c = UpDownCounter::paper_design();
        let stream = (0..1000).map(|k| k % 2 == 0);
        assert_eq!(c.run(stream), 0);
    }

    #[test]
    fn duty_maps_to_count() {
        // 60 % duty over 1000 edges → net +200.
        let mut c = UpDownCounter::paper_design();
        let stream = (0..1000).map(|k| k % 10 < 6);
        assert_eq!(c.run(stream), 200);
        assert_eq!(
            ideal_count(0.6, Hertz::new(1000.0), 1.0).round() as i64,
            200
        );
    }

    #[test]
    fn saturates_at_width_limits() {
        let mut c = UpDownCounter::new(4); // ±7 / −8
        for _ in 0..100 {
            c.clock(true);
        }
        assert_eq!(c.value(), 7);
        for _ in 0..100 {
            c.clock(false);
        }
        assert_eq!(c.value(), -8);
        assert_eq!(c.max_value(), 7);
    }

    #[test]
    fn reset_clears() {
        let mut c = UpDownCounter::paper_design();
        c.clock(true);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn clock_sampling_preserves_duty() {
        // A 25 %-duty square wave sampled at a high clock.
        let n = 8192;
        let detector: Vec<bool> = (0..n).map(|k| (k % 512) < 128).collect();
        let window = 1e-3;
        let sampled = sample_at_clock(&detector, window, Hertz::new(4_194_304.0));
        let duty = sampled.iter().filter(|&&b| b).count() as f64 / sampled.len() as f64;
        assert!((duty - 0.25).abs() < 0.01, "duty = {duty}");
    }

    #[test]
    fn paper_count_magnitude() {
        // One 8 kHz period at 4.194304 MHz: 524 edges. A duty of
        // 0.5 − 1/524 gives a net count of −2.
        let clock = Hertz::new(4_194_304.0);
        let window = 1.0 / 8_000.0;
        let edges = (window * clock.value()) as usize;
        assert_eq!(edges, 524);
        let high = (edges as f64 * (0.5 - 1.0 / 524.0)).round() as usize;
        let stream = (0..edges).map(|k| k < high);
        let mut c = UpDownCounter::paper_design();
        assert_eq!(c.run(stream), -2);
    }

    #[test]
    fn sampling_degenerate_inputs() {
        assert!(sample_at_clock(&[], 1.0, Hertz::new(1e6)).is_empty());
        assert!(sample_at_clock(&[true], 0.0, Hertz::new(1e6)).is_empty());
    }

    #[test]
    fn clock_n_equals_repeated_clocks_including_saturation() {
        for width in [4, 8, 16] {
            let mut grouped = UpDownCounter::new(width);
            let mut per_edge = UpDownCounter::new(width);
            let seq = [
                (true, 3u32),
                (true, 40),
                (false, 2),
                (false, 500),
                (true, 7),
                (false, 1),
                (true, 0),
                (true, 100_000),
            ];
            for &(up, edges) in &seq {
                grouped.clock_n(up, edges);
                for _ in 0..edges {
                    per_edge.clock(up);
                }
                assert_eq!(
                    grouped.value(),
                    per_edge.value(),
                    "width {width} after ({up}, {edges})"
                );
            }
        }
    }

    /// A pseudo-random detector stream counted two ways: per edge through
    /// `sample_at_clock` + `run`, and grouped through a precomputed
    /// `ClockSchedule` + `clock_n`. Must agree exactly.
    #[test]
    fn schedule_matches_sample_at_clock() {
        let n = 4096;
        let detector: Vec<bool> = (0..n)
            .map(|k| (k as u32).wrapping_mul(2_654_435_761) % 97 < 48)
            .collect();
        let window = 8.0 / 8_000.0;
        let clock = Hertz::new(4_194_304.0);

        let mut reference = UpDownCounter::paper_design();
        reference.run(sample_at_clock(&detector, window, clock));

        let schedule = ClockSchedule::new(n, window, clock);
        assert_eq!(schedule.samples(), n);
        assert_eq!(schedule.total_edges(), (window * clock.value()) as usize);
        let mut fast = UpDownCounter::paper_design();
        for (index, &up) in detector.iter().enumerate() {
            fast.clock_n(up, schedule.edges_at(index));
        }
        assert_eq!(fast.value(), reference.value());
    }

    /// Same comparison with a deliberately narrow counter that rails
    /// mid-window: grouping must still reproduce the per-edge walk.
    #[test]
    fn schedule_matches_under_saturation() {
        let n = 512;
        // Long high run (saturates up), then a low tail (walks back down).
        let detector: Vec<bool> = (0..n).map(|k| k < 400).collect();
        let window = 4.0 / 8_000.0;
        let clock = Hertz::new(4_194_304.0);
        let schedule = ClockSchedule::new(n, window, clock);

        let mut reference = UpDownCounter::new(6);
        reference.run(sample_at_clock(&detector, window, clock));
        let mut fast = UpDownCounter::new(6);
        for (index, &up) in detector.iter().enumerate() {
            fast.clock_n(up, schedule.edges_at(index));
        }
        assert_eq!(fast.value(), reference.value());
    }

    #[test]
    fn schedule_degenerate_inputs() {
        let empty = ClockSchedule::new(0, 1.0, Hertz::new(1e6));
        assert_eq!(empty.samples(), 0);
        assert_eq!(empty.total_edges(), 0);
        let flat = ClockSchedule::new(8, 0.0, Hertz::new(1e6));
        assert_eq!(flat.samples(), 0);
        assert_eq!(flat.total_edges(), 0);
    }

    #[test]
    fn schedule_distributes_every_edge() {
        let schedule = ClockSchedule::new(1000, 1e-3, Hertz::new(4_194_304.0));
        let sum: u64 = (0..schedule.samples())
            .map(|k| u64::from(schedule.edges_at(k)))
            .sum();
        assert_eq!(sum as usize, schedule.total_edges());
    }

    /// The widest legal counter has exactly the i32 range: +2³¹−1 down
    /// to −2³¹. `u32::MAX` edges in one `clock_n` call must land on the
    /// rails without any intermediate overflow.
    #[test]
    fn clock_n_at_the_i32_boundary_with_u32_max_edges() {
        let mut c = UpDownCounter::new(32);
        assert_eq!(c.max_value(), i64::from(i32::MAX));

        c.clock_n(true, u32::MAX);
        assert_eq!(c.value(), i64::from(i32::MAX), "rails high");
        c.clock_n(true, u32::MAX);
        assert_eq!(c.value(), i64::from(i32::MAX), "stays railed");

        // From +2³¹−1, exactly 2³²−1 down edges lands *precisely* on
        // −2³¹ — the boundary is reached, not clipped past.
        c.clock_n(false, u32::MAX);
        assert_eq!(c.value(), i64::from(i32::MIN), "rails low exactly");
        c.clock_n(false, 1);
        assert_eq!(c.value(), i64::from(i32::MIN), "stays railed low");

        // And the symmetric climb back up is exact too.
        c.clock_n(true, u32::MAX);
        assert_eq!(c.value(), i64::from(i32::MAX));
    }

    /// One edge short of the rail, then single edges across it: the
    /// closed form and the per-edge walk agree at the boundary itself.
    #[test]
    fn clock_n_single_edges_across_the_positive_rail() {
        let mut c = UpDownCounter::new(32);
        c.clock_n(true, i32::MAX as u32 - 1);
        assert_eq!(c.value(), i64::from(i32::MAX) - 1);
        c.clock(true);
        assert_eq!(c.value(), i64::from(i32::MAX));
        c.clock(true);
        assert_eq!(c.value(), i64::from(i32::MAX), "per-edge clock clamps too");
        c.clock_n(false, 1);
        assert_eq!(c.value(), i64::from(i32::MAX) - 1);
    }

    /// A window so short no clock edge fits: the schedule still covers
    /// every sample, each with zero edges, and replaying it is a no-op.
    #[test]
    fn schedule_with_zero_edge_window() {
        let clock = Hertz::new(4_194_304.0);
        // Well under one clock period.
        let schedule = ClockSchedule::new(16, 1e-8, clock);
        assert_eq!(schedule.samples(), 16);
        assert_eq!(schedule.total_edges(), 0);
        let mut c = UpDownCounter::paper_design();
        for index in 0..schedule.samples() {
            assert_eq!(schedule.edges_at(index), 0);
            c.clock_n(true, schedule.edges_at(index));
        }
        assert_eq!(c.value(), 0);
    }

    /// Fewer edges than samples: the zero-order hold leaves gaps (some
    /// samples take no edge), and grouped replay still matches the
    /// per-edge reference exactly.
    #[test]
    fn schedule_with_sparse_edges_matches_reference() {
        let n = 1000;
        let window = 1e-4;
        let clock = Hertz::new(1_000_000.0); // 100 edges over 1000 samples
        let schedule = ClockSchedule::new(n, window, clock);
        assert_eq!(schedule.total_edges(), 100);
        assert!((0..n).any(|k| schedule.edges_at(k) == 0), "gaps expected");
        let detector: Vec<bool> = (0..n).map(|k| k % 3 == 0).collect();
        let mut reference = UpDownCounter::paper_design();
        reference.run(sample_at_clock(&detector, window, clock));
        let mut fast = UpDownCounter::paper_design();
        for (index, &up) in detector.iter().enumerate() {
            fast.clock_n(up, schedule.edges_at(index));
        }
        assert_eq!(fast.value(), reference.value());
    }

    /// A single-sample schedule funnels the whole window's edges into
    /// one `clock_n` call — which must rail a narrow counter exactly
    /// like the edge-at-a-time walk.
    #[test]
    fn schedule_single_sample_saturates_like_per_edge() {
        let window = 1.0 / 8_000.0;
        let clock = Hertz::new(4_194_304.0);
        let schedule = ClockSchedule::new(1, window, clock);
        assert_eq!(schedule.samples(), 1);
        assert_eq!(schedule.edges_at(0) as usize, schedule.total_edges());
        assert!(schedule.total_edges() > 127, "enough edges to rail 8 bits");
        let mut grouped = UpDownCounter::new(8);
        grouped.clock_n(true, schedule.edges_at(0));
        let mut per_edge = UpDownCounter::new(8);
        per_edge.run(sample_at_clock(&[true], window, clock));
        assert_eq!(grouped.value(), per_edge.value());
        assert_eq!(grouped.value(), 127);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn bad_width_rejected() {
        let _ = UpDownCounter::new(1);
    }
}
