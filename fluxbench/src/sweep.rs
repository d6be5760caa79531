//! The sweep workloads: one thread, one reused scratch, a serial loop
//! over the seeded heading grid.

use crate::host::HostProbe;
use crate::inputs::{self, GRID};
use crate::layers::Cycle;
use crate::recompose::{chain, chain_all, library_fix, Entry, Fix, FixInput, Parts};
use crate::stats::{median, peak_rss_mb, secs, sustained_rate, tail_note, Setups, Windowed};
use crate::trace::Tracer;
use crate::{trace_path, Args, Report, Values, Workload, SETUP_REPS};
use fluxcomp_compass::{CompassConfig, CompassDesign, DegradedTracker, FixQuality, MeasureScratch};
use fluxcomp_faults::FaultPlan;
use std::time::{Duration, Instant};

/// The golden gate's inputs are the first grid fixes of this seed; their
/// digests through the program's entry point are frozen below.
const GOLDEN_SEED: u64 = 0x601D;
const GOLDEN_CLEAN: [u64; 6] = [
    0x6a4a_6af1_18f5_faf2,
    0x5fe5_8302_5193_e304,
    0x676c_c783_10e6_a3dd,
    0xa2cf_c509_44c6_0498,
    0xa1cb_ad81_5afd_3b4a,
    0x0ded_dd8f_b1e1_f82f,
];
const GOLDEN_NOISY: [u64; 6] = [
    0xb551_8aed_fb12_0f9c,
    0x1036_af69_f9c6_c852,
    0x0ebc_774f_5c74_4976,
    0x6072_2bbb_afd5_69cf,
    0x7d3d_be9a_7568_1f30,
    0x6681_b040_4968_0fa5,
];

/// One sweep workload's configuration and inputs.
struct Sweep {
    config: CompassConfig,
    plan: Option<FaultPlan>,
    grid: Vec<FixInput>,
    golden: &'static [u64],
}

impl Sweep {
    fn new(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::SweepClean => Self {
                config: inputs::clean_config(),
                plan: None,
                grid: inputs::sweep_grid(seed),
                golden: &GOLDEN_CLEAN,
            },
            Workload::SweepNoisy => Self {
                config: inputs::noisy_config(),
                plan: Some(inputs::fault_plan(seed)),
                grid: inputs::sweep_grid(seed),
                golden: &GOLDEN_NOISY,
            },
            other => unreachable!("{other:?} is not a sweep"),
        }
    }

    /// `sweep_clean` calls `measure_heading_scratch`; `sweep_noisy`
    /// calls `measure_heading_checked` under its fault plan.
    fn entry(&self) -> Entry<'_> {
        match &self.plan {
            None => Entry::Scratch,
            Some(plan) => Entry::Checked(Some(plan)),
        }
    }
}

/// Consecutive fixes whose rate is one sample of `fixes_per_s`; it
/// divides the grid, so every pass holds the same chunks.
const CHUNK: usize = 12;

/// What one timed window over the grid produced, with times scaled by
/// the host probe taken after each chunk. Nothing in it grows with the
/// program's speed except one entry per pass and per chunk, so
/// `peak_rss_mb` measures the program, not this bookkeeping.
struct Window {
    /// `(digest of the pass's fix digests in order, fixes in the pass)`;
    /// the last pass may be partial.
    passes: Vec<(u64, usize)>,
    /// Host time of each fix call, by when it ended.
    latency: Windowed,
    fixes: u64,
    /// Fixes per second of each complete [`CHUNK`].
    chunk_rates: Vec<f64>,
    /// Host scale measured after each chunk.
    scales: Vec<f64>,
    elapsed: Duration,
}

impl Window {
    /// The [`sustained_rate`] over chunks; the whole window's rate when
    /// no chunk completed.
    fn fixes_per_s(&self) -> f64 {
        if self.chunk_rates.is_empty() {
            self.fixes as f64 / secs(self.elapsed)
        } else {
            sustained_rate(&self.chunk_rates)
        }
    }
}

/// Loops the program's fix entry point over the grid for `duration`.
/// Each pass starts from a fresh health tracker, so every pass computes
/// the same fixes. After each [`CHUNK`] the host probe runs, untimed,
/// and the chunk's rate and fix times are scaled by it.
fn window(design: &CompassDesign, sweep: &Sweep, duration: Duration, probe: &HostProbe) -> Window {
    let entry = sweep.entry();
    let mut scratch = MeasureScratch::for_design(design);
    let mut tracker = DegradedTracker::for_design(design);
    let mut out = Window {
        passes: Vec::new(),
        latency: Windowed::new(duration),
        fixes: 0,
        chunk_rates: Vec::new(),
        scales: Vec::new(),
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    let deadline = start + duration;
    let mut chunk = [(Duration::ZERO, 0.0); CHUNK];
    let mut chunk_ns = 0.0;
    'passes: loop {
        tracker.reset();
        let mut pass = (chain_all(&[]), 0);
        for input in &sweep.grid {
            let t0 = Instant::now();
            let fix = library_fix(design, input, entry, &mut scratch, &mut tracker);
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as f64;
            chunk[pass.1 % CHUNK] = (t1 - start, ns);
            chunk_ns += ns;
            out.fixes += 1;
            pass = (chain(pass.0, fix.digest()), pass.1 + 1);
            let done = t1 >= deadline;
            if pass.1 % CHUNK == 0 || done {
                let scale = probe.scale();
                let n = (pass.1 - 1) % CHUNK + 1;
                for &(at, ns) in &chunk[..n] {
                    out.latency.record_ns(at, ns / scale);
                }
                if n == CHUNK {
                    out.chunk_rates.push(CHUNK as f64 * 1e9 / chunk_ns * scale);
                }
                out.scales.push(scale);
                chunk_ns = 0.0;
            }
            if done {
                out.passes.push(pass);
                break 'passes;
            }
        }
        out.passes.push(pass);
    }
    out.elapsed = start.elapsed();
    out
}

/// Fixes in passes whose digest differs from the digest of the same
/// number of leading `reference` fixes.
pub fn pass_failures(passes: &[(u64, usize)], reference: &[u64]) -> u64 {
    passes
        .iter()
        .filter(|(digest, n)| *digest != chain_all(&reference[..*n]))
        .map(|(_, n)| *n as u64)
        .sum()
}

/// The reference tier over one grid pass: the digest of each fix, and
/// the worst heading error over fixes the health check grades `Good`
/// (graded on the reference readings for the unchecked entry point).
struct Reference {
    digests: Vec<u64>,
    max_error_deg: f64,
    good: usize,
}

fn reference(parts: &Parts, design: &CompassDesign, sweep: &Sweep) -> Reference {
    let mut tracker = DegradedTracker::for_design(design);
    let mut grader = DegradedTracker::for_design(design);
    let mut out = Reference {
        digests: Vec::with_capacity(GRID),
        max_error_deg: 0.0,
        good: 0,
    };
    for input in &sweep.grid {
        let fix: Fix = parts.reference(input, sweep.entry(), &mut tracker);
        let quality = fix
            .quality
            .unwrap_or_else(|| grader.assess(fix.reading.clone()).quality);
        if quality == FixQuality::Good {
            let truth = parts.reference_heading(&input.field);
            let error = fix.reading.heading.angular_distance(truth).value();
            out.max_error_deg = out.max_error_deg.max(error);
            out.good += 1;
        }
        out.digests.push(fix.digest());
    }
    out
}

/// Digests of the golden inputs through the program's entry point.
fn golden_digests(workload: Workload) -> Vec<u64> {
    let sweep = Sweep::new(workload, GOLDEN_SEED);
    let design = CompassDesign::new(sweep.config.clone()).expect("valid design");
    let mut scratch = MeasureScratch::for_design(&design);
    let mut tracker = DegradedTracker::for_design(&design);
    sweep.grid[..sweep.golden.len()]
        .iter()
        .map(|input| {
            library_fix(&design, input, sweep.entry(), &mut scratch, &mut tracker).digest()
        })
        .collect()
}

pub fn run(args: &Args, corrupt_expected: bool) -> Report {
    let sweep = Sweep::new(args.workload, args.seed);
    let build = || CompassDesign::new(sweep.config.clone()).expect("valid design");
    let parts = Parts::new(&sweep.config);
    if args.trace {
        return traced(args, &sweep, &build(), &parts);
    }
    let probe = HostProbe::new();
    let mut setups = Setups::default();
    let design = setups.round(SETUP_REPS, probe.scale(), build);

    let timed = window(
        &design,
        &sweep,
        Duration::from_secs_f64(args.seconds),
        &probe,
    );
    setups.round(SETUP_REPS, probe.scale(), build);

    // Gates, after the timed window: every timed fix against the
    // reference tier, and the golden fixes against their frozen digests.
    let mut reference = reference(&parts, &design, &sweep);
    let mut golden = sweep.golden.to_vec();
    if corrupt_expected {
        reference.digests[0] ^= 1;
        golden[0] ^= 1;
    }
    let failed = pass_failures(&timed.passes, &reference.digests);
    let golden_observed = golden_digests(args.workload);
    let golden_failed = golden_observed
        .iter()
        .zip(&golden)
        .filter(|(observed, expected)| observed != expected)
        .count() as u64;
    let correct = failed == 0 && golden_failed == 0;
    setups.round(SETUP_REPS, probe.scale(), build);
    let (setup_s, setups) = setups.sustained_s();

    // Fix times were scaled chunk by chunk as they were recorded.
    let unscaled = |_| 1.0;
    let (p50_ns, windows) = timed.latency.sustained_quantile_ns(0.5, unscaled);
    let (p90_ns, _) = timed.latency.sustained_quantile_ns(0.9, unscaled);
    let (p99_ns, _) = timed.latency.sustained_quantile_ns(0.99, unscaled);
    let mut values = Values::default();
    values.set("setup_s", setup_s, setups);
    values.set(
        "fixes_per_s",
        timed.fixes_per_s(),
        timed.chunk_rates.len() as u64,
    );
    values.set("latency_p50_ms", p50_ns / 1e6, timed.latency.count());
    values.set("peak_rss_mb", peak_rss_mb(), 1);
    let mut notes = vec![
        format!(
            "max_error_deg {:.6} over {} Good fixes of the {}-heading grid (paper spec 1 deg; reported, not gated)",
            reference.max_error_deg, reference.good, GRID
        ),
        format!(
            "gates: {} timed fixes vs reference tier: {} differ; golden fixes: {} of {} differ",
            timed.fixes,
            failed,
            golden_failed,
            golden.len()
        ),
        format!(
            "fixes_per_s: sustained rate (25th percentile) of {CHUNK}-fix chunks; latency: host time per fix call; both scaled to nominal host speed (median host scale {:.4})",
            median(&timed.scales)
        ),
        tail_note(p90_ns, p99_ns, windows, timed.latency.count()),
    ];
    if golden_failed > 0 {
        notes.push(format!("golden digests observed: {golden_observed:#x?}"));
    }
    Report::new(
        args,
        correct,
        timed.fixes,
        failed + golden_failed,
        values,
        notes,
    )
}

/// The traced run: an untraced window, then the accounting loop for
/// twice as long, which times each fix through the entry point and then
/// recomposes it stage by stage; their rates give the tracing overhead.
fn traced(args: &Args, sweep: &Sweep, design: &CompassDesign, parts: &Parts) -> Report {
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let budget = Duration::from_secs_f64((args.seconds / 100.0).clamp(0.01, 0.1));
    let untraced = window(design, sweep, quarter, &HostProbe::new());
    let mut tracer = Tracer::new();
    let mut values = Values::default();
    let cycle = Cycle {
        design,
        parts,
        entry: sweep.entry(),
        inputs: &sweep.grid,
    };
    let deadline = Instant::now() + 2 * quarter;
    let accounted = cycle.account(usize::MAX, Some(deadline), &mut tracer, &mut values, budget);
    values.set(
        "trace.overhead_share",
        1.0 - accounted.fixes_per_s / untraced.fixes_per_s(),
        accounted.fixes,
    );

    let path = trace_path(args);
    tracer.write_jsonl(&path).expect("write trace");
    let (fixes, differ) = (accounted.fixes, accounted.differ);
    let notes = vec![
        format!("recomposed fixes differing from the entry point: {differ} of {fixes}"),
        "trace.overhead_share: the traced loop also recomposes every fix it times".to_string(),
        format!("spans written to {}", path.display()),
        "serve.* and driver.* read 0: no server on a sweep's path".to_string(),
    ];
    Report::new(args, differ == 0, fixes, differ, values, notes)
}
