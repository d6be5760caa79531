//! Host-speed probe.
//!
//! The shared 2-vCPU host the benchmark was defined on runs the fix loop
//! at ~2.3 ms per fix most of the time and 1.3–1.8 ms during spells that
//! last from seconds to over a minute; whole runs can fall inside one.
//! A register-only arithmetic loop did not track those spells. This
//! probe does: a private stand-in for one axis measurement — nine passes
//! over a 4096-entry drive table with a saturating-core EMF, a latched
//! comparator and a counter clocked through a 32768-entry schedule —
//! with the same memory footprint and kind of arithmetic as the real
//! kernel. It shares no code with the program, so a change to the
//! program cannot move it.
//!
//! Sweep figures are scaled to the probe's [`NOMINAL_NS`]: a time `t`
//! measured while one probe unit took `u` is reported as
//! `t · NOMINAL_NS / u`, a rate `r` as `r · u / NOMINAL_NS`. Over a 45 s
//! trace that spanned both host states, fix time moved 1.9× while the
//! scaled figure stayed within ±5 %.
//!
//! The probe must run on the CPU it measures for: a probe on the other
//! vCPU read a steady 1.7 while the fix loop swung 1.5–2.4 ms. Sweeps
//! run it on the timing thread after each chunk. `serve_unique` pins the
//! whole process — server, load driver and probe — to one CPU with
//! [`pin_to_one_cpu`], and probes every 250 ms from the main thread.

use std::hint::black_box;
use std::time::Instant;

/// Nominal nanoseconds per probe unit, chosen so that scaled sweep
/// figures read as the defining host's common (slower) state does:
/// about 2.3 ms per `sweep_clean` fix.
pub const NOMINAL_NS: f64 = 690_000.0;

const TABLE: usize = 4096;
const PERIODS: usize = 9;

/// The probe's private drive table and clock schedule.
#[derive(Debug, Clone)]
pub struct HostProbe {
    table: Vec<[f64; 5]>,
    schedule: Vec<u32>,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    pub fn new() -> Self {
        let table = (0..TABLE)
            .map(|i| {
                let x = i as f64 / TABLE as f64;
                let tri = 2.0 * x - 1.0;
                [x, tri, tri.signum(), 240.0 * tri, 7.68e6]
            })
            .collect();
        let schedule = (0..TABLE * (PERIODS - 1)).map(|i| (i % 7) as u32).collect();
        Self { table, schedule }
    }

    /// One probe unit; returns its count so the work cannot be elided.
    fn unit(&self, h_ext: f64) -> i64 {
        let (mut out, mut prev, mut count, mut idx) = (false, false, 0i64, 0usize);
        for period in 0..PERIODS {
            for d in &self.table {
                let mu = 1.0 / ((d[3] + h_ext) / 120.0).cosh().powi(2);
                let v = -4e-6 * mu * d[4] * d[2];
                let high = v > 0.02 || (prev && v > 0.01);
                if prev && !high {
                    out = !out;
                }
                prev = high;
                if period > 0 {
                    let edges = i64::from(self.schedule[idx]);
                    count += if out { edges } else { -edges };
                    idx += 1;
                }
            }
        }
        count
    }

    /// How fast the host runs right now relative to nominal: one unit's
    /// time over [`NOMINAL_NS`] (below 1 on a fast host).
    pub fn scale(&self) -> f64 {
        let t = Instant::now();
        black_box(self.unit(black_box(11.9)));
        t.elapsed().as_nanos() as f64 / NOMINAL_NS
    }

    /// [`scale`](Self::scale) taken while other threads share the CPU:
    /// the least of three units, since a unit that was preempted reads
    /// slow.
    pub fn shared_scale(&self) -> f64 {
        (0..3).map(|_| self.scale()).fold(f64::INFINITY, f64::min)
    }
}

/// `cpu_set_t` words: the kernel's default set of 1024 CPUs.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on; returns that CPU.
///
/// A serve workload calls this before it starts the server, so the
/// server's worker, the load driver and the host probe share one CPU
/// and the probe measures the host state the worker runs in.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread, as sched_getaffinity requires.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("no CPU in the affinity mask"))?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread, as sched_setaffinity requires.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}
