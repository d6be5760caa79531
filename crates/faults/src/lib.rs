//! # fluxcomp-faults
//!
//! Seeded, deterministic fault injection for the compass stack.
//!
//! The paper's smart-sensor argument (§5–6) leans on built-in
//! testability: a sensor system must keep working — visibly degraded,
//! never silently wrong — when a pickup coil opens, a comparator
//! sticks, or a core drifts. This crate provides the *injection* side
//! of that story: a [`FaultPlan`] describes which physical faults can
//! strike and how often, and [`FaultPlan::compile`] turns the plan into
//! the concrete per-fix, per-axis [`FixFaults`] effects the analogue
//! front-end applies while measuring.
//!
//! ## Determinism contract
//!
//! Whether a fault strikes a given fix is a **pure function** of
//! `(plan seed, fix seed, axis, spec index)`, drawn through
//! [`fluxcomp_exec::derive_seed`] + [`fluxcomp_exec::unit_f64`]. No
//! global RNG, no call-order dependence: the same request produces the
//! same faults on any worker, under any thread count, in any
//! interleaving — which is what lets the determinism suite assert
//! bit-identical faulted runs at `workers = 1` and `workers = N`.
//!
//! A zero-fault plan ([`FaultPlan::none`], or any plan whose rates are
//! all zero) compiles to [`FixFaults::none`] for every fix, and the
//! front-end's faulted entry point delegates to the plain fast path in
//! that case — the no-fault bitstream is untouched *by construction*,
//! not merely by tolerance.
//!
//! ## Fault taxonomy
//!
//! | fault | physics | observable signature |
//! |---|---|---|
//! | [`FaultKind::OpenPickup`] | pickup coil open / detached: EMF collapses to leakage level | detector never fires → duty ≈ 0, implausible |
//! | [`FaultKind::StuckComparator`] | comparator output welded high or low | duty pinned at 0 or 1, count inconsistent |
//! | [`FaultKind::HkDriftRamp`] | anisotropy-field drift (thermal ramp) adds a growing field offset | duty offset beyond the earth-field band |
//! | [`FaultKind::ExcitationDropout`] | excitation drive drops out for part of the window | missing pulse edges, duty/count mismatch |
//! | [`FaultKind::NoiseBurst`] | EMI burst adds noise during part of the window | jittered edges, count-vs-duty residual |
//!
//! ## Environment grammar
//!
//! Plans can come from `FLUXCOMP_FAULT_PLAN` (see [`FaultPlan::from_env`]):
//!
//! ```text
//! seed=19;open_pickup@y:0.3;stuck@x=low:0.1;hk_ramp@both=8.0:0.05;
//! dropout@x=0.2..0.6:0.1;burst@y=0.005,0.1..0.9:0.2
//! ```
//!
//! Entries are `;`-separated. `seed=N` sets the plan seed (default
//! `0xFA0175`); every other entry is `name@axis[=params]:rate` where
//! `axis` is `x`, `y` or `both` and `rate` is the per-fix activation
//! probability in `[0, 1]`.

use fluxcomp_exec::{derive_seed, unit_f64};
use std::error::Error;
use std::fmt;

/// Default plan seed when `FLUXCOMP_FAULT_PLAN` does not set one.
pub const DEFAULT_PLAN_SEED: u64 = 0xFA_0175;

/// Residual pickup gain of an open coil: the EMF does not vanish
/// exactly (capacitive leakage across the break) but collapses six
/// orders of magnitude, far below any comparator threshold.
pub const OPEN_PICKUP_GAIN: f64 = 1e-6;

/// Which sensor axes a [`FaultSpec`] can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisSel {
    /// The X (cosine) axis only.
    X,
    /// The Y (sine) axis only.
    Y,
    /// Either axis, drawn independently per axis.
    Both,
}

impl AxisSel {
    /// Does this selector cover axis `axis_index` (0 = X, 1 = Y)?
    #[must_use]
    fn applies_to(self, axis_index: u32) -> bool {
        match self {
            AxisSel::X => axis_index == 0,
            AxisSel::Y => axis_index == 1,
            AxisSel::Both => true,
        }
    }
}

/// One physical fault mode (see the crate-level taxonomy table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Pickup coil open: EMF scaled by [`OPEN_PICKUP_GAIN`].
    OpenPickup,
    /// Comparator output welded to `output` for the whole window.
    StuckComparator {
        /// The welded level (`true` = stuck high).
        output: bool,
    },
    /// Anisotropy-field drift: a field offset ramping linearly from
    /// zero to `h_end` A/m across the measurement window.
    HkDriftRamp {
        /// Offset reached at the end of the window, in A/m.
        h_end: f64,
    },
    /// Excitation drive drops out over `[from, until)` (fractions of
    /// the full settle+measure window).
    ExcitationDropout {
        /// Window fraction where the dropout starts.
        from: f64,
        /// Window fraction where the drive returns.
        until: f64,
    },
    /// Additional Gaussian noise of `rms` volts over `[from, until)`.
    NoiseBurst {
        /// RMS of the burst, in volts at the pickup.
        rms: f64,
        /// Window fraction where the burst starts.
        from: f64,
        /// Window fraction where the burst ends.
        until: f64,
    },
}

/// One entry of a [`FaultPlan`]: a fault mode, the axes it can strike,
/// and its per-fix activation probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The fault mode.
    pub kind: FaultKind,
    /// Which axes the fault can strike.
    pub axis: AxisSel,
    /// Per-fix activation probability in `[0, 1]`.
    pub rate: f64,
}

impl FaultSpec {
    /// Checks the values the text grammar refuses: a rate outside
    /// `[0, 1]`, an H offset that is not finite, a window that does not
    /// satisfy `0 <= from < until <= 1`, a burst RMS that is negative or
    /// not finite. A spec built in code, through [`FaultPlan::with`],
    /// may hold any of them; [`FaultPlan::compile`] never strikes with
    /// such a spec.
    pub fn check(&self) -> Result<(), FaultPlanError> {
        if !(0.0..=1.0).contains(&self.rate) {
            return Err(FaultPlanError::BadRate(self.rate.to_string()));
        }
        let bad = |fault, detail: &str| FaultPlanError::BadParams {
            fault,
            detail: detail.to_string(),
        };
        let window = |fault, from: f64, until: f64| {
            if (0.0..=1.0).contains(&from) && (0.0..=1.0).contains(&until) && from < until {
                Ok(())
            } else {
                Err(bad(
                    fault,
                    &format!("window must satisfy 0 <= from < until <= 1, got {from}..{until}"),
                ))
            }
        };
        match self.kind {
            FaultKind::OpenPickup | FaultKind::StuckComparator { .. } => Ok(()),
            FaultKind::HkDriftRamp { h_end } if !h_end.is_finite() => {
                Err(bad("hk_ramp", "H offset must be finite"))
            }
            FaultKind::HkDriftRamp { .. } => Ok(()),
            FaultKind::ExcitationDropout { from, until } => window("dropout", from, until),
            FaultKind::NoiseBurst { rms, .. } if !(rms >= 0.0 && rms.is_finite()) => {
                Err(bad("burst", "RMS must be finite and non-negative"))
            }
            FaultKind::NoiseBurst { from, until, .. } => window("burst", from, until),
        }
    }
}

/// A seeded set of [`FaultSpec`]s; the deterministic source of every
/// injected fault in the stack.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            specs: Vec::new(),
        }
    }

    /// The canonical zero-fault plan.
    #[must_use]
    pub fn none() -> Self {
        Self::new(DEFAULT_PLAN_SEED)
    }

    /// Builder: adds a spec.
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// True when the plan can never inject anything (no specs, or all
    /// rates zero).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.specs.iter().all(|s| s.rate <= 0.0)
    }

    /// The plan seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The specs, in activation-draw order.
    #[must_use]
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// The first spec's [`FaultSpec::check`] error, if any spec fails it.
    pub fn check(&self) -> Result<(), FaultPlanError> {
        self.specs.iter().try_for_each(FaultSpec::check)
    }

    /// Compiles the plan into the concrete effects striking one axis of
    /// one fix.
    ///
    /// `axis_index` is 0 for X, 1 for Y; `fix_seed` is the fix's noise
    /// seed. The activation draw for spec `i` is
    /// `unit_f64(derive_seed(derive_seed(plan_seed, fix_seed), axis << 32 | i))`,
    /// so the result is a pure function of those four values — see the
    /// crate-level determinism contract. A spec that fails its
    /// [`check`](FaultSpec::check) never strikes.
    #[must_use]
    pub fn compile(&self, axis_index: u32, fix_seed: u64) -> FixFaults {
        let mut out = FixFaults::none();
        if self.specs.is_empty() {
            return out;
        }
        let stream = derive_seed(self.seed, fix_seed);
        for (i, spec) in self.specs.iter().enumerate() {
            if !spec.axis.applies_to(axis_index) || spec.check().is_err() {
                continue;
            }
            let draw = derive_seed(stream, (u64::from(axis_index) << 32) | i as u64);
            if unit_f64(draw) >= spec.rate {
                continue;
            }
            out.injected += 1;
            fluxcomp_obs::counter_add("faults.injected", 1);
            match spec.kind {
                FaultKind::OpenPickup => {
                    out.pickup_gain = OPEN_PICKUP_GAIN;
                    fluxcomp_obs::counter_add("faults.open_pickup", 1);
                }
                FaultKind::StuckComparator { output } => {
                    out.stuck_output = Some(output);
                    fluxcomp_obs::counter_add("faults.stuck_comparator", 1);
                }
                FaultKind::HkDriftRamp { h_end } => {
                    out.hk_ramp += h_end;
                    fluxcomp_obs::counter_add("faults.hk_ramp", 1);
                }
                FaultKind::ExcitationDropout { from, until } => {
                    out.dropout = Some((from, until));
                    fluxcomp_obs::counter_add("faults.dropout", 1);
                }
                FaultKind::NoiseBurst { rms, from, until } => {
                    out.burst = Some(BurstFault {
                        rms,
                        from,
                        until,
                        // A fresh stream per strike: the burst noise must
                        // not correlate with the activation draw or the
                        // fix's main noise stream.
                        seed: derive_seed(draw, 0x4E42_5253),
                    });
                    fluxcomp_obs::counter_add("faults.noise_burst", 1);
                }
            }
        }
        out
    }

    /// Parses the `FLUXCOMP_FAULT_PLAN` grammar (crate-level docs).
    pub fn parse(text: &str) -> Result<Self, FaultPlanError> {
        let mut plan = Self::new(DEFAULT_PLAN_SEED);
        let mut saw_entry = false;
        for raw in text.split(';') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            saw_entry = true;
            if let Some(seed_text) = entry.strip_prefix("seed=") {
                plan.seed = parse_seed(seed_text.trim())?;
                continue;
            }
            plan.specs.push(parse_spec(entry)?);
        }
        if !saw_entry {
            return Err(FaultPlanError::Empty);
        }
        Ok(plan)
    }

    /// Reads `FLUXCOMP_FAULT_PLAN` from the environment.
    ///
    /// `Ok(None)` when unset or blank; `Err` when set but malformed —
    /// callers decide whether a bad plan is fatal.
    pub fn from_env() -> Result<Option<Self>, FaultPlanError> {
        match std::env::var("FLUXCOMP_FAULT_PLAN") {
            Ok(text) if !text.trim().is_empty() => Self::parse(&text).map(Some),
            _ => Ok(None),
        }
    }
}

/// A noise burst compiled for one fix: effect parameters plus the
/// derived seed of its dedicated noise stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstFault {
    /// RMS of the burst in volts at the pickup.
    pub rms: f64,
    /// Window fraction where the burst starts.
    pub from: f64,
    /// Window fraction where the burst ends.
    pub until: f64,
    /// Seed of the burst's own Gaussian stream.
    pub seed: u64,
}

/// The concrete fault effects striking one axis of one fix — what
/// [`FaultPlan::compile`] produces and the analogue front-end consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixFaults {
    /// Multiplier on the pickup EMF (1.0 nominal, [`OPEN_PICKUP_GAIN`]
    /// for an open coil).
    pub pickup_gain: f64,
    /// Comparator output welded to this level when `Some`.
    pub stuck_output: Option<bool>,
    /// Excitation dropout window `[from, until)` in window fractions.
    pub dropout: Option<(f64, f64)>,
    /// Field offset (A/m) reached at the end of the window, applied as
    /// a linear ramp from zero.
    pub hk_ramp: f64,
    /// Additional burst noise.
    pub burst: Option<BurstFault>,
    /// How many specs struck (0 ⇒ [`FixFaults::is_none`]).
    pub injected: u32,
}

impl FixFaults {
    /// No faults: the front-end takes the untouched fast path.
    #[must_use]
    pub fn none() -> Self {
        Self {
            pickup_gain: 1.0,
            stuck_output: None,
            dropout: None,
            hk_ramp: 0.0,
            burst: None,
            injected: 0,
        }
    }

    /// True when nothing struck.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.injected == 0
    }
}

impl Default for FixFaults {
    fn default() -> Self {
        Self::none()
    }
}

/// Typed parse error for the `FLUXCOMP_FAULT_PLAN` grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPlanError {
    /// The plan text contained no entries.
    Empty,
    /// `seed=` value was not a u64 (decimal or `0x…` hex).
    BadSeed(String),
    /// Unrecognised fault name.
    UnknownFault(String),
    /// Axis was not `x`, `y` or `both`.
    BadAxis(String),
    /// Rate missing, unparsable, or outside `[0, 1]`.
    BadRate(String),
    /// Fault parameters missing or malformed.
    BadParams {
        /// Which fault the bad parameters belong to.
        fault: &'static str,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::Empty => write!(f, "fault plan is empty"),
            FaultPlanError::BadSeed(s) => write!(f, "bad plan seed {s:?}"),
            FaultPlanError::UnknownFault(s) => write!(f, "unknown fault {s:?}"),
            FaultPlanError::BadAxis(s) => write!(f, "bad axis {s:?} (want x, y or both)"),
            FaultPlanError::BadRate(s) => write!(f, "bad rate {s:?} (want a float in [0, 1])"),
            FaultPlanError::BadParams { fault, detail } => {
                write!(f, "bad parameters for {fault}: {detail}")
            }
        }
    }
}

impl Error for FaultPlanError {}

fn parse_seed(text: &str) -> Result<u64, FaultPlanError> {
    let parsed = if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        text.parse()
    };
    parsed.map_err(|_| FaultPlanError::BadSeed(text.to_string()))
}

fn parse_spec(entry: &str) -> Result<FaultSpec, FaultPlanError> {
    // name@axis[=params]:rate — split the rate off the *last* ':' so
    // future params may contain colons.
    let (head, rate_text) = entry
        .rsplit_once(':')
        .ok_or_else(|| FaultPlanError::BadRate(entry.to_string()))?;
    let rate: f64 = rate_text
        .trim()
        .parse()
        .map_err(|_| FaultPlanError::BadRate(rate_text.to_string()))?;
    // Checked here, before the rest of the entry, so the error quotes
    // the rate as written and takes precedence over any other.
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(FaultPlanError::BadRate(rate_text.to_string()));
    }
    let (name_axis, params) = match head.split_once('=') {
        Some((na, p)) => (na.trim(), Some(p.trim())),
        None => (head.trim(), None),
    };
    let (name, axis_text) = name_axis
        .split_once('@')
        .ok_or_else(|| FaultPlanError::UnknownFault(name_axis.to_string()))?;
    let axis = match axis_text.trim() {
        "x" => AxisSel::X,
        "y" => AxisSel::Y,
        "both" => AxisSel::Both,
        other => return Err(FaultPlanError::BadAxis(other.to_string())),
    };
    let spec = FaultSpec {
        kind: parse_kind(name.trim(), params)?,
        axis,
        rate,
    };
    spec.check()?;
    Ok(spec)
}

fn parse_kind(name: &str, params: Option<&str>) -> Result<FaultKind, FaultPlanError> {
    let bad = |fault: &'static str, detail: &str| FaultPlanError::BadParams {
        fault,
        detail: detail.to_string(),
    };
    match name {
        "open_pickup" => match params {
            None => Ok(FaultKind::OpenPickup),
            Some(p) => Err(bad(
                "open_pickup",
                &format!("takes no parameters, got {p:?}"),
            )),
        },
        "stuck" => match params {
            Some("high") => Ok(FaultKind::StuckComparator { output: true }),
            Some("low") => Ok(FaultKind::StuckComparator { output: false }),
            other => Err(bad("stuck", &format!("want high|low, got {other:?}"))),
        },
        "hk_ramp" => {
            let text = params.ok_or_else(|| bad("hk_ramp", "missing H offset in A/m"))?;
            let h_end: f64 = text
                .parse()
                .map_err(|_| bad("hk_ramp", &format!("bad H offset {text:?}")))?;
            Ok(FaultKind::HkDriftRamp { h_end })
        }
        "dropout" => {
            let text = params.ok_or_else(|| bad("dropout", "missing FROM..UNTIL window"))?;
            let (from, until) = parse_window("dropout", text)?;
            Ok(FaultKind::ExcitationDropout { from, until })
        }
        "burst" => {
            let text = params.ok_or_else(|| bad("burst", "missing RMS,FROM..UNTIL"))?;
            let (rms_text, window) = text
                .split_once(',')
                .ok_or_else(|| bad("burst", &format!("want RMS,FROM..UNTIL, got {text:?}")))?;
            let rms: f64 = rms_text
                .trim()
                .parse()
                .map_err(|_| bad("burst", &format!("bad RMS {rms_text:?}")))?;
            let (from, until) = parse_window("burst", window)?;
            Ok(FaultKind::NoiseBurst { rms, from, until })
        }
        other => Err(FaultPlanError::UnknownFault(other.to_string())),
    }
}

fn parse_window(fault: &'static str, text: &str) -> Result<(f64, f64), FaultPlanError> {
    let bad = |detail: String| FaultPlanError::BadParams { fault, detail };
    let (a, b) = text
        .split_once("..")
        .ok_or_else(|| bad(format!("want FROM..UNTIL, got {text:?}")))?;
    let from: f64 = a
        .trim()
        .parse()
        .map_err(|_| bad(format!("bad window start {a:?}")))?;
    let until: f64 = b
        .trim()
        .parse()
        .map_err(|_| bad(format!("bad window end {b:?}")))?;
    Ok((from, until))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_y(rate: f64) -> FaultSpec {
        FaultSpec {
            kind: FaultKind::OpenPickup,
            axis: AxisSel::Y,
            rate,
        }
    }

    #[test]
    fn zero_plan_compiles_to_no_faults_for_any_fix() {
        let plan = FaultPlan::none();
        assert!(plan.is_zero());
        for seed in 0..100u64 {
            assert!(plan.compile(0, seed).is_none());
            assert!(plan.compile(1, seed).is_none());
        }
        // Rate-zero specs are also a zero plan.
        let plan = FaultPlan::new(1).with(open_y(0.0));
        assert!(plan.is_zero());
        for seed in 0..100u64 {
            assert!(plan.compile(1, seed).is_none());
        }
    }

    #[test]
    fn compile_is_deterministic_and_axis_scoped() {
        let plan = FaultPlan::new(7).with(open_y(0.5));
        for seed in 0..200u64 {
            let x = plan.compile(0, seed);
            let y = plan.compile(1, seed);
            // Y-only spec never strikes X.
            assert!(x.is_none(), "X struck at seed {seed}");
            // Recompiling gives the identical effect set.
            assert_eq!(y, plan.compile(1, seed));
        }
    }

    #[test]
    fn activation_rate_is_respected_statistically() {
        let plan = FaultPlan::new(99).with(open_y(0.3));
        let strikes = (0..10_000u64)
            .filter(|&s| !plan.compile(1, s).is_none())
            .count();
        let rate = strikes as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn rate_one_always_strikes_and_stacks_effects() {
        let plan = FaultPlan::new(3)
            .with(FaultSpec {
                kind: FaultKind::StuckComparator { output: false },
                axis: AxisSel::Both,
                rate: 1.0,
            })
            .with(FaultSpec {
                kind: FaultKind::HkDriftRamp { h_end: 5.0 },
                axis: AxisSel::Both,
                rate: 1.0,
            });
        let f = plan.compile(0, 42);
        assert_eq!(f.injected, 2);
        assert_eq!(f.stuck_output, Some(false));
        assert_eq!(f.hk_ramp, 5.0);
        assert_eq!(f.pickup_gain, 1.0);
    }

    #[test]
    fn burst_seed_differs_from_activation_stream_and_per_fix() {
        let plan = FaultPlan::new(11).with(FaultSpec {
            kind: FaultKind::NoiseBurst {
                rms: 1e-3,
                from: 0.1,
                until: 0.9,
            },
            axis: AxisSel::Both,
            rate: 1.0,
        });
        let a = plan.compile(0, 1).burst.unwrap();
        let b = plan.compile(0, 2).burst.unwrap();
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn parse_full_grammar_round_trips() {
        let plan = FaultPlan::parse(
            "seed=0x13;open_pickup@y:0.3;stuck@x=low:0.1;hk_ramp@both=8.0:0.05;\
             dropout@x=0.2..0.6:0.1;burst@y=0.005,0.1..0.9:0.2",
        )
        .unwrap();
        assert_eq!(plan.seed(), 0x13);
        assert_eq!(plan.specs().len(), 5);
        assert_eq!(plan.specs()[0], open_y(0.3));
        assert_eq!(
            plan.specs()[4].kind,
            FaultKind::NoiseBurst {
                rms: 0.005,
                from: 0.1,
                until: 0.9
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_plans_with_typed_errors() {
        use FaultPlanError as E;
        assert_eq!(FaultPlan::parse(""), Err(E::Empty));
        assert_eq!(FaultPlan::parse("  ; ;"), Err(E::Empty));
        assert!(matches!(FaultPlan::parse("seed=zz"), Err(E::BadSeed(_))));
        assert!(matches!(
            FaultPlan::parse("melted@x:0.5"),
            Err(E::UnknownFault(_))
        ));
        assert!(matches!(
            FaultPlan::parse("open_pickup@z:0.5"),
            Err(E::BadAxis(_))
        ));
        assert!(matches!(
            FaultPlan::parse("open_pickup@x:1.5"),
            Err(E::BadRate(_))
        ));
        assert!(matches!(
            FaultPlan::parse("open_pickup@x:NaN"),
            Err(E::BadRate(_))
        ));
        assert!(matches!(
            FaultPlan::parse("open_pickup@x"),
            Err(E::BadRate(_))
        ));
        // The rate is quoted as written and reported before the axis
        // and the params are read.
        assert_eq!(
            FaultPlan::parse("open_pickup@x:1.50"),
            Err(E::BadRate("1.50".to_string()))
        );
        assert_eq!(
            FaultPlan::parse("burst@z=-1,0.9..0.1:1e3"),
            Err(E::BadRate("1e3".to_string()))
        );
        assert!(matches!(
            FaultPlan::parse("stuck@x=sideways:0.5"),
            Err(E::BadParams { fault: "stuck", .. })
        ));
        assert!(matches!(
            FaultPlan::parse("dropout@x=0.6..0.2:0.5"),
            Err(E::BadParams {
                fault: "dropout",
                ..
            })
        ));
        assert!(matches!(
            FaultPlan::parse("burst@y=0.005:0.5"),
            Err(E::BadParams { fault: "burst", .. })
        ));
    }

    /// A spec built in code with a value the grammar refuses fails its
    /// check with the error the parser gives, and never strikes.
    #[test]
    fn invalid_specs_fail_the_check_and_never_strike() {
        let burst = |rms, from, until| FaultKind::NoiseBurst { rms, from, until };
        let kinds = [
            (burst(f64::NAN, 0.1, 0.9), "burst"),
            (burst(-1e-3, 0.1, 0.9), "burst"),
            (burst(f64::INFINITY, 0.1, 0.9), "burst"),
            (burst(1e-3, 0.9, 0.1), "burst"),
            (burst(1e-3, f64::NAN, 0.5), "burst"),
            (FaultKind::HkDriftRamp { h_end: f64::NAN }, "hk_ramp"),
            (
                FaultKind::ExcitationDropout {
                    from: -0.5,
                    until: 0.5,
                },
                "dropout",
            ),
        ];
        for (kind, fault) in kinds {
            let spec = FaultSpec {
                kind,
                axis: AxisSel::Both,
                rate: 1.0,
            };
            assert!(
                matches!(spec.check(), Err(FaultPlanError::BadParams { fault: f, .. }) if f == fault),
                "{kind:?}"
            );
            let plan = FaultPlan::new(5).with(open_y(0.0)).with(spec);
            assert!(plan.check().is_err(), "{kind:?}");
            for seed in 0..50 {
                assert!(plan.compile(0, seed).is_none(), "{kind:?} struck");
            }
        }
        for rate in [f64::NAN, -0.1, 1.5] {
            let plan = FaultPlan::new(5).with(open_y(rate));
            assert!(matches!(plan.check(), Err(FaultPlanError::BadRate(_))));
            assert!((0..50).all(|seed| plan.compile(1, seed).is_none()));
        }
        assert_eq!(FaultPlan::new(5).with(open_y(1.0)).check(), Ok(()));
    }

    #[test]
    fn from_env_is_none_when_unset() {
        // The test harness does not set FLUXCOMP_FAULT_PLAN; avoid
        // mutating process env (other tests run in parallel).
        if std::env::var("FLUXCOMP_FAULT_PLAN").is_err() {
            assert_eq!(FaultPlan::from_env(), Ok(None));
        }
    }
}
