//! The RK4 integrator for the analogue states.
//!
//! The one continuous state simulated through time in this reproduction
//! is the relaxation oscillator's capacitor voltage
//! (`fluxcomp_afe::relaxation_sim`). It is non-stiff at the step sizes
//! used, so the classic explicit fourth-order Runge-Kutta method is the
//! only integrator provided.

/// A reusable RK4 stepper for systems `dy/dt = f(t, y)`.
///
/// The solver owns its scratch buffers so the per-step path is
/// allocation-free.
///
/// # Example
///
/// ```
/// use fluxcomp_msim::solver::OdeSolver;
///
/// // Harmonic oscillator: y'' = -ω² y, as a 2-state system.
/// let omega = 2.0 * std::f64::consts::PI * 1000.0;
/// let mut s = OdeSolver::new(2);
/// let mut y = [1.0, 0.0];
/// let dt = 1e-7;
/// let mut t = 0.0;
/// for _ in 0..10_000 {
///     s.step(t, dt, &mut y, |_t, y, dy| {
///         dy[0] = y[1];
///         dy[1] = -omega * omega * y[0];
///     });
///     t += dt;
/// }
/// // After 1 ms = one full period, back to the start.
/// assert!((y[0] - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct OdeSolver {
    dim: usize,
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
    // Kept as a plain field because `step` is far too hot to touch the
    // observability layer; [`OdeSolver::publish_obs`] records it in one
    // call at the end of a run.
    steps: u64,
}

impl OdeSolver {
    /// Creates a solver for a `dim`-dimensional state vector.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "state dimension must be nonzero");
        Self {
            dim,
            k1: vec![0.0; dim],
            k2: vec![0.0; dim],
            k3: vec![0.0; dim],
            k4: vec![0.0; dim],
            tmp: vec![0.0; dim],
            steps: 0,
        }
    }

    /// Records the accumulated step count into the observability layer
    /// (`msim.solver_steps`) and resets it. Call once per simulation run,
    /// never per step.
    pub fn publish_obs(&mut self) {
        fluxcomp_obs::counter_add("msim.solver_steps", self.steps);
        self.steps = 0;
    }

    /// Advances `y` in place from `t` to `t + dt`.
    ///
    /// `f(t, y, dy)` must write the derivative of `y` at time `t` into
    /// `dy`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the solver's dimension.
    pub fn step<F>(&mut self, t: f64, dt: f64, y: &mut [f64], mut f: F)
    where
        F: FnMut(f64, &[f64], &mut [f64]),
    {
        assert_eq!(y.len(), self.dim, "state size mismatch");
        self.steps += 1;
        f(t, y, &mut self.k1);
        for (tmp, (yi, k1)) in self.tmp.iter_mut().zip(y.iter().zip(&self.k1)) {
            *tmp = yi + 0.5 * dt * k1;
        }
        f(t + 0.5 * dt, &self.tmp, &mut self.k2);
        for (tmp, (yi, k2)) in self.tmp.iter_mut().zip(y.iter().zip(&self.k2)) {
            *tmp = yi + 0.5 * dt * k2;
        }
        f(t + 0.5 * dt, &self.tmp, &mut self.k3);
        for (tmp, (yi, k3)) in self.tmp.iter_mut().zip(y.iter().zip(&self.k3)) {
            *tmp = yi + dt * k3;
        }
        f(t + dt, &self.tmp, &mut self.k4);
        for (i, yi) in y.iter_mut().enumerate() {
            *yi += dt / 6.0 * (self.k1[i] + 2.0 * self.k2[i] + 2.0 * self.k3[i] + self.k4[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decay_error(steps: usize) -> f64 {
        // dy/dt = -y, y(0)=1, exact y(1) = 1/e.
        let mut s = OdeSolver::new(1);
        let mut y = [1.0];
        let dt = 1.0 / steps as f64;
        let mut t = 0.0;
        for _ in 0..steps {
            s.step(t, dt, &mut y, |_t, y, dy| dy[0] = -y[0]);
            t += dt;
        }
        (y[0] - (-1.0_f64).exp()).abs()
    }

    #[test]
    fn rk4_converges_fourth_order() {
        let e1 = decay_error(50);
        let e2 = decay_error(100);
        let ratio = e1 / e2;
        assert!((14.0..18.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn multidimensional_coupled_system() {
        // Rotation: x' = -y, y' = x. After 2π, back to start.
        let mut s = OdeSolver::new(2);
        let mut y = [1.0, 0.0];
        let dt = std::f64::consts::TAU / 10_000.0;
        let mut t = 0.0;
        for _ in 0..10_000 {
            s.step(t, dt, &mut y, |_t, y, dy| {
                dy[0] = -y[1];
                dy[1] = y[0];
            });
            t += dt;
        }
        assert!((y[0] - 1.0).abs() < 1e-9);
        assert!(y[1].abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "state size mismatch")]
    fn dimension_mismatch_panics() {
        let mut s = OdeSolver::new(2);
        let mut y = [0.0];
        s.step(0.0, 0.1, &mut y, |_t, _y, _dy| {});
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dim_panics() {
        let _ = OdeSolver::new(0);
    }
}
