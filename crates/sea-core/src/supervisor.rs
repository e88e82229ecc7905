//! Fault-tolerant solve supervision: budgets, cancellation, stagnation and
//! breakdown watchdogs, crash-safe checkpoints, and a deterministic
//! fault-injection plan for testing all of it.
//!
//! The paper's pitch is *large-scale* equilibration — long solves on
//! mn ≈ 10⁶ problems — where a single non-finite iterate, a panicked
//! worker, or an operator Ctrl-C must not lose the run. The supervisor
//! wraps the diagonal/general/bounded drivers and guarantees one
//! invariant: a supervised solve returns either `Ok` with an honest
//! KKT-residual certificate and a typed [`StopReason`], or a typed
//! [`SeaError`](crate::SeaError) — never a panic, abort, or silent wrong
//! answer.
//!
//! Iterative scaling is known to stagnate or converge only in the limit
//! (Aas; Nathanson, *Matrix scaling limits in finitely many iterations*),
//! so "return the best certified iterate" is a first-class outcome here,
//! not a failure mode.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a supervised solve stopped.
///
/// `Converged` is the only reason that implies the stopping criterion was
/// met; every other reason means the returned solution is the best iterate
/// available at the stop, stamped with its KKT certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The convergence criterion fired.
    Converged,
    /// The iteration cap (options or budget) was reached first.
    IterationCap,
    /// The wall-clock deadline expired.
    DeadlineExceeded,
    /// The kernel-work budget was exhausted.
    WorkCapExceeded,
    /// The [`CancelToken`] was triggered (e.g. SIGINT in sea-cli).
    Cancelled,
    /// The residual stopped improving per the stagnation policy.
    Stagnated,
    /// Iterates went non-finite; the last certified snapshot was restored.
    Breakdown,
}

impl StopReason {
    /// All reasons, in a fixed order (used by exit-code maps and tests).
    pub const ALL: [StopReason; 7] = [
        StopReason::Converged,
        StopReason::IterationCap,
        StopReason::DeadlineExceeded,
        StopReason::WorkCapExceeded,
        StopReason::Cancelled,
        StopReason::Stagnated,
        StopReason::Breakdown,
    ];

    /// Stable wire name (`snake_case`), used by observe events.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::IterationCap => "iteration_cap",
            StopReason::DeadlineExceeded => "deadline_exceeded",
            StopReason::WorkCapExceeded => "work_cap_exceeded",
            StopReason::Cancelled => "cancelled",
            StopReason::Stagnated => "stagnated",
            StopReason::Breakdown => "breakdown",
        }
    }

    /// Inverse of [`StopReason::name`].
    pub fn parse(s: &str) -> Option<StopReason> {
        StopReason::ALL.into_iter().find(|r| r.name() == s)
    }
}

/// A shareable cancellation flag.
///
/// Clones observe the same flag. [`CancelToken::from_static`] bridges a
/// `static AtomicBool` — the only thing an async-signal-safe SIGINT
/// handler may touch — into the solver without the handler ever seeing an
/// `Arc`.
#[derive(Debug, Clone)]
pub struct CancelToken(TokenInner);

#[derive(Debug, Clone)]
enum TokenInner {
    Shared(Arc<AtomicBool>),
    Static(&'static AtomicBool),
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken(TokenInner::Shared(Arc::new(AtomicBool::new(false))))
    }

    /// Wrap a static flag (for signal handlers).
    pub fn from_static(flag: &'static AtomicBool) -> Self {
        CancelToken(TokenInner::Static(flag))
    }

    /// Request cancellation; every clone observes it.
    pub fn cancel(&self) {
        match &self.0 {
            TokenInner::Shared(f) => f.store(true, Ordering::SeqCst),
            TokenInner::Static(f) => f.store(true, Ordering::SeqCst),
        }
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        match &self.0 {
            TokenInner::Shared(f) => f.load(Ordering::SeqCst),
            TokenInner::Static(f) => f.load(Ordering::SeqCst),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// Resource limits for one supervised solve. All limits are optional and
/// checked once per completed iteration (the iterate is always a valid
/// post-column-pass point when a limit fires).
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    /// Wall-clock deadline, measured from solve start.
    pub deadline: Option<Duration>,
    /// Extra iteration cap below the options' `max_iterations`.
    pub max_iterations: Option<usize>,
    /// Cap on cumulative kernel work, measured in breakpoint scans plus
    /// quickselect partition rounds plus boxed clamps (the quantities the
    /// paper's per-iteration cost model counts).
    pub max_kernel_work: Option<u64>,
}

/// When to declare the residual stagnant.
///
/// The solve stops with [`StopReason::Stagnated`] after `window`
/// consecutive convergence checks in which the residual improved by less
/// than `min_rel_improvement` relative to the best residual seen.
#[derive(Debug, Clone, Copy)]
pub struct StagnationPolicy {
    /// Consecutive non-improving checks before stopping.
    pub window: usize,
    /// Minimum relative improvement that resets the window.
    pub min_rel_improvement: f64,
}

impl Default for StagnationPolicy {
    fn default() -> Self {
        StagnationPolicy {
            window: 16,
            min_rel_improvement: 1e-9,
        }
    }
}

/// Crash-safe checkpointing: write a [`Checkpoint`] snapshot every `every`
/// iterations via tmp-then-rename, so a crash mid-write never corrupts the
/// previous snapshot.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Destination path (the tmp file is `<path>.tmp`).
    pub path: PathBuf,
    /// Snapshot cadence in iterations (0 is treated as 1).
    pub every: usize,
}

/// One scripted fault of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Overwrite `lambda[index]` with NaN after the column pass — the
    /// breakdown watchdog must catch it the same iteration.
    NanLambda {
        /// Multiplier index to poison.
        index: usize,
    },
    /// Treat the kernel result of one subproblem as pathological, forcing
    /// the per-subproblem sort-scan fallback (meaningful with the
    /// quickselect kernel; a no-op under sort-scan).
    KernelNan {
        /// `"row"` or `"column"`.
        side: &'static str,
        /// Subproblem index.
        index: usize,
    },
    /// Panic inside one equilibration worker — containment must convert
    /// it into [`SeaError::WorkerPanic`](crate::SeaError::WorkerPanic).
    WorkerPanic {
        /// `"row"` or `"column"`.
        side: &'static str,
        /// Subproblem index.
        index: usize,
    },
    /// Behave as if the wall-clock deadline expired at this iteration.
    DeadlineNow,
    /// Behave as if the cancel token fired at this iteration.
    CancelNow,
}

/// A deterministic fault schedule: each entry fires at one scripted
/// iteration (1-based). Drives the fault-injection test harness; empty in
/// production.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<(usize, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `fault` at `iteration` (builder style).
    #[must_use]
    pub fn at(mut self, iteration: usize, fault: FaultKind) -> Self {
        self.faults.push((iteration, fault));
        self
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether any fault targets the passes or the multipliers (anything
    /// beyond the budget-level `DeadlineNow`/`CancelNow`).
    pub(crate) fn targets_passes(&self) -> bool {
        self.faults
            .iter()
            .any(|(_, f)| !matches!(f, FaultKind::DeadlineNow | FaultKind::CancelNow))
    }

    fn at_iteration(&self, t: usize) -> impl Iterator<Item = &FaultKind> {
        self.faults
            .iter()
            .filter(move |(ft, _)| *ft == t)
            .map(|(_, f)| f)
    }
}

/// Configuration of one supervised solve.
#[derive(Debug, Clone, Default)]
pub struct SupervisorOptions {
    /// Resource limits.
    pub budget: SolveBudget,
    /// Cooperative cancellation flag (checked once per iteration).
    pub cancel: Option<CancelToken>,
    /// Stagnation watchdog; `None` disables it.
    pub stagnation: Option<StagnationPolicy>,
    /// Crash-safe checkpointing; `None` disables it.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Iteration offset for checkpoint stamping when resuming a run (the
    /// loaded checkpoint's `iteration`); budgets and events stay local to
    /// this process's iterations.
    pub start_iteration: usize,
    /// Scripted faults for the deterministic test harness.
    pub faults: FaultPlan,
}

/// A supervised diagonal solve outcome: the (possibly partial) solution,
/// why it stopped, and its KKT-residual certificate.
#[derive(Debug, Clone)]
pub struct SupervisedSolution<S: crate::storage::Storage = sea_linalg::DenseMatrix> {
    /// The solution; partial (best iterate at the stop) unless
    /// `stop == Converged`.
    pub solution: crate::solver::Solution<S>,
    /// Why the solve stopped.
    pub stop: StopReason,
    /// KKT residuals of the returned iterate — the honesty stamp for
    /// partial solutions.
    pub certificate: crate::verify::KktReport,
    /// Subproblems that fell back from quickselect to sort-scan.
    pub kernel_fallbacks: u64,
    /// First checkpoint-write failure, if any (checkpointing is disabled
    /// for the rest of the solve; the solve itself is never aborted by a
    /// failing snapshot).
    pub checkpoint_error: Option<String>,
}

/// A supervised bounded solve outcome.
#[derive(Debug, Clone)]
pub struct SupervisedBoundedSolution<S: crate::storage::Storage = sea_linalg::DenseMatrix> {
    /// The (possibly partial) bounded solution.
    pub solution: crate::interval::BoundedSolution<S>,
    /// Why the solve stopped.
    pub stop: StopReason,
}

/// A supervised general solve outcome.
#[derive(Debug, Clone)]
pub struct SupervisedGeneralSolution<S: crate::storage::Storage = sea_linalg::DenseMatrix> {
    /// The (possibly partial) general solution.
    pub solution: crate::general::GeneralSolution<S>,
    /// Why the solve stopped (outer-iteration granularity).
    pub stop: StopReason,
}

/// A crash-safe solver state snapshot: the column multipliers plus the
/// iteration they belong to — sufficient to resume a diagonal or bounded
/// solve bitwise-identically, because the row pass recomputes `λ` from `μ`.
/// (A general solve's state is its primal iterate, which this format
/// cannot carry; the general driver refuses checkpoints.)
///
/// The on-disk format is a small line-oriented text file whose floats are
/// hex-encoded IEEE-754 bit patterns, so save→load round-trips are exact:
///
/// ```text
/// SEA-CHECKPOINT v1
/// solver diagonal
/// iteration 42
/// lambda 2 3ff0000000000000 4000000000000000
/// mu 3 0000000000000000 bff0000000000000 7ff0000000000000
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Driver name (`"diagonal"` or `"bounded"`).
    pub solver: String,
    /// Iteration the snapshot captures (cumulative across resumes).
    pub iteration: usize,
    /// Row multipliers at that iteration (informational; resume only
    /// needs `mu`).
    pub lambda: Vec<f64>,
    /// Column multipliers at that iteration — the resume state.
    pub mu: Vec<f64>,
}

impl Checkpoint {
    /// Serialize to the v1 text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "SEA-CHECKPOINT v1");
        let _ = writeln!(out, "solver {}", self.solver);
        let _ = writeln!(out, "iteration {}", self.iteration);
        for (name, vals) in [("lambda", &self.lambda), ("mu", &self.mu)] {
            let _ = write!(out, "{name} {}", vals.len());
            for v in vals {
                let _ = write!(out, " {:016x}", v.to_bits());
            }
            out.push('\n');
        }
        out
    }

    /// Write crash-safely: the snapshot goes to `<path>.tmp`, is synced,
    /// and then renamed over `path`, so a crash mid-write leaves the
    /// previous snapshot intact.
    ///
    /// # Errors
    /// Any I/O failure creating, writing, syncing, or renaming.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = {
            let mut os = path.as_os_str().to_owned();
            os.push(".tmp");
            PathBuf::from(os)
        };
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(self.render().as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    }

    /// Parse the v1 text format.
    ///
    /// # Errors
    /// `InvalidData` on any malformed header, count, or hex word.
    pub fn parse(text: &str) -> std::io::Result<Checkpoint> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut lines = text.lines();
        if lines.next() != Some("SEA-CHECKPOINT v1") {
            return Err(bad("not a SEA-CHECKPOINT v1 file"));
        }
        let solver = lines
            .next()
            .and_then(|l| l.strip_prefix("solver "))
            .ok_or_else(|| bad("missing solver line"))?
            .to_string();
        let iteration = lines
            .next()
            .and_then(|l| l.strip_prefix("iteration "))
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| bad("missing or malformed iteration line"))?;
        let mut vec_line = |name: &str| -> std::io::Result<Vec<f64>> {
            let line = lines
                .next()
                .and_then(|l| l.strip_prefix(name))
                .and_then(|l| l.strip_prefix(' '))
                .ok_or_else(|| bad("missing multiplier line"))?;
            let mut words = line.split_ascii_whitespace();
            let count: usize = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| bad("malformed multiplier count"))?;
            let vals: Vec<f64> = words
                .map(|w| u64::from_str_radix(w, 16).map(f64::from_bits))
                .collect::<Result<_, _>>()
                .map_err(|_| bad("malformed hex multiplier"))?;
            if vals.len() != count {
                return Err(bad("multiplier count mismatch"));
            }
            Ok(vals)
        };
        let lambda = vec_line("lambda")?;
        let mu = vec_line("mu")?;
        Ok(Checkpoint {
            solver,
            iteration,
            lambda,
            mu,
        })
    }

    /// Read and parse a checkpoint file.
    ///
    /// # Errors
    /// I/O failures and the same parse errors as [`Checkpoint::parse`].
    pub fn load(path: &Path) -> std::io::Result<Checkpoint> {
        Checkpoint::parse(&std::fs::read_to_string(path)?)
    }
}

/// A scripted fault for one equilibration pass (internal plumbing between
/// the supervisor and [`crate::equilibrate::PassInputs`]).
#[derive(Debug, Clone, Copy)]
pub struct TaskFault {
    /// Subproblem index the fault targets.
    pub index: usize,
    /// `true` panics the worker; `false` forces the kernel fallback.
    pub panic: bool,
}

/// Last-known-good state captured at each successful convergence check,
/// restored on numerical breakdown. Buffers are allocated once on first
/// capture and reused (supervision itself never allocates per iteration
/// after warm-up).
#[derive(Debug, Default)]
struct SnapshotBufs {
    valid: bool,
    iteration: usize,
    residual: f64,
    lambda: Vec<f64>,
    mu: Vec<f64>,
    x_t: Vec<f64>,
    s: Vec<f64>,
    d: Vec<f64>,
}

/// Per-solve supervision state threaded through the driver loops. The
/// passive control (used by unsupervised entry points) is all `None`s and
/// compiles down to a handful of branch checks — the steady-state loop
/// stays allocation-free.
#[derive(Debug)]
pub(crate) struct SolveControl<'a> {
    sup: Option<&'a SupervisorOptions>,
    start: Instant,
    stop: Option<StopReason>,
    snap: SnapshotBufs,
    best_residual: f64,
    stagnant_checks: usize,
    checkpoint_enabled: bool,
    checkpoint_error: Option<String>,
    /// Harvest kernel counters even without a supervisor (a general
    /// solve's inner solves feed its outer work budget).
    count: bool,
    /// Total quickselect→sort-scan fallbacks, harvested at solve end.
    pub(crate) fallbacks: u64,
}

impl<'a> SolveControl<'a> {
    /// Control for an unsupervised solve: every hook is a no-op.
    pub(crate) fn passive() -> Self {
        Self::build(None)
    }

    /// Control for a supervised solve.
    pub(crate) fn active(sup: &'a SupervisorOptions) -> Self {
        Self::build(Some(sup))
    }

    /// A passive control whose solve still harvests kernel counters.
    pub(crate) fn counting() -> Self {
        Self {
            count: true,
            ..Self::build(None)
        }
    }

    fn build(sup: Option<&'a SupervisorOptions>) -> Self {
        SolveControl {
            sup,
            start: Instant::now(),
            stop: None,
            snap: SnapshotBufs::default(),
            best_residual: f64::INFINITY,
            stagnant_checks: 0,
            checkpoint_enabled: sup.is_some_and(|s| s.checkpoint.is_some()),
            checkpoint_error: None,
            count: false,
            fallbacks: 0,
        }
    }

    pub(crate) fn is_active(&self) -> bool {
        self.sup.is_some()
    }

    /// Supervised solves always harvest pass counters (work budget and
    /// fallback accounting need them), as do counting controls.
    pub(crate) fn needs_counters(&self) -> bool {
        self.count || self.is_active()
    }

    /// Why the supervisor stopped the loop, if it did.
    pub(crate) fn stop(&self) -> Option<StopReason> {
        self.stop
    }

    /// Scripted worker fault for this iteration and side, if any.
    pub(crate) fn task_fault(&self, t: usize, side: &'static str) -> Option<TaskFault> {
        let sup = self.sup?;
        sup.faults.at_iteration(t).find_map(|f| match f {
            FaultKind::WorkerPanic { side: s, index } if *s == side => Some(TaskFault {
                index: *index,
                panic: true,
            }),
            FaultKind::KernelNan { side: s, index } if *s == side => Some(TaskFault {
                index: *index,
                panic: false,
            }),
            _ => None,
        })
    }

    /// Apply any scripted NaN injection for iteration `t` to `lambda`.
    pub(crate) fn inject_faults(&self, t: usize, lambda: &mut [f64]) {
        let Some(sup) = self.sup else { return };
        for f in sup.faults.at_iteration(t) {
            if let FaultKind::NanLambda { index } = f {
                if let Some(slot) = lambda.get_mut(*index) {
                    *slot = f64::NAN;
                }
            }
        }
    }

    /// Record the iterate at a successful convergence check as the
    /// last-known-good restore point.
    // One call site per driver; bundling these into a struct would only
    // add ceremony between the solve loop and the watchdog.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn capture_snapshot(
        &mut self,
        t: usize,
        residual: f64,
        lambda: &[f64],
        mu: &[f64],
        x_t: &[f64],
        s: &[f64],
        d: &[f64],
    ) {
        if !self.is_active() || !residual.is_finite() {
            return;
        }
        let snap = &mut self.snap;
        snap.iteration = t;
        snap.residual = residual;
        snap.lambda.clear();
        snap.lambda.extend_from_slice(lambda);
        snap.mu.clear();
        snap.mu.extend_from_slice(mu);
        snap.x_t.clear();
        snap.x_t.extend_from_slice(x_t);
        snap.s.clear();
        snap.s.extend_from_slice(s);
        snap.d.clear();
        snap.d.extend_from_slice(d);
        snap.valid = true;
    }

    /// Restore the last-known-good iterate after a breakdown. Returns the
    /// snapshot's `(iteration, residual)` when one was available, `None`
    /// when breakdown happened before any check succeeded.
    pub(crate) fn restore_snapshot(
        &mut self,
        lambda: &mut [f64],
        mu: &mut [f64],
        x_t: &mut [f64],
        s: &mut [f64],
        d: &mut [f64],
    ) -> Option<(usize, f64)> {
        if !self.snap.valid {
            return None;
        }
        let snap = &self.snap;
        lambda.copy_from_slice(&snap.lambda);
        mu.copy_from_slice(&snap.mu);
        x_t.copy_from_slice(&snap.x_t);
        s.copy_from_slice(&snap.s);
        d.copy_from_slice(&snap.d);
        self.stop = Some(StopReason::Breakdown);
        Some((snap.iteration, snap.residual))
    }

    /// Feed the stagnation watchdog one residual; `true` means stop with
    /// [`StopReason::Stagnated`].
    pub(crate) fn note_residual(&mut self, residual: f64) -> bool {
        let Some(policy) = self.sup.and_then(|s| s.stagnation) else {
            return false;
        };
        let improved = residual
            < self.best_residual
                - policy.min_rel_improvement * self.best_residual.abs().max(1e-300);
        if residual < self.best_residual {
            self.best_residual = residual;
        }
        if improved || !self.best_residual.is_finite() {
            self.stagnant_checks = 0;
            return false;
        }
        self.stagnant_checks += 1;
        if self.stagnant_checks >= policy.window.max(1) {
            self.stop = Some(StopReason::Stagnated);
            return true;
        }
        false
    }

    /// Write a checkpoint if one is due at iteration `t`. Returns the
    /// destination path (for the observe event) when a snapshot was
    /// written. A write failure latches into `checkpoint_error` and
    /// disables further attempts — a failing snapshot never aborts the
    /// solve.
    pub(crate) fn maybe_checkpoint(
        &mut self,
        t: usize,
        solver: &str,
        lambda: &[f64],
        mu: &[f64],
    ) -> Option<String> {
        if !self.checkpoint_enabled {
            return None;
        }
        let sup = self.sup?;
        let policy = sup.checkpoint.as_ref()?;
        if !t.is_multiple_of(policy.every.max(1)) {
            return None;
        }
        let ck = Checkpoint {
            solver: solver.to_string(),
            iteration: sup.start_iteration + t,
            lambda: lambda.to_vec(),
            mu: mu.to_vec(),
        };
        match ck.save(&policy.path) {
            Ok(()) => Some(policy.path.display().to_string()),
            Err(e) => {
                self.checkpoint_enabled = false;
                self.checkpoint_error = Some(format!(
                    "checkpoint write to {} failed: {e}",
                    policy.path.display()
                ));
                None
            }
        }
    }

    /// The first checkpoint-write failure, if any.
    pub(crate) fn take_checkpoint_error(&mut self) -> Option<String> {
        self.checkpoint_error.take()
    }

    /// Budget / cancellation check, run once per completed iteration.
    /// `work` is the cumulative kernel work when counters are harvested.
    pub(crate) fn should_stop(&mut self, t: usize, work: Option<u64>) -> Option<StopReason> {
        let sup = self.sup?;
        let mut reason = None;
        for f in sup.faults.at_iteration(t) {
            match f {
                FaultKind::DeadlineNow => reason = Some(StopReason::DeadlineExceeded),
                FaultKind::CancelNow => reason = Some(StopReason::Cancelled),
                _ => {}
            }
        }
        if reason.is_none() {
            if sup.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                reason = Some(StopReason::Cancelled);
            } else if sup
                .budget
                .deadline
                .is_some_and(|d| self.start.elapsed() >= d)
            {
                reason = Some(StopReason::DeadlineExceeded);
            } else if sup
                .budget
                .max_kernel_work
                .zip(work)
                .is_some_and(|(cap, w)| w >= cap)
            {
                reason = Some(StopReason::WorkCapExceeded);
            } else if sup.budget.max_iterations.is_some_and(|cap| t >= cap) {
                reason = Some(StopReason::IterationCap);
            }
        }
        if reason.is_some() {
            self.stop = reason;
        }
        reason
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_reason_names_round_trip() {
        for r in StopReason::ALL {
            assert_eq!(StopReason::parse(r.name()), Some(r));
        }
        assert_eq!(StopReason::parse("nope"), None);
    }

    #[test]
    fn cancel_token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn static_cancel_token_reads_the_flag() {
        static FLAG: AtomicBool = AtomicBool::new(false);
        let t = CancelToken::from_static(&FLAG);
        assert!(!t.is_cancelled());
        FLAG.store(true, Ordering::SeqCst);
        assert!(t.is_cancelled());
        FLAG.store(false, Ordering::SeqCst);
    }

    #[test]
    fn checkpoint_round_trips_bitwise() {
        let ck = Checkpoint {
            solver: "diagonal".to_string(),
            iteration: 17,
            lambda: vec![1.0, -0.0, f64::NAN, f64::INFINITY, 1e-308],
            mu: vec![std::f64::consts::PI, f64::NEG_INFINITY],
        };
        let back = Checkpoint::parse(&ck.render()).unwrap();
        assert_eq!(back.solver, ck.solver);
        assert_eq!(back.iteration, ck.iteration);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.lambda), bits(&ck.lambda));
        assert_eq!(bits(&back.mu), bits(&ck.mu));
    }

    #[test]
    fn checkpoint_save_is_tmp_then_rename() {
        let dir = std::env::temp_dir().join(format!("sea-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ck = Checkpoint {
            solver: "diagonal".to_string(),
            iteration: 3,
            lambda: vec![1.5],
            mu: vec![2.5],
        };
        ck.save(&path).unwrap();
        assert!(!dir.join("run.ckpt.tmp").exists(), "tmp file left behind");
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_parse_rejects_malformed_input() {
        assert!(Checkpoint::parse("").is_err());
        assert!(Checkpoint::parse("SEA-CHECKPOINT v2\n").is_err());
        assert!(Checkpoint::parse("SEA-CHECKPOINT v1\nsolver diagonal\niteration x\n").is_err());
        assert!(Checkpoint::parse(
            "SEA-CHECKPOINT v1\nsolver diagonal\niteration 1\nlambda 2 0000000000000000\nmu 0\n"
        )
        .is_err());
        assert!(Checkpoint::parse(
            "SEA-CHECKPOINT v1\nsolver diagonal\niteration 1\nlambda 1 zzzz\nmu 0\n"
        )
        .is_err());
    }

    #[test]
    fn fault_plan_schedules_by_iteration() {
        let plan = FaultPlan::new()
            .at(2, FaultKind::DeadlineNow)
            .at(3, FaultKind::NanLambda { index: 0 });
        assert!(!plan.is_empty());
        assert_eq!(plan.at_iteration(2).count(), 1);
        assert_eq!(plan.at_iteration(3).count(), 1);
        assert_eq!(plan.at_iteration(1).count(), 0);
    }

    #[test]
    fn passive_control_never_stops() {
        let mut ctrl = SolveControl::passive();
        assert!(!ctrl.is_active());
        assert_eq!(ctrl.should_stop(1, None), None);
        assert!(!ctrl.note_residual(1.0));
        assert!(ctrl.task_fault(1, "row").is_none());
        assert!(ctrl.maybe_checkpoint(1, "diagonal", &[], &[]).is_none());
    }

    #[test]
    fn budget_checks_fire_in_priority_order() {
        let sup = SupervisorOptions {
            budget: SolveBudget {
                deadline: None,
                max_iterations: Some(5),
                max_kernel_work: Some(100),
            },
            ..Default::default()
        };
        let mut ctrl = SolveControl::active(&sup);
        assert_eq!(ctrl.should_stop(4, Some(10)), None);
        assert_eq!(
            ctrl.should_stop(4, Some(100)),
            Some(StopReason::WorkCapExceeded)
        );
        let mut ctrl = SolveControl::active(&sup);
        assert_eq!(
            ctrl.should_stop(5, Some(10)),
            Some(StopReason::IterationCap)
        );
    }

    #[test]
    fn cancellation_beats_other_budgets() {
        let token = CancelToken::new();
        token.cancel();
        let sup = SupervisorOptions {
            budget: SolveBudget {
                max_iterations: Some(1),
                ..Default::default()
            },
            cancel: Some(token),
            ..Default::default()
        };
        let mut ctrl = SolveControl::active(&sup);
        assert_eq!(ctrl.should_stop(1, None), Some(StopReason::Cancelled));
    }

    #[test]
    fn stagnation_window_counts_consecutive_flat_checks() {
        let sup = SupervisorOptions {
            stagnation: Some(StagnationPolicy {
                window: 3,
                min_rel_improvement: 1e-3,
            }),
            ..Default::default()
        };
        let mut ctrl = SolveControl::active(&sup);
        assert!(!ctrl.note_residual(1.0));
        assert!(!ctrl.note_residual(0.5)); // big improvement resets
        assert!(!ctrl.note_residual(0.4999999));
        assert!(!ctrl.note_residual(0.4999998));
        assert!(ctrl.note_residual(0.4999997)); // third flat check
        assert_eq!(ctrl.stop(), Some(StopReason::Stagnated));
    }
}
