//! The one SEA epoch loop every driver runs on.
//!
//! The paper describes one algorithm: alternate parallel row and column
//! exact equilibrations on the dual until a convergence check passes. The
//! box-bounded class only swaps in a boxed kernel, and the general class
//! (§3.2) wraps that same diagonal SEA inside a projection step. So every
//! driver is [`run`] over a class-specific [`Step`]:
//!
//! * **The loop owns** everything around the mathematics: the
//!   `SolveStart`/`SolveEnd`/`SupervisorStop`/`KernelCounters` events, the
//!   Solve/Epoch span lifecycle (including the epoch a break leaves open),
//!   the non-finite watchdog with snapshot restore, the `check_every`
//!   convergence check with its telemetry sample and history entry, the
//!   mixed-precision polish hand-over, stagnation, checkpoints, and the
//!   iteration/deadline/cancel/kernel-work budget.
//! * **A step owns** one epoch of mathematics and its class's view of the
//!   iterate. The diagonal and bounded steps run a row and a column
//!   [`Cx::pass`] (the bounded one with entry bounds); the general step
//!   runs the projection and then a whole inner diagonal solve through this
//!   same loop.
//!
//! The loop is generic, not `dyn`: each class monomorphises its own copy,
//! so the hot path carries no dispatch.

use crate::equilibrate::{bounded_pass, Bounds, PassCounters, PassInputs, ShardSink};
use crate::error::SeaError;
use crate::kernel_simd::{Precision, SimdMode};
use crate::knapsack::{KernelKind, TotalMode};
use crate::observe::phase_kind;
use crate::parallel::Parallelism;
use crate::solver::{IterationSnapshot, SeaOptions};
use crate::storage::Storage;
use crate::supervisor::{SolveControl, StopReason, TaskFault};
use crate::trace::{ExecutionTrace, PhaseKind};
use sea_linalg::simd::SimdLevel;
use sea_linalg::vector;
use sea_observe::{Event, KernelCounters, Observer, PhaseLabel, SpanKind, TelemetrySample};
use std::time::Instant;

/// Telemetry cadence: one sample every this many convergence checks.
/// The sample payload (dual value ζ and the active-set census) costs a
/// full O(nnz) sweep each, so emitting it on every check would blow the
/// span-profiling overhead budget; the residual itself is still checked
/// at the configured `check_every`, and the profiler's adaptive stride
/// decimates the stream further on long solves.
const TELEMETRY_EVERY_CHECKS: u64 = 8;

/// How the loop runs one solve, resolved from the driver's options.
pub(crate) struct Schedule {
    /// Kernel label for `SolveStart` (and the passes' kernel).
    pub kernel: KernelKind,
    /// SIMD policy of the passes, resolved once per solve.
    pub simd: SimdMode,
    /// Fan-out of the passes.
    pub parallelism: Parallelism,
    /// Stopping-rule wire name for `SolveStart`/`ConvergenceCheck`.
    pub criterion: &'static str,
    /// Stopping tolerance on the step's residual.
    pub epsilon: f64,
    /// Epoch cap; `0` runs no epoch.
    pub max_iterations: usize,
    /// Check convergence every this many epochs (0 is treated as 1).
    pub check_every: usize,
    /// Arithmetic precision of the passes.
    pub precision: Precision,
    /// Collect an [`ExecutionTrace`].
    pub record_trace: bool,
    /// Collect the per-check convergence history.
    pub record_history: bool,
}

impl Schedule {
    /// The schedule of a diagonal or bounded solve.
    pub(crate) fn of(opts: &SeaOptions, criterion: &'static str) -> Self {
        Schedule {
            kernel: opts.kernel,
            simd: opts.simd,
            parallelism: opts.parallelism,
            criterion,
            epsilon: opts.epsilon,
            max_iterations: opts.max_iterations,
            check_every: opts.check_every,
            precision: opts.precision,
            record_trace: opts.record_trace,
            record_history: opts.record_history,
        }
    }
}

/// The iterate as the watchdog, snapshots and checkpoints see it.
pub(crate) struct Iterate<'a> {
    /// Row multipliers (empty for the general class).
    pub lambda: &'a mut [f64],
    /// Column multipliers.
    pub mu: &'a mut [f64],
    /// Stored values of the primal iterate the check measures.
    pub x: &'a mut [f64],
    /// Row totals.
    pub s: &'a mut [f64],
    /// Column totals.
    pub d: &'a mut [f64],
}

/// What the loop hands a step when it assembles the solution.
pub(crate) struct Run {
    /// Completed epochs (the restored snapshot's epoch after a breakdown).
    pub iterations: usize,
    /// Whether the stopping rule fired.
    pub converged: bool,
    /// The last measured residual.
    pub residual: f64,
    /// When the solve started.
    pub start: Instant,
    /// The trace, when recorded.
    pub trace: Option<ExecutionTrace>,
    /// The convergence history, when recorded.
    pub history: Option<Vec<IterationSnapshot>>,
}

/// A finished solve.
pub(crate) struct Finished<T> {
    /// The step's solution.
    pub output: T,
    /// Why the loop stopped (`IterationCap` for an unsupervised cap).
    pub stop: StopReason,
    /// Kernel work of the step's own passes.
    pub counters: KernelCounters,
}

/// One problem class on the epoch loop.
pub(crate) trait Step {
    /// The class's solution type.
    type Output;
    /// Driver name: `SolveStart.solver` and the checkpoint `solver` line.
    const SOLVER: &'static str;
    /// Whether the convergence check is a phase of its own (Check span,
    /// `ConvergenceCheck` events, a trace phase). The general class folds
    /// its outer check into the `OuterIteration` event instead.
    const CHECK_PHASE: bool = true;

    /// `(rows, cols)` of the problem.
    fn shape(&self) -> (usize, usize);

    /// Run epoch `t`.
    fn advance<O: Observer>(&mut self, t: usize, cx: &mut Cx<'_, O>) -> Result<(), SeaError>;

    /// The current iterate.
    fn iterate(&mut self) -> Iterate<'_>;

    /// The stopping quantity, measured at a convergence check.
    fn residual(&mut self) -> f64;

    /// Dual value `ζ`, for classes that track it.
    fn dual_value(&self) -> Option<f64> {
        None
    }

    /// Cumulative kernel work for the work budget and telemetry; `own`
    /// holds the counters of this loop's passes.
    fn kernel_work(&self, own: &PassCounters) -> u64 {
        own.snapshot().work()
    }

    /// Hook at the end of each epoch, before the supervisor epilogue.
    fn after_epoch<O: Observer>(&mut self, _t: usize, _cx: &mut Cx<'_, O>) {}

    /// Assemble the solution; returns it with its objective and dual value
    /// for `SolveEnd`.
    fn finish(self, run: Run) -> Result<(Self::Output, f64, Option<f64>), SeaError>;
}

/// The operands of one pass, oriented so subproblems are rows.
pub(crate) struct Operands<'a, S: Storage> {
    /// Prior.
    pub prior: &'a S,
    /// Weights.
    pub gamma: &'a S,
    /// Structural-zero support lists (dense diagonal problems only).
    pub support: Option<&'a [Vec<u32>]>,
    /// Entry bounds (bounded class only).
    pub bounds: Option<Bounds<'a, S>>,
    /// Shard boundaries for parallel passes.
    pub starts: Option<&'a [usize]>,
}

/// Per-solve context a step runs its epoch in: the observer, and the pass
/// machinery the loop owns (counters, shard timings, trace, task costs).
pub(crate) struct Cx<'o, O> {
    /// The solve's event/span sink.
    pub obs: &'o mut O,
    /// `obs.enabled()`, sampled once.
    pub observing: bool,
    /// `obs.spans_enabled()`, sampled once.
    pub spanning: bool,
    /// The trace, when recorded.
    pub trace: Option<ExecutionTrace>,
    /// Fan-out of the passes.
    pub parallelism: Parallelism,
    kernel: KernelKind,
    simd: SimdLevel,
    f32_phase: bool,
    t: usize,
    /// Scripted worker faults of this epoch: `[row, column]`.
    faults: [Option<TaskFault>; 2],
    counters: Option<PassCounters>,
    sink: Option<ShardSink>,
    costs: Vec<f64>,
    fallbacks_seen: u64,
}

impl<O: Observer> Cx<'_, O> {
    /// One row or column equilibration pass of the current epoch, with its
    /// phase events, span, trace phase and fallback accounting.
    pub(crate) fn pass<S: Storage>(
        &mut self,
        label: PhaseLabel,
        ops: Operands<'_, S>,
        shift: &[f64],
        modes: &(dyn Fn(usize) -> TotalMode + Sync),
        (lambda, totals, x): (&mut [f64], &mut [f64], &mut S),
    ) -> Result<(), SeaError> {
        let (span, side, fault) = match label {
            PhaseLabel::RowEquilibration => (SpanKind::RowPass, "row", self.faults[0]),
            _ => (SpanKind::ColPass, "column", self.faults[1]),
        };
        let tasks = lambda.len();
        let inputs = PassInputs {
            prior: ops.prior,
            gamma: ops.gamma,
            support: ops.support,
            shift,
            side,
            kernel: self.kernel,
            simd: self.simd,
            f32_phase: self.f32_phase,
            fault,
        };
        if self.observing {
            self.obs.record(&Event::PhaseStart { label, tasks });
        }
        let span_c0 = match (&self.counters, self.spanning) {
            (Some(c), true) => c.snapshot(),
            _ => KernelCounters::default(),
        };
        if self.spanning {
            self.obs.span_open(span, self.t as u64, tasks as u64);
        }
        let phase_t0 = self.observing.then(Instant::now);
        let costs = (self.trace.is_some() || self.observing).then_some(&mut self.costs);
        bounded_pass(
            &inputs,
            ops.bounds,
            modes,
            lambda,
            totals,
            x,
            self.parallelism,
            costs,
            self.counters.as_ref(),
            ops.starts,
            self.sink.as_mut(),
        )?;
        if self.spanning {
            self.close_pass_span(span_c0);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.push(phase_kind(label), self.costs.clone());
        }
        if let Some(t0) = phase_t0 {
            self.obs.record(&Event::PhaseEnd {
                label,
                tasks,
                seconds: t0.elapsed().as_secs_f64(),
                task_seconds: self.costs.clone(),
            });
        }
        if let (true, Some(c)) = (self.observing, self.counters.as_ref()) {
            let total = c.fallbacks();
            if total > self.fallbacks_seen {
                self.obs.record(&Event::FallbackTriggered {
                    iteration: self.t,
                    phase: label,
                    count: total - self.fallbacks_seen,
                });
                self.fallbacks_seen = total;
            }
        }
        Ok(())
    }

    /// Close an equilibration-pass span: replay per-shard timings as Shard
    /// leaves (parallel passes), then close the pass. When shard leaves
    /// were emitted they carry the pass's whole kernel-work attribution
    /// (their per-shard counters sum to the pass delta exactly), so the
    /// pass closes with zero *self* counters; serial passes close with the
    /// full delta.
    fn close_pass_span(&mut self, pass_begin: KernelCounters) {
        let timings = self.sink.as_ref().map_or(&[][..], ShardSink::timings);
        for (si, tm) in timings.iter().enumerate() {
            self.obs.span_leaf(
                SpanKind::Shard,
                si as u64,
                tm.start_ns,
                tm.end_ns,
                tm.tasks,
                &tm.counters,
                "",
            );
        }
        let self_counters = match (&self.counters, timings.is_empty()) {
            (Some(c), true) => c.snapshot().delta_from(pass_begin),
            _ => KernelCounters::default(),
        };
        self.obs.span_close(&self_counters);
    }
}

/// Run `step` to convergence, a budget stop, or the epoch cap.
///
/// # Errors
/// * [`SeaError::SimdUnsupported`] when SIMD is forced without AVX2.
/// * [`SeaError::NumericalBreakdown`] when the iterate goes non-finite
///   before any certified snapshot exists.
/// * Any pass or step failure.
pub(crate) fn run<St: Step, O: Observer>(
    mut step: St,
    sched: &Schedule,
    obs: &mut O,
    ctrl: &mut SolveControl<'_>,
) -> Result<Finished<St::Output>, SeaError> {
    let start = Instant::now();
    // `Force` without AVX2 fails here, up front, not per subproblem.
    let simd = sched.simd.resolve()?;
    let (m, n) = step.shape();
    let check_every = sched.check_every.max(1);
    let observing = obs.enabled();
    let spanning = obs.spans_enabled();
    if observing {
        obs.record(&Event::SolveStart {
            solver: St::SOLVER,
            rows: m,
            cols: n,
            kernel: sched.kernel.name(),
            parallelism: sched.parallelism.label(),
            criterion: sched.criterion,
        });
    }
    // Span signalling is independent of event observation: a profiler can
    // consume spans with events off (the alloc-free configuration) and an
    // event sink can run without span overhead.
    if spanning {
        obs.span_open(SpanKind::Solve, 0, (m + n) as u64);
    }
    let mut cx = Cx {
        obs,
        observing,
        spanning,
        trace: sched.record_trace.then(ExecutionTrace::new),
        parallelism: sched.parallelism,
        kernel: sched.kernel,
        simd,
        // Mixed-precision phase control: `F32Mixed` hands over to a full-f64
        // polish epoch once the f32 residual reaches ε or stagnates, and
        // convergence is only ever declared from polish. Pure `F32` never
        // polishes — its residual is still measured on the f64-materialized
        // iterates, so it stalls rather than lies.
        f32_phase: sched.precision != Precision::F64,
        t: 0,
        faults: [None, None],
        // Kernel counters are only harvested when someone is listening
        // (an observer, a span profiler needing per-span attribution, or a
        // supervisor enforcing a work budget).
        counters: (observing || spanning || ctrl.needs_counters()).then(PassCounters::default),
        // Per-shard timings for span profiling of parallel passes; sized
        // on first use and reused every pass.
        sink: (spanning && sched.parallelism.is_parallel()).then(ShardSink::new),
        costs: Vec::new(),
        fallbacks_seen: 0,
    };
    let mut history = sched.record_history.then(Vec::new);
    let mut prev_check_residual = f64::INFINITY;
    let mut stagnant_checks = 0u32;
    let mut checks_seen = 0u64;
    let mut epoch_open = false;
    let mut iterations = 0usize;
    let mut converged = false;
    let mut residual = f64::INFINITY;

    for t in 1..=sched.max_iterations {
        iterations = t;
        if spanning {
            cx.obs.span_open(SpanKind::Epoch, t as u64, 0);
            epoch_open = true;
        }
        cx.t = t;
        cx.faults = [ctrl.task_fault(t, "row"), ctrl.task_fault(t, "column")];
        step.advance(t, &mut cx)?;

        // Scripted NaN injection (fault harness) lands before the watchdog
        // so the breakdown path is exercised exactly like a real blow-up.
        ctrl.inject_faults(t, step.iterate().lambda);

        // ---- Watchdog: non-finite iterates. ------------------------------
        // Unsupervised solves check multipliers at the convergence check and
        // error out; supervised solves check every epoch (including the
        // primal iterate) and restore the last certified snapshot instead.
        let check_now = t % check_every == 0;
        if ctrl.is_active() || check_now {
            let it = step.iterate();
            let finite = vector::all_finite(it.lambda)
                && vector::all_finite(it.mu)
                && (!ctrl.is_active() || vector::all_finite(it.x));
            if !finite {
                if let Some((at, res)) = ctrl.restore_snapshot(it.lambda, it.mu, it.x, it.s, it.d) {
                    iterations = at;
                    residual = res;
                    break;
                }
                return Err(SeaError::NumericalBreakdown { iteration: t });
            }
        }

        // ---- Convergence verification (serial). --------------------------
        if check_now {
            if St::CHECK_PHASE && observing {
                cx.obs.record(&Event::PhaseStart {
                    label: PhaseLabel::ConvergenceCheck,
                    tasks: 1,
                });
            }
            if St::CHECK_PHASE && spanning {
                cx.obs.span_open(SpanKind::Check, t as u64, 1);
            }
            let t0 = Instant::now();
            residual = step.residual();
            let check_secs = t0.elapsed().as_secs_f64();
            if let (true, Some(tr)) = (St::CHECK_PHASE, cx.trace.as_mut()) {
                tr.push(PhaseKind::ConvergenceCheck, vec![check_secs]);
            }
            // Telemetry is rate limited at the source (see
            // TELEMETRY_EVERY_CHECKS); ζ is only evaluated when something
            // consumes it.
            let telemetry_now = spanning && checks_seen.is_multiple_of(TELEMETRY_EVERY_CHECKS);
            checks_seen += 1;
            let zeta = if history.is_some() || observing || telemetry_now {
                step.dual_value()
            } else {
                None
            };
            if St::CHECK_PHASE && spanning {
                cx.obs.span_close(&KernelCounters::default());
            }
            if telemetry_now {
                let kernel_work = cx.counters.as_ref().map_or(0, |c| step.kernel_work(c));
                // Active set = positive stored entries of the iterate; the
                // profiler derives churn from consecutive samples.
                let active_set = step.iterate().x.iter().filter(|v| **v > 0.0).count() as u64;
                cx.obs.telemetry(&TelemetrySample {
                    iteration: t as u64,
                    seconds: start.elapsed().as_secs_f64(),
                    residual,
                    dual_value: zeta.unwrap_or(f64::NAN),
                    kernel_work,
                    active_set,
                });
            }
            if St::CHECK_PHASE && observing {
                cx.obs.record(&Event::PhaseEnd {
                    label: PhaseLabel::ConvergenceCheck,
                    tasks: 1,
                    seconds: check_secs,
                    task_seconds: vec![check_secs],
                });
                cx.obs.record(&Event::ConvergenceCheck {
                    iteration: t,
                    residual,
                    dual_value: zeta,
                    criterion: sched.criterion,
                });
            }
            if let Some(h) = history.as_mut() {
                h.push(IterationSnapshot {
                    iteration: t,
                    dual_value: zeta.unwrap_or(f64::NAN),
                    residual,
                });
            }
            let f32_iterating = cx.f32_phase && sched.precision == Precision::F32Mixed;
            if residual <= sched.epsilon {
                if f32_iterating {
                    // The f32 phase reached tolerance: polish in f64 — the
                    // final iterate (and its certificate) must come from
                    // full-precision passes.
                    cx.f32_phase = false;
                } else {
                    converged = true;
                    break;
                }
            } else if f32_iterating {
                // Three consecutive checks improving the residual by less
                // than 1% mean the f32 search hit its precision floor.
                if residual > prev_check_residual * 0.99 {
                    stagnant_checks += 1;
                    if stagnant_checks >= 3 {
                        cx.f32_phase = false;
                    }
                } else {
                    stagnant_checks = 0;
                }
            }
            prev_check_residual = residual;
            if ctrl.is_active() {
                // This iterate passed the watchdog and was measured: it
                // becomes the breakdown restore point.
                let it = step.iterate();
                ctrl.capture_snapshot(t, residual, it.lambda, it.mu, it.x, it.s, it.d);
                if ctrl.note_residual(residual) {
                    break; // StopReason::Stagnated latched in ctrl.
                }
            }
        }

        step.after_epoch(t, &mut cx);

        // ---- Supervisor epilogue: checkpoint, then budget/cancellation. --
        if ctrl.is_active() {
            let it = step.iterate();
            let written = ctrl.maybe_checkpoint(t, St::SOLVER, it.lambda, it.mu);
            if let Some(path) = written {
                if observing {
                    cx.obs
                        .record(&Event::CheckpointWritten { iteration: t, path });
                }
            }
            let work = cx.counters.as_ref().map(|c| step.kernel_work(c));
            if ctrl.should_stop(t, work).is_some() {
                break;
            }
        }

        if spanning {
            cx.obs.span_close(&KernelCounters::default());
            epoch_open = false;
        }
    }

    if spanning {
        // Breaks exit mid-epoch; close the dangling Epoch, then the Solve.
        if epoch_open {
            cx.obs.span_close(&KernelCounters::default());
        }
        cx.obs.span_close(&KernelCounters::default());
    }

    let counters = cx
        .counters
        .as_ref()
        .map_or_else(KernelCounters::default, PassCounters::snapshot);
    ctrl.fallbacks = cx.counters.as_ref().map_or(0, PassCounters::fallbacks);
    let (output, objective, dual_value) = step.finish(Run {
        iterations,
        converged,
        residual,
        start,
        trace: cx.trace.take(),
        history,
    })?;

    let obs = cx.obs;
    if observing {
        if ctrl.is_active() && !converged {
            obs.record(&Event::SupervisorStop {
                iteration: iterations,
                reason: ctrl
                    .stop()
                    .map_or(StopReason::IterationCap.name(), StopReason::name),
            });
        }
        if !counters.is_empty() {
            obs.record(&Event::KernelCounters { counters });
        }
        obs.record(&Event::SolveEnd {
            iterations,
            converged,
            residual,
            objective,
            dual_value,
            seconds: start.elapsed().as_secs_f64(),
        });
    }
    let stop = if converged {
        StopReason::Converged
    } else {
        ctrl.stop().unwrap_or(StopReason::IterationCap)
    };
    Ok(Finished {
        output,
        stop,
        counters,
    })
}
