//! Row/column equilibration passes.
//!
//! One pass maximizes the dual over one multiplier block (all `λᵢ` or all
//! `μⱼ′`) with the other block fixed — which, by the duality argument of
//! §3.1, is exactly a set of *independent* single-constraint subproblems,
//! one per row (resp. column), each solved in closed form by
//! [`crate::knapsack::exact_equilibration`]. Independence is what makes SEA
//! parallel: every subproblem can go to a distinct processor.
//!
//! Both passes share one orientation-agnostic implementation: the caller
//! supplies the prior and weight matrices oriented so subproblems are rows
//! (the column pass passes transposed copies built once per solve). The
//! pass is generic over [`Storage`]: dense rows go to the kernel whole (or
//! gathered through structural-zero support lists), while CSR rows *are*
//! the support — the kernel runs directly over the stored value slices
//! with only the shift vector gathered, so sparse subproblem cost is
//! `O(k log k)` in the row's support size `k`, never `O(n)`.
//!
//! Parallel passes are **sharded**: rows are grouped into cache-sized
//! contiguous blocks (optionally aligned to support-graph component
//! boundaries by the solver) and the blocks are distributed over the
//! worker pool. Each row is still solved independently, so results are
//! bitwise identical across worker counts *and* shard sizes.

use crate::error::SeaError;
use crate::kernel_simd::{
    exact_equilibration_boxed_f32, exact_equilibration_boxed_simd, exact_equilibration_f32,
    exact_equilibration_simd,
};
use crate::knapsack::{
    exact_equilibration_warm, BoundSlices, EquilibrationScratch, KernelKind, TotalMode,
};
use crate::parallel::Parallelism;
use crate::storage::{RowView, Storage};
use crate::supervisor::TaskFault;
use rayon::prelude::*;
use sea_linalg::simd::{self, SimdLevel};
use sea_observe::KernelCounters;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default shard size (rows per block) for parallel passes when the solver
/// does not supply explicit boundaries. Sized so a typical block's working
/// set (a few KB per row even on dense mid-size instances) stays within an
/// L2 cache.
pub const DEFAULT_BLOCK_ROWS: usize = 256;

thread_local! {
    /// Workspace reused by every *serial* pass run on this thread. A pass
    /// sizes the buffers on first use and later passes (and later solves)
    /// reuse them, keeping the steady-state solver loop allocation-free —
    /// the property `tests/alloc_free.rs` audits. Rayon passes instead get
    /// one scratch per worker via `try_for_each_init`.
    static SERIAL_SCRATCH: RefCell<TaskScratch> = RefCell::new(TaskScratch::new());
}

/// Thread-safe accumulator for [`KernelCounters`] harvested from the
/// per-thread `TaskScratch` workspaces of a rayon pass. The pass hands
/// each worker its own scratch (`try_for_each_init`), so counters are
/// flushed here with relaxed atomics once per shard — contention-free in
/// practice and exact in total.
#[derive(Debug, Default)]
pub struct PassCounters {
    subproblems: AtomicU64,
    breakpoints_scanned: AtomicU64,
    quickselect_pivots: AtomicU64,
    boxed_clamps: AtomicU64,
    // Tracked outside `KernelCounters`, whose 4-field wire layout is pinned
    // by the JSONL golden fixture.
    kernel_fallbacks: AtomicU64,
}

impl PassCounters {
    /// Fold one scratch's counters into the accumulator.
    pub fn add(&self, c: &KernelCounters) {
        if c.is_empty() {
            return;
        }
        self.subproblems.fetch_add(c.subproblems, Ordering::Relaxed);
        self.breakpoints_scanned
            .fetch_add(c.breakpoints_scanned, Ordering::Relaxed);
        self.quickselect_pivots
            .fetch_add(c.quickselect_pivots, Ordering::Relaxed);
        self.boxed_clamps
            .fetch_add(c.boxed_clamps, Ordering::Relaxed);
    }

    /// Fold one scratch's quickselect→sort-scan fallback count in.
    pub fn add_fallbacks(&self, n: u64) {
        if n != 0 {
            self.kernel_fallbacks.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Total quickselect→sort-scan fallbacks accumulated so far.
    pub fn fallbacks(&self) -> u64 {
        self.kernel_fallbacks.load(Ordering::Relaxed)
    }

    /// Read the current totals.
    pub fn snapshot(&self) -> KernelCounters {
        KernelCounters {
            subproblems: self.subproblems.load(Ordering::Relaxed),
            breakpoints_scanned: self.breakpoints_scanned.load(Ordering::Relaxed),
            quickselect_pivots: self.quickselect_pivots.load(Ordering::Relaxed),
            boxed_clamps: self.boxed_clamps.load(Ordering::Relaxed),
        }
    }
}

/// Wall-clock window and kernel work of one shard of a parallel pass,
/// filled by the worker that ran the shard. Offsets are nanoseconds from
/// the pass start, so the serial caller can replay shards as span leaves
/// without workers ever touching the observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardTiming {
    /// Nanoseconds from pass start to the shard's first task.
    pub start_ns: u64,
    /// Nanoseconds from pass start to the shard's last task finishing.
    pub end_ns: u64,
    /// Subproblems (rows) in the shard.
    pub tasks: u64,
    /// Kernel work done by the shard's tasks.
    pub counters: KernelCounters,
}

/// Preallocated per-shard timing sink for span profiling.
///
/// Reused across passes: `equilibration_pass` resizes it to the shard
/// count (a no-op allocation-wise after the first pass, since the shard
/// layout of a solve is fixed) and workers fill disjoint slots. Serial
/// passes leave it empty — the pass span itself carries their timing.
#[derive(Debug, Default)]
pub struct ShardSink {
    timings: Vec<ShardTiming>,
}

impl ShardSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size for `shards` slots and zero them.
    fn prepare(&mut self, shards: usize) {
        self.timings.clear();
        self.timings.resize(shards, ShardTiming::default());
    }

    /// The per-shard timings of the most recent parallel pass (empty
    /// after a serial pass).
    pub fn timings(&self) -> &[ShardTiming] {
        &self.timings
    }

    /// Drop any recorded timings (used before serial passes so stale
    /// shards from a previous pass are not replayed).
    pub fn clear(&mut self) {
        self.timings.clear();
    }
}

/// Nanoseconds elapsed since `base`, saturating.
fn elapsed_ns(base: Instant) -> u64 {
    let d = base.elapsed();
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

/// Per-thread scratch: gather buffers for structural-zero subproblems plus
/// the kernel's own workspace. Reused across every subproblem a thread
/// handles (allocation-free hot loop).
#[derive(Debug, Default, Clone)]
pub(crate) struct TaskScratch {
    eq: EquilibrationScratch,
    q: Vec<f64>,
    g: Vec<f64>,
    sh: Vec<f64>,
    x: Vec<f64>,
    /// Quickselect→sort-scan fallbacks taken by this thread's tasks.
    fallbacks: u64,
}

impl TaskScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// Inputs shared by every subproblem of a pass, in "row orientation".
pub struct PassInputs<'a, S: Storage> {
    /// Prior matrix, oriented so each subproblem is a contiguous row.
    pub prior: &'a S,
    /// Weight matrix, same orientation (and, for sparse storage, the same
    /// pattern).
    pub gamma: &'a S,
    /// Structural-zero support lists (per subproblem), if any. Dense
    /// storage only: sparse rows carry their support in the pattern.
    pub support: Option<&'a [Vec<u32>]>,
    /// The opposite side's multipliers (length = subproblem size).
    pub shift: &'a [f64],
    /// `"row"` or `"column"`, for error reporting.
    pub side: &'static str,
    /// Which equilibration kernel solves each subproblem.
    pub kernel: KernelKind,
    /// Resolved SIMD dispatch level for the kernels of this pass
    /// ([`SimdLevel::Scalar`] runs the untouched scalar oracle).
    pub simd: SimdLevel,
    /// When `true` the pass runs the mixed-precision `f32` λ-search,
    /// falling back to the `f64` kernel per subproblem when it fails.
    pub f32_phase: bool,
    /// Scripted fault for one subproblem of this pass (fault-injection
    /// harness only; `None` in production).
    pub fault: Option<TaskFault>,
}

/// Run the configured kernel on one subproblem — box-bounded when `bounds`
/// carries the subproblem's `(lo, hi)` slices.
///
/// Under quickselect (the default) this is a fallback chain:
///
/// 1. the *warm* Newton path from `hint`, the multiplier this subproblem
///    had after the previous pass (still in the pass's output slot), for
///    plain and boxed subproblems alike; it declines on a non-finite hint,
///    a NaN breakpoint, a boxed flat piece (every entry at a bound), a
///    boxed fixed total that pins every entry (`Σ lo` or `Σ hi`), or after
///    `WARM_NEWTON_STEPS` trials off the root's piece;
/// 2. cold quickselect, which ends with one piece-root trial so it lands
///    on the warm path's bits;
/// 3. sort-scan, on a pathological result (non-finite `λ` or total — or a
///    scripted kernel fault), counted as a fallback. Quickselect's
///    median-of-three pivoting can in principle degrade on adversarial
///    breakpoint patterns; sort-scan is the slower oracle both kernels are
///    differentially tested against, so it is the safe harbor.
///
/// An `f32` phase first tries the `f32` λ-search; a subproblem that needs
/// the `f64` kernel then enters the chain at step 1.
#[allow(clippy::too_many_arguments)] // kernel inputs + bounds + output + workspace + fallback sink
fn kernel_solve(
    kernel: KernelKind,
    simd: SimdLevel,
    f32_phase: bool,
    force_fallback: bool,
    q: &[f64],
    g: &[f64],
    sh: &[f64],
    bounds: BoundSlices<'_>,
    mode: TotalMode,
    hint: f64,
    x: &mut [f64],
    eq: &mut EquilibrationScratch,
    fallbacks: &mut u64,
) -> Result<(f64, f64), SeaError> {
    // An `f32` phase runs the `f32` λ-search, a sort-scan, whatever the
    // configured kernel: the precision option always means what it says.
    if f32_phase && !force_fallback {
        let r = match bounds {
            None => exact_equilibration_f32(simd, q, g, sh, mode, x, eq)?,
            Some((l, h)) => exact_equilibration_boxed_f32(simd, q, g, sh, l, h, mode, x, eq)?,
        };
        if let Some(r) = r {
            if r.lambda.is_finite() && r.total.is_finite() {
                return Ok((r.lambda, r.total));
            }
        }
        // The f32 search could not stand in for the f64 kernel on this
        // subproblem; count the fallback and re-solve in full precision.
        *fallbacks += 1;
    }
    if kernel == KernelKind::Quickselect && !force_fallback {
        if let Some(r) = exact_equilibration_warm(q, g, sh, bounds, mode, hint, x, eq)? {
            return Ok((r.lambda, r.total));
        }
    }
    let solve = |kernel: KernelKind, x: &mut [f64], eq: &mut EquilibrationScratch| match bounds {
        None => exact_equilibration_simd(simd, kernel, q, g, sh, mode, x, eq),
        Some((l, h)) => exact_equilibration_boxed_simd(simd, kernel, q, g, sh, l, h, mode, x, eq),
    };
    let r = solve(kernel, x, eq)?;
    let pathological = force_fallback || !r.lambda.is_finite() || !r.total.is_finite();
    if pathological && kernel == KernelKind::Quickselect {
        *fallbacks += 1;
        let r = solve(KernelKind::SortScan, x, eq)?;
        return Ok((r.lambda, r.total));
    }
    Ok((r.lambda, r.total))
}

/// Shared semantics for a subproblem with no active entries: the iterate
/// stays zero, any nonzero fixed total is infeasible (the empty row can
/// only realize exactly zero, whatever its bounds), and an elastic total
/// settles at its unconstrained optimum.
fn empty_support_result(
    mode: TotalMode,
    side: &'static str,
    i: usize,
) -> Result<(f64, f64), SeaError> {
    match mode {
        TotalMode::Fixed { total } if total != 0.0 => {
            Err(SeaError::InfeasibleSubproblem { side, index: i })
        }
        TotalMode::Fixed { .. } => Ok((0.0, 0.0)),
        TotalMode::Elastic {
            alpha,
            prior,
            cross,
        } => Ok((2.0 * alpha * prior - cross, 0.0)),
    }
}

/// Entry bounds of a box-bounded pass ([`bounded_pass`]), oriented like
/// the pass's prior and sharing its pattern.
pub struct Bounds<'a, S: Storage> {
    /// Lower bounds.
    pub lo: &'a S,
    /// Upper bounds.
    pub hi: &'a S,
}

// Manual impls: a derive would demand `S: Copy`, but only the references
// are copied.
impl<S: Storage> Clone for Bounds<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: Storage> Copy for Bounds<'_, S> {}

/// Subproblem `i`'s bound slices, in the same layout as its prior row.
fn bound_rows<'a, S: Storage>(
    bounds: Option<Bounds<'a, S>>,
    i: usize,
) -> Result<BoundSlices<'a>, SeaError> {
    let Some(b) = bounds else { return Ok(None) };
    match (b.lo.row_view(i), b.hi.row_view(i)) {
        (RowView::Dense(l), RowView::Dense(h))
        | (RowView::Indexed { vals: l, .. }, RowView::Indexed { vals: h, .. }) => Ok(Some((l, h))),
        _ => Err(SeaError::PatternMismatch {
            context: "bounded pass inputs (mixed row views)",
        }),
    }
}

/// Solve one subproblem; returns `(λ, realized total)` and writes the
/// subproblem's entries into `x_row` (the iterate's stored values for this
/// row: length `n` dense, support size for CSR).
fn solve_task<S: Storage>(
    inp: &PassInputs<'_, S>,
    bounds: Option<Bounds<'_, S>>,
    i: usize,
    mode: TotalMode,
    hint: f64,
    x_row: &mut [f64],
    scratch: &mut TaskScratch,
) -> Result<(f64, f64), SeaError> {
    let force_fallback = match inp.fault {
        Some(f) if f.index == i => {
            if f.panic {
                panic!("injected worker panic (fault plan)");
            }
            true
        }
        _ => false,
    };
    let box_rows = bound_rows(bounds, i)?;
    let solved = match (inp.prior.row_view(i), inp.gamma.row_view(i)) {
        // Sparse row: the stored entries are the support. The kernel runs
        // directly over the prior/weight value slices and writes the
        // iterate's stored values in place — only the shift is gathered.
        (RowView::Indexed { idx, vals: q }, RowView::Indexed { vals: g, .. }) => {
            let k = idx.len();
            if k == 0 {
                return empty_support_result(mode, inp.side, i);
            }
            scratch.sh.clear();
            scratch.sh.resize(k, 0.0);
            simd::gather(inp.simd, inp.shift, idx, &mut scratch.sh);
            kernel_solve(
                inp.kernel,
                inp.simd,
                inp.f32_phase,
                force_fallback,
                q,
                g,
                &scratch.sh,
                box_rows,
                mode,
                hint,
                x_row,
                &mut scratch.eq,
                &mut scratch.fallbacks,
            )
        }
        (RowView::Dense(prior_row), RowView::Dense(gamma_row)) => match inp.support {
            None => kernel_solve(
                inp.kernel,
                inp.simd,
                inp.f32_phase,
                force_fallback,
                prior_row,
                gamma_row,
                inp.shift,
                box_rows,
                mode,
                hint,
                x_row,
                &mut scratch.eq,
                &mut scratch.fallbacks,
            ),
            // Structural-zero support lists belong to diagonal problems;
            // bounded problems carry their support in a sparse pattern.
            Some(_) if box_rows.is_some() => Err(SeaError::PatternMismatch {
                context: "bounded pass inputs (support lists)",
            }),
            Some(support) => {
                let idx = &support[i];
                let k = idx.len();
                if k == 0 {
                    x_row.fill(0.0);
                    return empty_support_result(mode, inp.side, i);
                }
                scratch.q.clear();
                scratch.q.resize(k, 0.0);
                scratch.g.clear();
                scratch.g.resize(k, 0.0);
                scratch.sh.clear();
                scratch.sh.resize(k, 0.0);
                simd::gather(inp.simd, prior_row, idx, &mut scratch.q);
                simd::gather(inp.simd, gamma_row, idx, &mut scratch.g);
                simd::gather(inp.simd, inp.shift, idx, &mut scratch.sh);
                scratch.x.resize(k, 0.0);
                let TaskScratch {
                    eq,
                    q,
                    g,
                    sh,
                    x,
                    fallbacks,
                } = scratch;
                let solved = kernel_solve(
                    inp.kernel,
                    inp.simd,
                    inp.f32_phase,
                    force_fallback,
                    q,
                    g,
                    sh,
                    None,
                    mode,
                    hint,
                    x,
                    eq,
                    fallbacks,
                );
                if solved.is_ok() {
                    x_row.fill(0.0);
                    for (&j, &v) in idx.iter().zip(&scratch.x) {
                        x_row[j as usize] = v;
                    }
                }
                solved
            }
        },
        // A problem's prior and weights share one storage type and pattern,
        // so mixed views cannot occur.
        _ => Err(SeaError::PatternMismatch {
            context: "pass inputs (mixed row views)",
        }),
    };
    // The kernel knows neither the pass's side nor the subproblem's index.
    solved.map_err(|e| match e {
        SeaError::InfeasibleSubproblem { .. } => SeaError::InfeasibleSubproblem {
            side: inp.side,
            index: i,
        },
        other => other,
    })
}

/// [`solve_task`] with panic containment: a worker panic (including a
/// scripted one) becomes [`SeaError::WorkerPanic`] instead of unwinding
/// through — or, under rayon, aborting — the whole solve. The non-panic
/// path of `catch_unwind` costs no allocation, preserving the
/// allocation-free steady state.
#[allow(clippy::too_many_arguments)] // solve_task + panic containment
fn run_task<S: Storage>(
    inp: &PassInputs<'_, S>,
    bounds: Option<Bounds<'_, S>>,
    i: usize,
    mode: TotalMode,
    hint: f64,
    x_row: &mut [f64],
    scratch: &mut TaskScratch,
) -> Result<(f64, f64), SeaError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        solve_task(inp, bounds, i, mode, hint, x_row, scratch)
    })) {
        Ok(r) => r,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic payload of unknown type".to_string());
            Err(SeaError::WorkerPanic {
                side: inp.side,
                index: i,
                message,
            })
        }
    }
}

/// One contiguous block of subproblems of a parallel pass, carrying the
/// disjoint output slices its rows write. Blocks are the unit of work
/// distribution *and* of counter flushing; rows inside a block run
/// sequentially on one worker.
struct Shard<'a> {
    /// Global index of the first row in this shard.
    base: usize,
    lambda: &'a mut [f64],
    totals: &'a mut [f64],
    /// Per-row stored-value slices of the iterate.
    rows: Vec<&'a mut [f64]>,
    /// Per-row wall-clock sinks, when the pass is timing tasks.
    costs: Option<&'a mut [f64]>,
    /// This shard's timing slot, when the pass is span-profiled.
    timing: Option<&'a mut ShardTiming>,
}

/// Split the pass outputs into [`Shard`]s at the given start indices
/// (`starts[0] == 0`, strictly increasing, each `< m`).
fn build_shards<'a, S: Storage>(
    starts: &[usize],
    m: usize,
    lambda: &'a mut [f64],
    totals_out: &'a mut [f64],
    x: &'a mut S,
    mut costs: Option<&'a mut [f64]>,
    mut timings: Option<&'a mut [ShardTiming]>,
) -> Vec<Shard<'a>> {
    debug_assert_eq!(starts.first(), Some(&0));
    let row_lens: Vec<usize> = (0..m).map(|i| x.row_range(i).len()).collect();
    let mut lam_rest = lambda;
    let mut tot_rest = totals_out;
    // Stored values are row-major and contiguous in both backends, so the
    // per-row slices tile `values_mut()` exactly.
    let mut vals_rest = x.values_mut();
    let mut shards = Vec::with_capacity(starts.len());
    for (si, &start) in starts.iter().enumerate() {
        let end = starts.get(si + 1).copied().unwrap_or(m);
        let cnt = end - start;
        let (lam, rest) = std::mem::take(&mut lam_rest).split_at_mut(cnt);
        lam_rest = rest;
        let (tot, rest) = std::mem::take(&mut tot_rest).split_at_mut(cnt);
        tot_rest = rest;
        let shard_costs = costs.as_mut().map(|c| {
            let (head, rest) = std::mem::take(c).split_at_mut(cnt);
            *c = rest;
            head
        });
        let shard_timing = timings.as_mut().map(|t| {
            let (head, rest) = std::mem::take(t).split_at_mut(1);
            *t = rest;
            &mut head[0]
        });
        let mut rows = Vec::with_capacity(cnt);
        for i in start..end {
            let (row, rest) = std::mem::take(&mut vals_rest).split_at_mut(row_lens[i]);
            vals_rest = rest;
            rows.push(row);
        }
        shards.push(Shard {
            base: start,
            lambda: lam,
            totals: tot,
            rows,
            costs: shard_costs,
            timing: shard_timing,
        });
    }
    shards
}

/// Run a full equilibration pass.
///
/// `modes(i)` supplies the total specification of subproblem `i`; `lambda`
/// and `totals_out` receive, per subproblem, the constraint multiplier and
/// the realized total; `x` (same orientation — and, for sparse storage,
/// the same pattern — as `inp.prior`) receives the primal iterate. When
/// `costs` is provided it is filled with per-task wall-clock seconds for
/// the scheduling simulator. When `counters` is provided the kernels' work
/// counters are accumulated into it (pass `None` when nothing is
/// observing; the flush is skipped entirely).
///
/// `shard_starts` optionally supplies explicit shard boundaries for the
/// parallel path (start indices, first `0`): the solver aligns these to
/// support-graph component boundaries. `None` shards uniformly every
/// [`DEFAULT_BLOCK_ROWS`] rows. Serial passes ignore sharding. Results are
/// bitwise independent of the sharding because every row is solved
/// independently.
///
/// When `timings` is provided, parallel workers fill one [`ShardTiming`]
/// slot per shard (wall window relative to pass start, task count, and
/// kernel counters) for the caller to replay as span leaves; serial
/// passes clear the sink instead. Per-shard counters require `counters`
/// to also be present (the per-shard flush is what isolates them).
///
/// # Errors
/// Propagates the first subproblem failure (infeasibility, invalid data).
#[allow(clippy::too_many_arguments)] // pass = inputs + three outputs + mode + three optional sinks
pub fn equilibration_pass<S: Storage>(
    inp: &PassInputs<'_, S>,
    modes: &(dyn Fn(usize) -> TotalMode + Sync),
    lambda: &mut [f64],
    totals_out: &mut [f64],
    x: &mut S,
    par: Parallelism,
    costs: Option<&mut Vec<f64>>,
    counters: Option<&PassCounters>,
    shard_starts: Option<&[usize]>,
    timings: Option<&mut ShardSink>,
) -> Result<(), SeaError> {
    bounded_pass(
        inp,
        None,
        modes,
        lambda,
        totals_out,
        x,
        par,
        costs,
        counters,
        shard_starts,
        timings,
    )
}

/// [`equilibration_pass`] with optional entry bounds: with `Some`, every
/// subproblem is the box-bounded knapsack of the interval class, solved by
/// the same serial or sharded parallel machinery.
///
/// # Errors
/// Those of [`equilibration_pass`], plus [`SeaError::PatternMismatch`]
/// when the bounds' row views do not match the prior's.
#[allow(clippy::too_many_arguments)] // equilibration_pass + bounds
pub fn bounded_pass<S: Storage>(
    inp: &PassInputs<'_, S>,
    bounds: Option<Bounds<'_, S>>,
    modes: &(dyn Fn(usize) -> TotalMode + Sync),
    lambda: &mut [f64],
    totals_out: &mut [f64],
    x: &mut S,
    par: Parallelism,
    mut costs: Option<&mut Vec<f64>>,
    counters: Option<&PassCounters>,
    shard_starts: Option<&[usize]>,
    timings: Option<&mut ShardSink>,
) -> Result<(), SeaError> {
    let m = inp.prior.rows();
    debug_assert_eq!(lambda.len(), m);
    debug_assert_eq!(totals_out.len(), m);
    debug_assert_eq!(x.rows(), m);
    debug_assert_eq!(x.cols(), inp.prior.cols());
    debug_assert!(x.same_pattern(inp.prior));

    if let Some(c) = costs.as_deref_mut() {
        c.clear();
        c.resize(m, 0.0);
    }
    let timing = costs.is_some();

    match par {
        Parallelism::Serial => SERIAL_SCRATCH.with_borrow_mut(|scratch| {
            if let Some(sink) = timings {
                sink.clear();
            }
            let mut cost_slice: Option<&mut [f64]> = costs.map(Vec::as_mut_slice);
            // The scratch outlives any one pass; drop counts a previous
            // (possibly aborted) pass left behind before accumulating.
            scratch.eq.stats = KernelCounters::default();
            scratch.fallbacks = 0;
            for i in 0..m {
                let t0 = timing.then(Instant::now);
                let hint = lambda[i];
                let (l, s) =
                    run_task(inp, bounds, i, modes(i), hint, x.row_values_mut(i), scratch)?;
                lambda[i] = l;
                totals_out[i] = s;
                if let (Some(c), Some(t0)) = (cost_slice.as_deref_mut(), t0) {
                    c[i] = t0.elapsed().as_secs_f64();
                }
            }
            if let Some(c) = counters {
                c.add(&scratch.eq.stats);
                c.add_fallbacks(scratch.fallbacks);
            }
            Ok(())
        }),
        Parallelism::Rayon | Parallelism::RayonThreads(_) => {
            // `RayonThreads` pools are installed by the solver around the
            // whole solve; here both variants fan out on the current pool.
            let default_starts: Vec<usize>;
            let starts: &[usize] = match shard_starts {
                Some(s) if !s.is_empty() => s,
                _ => {
                    default_starts = (0..m).step_by(DEFAULT_BLOCK_ROWS).collect();
                    &default_starts
                }
            };
            let cost_slice: Option<&mut [f64]> = costs.map(Vec::as_mut_slice);
            let timing_slots: Option<&mut [ShardTiming]> = timings.map(|sink| {
                sink.prepare(starts.len());
                sink.timings.as_mut_slice()
            });
            let pass_t0 = Instant::now();
            let mut shards =
                build_shards(starts, m, lambda, totals_out, x, cost_slice, timing_slots);
            shards
                .par_iter_mut()
                .try_for_each_init(TaskScratch::new, |scratch, shard| {
                    if let Some(tm) = shard.timing.as_mut() {
                        tm.start_ns = elapsed_ns(pass_t0);
                    }
                    for t in 0..shard.rows.len() {
                        let i = shard.base + t;
                        let t0 = timing.then(Instant::now);
                        let hint = shard.lambda[t];
                        let (lv, sv) =
                            run_task(inp, bounds, i, modes(i), hint, &mut *shard.rows[t], scratch)?;
                        shard.lambda[t] = lv;
                        shard.totals[t] = sv;
                        if let (Some(c), Some(t0)) = (shard.costs.as_deref_mut(), t0) {
                            c[t] = t0.elapsed().as_secs_f64();
                        }
                    }
                    if let Some(tm) = shard.timing.as_mut() {
                        tm.end_ns = elapsed_ns(pass_t0);
                        tm.tasks = shard.rows.len() as u64;
                        // Valid only alongside `counters`: the per-shard
                        // flush below is what scopes the scratch stats to
                        // this shard.
                        tm.counters = scratch.eq.stats;
                    }
                    if let Some(acc) = counters {
                        acc.add(&scratch.eq.stats);
                        acc.add_fallbacks(scratch.fallbacks);
                        scratch.eq.stats = KernelCounters::default();
                        scratch.fallbacks = 0;
                    }
                    Ok(())
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_linalg::{CsrMatrix, DenseMatrix};

    fn setup() -> (DenseMatrix, DenseMatrix) {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 0.0, 2.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 3, 1.0).unwrap();
        (x0, gamma)
    }

    #[test]
    fn fixed_pass_hits_row_totals() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: None,
        };
        let s0 = [9.0, 3.0];
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        equilibration_pass(
            &inp,
            &|i| TotalMode::Fixed { total: s0[i] },
            &mut lambda,
            &mut totals,
            &mut x,
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        )
        .unwrap();
        let sums = x.row_sums();
        assert!((sums[0] - 9.0).abs() < 1e-9);
        assert!((sums[1] - 3.0).abs() < 1e-9);
        assert!(x.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (x0, gamma) = setup();
        let shift = vec![0.5, -0.5, 0.25];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: None,
        };
        let run = |par: Parallelism| {
            let mut lambda = vec![0.0; 2];
            let mut totals = vec![0.0; 2];
            let mut x = DenseMatrix::zeros(2, 3).unwrap();
            equilibration_pass(
                &inp,
                &|i| TotalMode::Elastic {
                    alpha: 1.0 + i as f64,
                    prior: 5.0,
                    cross: 0.0,
                },
                &mut lambda,
                &mut totals,
                &mut x,
                par,
                None,
                None,
                None,
                None,
            )
            .unwrap();
            (lambda, totals, x)
        };
        let (l1, t1, x1) = run(Parallelism::Serial);
        let (l2, t2, x2) = run(Parallelism::Rayon);
        assert_eq!(l1, l2);
        assert_eq!(t1, t2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn structural_support_keeps_zeros() {
        let (x0, gamma) = setup();
        let support = vec![vec![0u32, 1, 2], vec![0u32, 2]];
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: Some(&support),
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: None,
        };
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 8.0 },
            &mut lambda,
            &mut totals,
            &mut x,
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(x.get(1, 1), 0.0, "structural zero must stay zero");
        let sums = x.row_sums();
        assert!((sums[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn csr_pass_matches_dense_structural_bitwise() {
        // Same logical problem: dense rows with structural-zero support
        // lists vs a CSR whose pattern is that support. The kernel must see
        // identical value sequences, so λ, totals, and stored x agree
        // *bitwise* and the structural cell stays zero.
        let (x0, gamma) = setup();
        let support = vec![vec![0u32, 1, 2], vec![0u32, 2]];
        let shift = vec![0.37, -0.21, 0.11];

        let mut lambda_d = vec![0.0; 2];
        let mut totals_d = vec![0.0; 2];
        let mut xd = DenseMatrix::zeros(2, 3).unwrap();
        equilibration_pass(
            &PassInputs {
                prior: &x0,
                gamma: &gamma,
                support: Some(&support),
                shift: &shift,
                side: "row",
                kernel: KernelKind::SortScan,
                simd: SimdLevel::Scalar,
                f32_phase: false,
                fault: None,
            },
            &|_| TotalMode::Fixed { total: 8.0 },
            &mut lambda_d,
            &mut totals_d,
            &mut xd,
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        )
        .unwrap();

        let x0_csr = CsrMatrix::from_dense_pruned(&x0).unwrap();
        let gvals: Vec<f64> = (0..2)
            .flat_map(|i| {
                let grow = gamma.row(i).to_vec();
                x0_csr
                    .row_cols(i)
                    .iter()
                    .map(move |&j| grow[j as usize])
                    .collect::<Vec<f64>>()
            })
            .collect();
        let gamma_csr = x0_csr.with_values(gvals).unwrap();
        let mut lambda_s = vec![0.0; 2];
        let mut totals_s = vec![0.0; 2];
        let mut xs = x0_csr.zeros_like();
        for par in [Parallelism::Serial, Parallelism::Rayon] {
            equilibration_pass(
                &PassInputs {
                    prior: &x0_csr,
                    gamma: &gamma_csr,
                    support: None,
                    shift: &shift,
                    side: "row",
                    kernel: KernelKind::SortScan,
                    simd: SimdLevel::Scalar,
                    f32_phase: false,
                    fault: None,
                },
                &|_| TotalMode::Fixed { total: 8.0 },
                &mut lambda_s,
                &mut totals_s,
                &mut xs,
                par,
                None,
                None,
                None,
                None,
            )
            .unwrap();
            assert_eq!(lambda_d, lambda_s, "par={par:?}");
            assert_eq!(totals_d, totals_s, "par={par:?}");
            let dense_back = xs.to_dense().unwrap();
            assert_eq!(dense_back.as_slice(), xd.as_slice(), "par={par:?}");
        }
    }

    #[test]
    fn shard_boundaries_do_not_change_results() {
        // 8 rows, solved with every sharding from one block to per-row
        // blocks: bitwise-identical λ/totals/x.
        let m = 8;
        let x0 = DenseMatrix::from_vec(m, 3, (0..m * 3).map(|k| 1.0 + (k % 7) as f64).collect())
            .unwrap();
        let gamma = DenseMatrix::filled(m, 3, 1.0).unwrap();
        let shift = vec![0.3, -0.4, 0.1];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: None,
        };
        let run = |starts: Option<&[usize]>| {
            let mut lambda = vec![0.0; m];
            let mut totals = vec![0.0; m];
            let mut x = DenseMatrix::zeros(m, 3).unwrap();
            equilibration_pass(
                &inp,
                &|i| TotalMode::Fixed {
                    total: 5.0 + i as f64,
                },
                &mut lambda,
                &mut totals,
                &mut x,
                Parallelism::Rayon,
                None,
                None,
                starts,
                None,
            )
            .unwrap();
            (lambda, totals, x)
        };
        let base = run(None);
        let whole = run(Some(&[0]));
        let pairs = run(Some(&[0, 2, 4, 6]));
        let ragged = run(Some(&[0, 1, 5]));
        let per_row: Vec<usize> = (0..m).collect();
        let singles = run(Some(&per_row));
        for other in [&whole, &pairs, &ragged, &singles] {
            assert_eq!(base.0, other.0);
            assert_eq!(base.1, other.1);
            assert_eq!(base.2, other.2);
        }
    }

    #[test]
    fn sharded_costs_and_counters_cover_every_task() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: None,
        };
        let counters = PassCounters::default();
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        let mut costs = Vec::new();
        equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 5.0 },
            &mut lambda,
            &mut totals,
            &mut x,
            Parallelism::Rayon,
            Some(&mut costs),
            Some(&counters),
            Some(&[0, 1]),
            None,
        )
        .unwrap();
        assert_eq!(costs.len(), 2);
        assert!(costs.iter().all(|&c| c >= 0.0));
        assert_eq!(counters.snapshot().subproblems, 2);
    }

    #[test]
    fn empty_structural_row_with_positive_total_is_infeasible() {
        let (x0, gamma) = setup();
        let support = vec![vec![0u32, 1, 2], vec![]];
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: Some(&support),
            shift: &shift,
            side: "column",
            kernel: KernelKind::SortScan,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: None,
        };
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        let e = equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 8.0 },
            &mut lambda,
            &mut totals,
            &mut x,
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        );
        assert!(matches!(
            e,
            Err(SeaError::InfeasibleSubproblem {
                side: "column",
                index: 1
            })
        ));
    }

    #[test]
    fn dense_pass_reports_the_infeasible_subproblem_it_hit() {
        // Dense, support-less rows: the kernel's own error knows neither
        // the side nor the index, so the pass must stamp both, on every
        // kernel route (cold sort-scan, warm and cold quickselect).
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        for side in ["row", "column"] {
            for (kernel, hint) in [
                (KernelKind::SortScan, 0.0),
                (KernelKind::Quickselect, 0.0),
                (KernelKind::Quickselect, f64::NAN),
            ] {
                let inp = PassInputs {
                    prior: &x0,
                    gamma: &gamma,
                    support: None,
                    shift: &shift,
                    side,
                    kernel,
                    simd: SimdLevel::Scalar,
                    f32_phase: false,
                    fault: None,
                };
                let mut lambda = vec![hint; 2];
                let mut totals = vec![0.0; 2];
                let mut x = DenseMatrix::zeros(2, 3).unwrap();
                let e = equilibration_pass(
                    &inp,
                    &|i| TotalMode::Fixed {
                        total: if i == 1 { -1.0 } else { 5.0 },
                    },
                    &mut lambda,
                    &mut totals,
                    &mut x,
                    Parallelism::Serial,
                    None,
                    None,
                    None,
                    None,
                );
                match e {
                    Err(SeaError::InfeasibleSubproblem { side: s, index: 1 }) if s == side => {}
                    other => panic!("{side} pass, {kernel} from {hint}: got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_csr_row_with_positive_total_is_infeasible() {
        // Row 1 of the CSR has no stored entries at all.
        let x0 = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0)]).unwrap();
        let gamma = x0.with_values(vec![1.0, 1.0]).unwrap();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: None,
        };
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = x0.zeros_like();
        let e = equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 4.0 },
            &mut lambda,
            &mut totals,
            &mut x,
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        );
        assert!(matches!(
            e,
            Err(SeaError::InfeasibleSubproblem {
                side: "row",
                index: 1
            })
        ));
        // A zero fixed total (or an elastic one) is fine.
        let ok = equilibration_pass(
            &inp,
            &|i| TotalMode::Fixed {
                total: if i == 0 { 4.0 } else { 0.0 },
            },
            &mut lambda,
            &mut totals,
            &mut x,
            Parallelism::Serial,
            None,
            None,
            None,
            None,
        );
        assert!(ok.is_ok());
        assert_eq!(totals[1], 0.0);
    }

    #[test]
    fn cost_recording_fills_per_task_entries() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: None,
        };
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        let mut costs = Vec::new();
        equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 5.0 },
            &mut lambda,
            &mut totals,
            &mut x,
            Parallelism::Serial,
            Some(&mut costs),
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(costs.len(), 2);
        assert!(costs.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn pass_counters_collect_from_every_worker() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: None,
        };
        for par in [Parallelism::Serial, Parallelism::Rayon] {
            let counters = PassCounters::default();
            let mut lambda = vec![0.0; 2];
            let mut totals = vec![0.0; 2];
            let mut x = DenseMatrix::zeros(2, 3).unwrap();
            equilibration_pass(
                &inp,
                &|_| TotalMode::Fixed { total: 5.0 },
                &mut lambda,
                &mut totals,
                &mut x,
                par,
                None,
                Some(&counters),
                None,
                None,
            )
            .unwrap();
            let snap = counters.snapshot();
            assert_eq!(snap.subproblems, 2, "par={par:?}");
            assert!(snap.breakpoints_scanned >= 2);
            assert_eq!(snap.quickselect_pivots, 0);
        }
    }

    #[test]
    fn injected_kernel_fault_falls_back_to_sort_scan() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::Quickselect,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: Some(TaskFault {
                index: 1,
                panic: false,
            }),
        };
        let counters = PassCounters::default();
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 5.0 },
            &mut lambda,
            &mut totals,
            &mut x,
            Parallelism::Serial,
            None,
            Some(&counters),
            None,
            None,
        )
        .unwrap();
        assert_eq!(counters.fallbacks(), 1);
        // The fallback re-solve still hits the row total exactly.
        let sums = x.row_sums();
        assert!((sums[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn injected_kernel_fault_is_inert_under_sort_scan() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        let inp = PassInputs {
            prior: &x0,
            gamma: &gamma,
            support: None,
            shift: &shift,
            side: "row",
            kernel: KernelKind::SortScan,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: Some(TaskFault {
                index: 0,
                panic: false,
            }),
        };
        let counters = PassCounters::default();
        let mut lambda = vec![0.0; 2];
        let mut totals = vec![0.0; 2];
        let mut x = DenseMatrix::zeros(2, 3).unwrap();
        equilibration_pass(
            &inp,
            &|_| TotalMode::Fixed { total: 5.0 },
            &mut lambda,
            &mut totals,
            &mut x,
            Parallelism::Serial,
            None,
            Some(&counters),
            None,
            None,
        )
        .unwrap();
        assert_eq!(counters.fallbacks(), 0, "sort-scan has no fallback target");
    }

    #[test]
    fn worker_panic_is_contained_as_typed_error() {
        let (x0, gamma) = setup();
        let shift = vec![0.0; 3];
        for par in [Parallelism::Serial, Parallelism::Rayon] {
            let inp = PassInputs {
                prior: &x0,
                gamma: &gamma,
                support: None,
                shift: &shift,
                side: "column",
                kernel: KernelKind::SortScan,
                simd: SimdLevel::Scalar,
                f32_phase: false,
                fault: Some(TaskFault {
                    index: 1,
                    panic: true,
                }),
            };
            let mut lambda = vec![0.0; 2];
            let mut totals = vec![0.0; 2];
            let mut x = DenseMatrix::zeros(2, 3).unwrap();
            let e = equilibration_pass(
                &inp,
                &|_| TotalMode::Fixed { total: 5.0 },
                &mut lambda,
                &mut totals,
                &mut x,
                par,
                None,
                None,
                None,
                None,
            );
            match e {
                Err(SeaError::WorkerPanic {
                    side: "column",
                    index: 1,
                    message,
                }) => assert!(message.contains("injected"), "message: {message}"),
                other => panic!("expected WorkerPanic, got {other:?} (par={par:?})"),
            }
        }
    }
}
