//! The batch solve engine.
//!
//! [`BatchEngine::solve_batch`] runs many constrained-matrix instances
//! through the supervised SEA drivers on one shared thread budget. The
//! [`BatchParallelism`] knob trades instance-level parallelism (fan the
//! instances out, each solve serial inside) against equilibration-level
//! parallelism (solve instances one at a time, rows/columns fan out
//! inside) — the two ends of the paper's decomposition hierarchy.
//!
//! Determinism: every instance solve is a pure function of the instance,
//! the engine's warm-start cache *snapshot*, and the options — the solvers
//! themselves are parallelism-invariant (see sea-core's determinism suite)
//! and cache updates are deferred to the end of the batch — so batch
//! results are bitwise identical across all five parallelism policies and
//! any submission order. Per-instance event streams are buffered and
//! replayed in submission order for the same reason.

use std::mem;
use std::time::{Duration, Instant};

use rayon::prelude::*;
use sea_core::{
    solve_bounded_supervised, solve_diagonal_supervised, solve_general_supervised, BoundedProblem,
    DiagonalProblem, Event, GeneralProblem, GeneralSeaOptions, KernelCounters, KernelKind,
    Observer, Parallelism, Precision, SeaError, SeaOptions, SimdMode, SpanKind, StopReason,
    SupervisedBoundedSolution, SupervisedGeneralSolution, SupervisedSolution, SupervisorOptions,
};
use sea_linalg::CsrMatrix;

use crate::arena::{BatchArena, Slot};
use crate::cache::{CacheEntry, CacheUpdate, WarmStartCache};

/// Where the thread budget goes: across instances or inside each solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchParallelism {
    /// Everything sequential: instances in order, serial equilibration.
    Serial,
    /// Fan instances out on the global rayon pool; each solve is serial
    /// inside. Best for many small instances.
    Outer,
    /// Fan instances out on a dedicated pool of exactly this many threads.
    OuterThreads(usize),
    /// Solve instances one at a time; rows/columns fan out on the global
    /// pool inside each solve. Best for few large instances.
    Inner,
    /// Like [`BatchParallelism::Inner`] on a dedicated pool of this width.
    InnerThreads(usize),
}

impl BatchParallelism {
    /// Stable label for events and logs (`"serial"`, `"outer"`,
    /// `"outer:4"`, `"inner"`, `"inner:2"`).
    pub fn label(self) -> String {
        match self {
            BatchParallelism::Serial => "serial".to_string(),
            BatchParallelism::Outer => "outer".to_string(),
            BatchParallelism::OuterThreads(k) => format!("outer:{k}"),
            BatchParallelism::Inner => "inner".to_string(),
            BatchParallelism::InnerThreads(k) => format!("inner:{k}"),
        }
    }

    /// Inverse of [`BatchParallelism::label`] (used by the CLI).
    pub fn parse(s: &str) -> Option<BatchParallelism> {
        match s {
            "serial" => return Some(BatchParallelism::Serial),
            "outer" => return Some(BatchParallelism::Outer),
            "inner" => return Some(BatchParallelism::Inner),
            _ => {}
        }
        let (mode, k) = s.split_once(':')?;
        let k: usize = k.parse().ok().filter(|k| *k > 0)?;
        match mode {
            "outer" => Some(BatchParallelism::OuterThreads(k)),
            "inner" => Some(BatchParallelism::InnerThreads(k)),
            _ => None,
        }
    }

    /// The fan-out context instances are scheduled in.
    fn outer(self) -> Parallelism {
        match self {
            BatchParallelism::Outer => Parallelism::Rayon,
            BatchParallelism::OuterThreads(k) => Parallelism::RayonThreads(k),
            _ => Parallelism::Serial,
        }
    }

    /// The equilibration parallelism inside each instance solve.
    fn instance(self) -> Parallelism {
        match self {
            BatchParallelism::Inner => Parallelism::Rayon,
            BatchParallelism::InnerThreads(k) => Parallelism::RayonThreads(k),
            _ => Parallelism::Serial,
        }
    }
}

/// Options shared by every instance in a batch.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Stopping tolerance handed to each driver (outer tolerance for
    /// general instances; their inner solves run one decade tighter).
    pub epsilon: f64,
    /// Iteration cap per instance (inner iterations for diagonal/bounded
    /// and for the general driver's inner solves).
    pub max_iterations: usize,
    /// Equilibration kernel for every solve.
    pub kernel: KernelKind,
    /// SIMD policy for every solve's kernels.
    pub simd: SimdMode,
    /// Kernel arithmetic precision for every solve.
    pub precision: Precision,
    /// Thread-budget policy (see [`BatchParallelism`]).
    pub parallelism: BatchParallelism,
    /// Enable the per-family warm-start cache. Off, every instance is a
    /// cache bypass and nothing is stored.
    pub warm_start: bool,
    /// Measure per-instance kernel work through a probe observer. Costs
    /// event construction inside the solvers; turn off (with no outer
    /// observer attached) for the allocation-free fast path. Without
    /// measurement `kernel_work`/`work_saved` report 0.
    pub measure_kernel_work: bool,
    /// Supervision applied to *each* instance (budgets are per-instance;
    /// put one shared [`sea_core::CancelToken`] here to cancel the whole
    /// batch).
    pub supervisor: SupervisorOptions,
}

impl Default for BatchOptions {
    fn default() -> Self {
        let defaults = SeaOptions::default();
        BatchOptions {
            epsilon: defaults.epsilon,
            max_iterations: defaults.max_iterations,
            kernel: defaults.kernel,
            simd: SimdMode::Off,
            precision: Precision::F64,
            parallelism: BatchParallelism::Serial,
            warm_start: true,
            measure_kernel_work: true,
            supervisor: SupervisorOptions::default(),
        }
    }
}

/// One problem of any of the three supported classes.
#[derive(Debug, Clone)]
pub enum BatchProblem {
    /// Diagonal constrained matrix problem (§3.1 driver).
    Diagonal(DiagonalProblem),
    /// Diagonal problem over CSR support-only storage (sparse CMPs).
    SparseDiagonal(DiagonalProblem<CsrMatrix>),
    /// Box-bounded problem (interval extension).
    Bounded(BoundedProblem),
    /// General problem with dense `G` (§3.2 driver).
    General(GeneralProblem),
}

impl BatchProblem {
    /// Column count — the length a warm-start `μ` seed must have.
    pub fn n(&self) -> usize {
        match self {
            BatchProblem::Diagonal(p) => p.n(),
            BatchProblem::SparseDiagonal(p) => p.n(),
            BatchProblem::Bounded(p) => p.n(),
            BatchProblem::General(p) => p.n(),
        }
    }

    /// Stable class name (`"diagonal"`, `"sparse-diagonal"`, `"bounded"`,
    /// `"general"`).
    pub fn class(&self) -> &'static str {
        match self {
            BatchProblem::Diagonal(_) => "diagonal",
            BatchProblem::SparseDiagonal(_) => "sparse-diagonal",
            BatchProblem::Bounded(_) => "bounded",
            BatchProblem::General(_) => "general",
        }
    }
}

/// One instance submitted to a batch.
#[derive(Debug, Clone)]
pub struct BatchInstance {
    /// Caller-chosen identifier, echoed in reports and events.
    pub id: String,
    /// Warm-start family key: instances that recur (identically or with
    /// drifting data) across batches share one. `None` opts out of
    /// caching for this instance.
    pub family: Option<String>,
    /// The problem itself.
    pub problem: BatchProblem,
}

/// A supervised solution of whichever class the instance was.
#[derive(Debug, Clone)]
pub enum BatchSolution {
    /// Diagonal outcome.
    Diagonal(SupervisedSolution),
    /// Sparse diagonal outcome (CSR estimate).
    SparseDiagonal(SupervisedSolution<CsrMatrix>),
    /// Bounded outcome.
    Bounded(SupervisedBoundedSolution),
    /// General outcome.
    General(SupervisedGeneralSolution),
}

impl BatchSolution {
    /// Whether the instance's convergence criterion fired.
    pub fn converged(&self) -> bool {
        match self {
            BatchSolution::Diagonal(s) => s.solution.stats.converged,
            BatchSolution::SparseDiagonal(s) => s.solution.stats.converged,
            BatchSolution::Bounded(s) => s.solution.converged,
            BatchSolution::General(s) => s.solution.converged,
        }
    }

    /// Why the solve stopped.
    pub fn stop(&self) -> StopReason {
        match self {
            BatchSolution::Diagonal(s) => s.stop,
            BatchSolution::SparseDiagonal(s) => s.stop,
            BatchSolution::Bounded(s) => s.stop,
            BatchSolution::General(s) => s.stop,
        }
    }

    /// Final column multipliers `μ` — the state the warm-start cache
    /// stores.
    pub fn mu(&self) -> &[f64] {
        match self {
            BatchSolution::Diagonal(s) => &s.solution.mu,
            BatchSolution::SparseDiagonal(s) => &s.solution.mu,
            BatchSolution::Bounded(s) => &s.solution.mu,
            BatchSolution::General(s) => &s.solution.mu,
        }
    }

    /// The driver's primary iteration count (inner sweeps for diagonal and
    /// bounded, outer projections for general).
    pub fn iterations(&self) -> usize {
        match self {
            BatchSolution::Diagonal(s) => s.solution.stats.iterations,
            BatchSolution::SparseDiagonal(s) => s.solution.stats.iterations,
            BatchSolution::Bounded(s) => s.solution.iterations,
            BatchSolution::General(s) => s.solution.outer_iterations,
        }
    }

    /// Primal objective at the returned iterate.
    pub fn objective(&self) -> f64 {
        match self {
            BatchSolution::Diagonal(s) => s.solution.stats.objective,
            BatchSolution::SparseDiagonal(s) => s.solution.stats.objective,
            BatchSolution::Bounded(s) => s.solution.objective,
            BatchSolution::General(s) => s.solution.objective,
        }
    }

    /// Stopping-quantity residual of the returned iterate: the value the
    /// driver's own convergence test compares against ε (relative row
    /// balance for diagonal/bounded solves, outer change for general
    /// ones). Lets callers judge how far a *partial* answer — e.g. a
    /// deadline-stopped solve — is from converged, without recomputing a
    /// certificate.
    pub fn residual(&self) -> f64 {
        match self {
            BatchSolution::Diagonal(s) => s.solution.stats.residual,
            BatchSolution::SparseDiagonal(s) => s.solution.stats.residual,
            BatchSolution::Bounded(s) => s.solution.residuals.rel_row_inf,
            BatchSolution::General(s) => s.solution.outer_residual,
        }
    }
}

/// Warm-start cache outcome for one instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WarmStart {
    /// The family had a usable cached `μ`; the solve was seeded with it.
    Hit,
    /// The instance declared a family but nothing usable was cached.
    Miss,
    /// No family, or caching disabled: the cache was not consulted.
    #[default]
    Bypass,
}

impl WarmStart {
    /// Stable wire name (`"hit"` / `"miss"` / `"bypass"`).
    pub fn name(self) -> &'static str {
        match self {
            WarmStart::Hit => "hit",
            WarmStart::Miss => "miss",
            WarmStart::Bypass => "bypass",
        }
    }
}

/// Per-instance batch outcome.
#[derive(Debug)]
pub struct BatchItemReport {
    /// Submission index (0-based).
    pub index: usize,
    /// The instance's id.
    pub id: String,
    /// The instance's family, if any.
    pub family: Option<String>,
    /// Cache outcome.
    pub warm_start: WarmStart,
    /// Kernel work this solve cost (0 when measurement is off).
    pub kernel_work: u64,
    /// Kernel work saved vs the family's cold baseline (0 off-hit).
    pub work_saved: u64,
    /// The solve outcome; a per-instance error never aborts the batch.
    pub outcome: Result<BatchSolution, SeaError>,
}

/// Whole-batch outcome.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-instance outcomes, in submission order.
    pub items: Vec<BatchItemReport>,
    /// Instances whose convergence criterion fired.
    pub converged: usize,
    /// Warm-start cache hits.
    pub cache_hits: usize,
    /// Warm-start cache misses (bypasses are neither).
    pub cache_misses: usize,
    /// Total kernel work across instances.
    pub kernel_work: u64,
    /// Total kernel work saved vs cold baselines.
    pub work_saved: u64,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
}

impl BatchReport {
    /// True when every instance solved and converged.
    pub fn all_converged(&self) -> bool {
        self.converged == self.items.len()
    }
}

/// A long-lived batch solver owning the warm-start cache and the workspace
/// arena. Solve related batches through one engine to accumulate cache
/// state; see [`crate::cache::WarmStartCache`] for snapshot semantics.
#[derive(Debug, Default)]
pub struct BatchEngine {
    options: BatchOptions,
    cache: WarmStartCache,
    arena: BatchArena,
}

impl BatchEngine {
    /// An engine with the given options and an empty cache.
    pub fn new(options: BatchOptions) -> Self {
        BatchEngine {
            options,
            cache: WarmStartCache::new(),
            arena: BatchArena::new(),
        }
    }

    /// The engine's options.
    pub fn options(&self) -> &BatchOptions {
        &self.options
    }

    /// Number of families currently cached.
    pub fn cached_families(&self) -> usize {
        self.cache.len()
    }

    /// Pooled workspace slots (grows to the largest batch seen).
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Drop all cached warm starts.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Solve every instance, returning per-instance outcomes in submission
    /// order. Emits `BatchStart`, the buffered per-instance solve streams
    /// interleaved with `BatchInstance`, and `BatchEnd` when `obs` is
    /// enabled.
    ///
    /// A per-instance failure never aborts the batch: it lands in that
    /// item's [`BatchItemReport::outcome`] and the remaining instances
    /// still solve.
    ///
    /// # Example
    ///
    /// ```
    /// use sea_batch::{BatchEngine, BatchInstance, BatchOptions, BatchProblem};
    /// use sea_core::{DiagonalProblem, NullObserver, TotalSpec, WeightScheme};
    /// use sea_linalg::DenseMatrix;
    ///
    /// let x0 = DenseMatrix::from_rows(&[vec![10.0, 5.0], vec![5.0, 10.0]])?;
    /// let gamma = WeightScheme::ChiSquare.entry_weights(&x0)?;
    /// let p = DiagonalProblem::new(
    ///     x0,
    ///     gamma,
    ///     TotalSpec::Fixed { s0: vec![18.0, 18.0], d0: vec![18.0, 18.0] },
    /// )?;
    /// let batch = vec![BatchInstance {
    ///     id: "q1".to_string(),
    ///     family: None,
    ///     problem: BatchProblem::Diagonal(p),
    /// }];
    ///
    /// let mut engine = BatchEngine::new(BatchOptions::default());
    /// let report = engine.solve_batch(&batch, &mut NullObserver);
    /// assert_eq!(report.converged, 1);
    /// assert!(report.items[0].outcome.is_ok());
    /// # Ok::<(), sea_core::SeaError>(())
    /// ```
    pub fn solve_batch<O: Observer>(
        &mut self,
        instances: &[BatchInstance],
        obs: &mut O,
    ) -> BatchReport {
        let start = Instant::now();
        let observing = obs.enabled();
        if observing {
            obs.record(&Event::BatchStart {
                instances: instances.len(),
                parallelism: self.options.parallelism.label(),
            });
        }
        // The Batch span opens before any instance runs so the workers'
        // start/end stamps (offsets from `start`) land inside it; each
        // instance becomes a leaf replayed from the serial epilogue.
        let spanning = obs.spans_enabled();
        if spanning {
            obs.span_open(SpanKind::Batch, 0, instances.len() as u64);
        }

        let BatchEngine {
            options,
            cache,
            arena,
        } = self;
        let slots = arena.acquire(instances.len());
        let run = |slot: &mut Slot, inst: &BatchInstance| {
            if spanning {
                slot.start_ns = elapsed_ns(start);
            }
            solve_one(inst, options, cache, observing, spanning, slot);
            if spanning {
                slot.end_ns = elapsed_ns(start);
            }
        };
        match options.parallelism {
            BatchParallelism::Outer | BatchParallelism::OuterThreads(_) => {
                options.parallelism.outer().run(|| {
                    slots
                        .par_iter_mut()
                        .zip(instances.par_iter())
                        .for_each(|(slot, inst)| run(slot, inst));
                });
            }
            _ => {
                for (slot, inst) in slots.iter_mut().zip(instances) {
                    run(slot, inst);
                }
            }
        }

        // Serial epilogue: replay buffered events in submission order,
        // aggregate, and apply the deferred cache writes (last wins).
        let mut items = Vec::with_capacity(instances.len());
        let mut updates: Vec<CacheUpdate> = Vec::new();
        let (mut converged, mut hits, mut misses) = (0usize, 0usize, 0usize);
        let (mut work, mut saved) = (0u64, 0u64);
        for (index, (slot, inst)) in slots.iter_mut().zip(instances).enumerate() {
            if observing {
                for e in slot.events.drain(..) {
                    obs.record(&e);
                }
                obs.record(&Event::BatchInstance {
                    index,
                    id: inst.id.clone(),
                    family: inst.family.clone(),
                    cache: slot.warm.name(),
                    kernel_work: slot.kernel_work,
                    work_saved: slot.work_saved,
                });
            } else {
                slot.events.clear();
            }
            if spanning {
                let tasks = slot
                    .outcome
                    .as_ref()
                    .and_then(|o| o.as_ref().ok())
                    .map_or(0, |s| s.iterations() as u64);
                obs.span_leaf(
                    SpanKind::Instance,
                    index as u64,
                    slot.start_ns,
                    slot.end_ns,
                    tasks,
                    &slot.counters,
                    slot.warm.name(),
                );
            }
            match slot.warm {
                WarmStart::Hit => hits += 1,
                WarmStart::Miss => misses += 1,
                WarmStart::Bypass => {}
            }
            work += slot.kernel_work;
            saved += slot.work_saved;
            if let Some(u) = slot.update.take() {
                updates.push(u);
            }
            // Allowed: `solve_one` unconditionally fills `outcome`; the
            // `Option` only exists so reset slots have a vacant state.
            #[allow(clippy::expect_used)]
            let outcome = slot.outcome.take().expect("slot was solved");
            if outcome.as_ref().is_ok_and(BatchSolution::converged) {
                converged += 1;
            }
            items.push(BatchItemReport {
                index,
                id: inst.id.clone(),
                family: inst.family.clone(),
                warm_start: slot.warm,
                kernel_work: slot.kernel_work,
                work_saved: slot.work_saved,
                outcome,
            });
        }
        cache.apply(updates);
        if spanning {
            obs.span_close(&KernelCounters::default());
        }

        let elapsed = start.elapsed();
        if observing {
            obs.record(&Event::BatchEnd {
                instances: instances.len(),
                converged,
                cache_hits: hits,
                cache_misses: misses,
                kernel_work: work,
                work_saved: saved,
                seconds: elapsed.as_secs_f64(),
            });
        }
        BatchReport {
            items,
            converged,
            cache_hits: hits,
            cache_misses: misses,
            kernel_work: work,
            work_saved: saved,
            elapsed,
        }
    }
}

/// Solve a single instance against a cache snapshot, outside any batch.
///
/// This is the entry point long-running services compose: the caller owns
/// the cache (and whatever lock guards it), resolves sharing and eviction
/// policy itself, and applies the returned [`CacheUpdate`] (if any)
/// whenever it chooses — typically immediately, under the same lock a
/// concurrent worker would take. Events stream to `obs` in order with no
/// batch framing. The result is bitwise identical to the same instance
/// going through [`BatchEngine::solve_batch`] with the same options and
/// cache snapshot (it runs the same per-instance path).
pub fn solve_instance<O: Observer>(
    inst: &BatchInstance,
    opts: &BatchOptions,
    cache: &WarmStartCache,
    obs: &mut O,
) -> (BatchItemReport, Option<CacheUpdate>) {
    let mut slot = Slot::default();
    solve_one(inst, opts, cache, obs.enabled(), false, &mut slot);
    for e in slot.events.drain(..) {
        obs.record(&e);
    }
    // Allowed: `solve_one` unconditionally fills `outcome` (same proof as
    // the batch epilogue above).
    #[allow(clippy::expect_used)]
    let outcome = slot.outcome.take().expect("instance was solved");
    (
        BatchItemReport {
            index: 0,
            id: inst.id.clone(),
            family: inst.family.clone(),
            warm_start: slot.warm,
            kernel_work: slot.kernel_work,
            work_saved: slot.work_saved,
            outcome,
        },
        slot.update.take(),
    )
}

/// Nanoseconds elapsed since `t0`, saturating (good for ~584 years).
fn elapsed_ns(t0: Instant) -> u64 {
    let d = t0.elapsed();
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

/// Probe sink for one instance: harvests kernel-work counters and (when
/// the batch has an outer observer) buffers the instance's event stream
/// for in-order replay.
struct ProbeObserver {
    keep_events: bool,
    measure: bool,
    work: u64,
    counters: KernelCounters,
    events: Vec<Event>,
}

impl Observer for ProbeObserver {
    fn enabled(&self) -> bool {
        // When neither buffering nor measuring, report disabled so the
        // solvers skip event construction entirely (the allocation-free
        // fast path).
        self.keep_events || self.measure
    }

    fn record(&mut self, event: &Event) {
        if self.measure {
            if let Event::KernelCounters { counters } = event {
                self.work += counters.breakpoints_scanned
                    + counters.quickselect_pivots
                    + counters.boxed_clamps;
                self.counters = self.counters.merged(*counters);
            }
        }
        if self.keep_events {
            self.events.push(event.clone());
        }
    }
}

/// Solve one instance against the cache snapshot, filling `slot`.
fn solve_one(
    inst: &BatchInstance,
    opts: &BatchOptions,
    cache: &WarmStartCache,
    buffer_events: bool,
    spanning: bool,
    slot: &mut Slot,
) {
    // Resolve the warm start against the read-only snapshot. A cached μ of
    // the wrong length (the family changed shape) is a miss, not an error.
    let mut baseline = 0u64;
    if opts.warm_start {
        if let Some(family) = &inst.family {
            match cache.lookup(family) {
                Some(entry) if entry.mu.len() == inst.problem.n() => {
                    slot.mu_seed.extend_from_slice(&entry.mu);
                    slot.warm = WarmStart::Hit;
                    baseline = entry.cold_kernel_work;
                }
                _ => slot.warm = WarmStart::Miss,
            }
        }
    }
    let hit = slot.warm == WarmStart::Hit;

    // Span attribution needs the counters even when the caller left
    // `measure_kernel_work` off, so spanning forces measurement on.
    let mut probe = ProbeObserver {
        keep_events: buffer_events,
        measure: opts.measure_kernel_work || spanning,
        work: 0,
        counters: KernelCounters::default(),
        events: mem::take(&mut slot.events),
    };
    // Every class reads the same options; the general class's inner
    // solves run one decade tighter than its outer tolerance.
    let mut o = SeaOptions {
        epsilon: opts.epsilon,
        max_iterations: opts.max_iterations,
        kernel: opts.kernel,
        simd: opts.simd,
        precision: opts.precision,
        parallelism: opts.parallelism.instance(),
        initial_mu: hit.then(|| mem::take(&mut slot.mu_seed)),
        ..SeaOptions::default()
    };
    let sup = &opts.supervisor;
    let outcome = match &inst.problem {
        BatchProblem::Diagonal(p) => {
            solve_diagonal_supervised(p, &o, sup, &mut probe).map(BatchSolution::Diagonal)
        }
        BatchProblem::SparseDiagonal(p) => {
            solve_diagonal_supervised(p, &o, sup, &mut probe).map(BatchSolution::SparseDiagonal)
        }
        BatchProblem::Bounded(p) => {
            solve_bounded_supervised(p, &o, sup, &mut probe).map(BatchSolution::Bounded)
        }
        BatchProblem::General(p) => {
            let mut g = GeneralSeaOptions::with_epsilon(opts.epsilon);
            o.epsilon = g.inner.epsilon;
            g.inner = mem::take(&mut o);
            let r = solve_general_supervised(p, &g, sup, &mut probe).map(BatchSolution::General);
            o = g.inner;
            r
        }
    };
    if let Some(seed) = o.initial_mu {
        slot.mu_seed = seed; // reclaim the buffer for the arena
    }

    slot.events = probe.events;
    slot.kernel_work = probe.work;
    slot.counters = probe.counters;
    if hit {
        slot.work_saved = baseline.saturating_sub(probe.work);
    }
    // Only converged solutions are cached: a partial μ from a stopped or
    // errored solve would poison later warm starts. A hit keeps the
    // family's original cold baseline; only the seed is refreshed.
    if opts.warm_start {
        if let (Some(family), Ok(sol)) = (&inst.family, &outcome) {
            if sol.converged() {
                slot.update = Some(CacheUpdate {
                    family: family.clone(),
                    entry: CacheEntry {
                        mu: sol.mu().to_vec(),
                        cold_kernel_work: if hit { baseline } else { probe.work },
                    },
                });
            }
        }
    }
    slot.outcome = Some(outcome);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_labels_round_trip() {
        for p in [
            BatchParallelism::Serial,
            BatchParallelism::Outer,
            BatchParallelism::OuterThreads(4),
            BatchParallelism::Inner,
            BatchParallelism::InnerThreads(2),
        ] {
            assert_eq!(BatchParallelism::parse(&p.label()), Some(p));
        }
        assert_eq!(BatchParallelism::parse("outer:0"), None);
        assert_eq!(BatchParallelism::parse("sideways"), None);
        assert_eq!(BatchParallelism::parse("inner:x"), None);
    }

    #[test]
    fn outer_modes_fan_out_with_serial_solves() {
        assert_eq!(BatchParallelism::Outer.outer(), Parallelism::Rayon);
        assert_eq!(BatchParallelism::Outer.instance(), Parallelism::Serial);
        assert_eq!(
            BatchParallelism::InnerThreads(3).instance(),
            Parallelism::RayonThreads(3)
        );
        assert_eq!(
            BatchParallelism::InnerThreads(3).outer(),
            Parallelism::Serial
        );
    }
}
