//! Property-based well-formedness of recorded span forests.
//!
//! Any solve run under a [`SpanProfiler`] must yield a structurally sound
//! span tree, regardless of kernel, parallel mode, or storage backend:
//!
//! * unique span ids, every non-root parent id present in the forest;
//! * monotone timestamps (`start <= end`) and proper nesting — a child's
//!   interval is contained in its parent's interval, including leaves
//!   timed off-thread on workers and replayed serially;
//! * kind discipline: epochs hang off the solve root, passes and checks
//!   off epochs, shard leaves off passes;
//! * counter conservation: a parent's subtree counters dominate the sum
//!   of its children's subtree counters (the profiler folds child work
//!   into parents, so the inequality must hold exactly).

#[path = "common/generator.rs"]
mod generator;

use proptest::prelude::*;
use sea_core::{
    solve_bounded_supervised, solve_diagonal_observed, DiagonalProblem, KernelCounters, KernelKind,
    Parallelism, SeaOptions, SpanKind, SpanProfiler, SpanRecord, SupervisorOptions,
};
use sea_linalg::CsrMatrix;

fn kernel_of(k: u8) -> KernelKind {
    if k == 0 {
        KernelKind::SortScan
    } else {
        KernelKind::Quickselect
    }
}

fn par_of(p: u8) -> Parallelism {
    if p == 0 {
        Parallelism::Serial
    } else {
        Parallelism::RayonThreads(2)
    }
}

/// Sum two counter sets field-wise (KernelCounters::merged is additive).
fn merge(a: KernelCounters, b: &KernelCounters) -> KernelCounters {
    a.merged(*b)
}

fn check_well_formed(spans: &[SpanRecord], tag: &str) -> Result<(), String> {
    prop_assert!(!spans.is_empty(), "{tag}: no spans recorded");
    let mut ids = std::collections::HashSet::with_capacity(spans.len());
    for s in spans {
        prop_assert!(ids.insert(s.id), "{tag}: duplicate span id {}", s.id);
        prop_assert!(
            s.start_ns <= s.end_ns,
            "{tag}: span {} ({:?}) runs backwards: {}..{}",
            s.id,
            s.kind,
            s.start_ns,
            s.end_ns
        );
    }
    let by_id: std::collections::HashMap<u32, &SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();

    let mut roots = 0usize;
    let mut child_sums: std::collections::HashMap<u32, KernelCounters> =
        std::collections::HashMap::new();
    for s in spans {
        if s.parent == SpanRecord::NO_PARENT {
            roots += 1;
            prop_assert_eq!(
                s.kind,
                SpanKind::Solve,
                "{}: root span must be the solve",
                tag
            );
            continue;
        }
        let p = by_id.get(&s.parent);
        prop_assert!(
            p.is_some(),
            "{tag}: span {} ({:?}) has unknown parent {}",
            s.id,
            s.kind,
            s.parent
        );
        let p = p.expect("checked above");
        prop_assert!(
            p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
            "{tag}: span {} ({:?}) [{}, {}] escapes parent {} ({:?}) [{}, {}]",
            s.id,
            s.kind,
            s.start_ns,
            s.end_ns,
            p.id,
            p.kind,
            p.start_ns,
            p.end_ns
        );
        let parent_ok = match s.kind {
            SpanKind::Epoch => p.kind == SpanKind::Solve,
            SpanKind::RowPass | SpanKind::ColPass | SpanKind::Check | SpanKind::Projection => {
                p.kind == SpanKind::Epoch
            }
            SpanKind::Shard => matches!(p.kind, SpanKind::RowPass | SpanKind::ColPass),
            // Batch framing never appears in a plain diagonal solve; the
            // solve root was handled before the parent lookup.
            SpanKind::Solve | SpanKind::Batch | SpanKind::Instance => false,
        };
        prop_assert!(
            parent_ok,
            "{tag}: {:?} span nested under {:?}",
            s.kind,
            p.kind
        );
        let entry = child_sums.entry(s.parent).or_default();
        *entry = merge(*entry, &s.counters);
    }
    prop_assert_eq!(roots, 1, "{}: expected exactly one solve root", tag);

    // Counter conservation: subtree totals dominate the children's sum.
    for (parent_id, sum) in &child_sums {
        let p = by_id[parent_id];
        prop_assert!(
            p.counters.dominates(*sum),
            "{tag}: parent {} ({:?}) counters {:?} dominated by children sum {:?}",
            p.id,
            p.kind,
            p.counters,
            sum
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn span_forests_are_well_formed(
        seed in 0u64..1 << 48,
        m in 2usize..6,
        n in 2usize..6,
        k in 0u8..2,
        par in 0u8..2,
        sparse_sel in 0u8..2,
    ) {
        let sparse = sparse_sel == 1;
        let p = match generator::try_fixed_diagonal(seed, m, n, 3, 1.0) {
            Ok(p) => p,
            Err(_) => return Ok(()), // typed construction error: no tree to check
        };
        let mut o = SeaOptions::with_epsilon(1e-8);
        o.epsilon = -1.0; // unattainable: force a multi-epoch tree
        o.max_iterations = 12;
        o.kernel = kernel_of(k);
        o.parallelism = par_of(par);
        let tag = format!("seed={seed} {m}x{n} k={k} par={par} sparse={sparse}");

        let mut profiler = SpanProfiler::new();
        let solved = if sparse {
            let sp = DiagonalProblem::<CsrMatrix>::from_dense_problem(&p)
                .expect("CSR lift of a valid dense problem");
            solve_diagonal_observed(&sp, &o, &mut profiler).is_ok()
        } else {
            solve_diagonal_observed(&p, &o, &mut profiler).is_ok()
        };
        if !solved {
            return Ok(()); // typed numerical breakdown: tree may be truncated
        }
        prop_assert_eq!(profiler.dropped(), 0, "{}: tiny solve overflowed the ring", &tag);
        check_well_formed(&profiler.spans(), &tag)?;
    }

    /// The bounded driver shares the epoch loop and the sharded passes, so
    /// its span forests obey the same discipline.
    #[test]
    fn bounded_span_forests_are_well_formed(
        seed in 0u64..1 << 48,
        m in 2usize..6,
        n in 2usize..6,
        k in 0u8..2,
        par in 0u8..2,
        sparse_sel in 0u8..2,
        block in 1usize..4,
    ) {
        let sparse = sparse_sel == 1;
        let mut o = SeaOptions::with_epsilon(-1.0); // unattainable: multi-epoch tree
        o.max_iterations = 12;
        o.kernel = kernel_of(k);
        o.parallelism = par_of(par);
        o.block_size = Some(block);
        let tag = format!("bounded seed={seed} {m}x{n} k={k} par={par} sparse={sparse}");
        let sup = SupervisorOptions::default();

        let mut profiler = SpanProfiler::new();
        let solved = if sparse {
            let p = generator::sparse_bounded(seed, m, n, 1);
            solve_bounded_supervised(&p, &o, &sup, &mut profiler).is_ok()
        } else {
            match generator::try_bounded(seed, m, n, 3, 1.0) {
                Ok(p) => solve_bounded_supervised(&p, &o, &sup, &mut profiler).is_ok(),
                Err(_) => return Ok(()), // typed construction error: no tree
            }
        };
        if !solved {
            return Ok(()); // typed failure: tree may be truncated
        }
        prop_assert_eq!(profiler.dropped(), 0, "{}: tiny solve overflowed the ring", &tag);
        let spans = profiler.spans();
        prop_assert!(
            spans.iter().filter(|s| s.kind == SpanKind::Epoch).count() == 12,
            "{}: expected 12 epochs",
            &tag
        );
        check_well_formed(&spans, &tag)?;
    }
}
