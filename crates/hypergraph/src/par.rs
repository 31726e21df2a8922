//! Deterministic parallel map over index ranges.
//!
//! The two embarrassingly parallel hot loops of the framework — λ-union
//! enumeration in candidate-bag generation and per-block base checks in
//! Algorithm 1 — fan out over a dense index range, and their results are
//! merged in index order so the output is identical to the serial run.
//!
//! The `parallel` cargo feature enables a `std::thread::scope` based
//! implementation (the build environment carries no rayon; a thread-per-
//! chunk scoped fan-out is all these regular workloads need). Without the
//! feature the same API runs serially, so call sites are written once.

/// Maps `f` over `0..n`, returning results in index order.
///
/// With the `parallel` feature and `n` large enough, the range is split
/// into one contiguous chunk per available core and mapped on scoped
/// threads; otherwise it runs serially. `f` must be pure w.r.t. the
/// index for the output to be deterministic — the merge preserves index
/// order either way.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    #[cfg(feature = "parallel")]
    {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n.max(1));
        // Small ranges are not worth the spawn overhead.
        if threads > 1 && n >= 2 * threads {
            let chunk = n.div_ceil(threads);
            let mut out: Vec<Vec<R>> = Vec::new();
            std::thread::scope(|s| {
                let mut handles = Vec::with_capacity(threads);
                for t in 0..threads {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    let f = &f;
                    handles.push(s.spawn(move || (lo..hi).map(f).collect::<Vec<R>>()));
                }
                for h in handles {
                    out.push(h.join().expect("par_map worker panicked"));
                }
            });
            return out.into_iter().flatten().collect();
        }
    }
    (0..n).map(f).collect()
}

/// True iff this build runs [`par_map`] on threads.
pub fn parallel_enabled() -> bool {
    cfg!(feature = "parallel")
}

/// Number of workers a fan-out should target: the available parallelism
/// under the `parallel` feature, `1` otherwise.
pub fn num_workers() -> usize {
    if cfg!(feature = "parallel") {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        1
    }
}

/// Maps `f` over `workers` contiguous chunks of `0..n`, returning the
/// per-chunk results in chunk order. With the `parallel` feature each
/// chunk runs on its own scoped thread; otherwise the chunks run
/// serially. Deterministic either way when `f` is pure.
pub fn par_chunks<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    let chunk = n.div_ceil(workers);
    let ranges: Vec<std::ops::Range<usize>> = (0..workers)
        .map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n))
        .collect();
    #[cfg(feature = "parallel")]
    {
        if workers > 1 {
            let mut out: Vec<R> = Vec::with_capacity(workers);
            std::thread::scope(|s| {
                let mut handles = Vec::with_capacity(workers);
                for r in ranges.iter().cloned() {
                    let f = &f;
                    handles.push(s.spawn(move || f(r)));
                }
                for h in handles {
                    out.push(h.join().expect("par_chunks worker panicked"));
                }
            });
            return out;
        }
    }
    ranges.into_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        let out = par_map(1000, |i| i * 3);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
    }
}
