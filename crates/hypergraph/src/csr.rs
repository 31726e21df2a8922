//! Compressed sparse adjacency over dense `u32` ids.
//!
//! The worklist satisfaction DP of Algorithm 1 (and the preference DP of
//! Algorithm 2) is dependency-driven: a block only needs rechecking when
//! one of its child blocks newly becomes satisfied. The child→parents
//! reverse index that drives those rechecks — and the per-block viable
//! candidate tables next to it — are plain CSR structures: one flat data
//! vector plus an offsets vector, built once per instance and probed with
//! two loads per row. [`Csr`] is that substrate, shared by the solver
//! crate so every DP wires its dependencies the same way.

/// An immutable adjacency from `0..n` to lists of `u32` targets.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    data: Vec<u32>,
}

impl Csr {
    /// Builds the adjacency from `(source, target)` pairs. Pairs are
    /// sorted and deduplicated, so rows come out ascending and
    /// duplicate-free regardless of insertion order.
    pub fn from_pairs(n: usize, mut pairs: Vec<(u32, u32)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut data = Vec::with_capacity(pairs.len());
        offsets.push(0);
        let mut row = 0u32;
        for (s, t) in pairs {
            debug_assert!((s as usize) < n, "source out of range");
            while row < s {
                offsets.push(data.len() as u32);
                row += 1;
            }
            data.push(t);
        }
        while offsets.len() <= n {
            offsets.push(data.len() as u32);
        }
        Csr { offsets, data }
    }

    /// Assembles the adjacency directly from its offsets and data
    /// vectors. This is the counting-sort construction path: call sites
    /// that already know every row's size (two passes over their source
    /// structure) build `offsets` by prefix sum and scatter into `data`,
    /// skipping `from_pairs`' materialise-sort-dedup entirely. Rows keep
    /// the caller's scatter order and may contain duplicates; the
    /// worklist consumers tolerate both (a duplicate recheck is a no-op).
    pub fn from_parts(offsets: Vec<u32>, data: Vec<u32>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.first().expect("non-empty") as usize, 0);
        debug_assert_eq!(*offsets.last().expect("non-empty") as usize, data.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Csr { offsets, data }
    }

    /// Counting-scatter construction from a re-iterable `(source, target)`
    /// pair stream: one pass counts row sizes, a prefix sum builds the
    /// offsets, a second pass scatters the targets. Rows keep the
    /// stream's order (sources emitted in ascending order give ascending
    /// rows) and are *not* deduplicated — see [`Csr::from_parts`] for the
    /// duplicate-tolerance contract.
    pub fn from_counts(n: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for (s, _) in pairs.clone() {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut data = vec![0u32; *offsets.last().expect("n + 1 offsets") as usize];
        for (s, t) in pairs {
            data[cursor[s as usize] as usize] = t;
            cursor[s as usize] += 1;
        }
        Self::from_parts(offsets, data)
    }

    /// Number of source rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.data.len()
    }

    /// True iff the adjacency has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The targets of row `i`, ascending and duplicate-free.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_sorted_and_deduped() {
        let csr = Csr::from_pairs(4, vec![(2, 7), (0, 3), (2, 1), (2, 7), (0, 3)]);
        assert_eq!(csr.num_rows(), 4);
        assert_eq!(csr.row(0), &[3]);
        assert_eq!(csr.row(1), &[] as &[u32]);
        assert_eq!(csr.row(2), &[1, 7]);
        assert_eq!(csr.row(3), &[] as &[u32]);
        assert_eq!(csr.num_edges(), 3);
    }

    #[test]
    fn from_counts_matches_from_pairs_up_to_order() {
        let pairs = [(2u32, 7u32), (0, 3), (2, 1), (1, 9)];
        let counted = Csr::from_counts(4, pairs.iter().copied());
        let sorted = Csr::from_pairs(4, pairs.to_vec());
        for i in 0..4 {
            let mut row = counted.row(i).to_vec();
            row.sort_unstable();
            assert_eq!(row, sorted.row(i));
        }
    }

    #[test]
    fn from_parts_round_trips() {
        let csr = Csr::from_parts(vec![0, 2, 2, 3], vec![5, 1, 9]);
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.row(0), &[5, 1]);
        assert_eq!(csr.row(1), &[] as &[u32]);
        assert_eq!(csr.row(2), &[9]);
    }

    #[test]
    fn empty_and_trailing_rows() {
        let csr = Csr::from_pairs(3, Vec::new());
        assert_eq!(csr.num_rows(), 3);
        assert!(csr.is_empty());
        for i in 0..3 {
            assert!(csr.row(i).is_empty());
        }
    }
}
