//! Compressed sparse adjacency over dense `u32` ids: one flat data
//! vector plus an offsets vector, built in one counting scatter and
//! probed with two loads per row.
//!
//! Its solver user is the frontier-wave driver of Algorithm 2 under a
//! ranked evaluator (`softhw_core::ctd`), where a block's value can
//! improve after it took one: the driver builds a child → comp groups →
//! blocks reverse index out of two [`Csr`]s and re-asks a block only
//! when a child's value changed. Algorithm 1 needs none: it settles
//! every block in one pass in dependency order.

/// An immutable adjacency from `0..n` to lists of `u32` targets.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    data: Vec<u32>,
}

impl Csr {
    /// Builds the adjacency from a re-iterable `(source, target)` pair
    /// stream: one pass counts row sizes, a prefix sum builds the
    /// offsets, a second pass scatters the targets. Rows keep the
    /// stream's order and are *not* deduplicated; the wave driver
    /// tolerates both (a duplicate recheck is a no-op).
    pub fn from_counts(n: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for (s, _) in pairs.clone() {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut data = vec![0u32; offsets[n] as usize];
        for (s, t) in pairs {
            data[cursor[s as usize] as usize] = t;
            cursor[s as usize] += 1;
        }
        Csr { offsets, data }
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

    /// The targets of row `i`, in the order the pairs listed them.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_the_stream_order_and_its_duplicates() {
        let pairs = [(2u32, 7u32), (0, 3), (2, 1), (2, 7), (1, 9)];
        let csr = Csr::from_counts(4, pairs.iter().copied());
        assert_eq!(csr.num_rows(), 4);
        assert_eq!(csr.row(0), &[3]);
        assert_eq!(csr.row(1), &[9]);
        assert_eq!(csr.row(2), &[7, 1, 7]);
        assert_eq!(csr.row(3), &[] as &[u32]);
        assert_eq!(csr.num_edges(), 5);
    }

    #[test]
    fn empty_and_trailing_rows() {
        let csr = Csr::from_counts(3, std::iter::empty());
        assert_eq!(csr.num_rows(), 3);
        assert!(csr.is_empty());
        for i in 0..3 {
            assert!(csr.row(i).is_empty());
        }
    }
}
