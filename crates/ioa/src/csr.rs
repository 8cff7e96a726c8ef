//! Flat CSR (compressed sparse row) adjacency storage for explored
//! graphs.
//!
//! [`ExploredGraph`](crate::explore::ExploredGraph) used to keep one
//! heap-allocated `Vec` of edges per interned state; every downstream
//! sweep (valence census, hook search, witness scans) then chased one
//! pointer per state. A [`Csr`] stores all edges in a single contiguous
//! array plus a `u32` offset table, so a whole-graph sweep is one linear
//! walk and `successors(id)` is a two-load slice.
//!
//! The BFS explorer emits edges grouped by source, with sources in
//! strictly increasing [`StateId`](crate::store::StateId) order: it
//! expands (and therefore closes) one source at a time. That is exactly
//! the order CSR rows are laid out in, so the structure is built
//! incrementally with [`Csr::push`]/[`Csr::close_row`] and no
//! post-exploration repacking pass.
//!
//! [`Csr::reversed`] materializes the transposed adjacency (a
//! counting-sort scatter): the reverse edges that let valence
//! propagation run *backward* from deciding states instead of
//! re-walking forward reachability.

/// A compressed-sparse-row table: `rows()` rows of entries stored
/// contiguously, with `row(i)` a slice view.
///
/// Rows are built strictly left to right: [`Csr::push`] appends to the
/// currently open row, [`Csr::close_row`] seals it. Offsets are `u32`,
/// bounding the table at `u32::MAX` entries (checked) — the same bound
/// the `StateId` arena already imposes on node counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<E> {
    /// `offsets[i]..offsets[i + 1]` spans row `i`; `offsets[0] == 0`.
    offsets: Vec<u32>,
    entries: Vec<E>,
}

impl<E> Default for Csr<E> {
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            entries: Vec::new(),
        }
    }
}

impl<E> Csr<E> {
    /// An empty table with zero closed rows.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry to the currently open row.
    ///
    /// # Panics
    /// Panics if the table already holds `u32::MAX` entries.
    #[inline]
    pub fn push(&mut self, e: E) {
        assert!(
            self.entries.len() < u32::MAX as usize,
            "CSR entry count exceeds the u32 offset space"
        );
        self.entries.push(e);
    }

    /// Seal the currently open row and open the next one.
    #[inline]
    pub fn close_row(&mut self) {
        // The push guard keeps entries.len() <= u32::MAX.
        #[allow(clippy::cast_possible_truncation)]
        self.offsets.push(self.entries.len() as u32);
    }

    /// Number of closed rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total entries across all rows (open row included).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// The entries of closed row `i`.
    ///
    /// # Panics
    /// Panics if `i` is not a closed row.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> &[E] {
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate `(row, &entry)` over every entry of every closed row.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &E)> {
        (0..self.rows()).flat_map(move |r| self.row(r).iter().map(move |e| (r, e)))
    }

    /// The transposed table: entry `e` in row `r` contributes
    /// `value_of(r, &e)` to row `target_of(&e)` of the result, which has
    /// `self.rows()` rows. Within a reversed row, entries appear in
    /// `(source row, position)` order — deterministic, so reverse sweeps
    /// are as reproducible as forward ones.
    ///
    /// Built by counting sort: one pass to count in-degrees, a prefix
    /// sum, one scatter pass. O(rows + entries), no per-row allocation.
    ///
    /// # Panics
    /// Panics if some `target_of` value is not a valid row index.
    #[must_use]
    pub fn reversed<T, F, G>(&self, target_of: F, value_of: G) -> Csr<T>
    where
        F: Fn(&E) -> usize,
        G: Fn(usize, &E) -> T,
    {
        let n = self.rows();
        let mut counts = vec![0u32; n];
        for (_, e) in self.iter() {
            counts[target_of(e)] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for c in &counts {
            acc += c;
            offsets.push(acc);
        }
        // Scatter into place, reusing `counts` as per-row fill cursors.
        let mut entries: Vec<Option<T>> = (0..acc).map(|_| None).collect();
        counts.fill(0);
        for (r, e) in self.iter() {
            let t = target_of(e);
            let slot = offsets[t] + counts[t];
            counts[t] += 1;
            entries[slot as usize] = Some(value_of(r, e));
        }
        Csr {
            offsets,
            entries: entries
                .into_iter()
                .map(|v| v.expect("every CSR slot filled by the scatter pass"))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<u32> {
        // Row 0: [10, 11]; row 1: []; row 2: [12].
        let mut c = Csr::new();
        c.push(10);
        c.push(11);
        c.close_row();
        c.close_row();
        c.push(12);
        c.close_row();
        c
    }

    #[test]
    fn rows_and_slices() {
        let c = sample();
        assert_eq!(c.rows(), 3);
        assert_eq!(c.entry_count(), 3);
        assert_eq!(c.row(0), &[10, 11]);
        assert_eq!(c.row(1), &[] as &[u32]);
        assert_eq!(c.row(2), &[12]);
    }

    #[test]
    fn iter_pairs_rows_with_entries() {
        let c = sample();
        let pairs: Vec<(usize, u32)> = c.iter().map(|(r, &e)| (r, e)).collect();
        assert_eq!(pairs, vec![(0, 10), (0, 11), (2, 12)]);
    }

    #[test]
    fn reversed_is_the_transpose_in_source_order() {
        // Edges (source -> target): 0->1, 0->2, 1->0, 2->1.
        let mut c: Csr<usize> = Csr::new();
        c.push(1);
        c.push(2);
        c.close_row();
        c.push(0);
        c.close_row();
        c.push(1);
        c.close_row();
        let rev = c.reversed(|&t| t, |src, _| src);
        assert_eq!(rev.rows(), 3);
        assert_eq!(rev.row(0), &[1]); // 1 -> 0
        assert_eq!(rev.row(1), &[0, 2]); // 0 -> 1, 2 -> 1 (source order)
        assert_eq!(rev.row(2), &[0]); // 0 -> 2
    }

    #[test]
    fn reversed_of_empty_rows() {
        let mut c: Csr<usize> = Csr::new();
        c.close_row();
        c.close_row();
        let rev = c.reversed(|&t| t, |src, _| src);
        assert_eq!(rev.rows(), 2);
        assert_eq!(rev.entry_count(), 0);
    }

    #[test]
    fn default_is_empty() {
        let c: Csr<u8> = Csr::default();
        assert_eq!(c.rows(), 0);
        assert_eq!(c.entry_count(), 0);
    }
}
