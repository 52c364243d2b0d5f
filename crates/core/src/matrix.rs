//! Traceback storage for the DP kernels that recover a warping path.
//!
//! Distance-only kernels in this crate use rolling rows (or diagonals) and
//! never touch this type; the `with_path` variants, full DTW's included,
//! store one byte of traceback direction per *admissible* cell. The storage
//! is compacted to the window (`O(window cells)`, not `O(n·m)`), which is
//! what lets `cDTW` on `N = 24,000` series (the paper's Case B) run in a few
//! megabytes instead of four gigabytes.

use crate::path::Direction;
use crate::window::SearchWindow;

/// Traceback directions stored compactly over the cells of a
/// [`SearchWindow`].
///
/// Cell `(i, j)` with `j` inside row `i`'s window interval lives at
/// `row_offset[i] + (j - lo[i])`.
#[derive(Debug, Clone)]
pub struct WindowedDirections {
    row_offsets: Vec<usize>,
    row_lo: Vec<usize>,
    data: Vec<u8>,
}

impl WindowedDirections {
    /// Allocates traceback storage for every admissible cell of `window`,
    /// initialized to [`Direction::Unreached`].
    pub fn for_window(window: &SearchWindow) -> Self {
        let n_rows = window.n_rows();
        let mut row_offsets = Vec::with_capacity(n_rows);
        let mut row_lo = Vec::with_capacity(n_rows);
        let mut total = 0usize;
        for i in 0..n_rows {
            let (lo, hi) = window.row_bounds(i);
            row_offsets.push(total);
            row_lo.push(lo);
            total += hi - lo + 1;
        }
        WindowedDirections {
            row_offsets,
            row_lo,
            data: vec![Direction::Unreached as u8; total],
        }
    }

    /// Records the direction for cell `(i, j)`. The cell must be admissible.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, d: Direction) {
        let idx = self.row_offsets[i] + (j - self.row_lo[i]);
        self.data[idx] = d as u8;
    }

    /// Row `i`'s direction bytes, one per admissible column from `lo[i]`
    /// on: the path sweep writes a row through this slice rather than
    /// through [`set`](Self::set)'s per-cell offset arithmetic.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [u8] {
        let start = self.row_offsets[i];
        let end = self
            .row_offsets
            .get(i + 1)
            .copied()
            .unwrap_or(self.data.len());
        &mut self.data[start..end]
    }

    /// Reads the direction for cell `(i, j)`. The cell must be admissible.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Direction {
        let idx = self.row_offsets[i] + (j - self.row_lo[i]);
        Direction::from_u8(self.data[idx])
    }

    /// Walks the direction plane from `(n-1, m-1)` back to `(0, 0)` and
    /// returns the path cells in forward order.
    ///
    /// Panics (in debug) if the plane contains an `Unreached` cell on the
    /// walk — that would be a kernel bug, not a user error.
    pub fn traceback(&self, end: (usize, usize)) -> Vec<(usize, usize)> {
        let (mut i, mut j) = end;
        let mut cells = Vec::with_capacity(i + j + 1);
        loop {
            cells.push((i, j));
            if i == 0 && j == 0 {
                break;
            }
            match self.get(i, j) {
                Direction::Diagonal => {
                    i -= 1;
                    j -= 1;
                }
                Direction::Up => i -= 1,
                Direction::Left => j -= 1,
                Direction::Unreached => {
                    debug_assert!(false, "traceback hit unreached cell ({i}, {j})");
                    break;
                }
            }
        }
        cells.reverse();
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_directions_compact_storage() {
        let w = SearchWindow::from_bounds(4, vec![0, 0, 1, 2], vec![1, 2, 3, 3]).unwrap();
        let d = WindowedDirections::for_window(&w);
        assert_eq!(d.data.len(), w.cell_count());
    }

    #[test]
    fn traceback_follows_directions() {
        let w = SearchWindow::full(3, 3);
        let mut d = WindowedDirections::for_window(&w);
        // Path (0,0) -> (0,1) -> (1,2) -> (2,2).
        d.set(0, 1, Direction::Left);
        d.set(1, 2, Direction::Diagonal);
        d.set(2, 2, Direction::Up);
        assert_eq!(d.traceback((2, 2)), vec![(0, 0), (0, 1), (1, 2), (2, 2)]);
    }

    #[test]
    fn row_slices_address_the_same_cells_as_set() {
        let w = SearchWindow::from_bounds(4, vec![0, 0, 1, 2], vec![1, 2, 3, 3]).unwrap();
        let mut d = WindowedDirections::for_window(&w);
        for i in 0..w.n_rows() {
            let (lo, hi) = w.row_bounds(i);
            let row = d.row_mut(i);
            assert_eq!(row.len(), hi - lo + 1);
            row[hi - lo] = Direction::Up as u8;
            assert_eq!(d.get(i, hi), Direction::Up);
            assert_eq!(d.get(i, lo) == Direction::Unreached, lo != hi);
        }
    }
}
