//! Packed bit rows: the representation of every per-function and per-loop
//! set this crate computes over globals, locals or functions.

/// A table of equal-width bit rows, each packed into `u64` words and
/// stored row after row in one allocation. Row `r`, column `c` is bit
/// `c % 64` of word `r * words + c / 64`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitRows {
    rows: usize,
    width: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    /// `rows` empty rows of `width` bits each.
    pub fn new(rows: usize, width: usize) -> BitRows {
        let words = width.div_ceil(64);
        BitRows {
            rows,
            width,
            words,
            bits: vec![0; rows * words],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bits per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `row` as packed words.
    pub fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..(row + 1) * self.words]
    }

    /// Whether bit `col` of row `row` is set.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.words + col / 64] >> (col % 64) & 1 == 1
    }

    /// Set bit `col` of row `row`.
    pub fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words + col / 64] |= 1 << (col % 64);
    }

    /// Whether row `row` has any bit set.
    pub fn any(&self, row: usize) -> bool {
        self.row(row).iter().any(|&w| w != 0)
    }

    /// The set columns of row `row`, ascending.
    pub fn ones(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(row).iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    wi * 64 + bit
                })
            })
        })
    }

    /// OR row `src` into row `dst`; returns whether `dst` gained a bit.
    pub fn or_row(&mut self, dst: usize, src: usize) -> bool {
        if dst == src {
            return false;
        }
        let w = self.words;
        let (to, from) = if dst < src {
            let (lo, hi) = self.bits.split_at_mut(src * w);
            (&mut lo[dst * w..(dst + 1) * w], &hi[..w])
        } else {
            let (lo, hi) = self.bits.split_at_mut(dst * w);
            (&mut hi[..w], &lo[src * w..(src + 1) * w])
        };
        or_words(to, from)
    }

    /// OR `src`, a row of another table of the same width, into row `dst`.
    pub fn or_from(&mut self, dst: usize, src: &[u64]) -> bool {
        let w = self.words;
        or_words(&mut self.bits[dst * w..(dst + 1) * w], src)
    }

    /// Heap bytes held by the table.
    pub fn heap_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
    }
}

/// OR `from` into `to` word by word; returns whether `to` gained a bit.
fn or_words(to: &mut [u64], from: &[u64]) -> bool {
    let mut gained = 0;
    for (t, &f) in to.iter_mut().zip(from) {
        gained |= f & !*t;
        *t |= f;
    }
    gained != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_set_get_and_list_their_columns() {
        let mut t = BitRows::new(3, 130);
        for c in [0, 63, 64, 129] {
            t.set(1, c);
        }
        assert!(t.get(1, 64) && !t.get(1, 65) && !t.get(0, 0));
        assert_eq!(t.ones(1).collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert!(t.any(1) && !t.any(0) && !t.any(2));
    }

    #[test]
    fn or_row_reports_only_new_bits_in_either_direction() {
        let mut t = BitRows::new(3, 70);
        t.set(0, 3);
        t.set(2, 69);
        assert!(t.or_row(2, 0));
        assert!(!t.or_row(2, 0), "nothing new the second time");
        assert!(t.or_row(0, 2));
        assert_eq!(t.ones(0).collect::<Vec<_>>(), vec![3, 69]);
        assert!(!t.or_row(1, 1));
        let other = t.row(0).to_vec();
        assert!(t.or_from(1, &other));
        assert_eq!(t.row(1), t.row(0));
    }

    #[test]
    fn zero_width_rows_are_empty() {
        let t = BitRows::new(4, 0);
        assert_eq!(t.rows(), 4);
        assert!(t.row(3).is_empty() && !t.any(2));
        assert_eq!(t.ones(0).count(), 0);
    }
}
