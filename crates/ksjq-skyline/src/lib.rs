//! Single-relation skyline and *k*-dominant skyline algorithms.
//!
//! This crate is the substrate the KSJQ paper cites as prior work:
//!
//! * [`bnl`] — block-nested-loops skyline (Börzsönyi, Kossmann, Stocker,
//!   ICDE 2001): the original skyline operator.
//! * [`sfs`] — sort-filter-skyline (Chomicki et al., ICDE 2003): presort by
//!   a monotone score, then a single verification pass.
//! * [`kdominant`] — the *k*-dominant skyline algorithms of Chan et al.
//!   (SIGMOD 2006): exhaustive [`kdominant::naive`], the One-Scan Algorithm
//!   [`kdominant::osa`] and the Two-Scan Algorithm [`kdominant::tsa`],
//!   including a streaming two-scan variant that never materialises its
//!   input (used by the naïve KSJQ join path where the joined relation can
//!   exceed 10⁸ tuples).
//! * [`grouped`] — per-join-group k-dominant skylines (the SS/SN/NN
//!   classification itself lives in `ksjq-core` and scans prefix lists
//!   instead).
//!
//! All algorithms work over any [`RowAccess`] implementor. A
//! [`ksjq_relation::Relation`] stores its values attribute-major, so
//! callers gather its rows into a [`MatrixView`] first
//! ([`ksjq_relation::Relation::gather_rows`]).

pub mod bnl;
pub mod grouped;
pub mod kdominant;
pub mod sfs;

/// Read access to a set of fixed-arity rows addressed by `u32` ids.
///
/// Rows must be normalised (lower-is-better); see `ksjq-relation`.
pub trait RowAccess {
    /// Attribute count of every row.
    fn d(&self) -> usize;
    /// The attribute slice of row `id`.
    fn row(&self, id: u32) -> &[f64];
}

/// A flat row-major matrix view: gathered relation rows, materialised
/// joins, test fixtures.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    d: usize,
    data: &'a [f64],
}

impl<'a> MatrixView<'a> {
    /// View `data` as rows of `d` attributes.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` is not a multiple of `d`.
    pub fn new(d: usize, data: &'a [f64]) -> Self {
        assert!(d > 0, "MatrixView requires d > 0");
        assert_eq!(data.len() % d, 0, "data length must be a multiple of d");
        MatrixView { d, data }
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.data.len() / self.d
    }

    /// All row ids, `0..n`.
    pub fn ids(&self) -> Vec<u32> {
        (0..self.n() as u32).collect()
    }
}

impl RowAccess for MatrixView<'_> {
    #[inline]
    fn d(&self) -> usize {
        self.d
    }

    #[inline]
    fn row(&self, id: u32) -> &[f64] {
        let i = id as usize * self.d;
        &self.data[i..i + self.d]
    }
}

/// Which k-dominant skyline algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KdomAlgo {
    /// Exhaustive pairwise comparison; O(n²) but unbeatable on small inputs
    /// and the oracle for every other algorithm's tests.
    Naive,
    /// One-Scan Algorithm (Chan et al.).
    Osa,
    /// Two-Scan Algorithm (Chan et al.). The default: fastest when the
    /// skyline is small relative to the input.
    #[default]
    Tsa,
    /// Two-Scan Algorithm over an attribute-sum presort — often fewer
    /// scan-1 evictions; identical results (see [`kdominant::presort`]).
    TsaPresort,
}

impl std::fmt::Display for KdomAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KdomAlgo::Naive => write!(f, "naive"),
            KdomAlgo::Osa => write!(f, "osa"),
            KdomAlgo::Tsa => write!(f, "tsa"),
            KdomAlgo::TsaPresort => write!(f, "tsa-presort"),
        }
    }
}

impl std::str::FromStr for KdomAlgo {
    type Err = String;

    /// Parse a subroutine name. Round-trips with
    /// [`Display`](std::fmt::Display) (`"naive"`, `"osa"`, `"tsa"`,
    /// `"tsa-presort"`); also accepts the underscore spelling.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Ok(KdomAlgo::Naive),
            "osa" => Ok(KdomAlgo::Osa),
            "tsa" => Ok(KdomAlgo::Tsa),
            "tsa-presort" | "tsa_presort" => Ok(KdomAlgo::TsaPresort),
            _ => Err(format!(
                "unknown k-dominant skyline algorithm {s:?} (expected naive, osa, tsa or tsa-presort)"
            )),
        }
    }
}

/// Compute the k-dominant skyline of `members` (ids into `rows`) with the
/// chosen algorithm. Returns surviving ids in ascending order.
pub fn k_dominant_skyline<R: RowAccess>(
    rows: &R,
    members: &[u32],
    k: usize,
    algo: KdomAlgo,
) -> Vec<u32> {
    match algo {
        KdomAlgo::Naive => kdominant::naive::kdom_naive(rows, members, k),
        KdomAlgo::Osa => kdominant::osa::kdom_osa(rows, members, k),
        KdomAlgo::Tsa => kdominant::tsa::kdom_tsa(rows, members, k),
        KdomAlgo::TsaPresort => kdominant::presort::kdom_tsa_presorted(rows, members, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_view_basics() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = MatrixView::new(2, &data);
        assert_eq!(m.n(), 3);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.ids(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "multiple of d")]
    fn matrix_view_bad_len() {
        let data = [1.0, 2.0, 3.0];
        MatrixView::new(2, &data);
    }

    #[test]
    fn kdom_algo_from_str_roundtrips_display() {
        for algo in [
            KdomAlgo::Naive,
            KdomAlgo::Osa,
            KdomAlgo::Tsa,
            KdomAlgo::TsaPresort,
        ] {
            assert_eq!(algo.to_string().parse::<KdomAlgo>().unwrap(), algo);
        }
        assert_eq!("TSA".parse::<KdomAlgo>().unwrap(), KdomAlgo::Tsa);
        assert_eq!(
            "tsa_presort".parse::<KdomAlgo>().unwrap(),
            KdomAlgo::TsaPresort
        );
        assert!("two-scan".parse::<KdomAlgo>().is_err());
    }
}
