//! Clustering under DTW-family distances.
//!
//! * [`hierarchical`] — agglomerative clustering and dendrograms (used by
//!   the Fig. 7 reproduction).

pub mod hierarchical;

pub use hierarchical::{agglomerative, Dendrogram, Linkage, Merge};
