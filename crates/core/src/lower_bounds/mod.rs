//! Lower bounds for constrained DTW, and the pruning cascade built on them.
//!
//! These are the "ideas that can only be applied to cDTW" of the paper's
//! Section 3.4: cheap functions `lb(q, c) ≤ cDTW_w(q, c)` that let repeated-
//! measurement workloads (nearest neighbor search, 1-NN classification)
//! discard most candidates without running the dynamic program at all.
//! FastDTW admits no such bounds — its output is not a metric-bounded
//! quantity — which is one structural reason the exact pipeline wins by
//! orders of magnitude in realistic, repeated-use settings.
//!
//! All bounds here are stated in the **squared-difference accumulated cost**
//! domain (the crate default [`SquaredCost`](crate::cost::SquaredCost) with
//! identity finish), the same convention as the UCR suite. Inputs are
//! assumed z-normalized when that matters for tightness, but every bound is
//! mathematically valid for raw series too.
//!
//! * [`kim`] — LB_Kim: O(1)-ish bound from boundary points, with its tier
//!   arithmetic in one function over the points it reads.
//! * [`keogh`] — LB_Keogh: O(n) bound from the band envelope, with early
//!   abandoning and reordered-early-abandoning variants (the latter also
//!   generic over how a candidate value is read).
//! * [`improved`] — LB_Improved (Lemire 2009): a tighter two-pass bound.
//! * [`cascade`] — the UCR-suite ordering of the above plus early-abandoning
//!   DTW, packaged for reuse by search and classification.

pub mod cascade;
pub mod improved;
pub mod keogh;
pub mod kim;
pub mod yi;

pub use cascade::{Cascade, CascadeOutcome, PruneStage};
pub use improved::lb_improved;
pub use keogh::{lb_keogh, lb_keogh_ea, lb_keogh_reordered, lb_keogh_with_contrib, suffix_sums};
pub use kim::{lb_kim_fl, lb_kim_hierarchy};
pub use yi::{lb_yi, lb_yi_symmetric};
