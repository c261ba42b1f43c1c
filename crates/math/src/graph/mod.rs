//! Graph algorithms used by architecture construction, tiling and
//! decoding.
//!
//! * [`matching`] — exact blossom maximum-weight matching and
//!   minimum-weight perfect matching.
//! * [`two_coloring`] — bipartiteness test used to 2-color hyperbolic
//!   tilings when building color codes.

mod bipartite;
pub mod matching;

pub use bipartite::two_coloring;
