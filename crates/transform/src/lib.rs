//! Graph-level transformations for low-power ASIC implementation (§5).
//!
//! The paper's ASIC strategy is a transformation *script*:
//!
//! 1. **unfold** the linear computation `n` times ([`lintra_linsys::unfold`]),
//! 2. restructure the unfolded equations with the **generalized Horner
//!    scheme** ([`horner::HornerForm`], Fig. 3 of the paper) so each extra
//!    unfolding costs only a bounded number of matrix operations and the
//!    only cross-iteration cycle is the precomputed `A^n·S` product,
//! 3. replace all constant multiplications by shared shift-add networks via
//!    **MCM iterative pairwise matching**
//!    ([`mcm_pass::expand_multiplications`], grouping multiplications by the
//!    variable they share — in graph terms, by predecessor node).
//!
//! The feed-forward pipelining pass ([`pipeline::insert_registers`])
//! realizes the §5 "arbitrary number of pipeline delays in the
//! non-recursive part".

pub mod horner;
pub mod mcm_pass;
pub mod pipeline;
