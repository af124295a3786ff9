//! Evaluation datasets for PIS.
//!
//! The paper evaluates on 10 000 molecules sampled from the NCI/NIH AIDS
//! antiviral screen (avg 25 vertices / 27 edges, max 214/217, mostly
//! carbon atoms and carbon–carbon bonds). That file is not
//! redistributable here, so this crate provides:
//!
//! * [`generator`] — a synthetic molecule generator calibrated to the
//!   same size and label statistics (the substitution is documented in
//!   `DESIGN.md` §4.1); the difficulty driver the paper relies on — heavy
//!   structural redundancy with low label entropy — is preserved.
//! * [`sdf`] — a minimal MOL/SDF V2000 parser so a real screen file can
//!   be dropped in when available.
//! * [`query`] — query-set sampling: connected `m`-edge subgraphs drawn
//!   from database graphs, exactly how the paper builds `Q16`/`Q24`.
//! * [`stats`] — dataset statistics used to audit the calibration
//!   (experiment E0 in `DESIGN.md` §5).
//! * [`random`] — general Erdős–Rényi-style labeled graphs, used by the
//!   test suite to exercise the system away from the molecular
//!   distribution.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod chemistry;
pub mod generator;
pub mod query;
pub mod random;
pub mod sdf;
pub mod stats;

pub use chemistry::{AtomVocabulary, BondVocabulary};
pub use generator::{MoleculeConfig, MoleculeGenerator};
pub use query::sample_query_set;
pub use random::{random_database, RandomGraphConfig};
pub use stats::DatasetStats;
