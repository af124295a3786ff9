//! Typed errors for API-boundary validation.
//!
//! The query entries accept a floating-point threshold and
//! user-supplied query graphs; a NaN threshold or an infinite edge
//! weight would otherwise propagate silently through the funnel (NaN
//! comparisons are all-false, so pruning decisions become arbitrary).
//! [`PisSearcher::search`](crate::PisSearcher::search) and
//! [`PisSearcher::knn`](crate::PisSearcher::knn) always reject such
//! inputs up front with a [`QueryError`] instead.

use std::fmt;

use pis_graph::LabeledGraph;

/// A query rejected at the API boundary before any search work ran.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryError {
    /// The threshold `σ` must be finite and non-negative.
    InvalidSigma(f64),
    /// A query vertex or edge carries a non-finite weight.
    NonFiniteQueryWeight,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::InvalidSigma(sigma) => {
                write!(f, "invalid sigma {sigma}: must be finite and non-negative")
            }
            QueryError::NonFiniteQueryWeight => {
                write!(f, "query graph carries a non-finite vertex or edge weight")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Validates the query graph's weights.
pub(crate) fn validate_query(query: &LabeledGraph) -> Result<(), QueryError> {
    let vertex_weights =
        (0..query.vertex_count()).map(|v| query.vertex(pis_graph::VertexId(v as u32)).weight);
    let edge_weights = query.edges().iter().map(|e| e.attr.weight);
    if vertex_weights.chain(edge_weights).any(|w| !w.is_finite()) {
        return Err(QueryError::NonFiniteQueryWeight);
    }
    Ok(())
}

/// Validates a range-query threshold.
pub(crate) fn validate_sigma(sigma: f64) -> Result<(), QueryError> {
    if !sigma.is_finite() || sigma < 0.0 {
        return Err(QueryError::InvalidSigma(sigma));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_validation() {
        assert!(validate_sigma(0.0).is_ok());
        assert!(validate_sigma(3.5).is_ok());
        assert_eq!(validate_sigma(-1.0), Err(QueryError::InvalidSigma(-1.0)));
        assert!(matches!(validate_sigma(f64::NAN), Err(QueryError::InvalidSigma(_))));
        assert!(matches!(validate_sigma(f64::INFINITY), Err(QueryError::InvalidSigma(_))));
    }

    #[test]
    fn errors_render() {
        let e = QueryError::InvalidSigma(f64::NAN);
        assert!(e.to_string().contains("sigma"));
        assert!(QueryError::NonFiniteQueryWeight.to_string().contains("weight"));
    }
}
