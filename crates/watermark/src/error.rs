//! Error type for the watermarking agent.

use crate::voting::VotingError;
use medshield_dht::DhtError;
use medshield_relation::RelationError;

/// Errors raised while embedding or detecting a watermark.
#[derive(Debug, Clone, PartialEq)]
pub enum WatermarkError {
    /// A column to be watermarked has no domain hierarchy tree configured.
    MissingTree(String),
    /// Underlying relational error.
    Relation(RelationError),
    /// Underlying DHT error.
    Dht(DhtError),
    /// The mark is empty or otherwise unusable.
    EmptyMark,
    /// η must be at least 1.
    InvalidEta,
    /// The table exposes no identifying column, so no tuple identity can key
    /// the selection of Eq. (5).
    NoIdentity,
    /// A detection vote targeted a position outside the extended mark.
    Voting(VotingError),
    /// An embedding or detection plan was prepared against a table whose
    /// schema is not the one the plan was built for.
    PlanSchemaMismatch,
}

impl std::fmt::Display for WatermarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatermarkError::MissingTree(c) => write!(f, "no domain hierarchy tree for column {c}"),
            WatermarkError::Relation(e) => write!(f, "relation error: {e}"),
            WatermarkError::Dht(e) => write!(f, "dht error: {e}"),
            WatermarkError::EmptyMark => write!(f, "the mark must contain at least one bit"),
            WatermarkError::InvalidEta => write!(f, "eta must be at least 1"),
            WatermarkError::NoIdentity => write!(f, "no identifying columns available"),
            WatermarkError::Voting(e) => write!(f, "voting contract violated: {e}"),
            WatermarkError::PlanSchemaMismatch => {
                write!(f, "the plan was built for a table of another schema")
            }
        }
    }
}

impl std::error::Error for WatermarkError {}

impl From<RelationError> for WatermarkError {
    fn from(e: RelationError) -> Self {
        WatermarkError::Relation(e)
    }
}

impl From<DhtError> for WatermarkError {
    fn from(e: DhtError) -> Self {
        WatermarkError::Dht(e)
    }
}

impl From<VotingError> for WatermarkError {
    fn from(e: VotingError) -> Self {
        WatermarkError::Voting(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(WatermarkError::MissingTree("age".into()).to_string().contains("age"));
        assert!(WatermarkError::EmptyMark.to_string().contains("at least one bit"));
        assert!(WatermarkError::InvalidEta.to_string().contains("eta"));
        assert!(WatermarkError::NoIdentity.to_string().contains("identifying"));
        let e = WatermarkError::Voting(VotingError::IndexOutOfRange { index: 9, len: 3 });
        assert!(e.to_string().contains("voting contract"));
        assert!(WatermarkError::PlanSchemaMismatch.to_string().contains("schema"));
    }
}
