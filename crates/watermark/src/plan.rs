//! Precomputed per-run state for chunked embedding and detection.
//!
//! The per-tuple work of both watermarking schemes — keyed selection,
//! bit-index derivation, tree walks — depends only on the tuple's own values
//! (Eq. 5 keys every decision on the tuple identity, never on row position).
//! Everything that *does* need the table as a whole (schema lookups,
//! tree/binning validation, mark duplication) is hoisted into a plan built
//! once per run. Workers then scan disjoint row ranges of one shared table
//! against the shared plan, which is what makes the chunk-parallel engine's
//! output byte-identical to the sequential path.

use crate::error::WatermarkError;
use crate::key::{Mark, WatermarkConfig};
use crate::select::{identity_columns, Selector};
use medshield_binning::ColumnBinning;
use medshield_dht::DomainHierarchyTree;
use medshield_relation::Schema;
use std::collections::BTreeMap;

/// One watermark-target column, fully resolved: its index in the schema, its
/// binning state, and its domain hierarchy tree.
#[derive(Debug, Clone)]
pub(crate) struct PlanColumn<'a> {
    /// Index of the column in the (binned) table's schema.
    pub index: usize,
    /// The column's binning state (maximal / ultimate generalization nodes).
    pub binning: &'a ColumnBinning,
    /// The column's domain hierarchy tree.
    pub tree: &'a DomainHierarchyTree,
}

/// How to treat a target column that the table's schema does not contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MissingColumns {
    /// Fail the plan — embedding must be able to write every target column.
    Reject,
    /// Drop the column from the plan — a suspect table may have had columns
    /// deleted by an attacker, and detection simply collects no votes there.
    Skip,
}

/// State shared by every chunk of one embedding or detection run.
#[derive(Debug, Clone)]
pub(crate) struct PlanCore<'a> {
    /// The schema the plan was resolved against; its column indices hold
    /// for tables of this schema only.
    pub schema: Schema,
    /// The keyed selector (Eq. 5 + permutation / bit indices).
    pub selector: Selector,
    /// Schema indices of the identifying columns, whose values form the
    /// tuple identity the selector keys on.
    pub identity: Vec<usize>,
    /// The resolved target columns.
    pub columns: Vec<PlanColumn<'a>>,
}

impl<'a> PlanCore<'a> {
    /// Resolve the run-wide state: selector, identity and target columns.
    /// A schema without an identifying column fails with
    /// [`WatermarkError::NoIdentity`] in either mode: no tuple could be
    /// selected, and a zero-vote report would read as "no mark".
    pub fn build(
        config: &WatermarkConfig,
        schema: &Schema,
        binning_columns: &'a [ColumnBinning],
        trees: &'a BTreeMap<String, DomainHierarchyTree>,
        missing: MissingColumns,
    ) -> Result<Self, WatermarkError> {
        let selector = Selector::new(&config.key)?;
        let identity = identity_columns(schema)?;
        let mut columns = Vec::with_capacity(binning_columns.len());
        for cb in binning_columns {
            let tree = trees
                .get(&cb.column)
                .ok_or_else(|| WatermarkError::MissingTree(cb.column.clone()))?;
            match schema.index_of(&cb.column) {
                Ok(index) => columns.push(PlanColumn { index, binning: cb, tree }),
                Err(e) => match missing {
                    MissingColumns::Reject => return Err(e.into()),
                    MissingColumns::Skip => continue,
                },
            }
        }
        Ok(PlanCore { schema: schema.clone(), selector, identity, columns })
    }

    /// Fail unless `schema` is the one the plan was built for: the plan's
    /// column indices address that schema only.
    pub fn check_schema(&self, schema: &Schema) -> Result<(), WatermarkError> {
        if *schema == self.schema {
            Ok(())
        } else {
            Err(WatermarkError::PlanSchemaMismatch)
        }
    }
}

/// Everything a worker needs to embed the mark into a row chunk. Built by
/// `plan_embed` on either watermarker; immutable and shareable across
/// threads.
#[derive(Debug, Clone)]
pub struct EmbedPlan<'a> {
    pub(crate) core: PlanCore<'a>,
    /// The extended (duplicated) mark `wmd`.
    pub(crate) wmd: Vec<bool>,
}

impl<'a> EmbedPlan<'a> {
    pub(crate) fn build(
        config: &WatermarkConfig,
        schema: &Schema,
        binning_columns: &'a [ColumnBinning],
        trees: &'a BTreeMap<String, DomainHierarchyTree>,
        mark: &Mark,
    ) -> Result<Self, WatermarkError> {
        if mark.is_empty() {
            return Err(WatermarkError::EmptyMark);
        }
        let core = PlanCore::build(config, schema, binning_columns, trees, MissingColumns::Reject)?;
        Ok(EmbedPlan { core, wmd: mark.duplicate(config.duplication) })
    }

    /// Length of the extended mark `wmd`.
    pub fn wmd_len(&self) -> usize {
        self.wmd.len()
    }

    /// The table schema the plan was built for; preparing it against a
    /// table of any other schema fails with
    /// [`WatermarkError::PlanSchemaMismatch`].
    pub fn schema(&self) -> &Schema {
        &self.core.schema
    }
}

/// Everything a worker needs to collect detection votes from a row chunk.
/// Built by `plan_detect` on either watermarker; immutable and shareable
/// across threads.
#[derive(Debug, Clone)]
pub struct DetectPlan<'a> {
    pub(crate) core: PlanCore<'a>,
    /// Length of the extended mark `wmd`.
    pub(crate) wmd_len: usize,
}

impl<'a> DetectPlan<'a> {
    pub(crate) fn build(
        config: &WatermarkConfig,
        schema: &Schema,
        binning_columns: &'a [ColumnBinning],
        trees: &'a BTreeMap<String, DomainHierarchyTree>,
        mark_len: usize,
    ) -> Result<Self, WatermarkError> {
        if mark_len == 0 {
            return Err(WatermarkError::EmptyMark);
        }
        let core = PlanCore::build(config, schema, binning_columns, trees, MissingColumns::Skip)?;
        Ok(DetectPlan { core, wmd_len: mark_len * config.duplication.max(1) })
    }

    /// Length of the extended mark `wmd`.
    pub fn wmd_len(&self) -> usize {
        self.wmd_len
    }

    /// The table schema the plan was built for; preparing it against a
    /// table of any other schema fails with
    /// [`WatermarkError::PlanSchemaMismatch`].
    pub fn schema(&self) -> &Schema {
        &self.core.schema
    }
}
