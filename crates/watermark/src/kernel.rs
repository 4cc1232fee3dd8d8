//! Columnar batch kernels for watermark embedding and detection.
//!
//! The row-at-a-time kernels used to redo three pieces of work for every
//! (tuple, column) cell: re-derive the tuple's identity bytes from owned
//! [`Value`]s, re-run the HMAC key schedule inside every PRF call, and
//! re-resolve the cell's value against the domain hierarchy tree. With the
//! columnar [`Table`] core all three are hoisted out of the row loop:
//!
//! * **Identity bytes** — every dictionary entry of an identity column is
//!   framed once per run into one contiguous buffer (`IdentCodec`); the
//!   per-row work is a code lookup plus a `memcpy`.
//! * **PRF label schedules** — the per-column `bit:` / `perm:` label prefixes
//!   are precomputed ([`KeyedPrf::label_prefix`]) and each per-cell PRF is
//!   one midstate-cached HMAC over `prefix ‖ ident`. The 128-bit wide value
//!   is reduced per sibling-set size with [`KeyedPrf::reduce_wide`], which is
//!   exactly the reduction the labeled per-call path performs — so one HMAC
//!   serves every level of a tree walk.
//! * **Tree resolution** — everything about a cell that depends only on its
//!   *value* (null checks, ultimate/maximal node lookup, detection's climb
//!   and per-level vote) is memoized per dictionary code, so each distinct
//!   value is resolved once per run instead of once per row.
//!
//! Both kernels walk their rows in blocks of up to 64 (`RowBlock`): frame
//! the block's identities, select them four per call of the 4-lane PRF
//! ([`KeyedPrf::prefixed_value_wide4`]), collect the selected cells in
//! row-then-column order, hash those four at a time, and only then vote or
//! walk the tree, in the same order. A cell's outcome depends only on its
//! own tuple, so the result — and the first error — is the row-at-a-time
//! loop's.
//!
//! Embedding never mutates the table inside the hot loop: workers scan
//! disjoint row ranges of a shared `&Table` and emit per-column *edit lists*
//! of `(row, dictionary code)` pairs ([`EmbedChunk`]), which
//! [`EmbedKernel::apply`] writes back on the caller's thread. This is what
//! lets the chunk-parallel engine share one immutable table across workers
//! while staying byte-identical to the sequential path.

use crate::error::WatermarkError;
use crate::hierarchical::{climb_and_read, DetectionTally, EmbeddingReport};
use crate::plan::{DetectPlan, EmbedPlan, PlanColumn};
use crate::select::{set_parity, Selector};
use crate::voting::majority;
use medshield_crypto::KeyedPrf;
use medshield_dht::{DomainHierarchyTree, GeneralizationSet, NodeId};
use medshield_relation::{Column, Table, Value};
use std::collections::HashMap;
use std::ops::Range;

/// Length-prefix one identity field (see `select::identity_columns`).
fn frame_value_into(value: &Value, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    value.write_canonical_bytes(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_be_bytes());
}

/// One identity column, pre-encoded for per-row byte assembly: every
/// dictionary entry framed once, back to back.
#[derive(Debug, Clone)]
struct IdentField {
    /// Schema index of the column.
    col: usize,
    /// The framed identity bytes of every dictionary entry.
    framed: Vec<u8>,
    /// Entry `code` is `framed[offsets[code]..offsets[code + 1]]`.
    offsets: Vec<usize>,
}

/// The per-run identity encoder: emits a row's identity bytes (see
/// `select::identity_columns`) without materializing a tuple.
#[derive(Debug, Clone)]
struct IdentCodec {
    fields: Vec<IdentField>,
}

impl IdentCodec {
    /// Precompute the framed encodings against the table's current
    /// dictionaries. Must be built *after* any dictionary growth of the run
    /// (embedding interns its write targets first).
    fn build(identity: &[usize], table: &Table) -> Self {
        let fields = identity
            .iter()
            .map(|&col| {
                let dict = table.columns()[col].dict();
                let mut framed = Vec::new();
                let mut offsets = Vec::with_capacity(dict.len() + 1);
                offsets.push(0);
                for v in dict {
                    frame_value_into(v, &mut framed);
                    offsets.push(framed.len());
                }
                IdentField { col, framed, offsets }
            })
            .collect();
        IdentCodec { fields }
    }

    /// Append the identity bytes of `row` to `out`.
    fn write(&self, columns: &[Column], row: usize, out: &mut Vec<u8>) {
        for IdentField { col, framed, offsets } in &self.fields {
            let column = &columns[*col];
            let code = column.codes()[row] as usize;
            match offsets.get(code).zip(offsets.get(code + 1)) {
                Some((&from, &to)) => out.extend_from_slice(&framed[from..to]),
                // An entry interned after the build: frame it here.
                None => frame_value_into(column.value(row), out),
            }
        }
    }
}

/// Rows per block of the batched kernels: enough to keep the PRF lanes full,
/// few enough that the block's identities stay in cache (O(64 identities)
/// of scratch per worker).
const BLOCK_ROWS: usize = 64;

/// Messages per call of the lane PRF.
const LANES: usize = 4;

/// One block of rows: their framed identities, back to back, and which of
/// them Eq. (5) selects. Reused across the blocks of a range.
#[derive(Debug, Default)]
struct RowBlock {
    /// The first row of the block.
    start: usize,
    /// The framed identities of the block's rows.
    idents: Vec<u8>,
    /// Row `start + i` has identity `idents[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Block offsets of the selected rows, ascending.
    selected: Vec<usize>,
}

impl RowBlock {
    /// Frame the identities of `rows` and select among them; `wides` is
    /// scratch for their selection PRF values.
    fn load(
        &mut self,
        codec: &IdentCodec,
        columns: &[Column],
        rows: Range<usize>,
        selector: &Selector,
        wides: &mut Vec<u128>,
    ) {
        self.start = rows.start;
        self.idents.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for row in rows {
            codec.write(columns, row, &mut self.idents);
            self.offsets.push(self.idents.len());
        }
        let count = self.offsets.len() - 1;
        wide_values(selector.selection_prf(), count, |i| (&[], self.ident(i)), wides);
        self.selected.clear();
        self.selected.extend((0..count).filter(|&i| selector.selects_wide(wides[i])));
    }

    /// The framed identity of block row `i`.
    fn ident(&self, i: usize) -> &[u8] {
        &self.idents[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// The wide PRF values of `count` messages, `prefix ‖ data` as `message(i)`
/// gives them, four per call of the lane PRF. The last message fills the
/// spare lanes of the final call.
fn wide_values<'a>(
    prf: &KeyedPrf,
    count: usize,
    message: impl Fn(usize) -> (&'a [u8], &'a [u8]),
    out: &mut Vec<u128>,
) {
    out.clear();
    for first in (0..count).step_by(LANES) {
        let wide = prf.prefixed_value_wide4(std::array::from_fn(|lane| {
            message((first + lane).min(count - 1))
        }));
        out.extend_from_slice(&wide[..LANES.min(count - first)]);
    }
}

/// Which embedding walk the kernel performs per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EmbedStyle {
    /// Fig. 9: descend from the maximal node, encoding the bit at every
    /// level, until an ultimate node is reached.
    Hierarchical,
    /// §5.2 baseline: permute within the ultimate node's sibling set only.
    SingleLevel,
}

/// What a cell's *value* alone determines about embedding into it.
#[derive(Debug, Clone, Copy)]
enum CellMemo {
    /// Nothing to do and nothing to count (single-level null / unresolvable
    /// value, or a dictionary entry no row references).
    Ignore,
    /// Skipped cell, counted in [`EmbeddingReport::skipped_cells`].
    Skip,
    /// The maximal-node lookup failed during preparation; re-run it on first
    /// hit so a selected row surfaces exactly the error the row-at-a-time
    /// path raised (unselected rows never did).
    Recheck {
        /// The cell's ultimate generalization node.
        target: NodeId,
    },
    /// Ready to embed: walk from `node`.
    Start {
        /// Hierarchical: the covering maximal node. Single-level: the cell's
        /// ultimate node.
        node: NodeId,
    },
}

/// One planned column's precomputed embedding state.
#[derive(Debug, Clone)]
struct EmbedColumn {
    /// Per-dictionary-code memo of the value-determined work.
    memo: Vec<CellMemo>,
    /// Dictionary code of every ultimate node's value, interned up front so
    /// workers can emit codes without touching the dictionary.
    node_code: HashMap<NodeId, u32>,
    /// Precomputed `bit:<column>` label prefix.
    bit_prefix: Vec<u8>,
    /// Precomputed `perm:<column>` label prefix.
    perm_prefix: Vec<u8>,
}

/// One row's write-back: the new dictionary code for a (row, column) cell.
/// The `Value` variant only fires on the defensive walk exit (a non-ultimate
/// leaf), which consistent binning state never produces.
#[derive(Debug, Clone, PartialEq)]
enum Edit {
    Code(usize, u32),
    Value(usize, Value),
}

/// One selected cell of a block, ready for its PRF values and tree walk.
#[derive(Debug, Clone, Copy)]
struct EmbedJob {
    /// Block offset of the cell's row.
    slot: usize,
    /// Index of the cell's column in the plan.
    column: usize,
    /// The cell's dictionary code.
    code: u32,
    /// Where the walk starts (see [`CellMemo::Start`]).
    node: NodeId,
}

/// The edits and report of one row range, produced by
/// [`EmbedKernel::run_range`] and consumed by [`EmbedKernel::apply`].
#[derive(Debug, Clone, PartialEq)]
pub struct EmbedChunk {
    report: EmbeddingReport,
    edits: Vec<Vec<Edit>>,
}

/// A prepared embedding run over a columnar table: per-code memos, interned
/// write targets and an identity codec. Immutable once built — workers share
/// it by reference across threads.
#[derive(Debug, Clone)]
pub struct EmbedKernel {
    style: EmbedStyle,
    columns: Vec<EmbedColumn>,
    ident: IdentCodec,
}

impl EmbedKernel {
    /// Prepare `table` for an embedding run of `plan`: intern into every
    /// target column the values the walks can write, memoize the
    /// value-determined work per dictionary code, and freeze the identity
    /// codec. The table must not be modified between this call and
    /// [`EmbedKernel::apply`], other than by `apply` itself.
    pub(crate) fn prepare(
        plan: &EmbedPlan<'_>,
        table: &mut Table,
        style: EmbedStyle,
    ) -> Result<Self, WatermarkError> {
        plan.core.check_schema(table.schema())?;
        let mut columns = Vec::with_capacity(plan.core.columns.len());
        for pc in &plan.core.columns {
            columns.push(EmbedColumn::prepare(pc, table, style)?);
        }
        let ident = IdentCodec::build(&plan.core.identity, table);
        Ok(EmbedKernel { style, columns, ident })
    }

    /// Embed into the rows of `range`, reading the shared `table` and
    /// emitting the edits instead of writing them. Ranges of one run must be
    /// disjoint; merging the chunks in row order via [`EmbedKernel::apply`]
    /// reproduces the sequential result exactly, because every per-cell
    /// decision depends only on the tuple's own pre-edit values.
    pub fn run_range(
        &self,
        plan: &EmbedPlan<'_>,
        table: &Table,
        range: Range<usize>,
    ) -> Result<EmbedChunk, WatermarkError> {
        let mut report = EmbeddingReport::empty(plan.wmd_len());
        let mut edits: Vec<Vec<Edit>> = vec![Vec::new(); self.columns.len()];
        let columns = table.columns();
        let prf = plan.core.selector.permutation_prf();
        let wmd_len = plan.wmd.len() as u64;
        let mut block = RowBlock::default();
        let mut jobs: Vec<EmbedJob> = Vec::new();
        let mut wides = Vec::new();
        for start in range.clone().step_by(BLOCK_ROWS) {
            block.load(
                &self.ident,
                columns,
                start..range.end.min(start + BLOCK_ROWS),
                &plan.core.selector,
                &mut wides,
            );
            // The block's cells in row-then-column order. A covering-node
            // failure ends the collection; it surfaces after the cells
            // before it, as in a row-at-a-time walk.
            jobs.clear();
            let mut failure = None;
            'rows: for &slot in &block.selected {
                let row = block.start + slot;
                report.selected_tuples += 1;
                for (column, (st, pc)) in self.columns.iter().zip(&plan.core.columns).enumerate() {
                    let code = columns[pc.index].codes()[row];
                    let node = match st.memo.get(code as usize).copied().unwrap_or(CellMemo::Ignore)
                    {
                        CellMemo::Ignore => continue,
                        CellMemo::Skip => {
                            report.skipped_cells += 1;
                            continue;
                        }
                        CellMemo::Recheck { target } => {
                            match pc.binning.maximal.covering_node(pc.tree, target) {
                                Err(e) => {
                                    failure = Some(WatermarkError::Dht(e));
                                    break 'rows;
                                }
                                Ok(max_node) if pc.binning.ultimate.contains(max_node) => {
                                    report.skipped_cells += 1;
                                    continue;
                                }
                                Ok(max_node) => max_node,
                            }
                        }
                        CellMemo::Start { node } => node,
                    };
                    jobs.push(EmbedJob { slot, column, code, node });
                }
            }
            // Two messages per cell: its `bit:` then its `perm:` value.
            wide_values(
                prf,
                2 * jobs.len(),
                |m| {
                    let job = &jobs[m / 2];
                    let st = &self.columns[job.column];
                    let prefix = if m % 2 == 0 { &st.bit_prefix } else { &st.perm_prefix };
                    (prefix, block.ident(job.slot))
                },
                &mut wides,
            );
            for (job, wide) in jobs.iter().zip(wides.chunks_exact(2)) {
                let (st, pc) = (&self.columns[job.column], &plan.core.columns[job.column]);
                let row = block.start + job.slot;
                let bit = plan.wmd[KeyedPrf::reduce_wide(wide[0], wmd_len) as usize];
                let new_node = match self.style {
                    EmbedStyle::Hierarchical => {
                        let node =
                            descend_wide(pc.tree, &pc.binning.ultimate, job.node, wide[1], bit)?;
                        report.embedded_cells += 1;
                        node
                    }
                    EmbedStyle::SingleLevel => {
                        match permute_wide(pc.tree, &pc.binning.ultimate, job.node, wide[1], bit)? {
                            Some(node) => node,
                            None => continue,
                        }
                    }
                };
                match st.node_code.get(&new_node) {
                    Some(&new_code) => {
                        if new_code != job.code {
                            if self.style == EmbedStyle::Hierarchical {
                                report.changed_cells += 1;
                            }
                            edits[job.column].push(Edit::Code(row, new_code));
                        }
                    }
                    None => {
                        // Defensive walk exit on a non-ultimate leaf: write
                        // the value through the slow path.
                        let new_value =
                            pc.tree.node_value(new_node).map_err(WatermarkError::Dht)?;
                        if self.style == EmbedStyle::Hierarchical
                            && &new_value != columns[pc.index].value(row)
                        {
                            report.changed_cells += 1;
                        }
                        edits[job.column].push(Edit::Value(row, new_value));
                    }
                }
            }
            if let Some(e) = failure {
                return Err(e);
            }
        }
        Ok(EmbedChunk { report, edits })
    }

    /// Write the chunks' edit lists back into `table` (in chunk order, on the
    /// caller's thread) and merge their reports.
    pub fn apply(
        &self,
        plan: &EmbedPlan<'_>,
        table: &mut Table,
        chunks: Vec<EmbedChunk>,
    ) -> Result<EmbeddingReport, WatermarkError> {
        let mut report = EmbeddingReport::empty(plan.wmd_len());
        for chunk in &chunks {
            report.merge(&chunk.report);
        }
        for chunk in chunks {
            for (ci, edits) in chunk.edits.into_iter().enumerate() {
                if edits.is_empty() {
                    continue;
                }
                let index = plan.core.columns[ci].index;
                let Some(column) = table.column_mut(index) else { continue };
                for edit in edits {
                    match edit {
                        Edit::Code(row, code) => column.set_code(row, code),
                        Edit::Value(row, value) => column.set(row, &value),
                    }
                }
            }
        }
        Ok(report)
    }
}

impl EmbedColumn {
    /// Intern every ultimate node's value into the column, and memoize
    /// the value-determined embedding decision per present dictionary code.
    fn prepare(
        pc: &PlanColumn<'_>,
        table: &mut Table,
        style: EmbedStyle,
    ) -> Result<Self, WatermarkError> {
        let column_name = &pc.binning.column;
        let bit_prefix = KeyedPrf::label_prefix(&format!("bit:{column_name}"));
        let perm_prefix = KeyedPrf::label_prefix(&format!("perm:{column_name}"));
        let Some(column) = table.column_mut(pc.index) else {
            // The plan resolved this index against the same schema; an
            // out-of-range index means the table and plan diverged.
            return Err(WatermarkError::Relation(
                medshield_relation::RelationError::UnknownColumn(column_name.clone()),
            ));
        };
        let mut node_code = HashMap::with_capacity(pc.binning.ultimate.len());
        for &node in pc.binning.ultimate.nodes() {
            let value = pc.tree.node_value(node).map_err(WatermarkError::Dht)?;
            node_code.insert(node, column.intern(&value));
        }
        // Memoize only codes some row actually references: stale dictionary
        // entries must not raise errors the row loop never would.
        let present = referenced_codes(column);
        let mut memo = Vec::with_capacity(present.len());
        for (code, &p) in present.iter().enumerate() {
            if !p {
                memo.push(CellMemo::Ignore);
                continue;
            }
            let value = &column.dict()[code];
            memo.push(match style {
                EmbedStyle::Hierarchical => hierarchical_cell_memo(pc, value),
                EmbedStyle::SingleLevel => single_level_cell_memo(pc, value),
            });
        }
        Ok(EmbedColumn { memo, node_code, bit_prefix, perm_prefix })
    }
}

/// Which dictionary codes of `column` some row references.
fn referenced_codes(column: &Column) -> Vec<bool> {
    let mut present = vec![false; column.dict().len()];
    for &code in column.codes() {
        if let Some(slot) = present.get_mut(code as usize) {
            *slot = true;
        }
    }
    present
}

/// The value-determined part of the hierarchical embedding decision.
fn hierarchical_cell_memo(pc: &PlanColumn<'_>, value: &Value) -> CellMemo {
    if value.is_null() {
        return CellMemo::Skip;
    }
    let Ok(target) = pc.binning.ultimate.node_for_value(pc.tree, value) else {
        return CellMemo::Skip;
    };
    match pc.binning.maximal.covering_node(pc.tree, target) {
        // Surface the error lazily: the row loop only raised it for
        // *selected* rows holding this value.
        Err(_) => CellMemo::Recheck { target },
        Ok(max_node) => {
            if pc.binning.ultimate.contains(max_node) {
                // No gap at this cell: permuting would exceed the usage
                // metrics (§5.1 special case).
                CellMemo::Skip
            } else {
                CellMemo::Start { node: max_node }
            }
        }
    }
}

/// The value-determined part of the single-level embedding decision.
fn single_level_cell_memo(pc: &PlanColumn<'_>, value: &Value) -> CellMemo {
    if value.is_null() {
        return CellMemo::Ignore;
    }
    match pc.binning.ultimate.node_for_value(pc.tree, value) {
        Ok(node) => CellMemo::Start { node },
        Err(_) => CellMemo::Ignore,
    }
}

/// Walk down from `start` (a maximal generalization node), at each level
/// picking the child whose sorted-set index parity equals `bit`, until an
/// ultimate generalization node is reached. The per-level index is the
/// shared 128-bit permutation value reduced by the sibling-set size —
/// exactly what the labeled per-level PRF call computed.
fn descend_wide(
    tree: &DomainHierarchyTree,
    ultimate: &GeneralizationSet,
    start: NodeId,
    perm_wide: u128,
    bit: bool,
) -> Result<NodeId, WatermarkError> {
    let mut node = start;
    loop {
        let children = tree.children(node).map_err(WatermarkError::Dht)?;
        if children.is_empty() {
            // Defensive: a leaf that is not an ultimate node. This cannot
            // happen for consistent binning state, but never loop.
            return Ok(node);
        }
        let raw = KeyedPrf::reduce_wide(perm_wide, children.len() as u64) as usize;
        let idx = set_parity(raw, bit, children.len());
        node = children[idx];
        if ultimate.contains(node) {
            return Ok(node);
        }
    }
}

/// Permute `node` within its sibling set so the chosen sibling's index parity
/// encodes `bit`, then descend to an ultimate node (the §5.2 baseline walk).
/// Returns `None` for a singleton sibling set or a sibling subtree holding no
/// ultimate node.
fn permute_wide(
    tree: &DomainHierarchyTree,
    ultimate: &GeneralizationSet,
    node: NodeId,
    perm_wide: u128,
    bit: bool,
) -> Result<Option<NodeId>, WatermarkError> {
    let siblings = tree.siblings(node).map_err(WatermarkError::Dht)?;
    if siblings.len() <= 1 {
        return Ok(None);
    }
    let raw = KeyedPrf::reduce_wide(perm_wide, siblings.len() as u64) as usize;
    let idx = set_parity(raw, bit, siblings.len());
    let mut target = siblings[idx];
    loop {
        if ultimate.contains(target) {
            return Ok(Some(target));
        }
        let children = tree.children(target).map_err(WatermarkError::Dht)?;
        if children.is_empty() {
            // The sibling's subtree lies above the ultimate level; give up on
            // this cell rather than emit an invalid value.
            return Ok(None);
        }
        let raw = KeyedPrf::reduce_wide(perm_wide, children.len() as u64) as usize;
        let idx = set_parity(raw, bit, children.len());
        target = children[idx];
    }
}

/// One planned column's precomputed detection state.
#[derive(Debug, Clone)]
struct DetectColumn {
    /// What each dictionary code contributes to detection, resolved once per
    /// run (`None` = no vote).
    votes: Vec<Option<bool>>,
    /// Precomputed `bit:<column>` label prefix.
    bit_prefix: Vec<u8>,
}

/// A prepared detection run: per-value vote memos plus the identity codec.
/// Immutable and shareable across worker threads; the table must not change
/// between `DetectKernel::prepare`-time and the last
/// [`DetectKernel::run_range`] call.
#[derive(Debug, Clone)]
pub struct DetectKernel {
    columns: Vec<DetectColumn>,
    ident: IdentCodec,
}

impl DetectKernel {
    /// Memoize each planned column's per-value vote with `cell_vote` (the
    /// scheme-specific value resolution) and freeze the identity codec.
    pub(crate) fn prepare(
        plan: &DetectPlan<'_>,
        table: &Table,
        cell_vote: impl Fn(&PlanColumn<'_>, &Value) -> Result<Option<bool>, WatermarkError>,
    ) -> Result<Self, WatermarkError> {
        plan.core.check_schema(table.schema())?;
        let mut columns = Vec::with_capacity(plan.core.columns.len());
        for pc in &plan.core.columns {
            let bit_prefix = KeyedPrf::label_prefix(&format!("bit:{}", pc.binning.column));
            let column = &table.columns()[pc.index];
            let present = referenced_codes(column);
            let mut votes = Vec::with_capacity(present.len());
            for (value, &p) in column.dict().iter().zip(&present) {
                // Stale entries no row references cast no vote and must not
                // raise errors.
                votes.push(if p { cell_vote(pc, value)? } else { None });
            }
            columns.push(DetectColumn { votes, bit_prefix });
        }
        let ident = IdentCodec::build(&plan.core.identity, table);
        Ok(DetectKernel { columns, ident })
    }

    /// Collect the votes of the rows in `range` into a fresh tally. Tallies
    /// of disjoint ranges merge (in any order) to exactly the sequential
    /// run's tally.
    pub fn run_range(
        &self,
        plan: &DetectPlan<'_>,
        table: &Table,
        range: Range<usize>,
    ) -> Result<DetectionTally, WatermarkError> {
        let mut tally = DetectionTally::new(plan.wmd_len());
        let columns = table.columns();
        let prf = plan.core.selector.permutation_prf();
        let wmd_len = plan.wmd_len() as u64;
        let mut block = RowBlock::default();
        // (block offset, plan column, vote) of every voting cell of a block,
        // in row-then-column order.
        let mut jobs: Vec<(usize, usize, bool)> = Vec::new();
        let mut wides = Vec::new();
        for start in range.clone().step_by(BLOCK_ROWS) {
            block.load(
                &self.ident,
                columns,
                start..range.end.min(start + BLOCK_ROWS),
                &plan.core.selector,
                &mut wides,
            );
            jobs.clear();
            for &slot in &block.selected {
                let row = block.start + slot;
                tally.note_selected();
                for (column, (dc, pc)) in self.columns.iter().zip(&plan.core.columns).enumerate() {
                    let code = columns[pc.index].codes()[row];
                    if let Some(bit) = dc.votes.get(code as usize).copied().flatten() {
                        jobs.push((slot, column, bit));
                    }
                }
            }
            wide_values(
                prf,
                jobs.len(),
                |j| {
                    let (slot, column, _) = jobs[j];
                    (&self.columns[column].bit_prefix, block.ident(slot))
                },
                &mut wides,
            );
            for (&(_, _, bit), &wide) in jobs.iter().zip(&wides) {
                tally.vote(KeyedPrf::reduce_wide(wide, wmd_len) as usize, bit)?;
            }
        }
        Ok(tally)
    }
}

/// The hierarchical scheme's per-value detection vote: climb from the
/// value's node to its maximal generalization node and fold the per-level
/// parities by majority.
pub(crate) fn hierarchical_cell_vote(
    pc: &PlanColumn<'_>,
    value: &Value,
) -> Result<Option<bool>, WatermarkError> {
    if value.is_null() {
        return Ok(None);
    }
    // Attacker garbage: no vote.
    let Ok(node) = pc.tree.node_for_value(value) else { return Ok(None) };
    let Some(level_bits) = climb_and_read(pc.tree, &pc.binning.maximal, node)? else {
        return Ok(None);
    };
    if level_bits.is_empty() {
        return Ok(None);
    }
    Ok(Some(majority(&level_bits)))
}

/// The single-level scheme's per-value detection vote: the parity of the
/// value's ultimate-node index within its sibling set.
pub(crate) fn single_level_cell_vote(
    pc: &PlanColumn<'_>,
    value: &Value,
) -> Result<Option<bool>, WatermarkError> {
    let Ok(node) = pc.tree.node_for_value(value) else { return Ok(None) };
    if !pc.binning.ultimate.contains(node) {
        // The value no longer sits at the ultimate level: the single-level
        // bit is gone.
        return Ok(None);
    }
    let siblings = pc.tree.siblings(node).map_err(WatermarkError::Dht)?;
    if siblings.len() <= 1 {
        // A singleton sibling set carries no information (the embedder
        // skipped it too).
        return Ok(None);
    }
    let Some(idx) = DomainHierarchyTree::index_in(node, siblings) else { return Ok(None) };
    Ok(Some(idx % 2 == 1))
}

/// The row-at-a-time kernels the batched ones replaced: one scalar PRF per
/// row and per cell. Kept as the reference the batched kernels are tested
/// against.
#[cfg(test)]
mod reference {
    use super::*;

    /// [`EmbedKernel::run_range`], one row at a time.
    pub(super) fn embed_rows(
        kernel: &EmbedKernel,
        plan: &EmbedPlan<'_>,
        table: &Table,
        range: Range<usize>,
    ) -> Result<EmbedChunk, WatermarkError> {
        let mut report = EmbeddingReport::empty(plan.wmd_len());
        let mut edits: Vec<Vec<Edit>> = vec![Vec::new(); kernel.columns.len()];
        let columns = table.columns();
        let prf = plan.core.selector.permutation_prf();
        let wmd_len = plan.wmd.len() as u64;
        let mut buf = Vec::new();
        for row in range {
            buf.clear();
            kernel.ident.write(columns, row, &mut buf);
            if !plan.core.selector.selects(&buf) {
                continue;
            }
            report.selected_tuples += 1;
            for (ci, (st, pc)) in kernel.columns.iter().zip(&plan.core.columns).enumerate() {
                let code = columns[pc.index].codes()[row];
                let start = match st.memo.get(code as usize).copied().unwrap_or(CellMemo::Ignore) {
                    CellMemo::Ignore => continue,
                    CellMemo::Skip => {
                        report.skipped_cells += 1;
                        continue;
                    }
                    CellMemo::Recheck { target } => {
                        let max_node = pc
                            .binning
                            .maximal
                            .covering_node(pc.tree, target)
                            .map_err(WatermarkError::Dht)?;
                        if pc.binning.ultimate.contains(max_node) {
                            report.skipped_cells += 1;
                            continue;
                        }
                        max_node
                    }
                    CellMemo::Start { node } => node,
                };
                let bit_wide = prf.prefixed_value_wide(&st.bit_prefix, &buf);
                let bit = plan.wmd[KeyedPrf::reduce_wide(bit_wide, wmd_len) as usize];
                let perm_wide = prf.prefixed_value_wide(&st.perm_prefix, &buf);
                let new_node = match kernel.style {
                    EmbedStyle::Hierarchical => {
                        let node =
                            descend_wide(pc.tree, &pc.binning.ultimate, start, perm_wide, bit)?;
                        report.embedded_cells += 1;
                        node
                    }
                    EmbedStyle::SingleLevel => {
                        match permute_wide(pc.tree, &pc.binning.ultimate, start, perm_wide, bit)? {
                            Some(node) => node,
                            None => continue,
                        }
                    }
                };
                match st.node_code.get(&new_node) {
                    Some(&new_code) => {
                        if new_code != code {
                            if kernel.style == EmbedStyle::Hierarchical {
                                report.changed_cells += 1;
                            }
                            edits[ci].push(Edit::Code(row, new_code));
                        }
                    }
                    None => {
                        // Defensive walk exit on a non-ultimate leaf: write
                        // the value through the slow path.
                        let new_value =
                            pc.tree.node_value(new_node).map_err(WatermarkError::Dht)?;
                        if kernel.style == EmbedStyle::Hierarchical
                            && &new_value != columns[pc.index].value(row)
                        {
                            report.changed_cells += 1;
                        }
                        edits[ci].push(Edit::Value(row, new_value));
                    }
                }
            }
        }
        Ok(EmbedChunk { report, edits })
    }

    /// [`DetectKernel::run_range`], one row at a time.
    pub(super) fn detect_rows(
        kernel: &DetectKernel,
        plan: &DetectPlan<'_>,
        table: &Table,
        range: Range<usize>,
    ) -> Result<DetectionTally, WatermarkError> {
        let mut tally = DetectionTally::new(plan.wmd_len());
        let columns = table.columns();
        let prf = plan.core.selector.permutation_prf();
        let wmd_len = plan.wmd_len() as u64;
        let mut buf = Vec::new();
        for row in range {
            buf.clear();
            kernel.ident.write(columns, row, &mut buf);
            if !plan.core.selector.selects(&buf) {
                continue;
            }
            tally.note_selected();
            for (dc, pc) in kernel.columns.iter().zip(&plan.core.columns) {
                let code = columns[pc.index].codes()[row];
                let Some(bit) = dc.votes.get(code as usize).copied().flatten() else { continue };
                let pos =
                    KeyedPrf::reduce_wide(prf.prefixed_value_wide(&dc.bit_prefix, &buf), wmd_len);
                tally.vote(pos as usize, bit)?;
            }
        }
        Ok(tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::HierarchicalWatermarker;
    use crate::key::{Mark, WatermarkConfig, WatermarkKey};
    use crate::select::{identity_bytes, identity_columns};
    use medshield_binning::{BinningAgent, BinningConfig, ColumnBinning};
    use medshield_datagen::{DatasetConfig, MedicalDataset};
    use medshield_dht::GeneralizationSet;
    use medshield_relation::{ColumnDef, ColumnRole, Schema};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    /// Assert that the codec writes exactly the reference identity bytes on
    /// every row of `table`.
    fn assert_codec_matches_reference(table: &Table) {
        let identity = identity_columns(table.schema()).unwrap();
        let codec = IdentCodec::build(&identity, table);
        let mut buf = Vec::new();
        for row in 0..table.len() {
            buf.clear();
            codec.write(table.columns(), row, &mut buf);
            assert_eq!(buf, identity_bytes(table, &identity, row), "{identity:?}, row {row}");
        }
    }

    /// The roles of the two candidate identity columns `mrn` and `ssn`:
    /// `mrn` alone (0), `ssn` alone (1) or both (2) are identifying, the
    /// other one is non-identifying.
    fn identity_roles(identity: usize) -> (ColumnRole, ColumnRole) {
        let role = |identifying| {
            if identifying {
                ColumnRole::Identifying
            } else {
                ColumnRole::NonIdentifying
            }
        };
        (role(identity != 1), role(identity != 0))
    }

    #[test]
    fn ident_codec_matches_the_reference_on_int_and_dict_columns() {
        // Integer (`mrn`), text-with-nulls (`ssn`) and two-column identities.
        for identity in 0..3 {
            let (mrn_role, ssn_role) = identity_roles(identity);
            let schema = Schema::new(vec![
                ColumnDef::new("mrn", mrn_role),
                ColumnDef::new("ssn", ssn_role),
                ColumnDef::new("age", ColumnRole::QuasiNumeric),
                ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
            ])
            .unwrap();
            let mut t = Table::new(schema);
            for i in 0..60i64 {
                let ssn = if i % 7 == 0 { Value::Null } else { Value::text(format!("ssn-{i}")) };
                let doctor = Value::text(["Surgeon", "Nurse", ""][(i % 3) as usize]);
                t.insert(vec![Value::int(i * 1_000 - 7), ssn, Value::int(20 + i % 50), doctor])
                    .unwrap();
            }
            // Integer-valued `mrn` and text-valued `ssn` are both interned in
            // order of first occurrence.
            let mrn = t.column(0).unwrap();
            assert_eq!(mrn.dict().len(), 60);
            assert_eq!(mrn.dict()[1], Value::int(993));
            assert_eq!(mrn.codes()[..3], [0, 1, 2]);
            let ssn = t.column(1).unwrap();
            assert_eq!(ssn.dict()[..2], [Value::Null, Value::text("ssn-1")]);
            assert_eq!(ssn.codes()[6..9], [6, 0, 7]);
            assert_codec_matches_reference(&t);

            // Values interned after the codec was built are framed on the
            // spot and still give the reference bytes.
            let identity = identity_columns(t.schema()).unwrap();
            let codec = IdentCodec::build(&identity, &t);
            t.set_at(2, 0, &Value::int(-1)).unwrap();
            t.set_at(3, 1, &Value::text("interned after the build")).unwrap();
            let mut buf = Vec::new();
            for row in 0..t.len() {
                buf.clear();
                codec.write(t.columns(), row, &mut buf);
                assert_eq!(buf, identity_bytes(&t, &identity, row), "{identity:?}, row {row}");
            }
        }
    }

    #[test]
    fn ident_codec_matches_the_reference_after_embedding() {
        let ds = MedicalDataset::generate(&DatasetConfig::small(600));
        let maximal: BTreeMap<String, GeneralizationSet> = ds
            .trees
            .iter()
            .map(|(name, tree)| (name.clone(), GeneralizationSet::at_depth(tree, 0)))
            .collect();
        let binned = BinningAgent::new(BinningConfig::with_k(4))
            .bin(&ds.table, &ds.trees, &maximal)
            .unwrap();
        let wm = HierarchicalWatermarker::new(WatermarkConfig::new(WatermarkKey::from_master(
            b"owner", 5,
        )));
        let (marked, report) = wm.embed(&binned, &ds.trees, &Mark::from_bytes(b"m", 20)).unwrap();
        assert!(report.changed_cells > 0);
        // The codec is built on the table as embedding left it: every
        // ultimate node's value interned into the target columns, and the
        // moved cells rewritten by code.
        assert_codec_matches_reference(&marked);
    }

    /// A 300-row hospital table and its trees.
    fn hospital() -> &'static MedicalDataset {
        static HOSPITAL: OnceLock<MedicalDataset> = OnceLock::new();
        HOSPITAL.get_or_init(|| MedicalDataset::generate(&DatasetConfig::small(300)))
    }

    /// The first `rows` rows of the hospital table behind two candidate
    /// identity columns: `mrn`, all integers, and `ssn`, text with nulls and
    /// repeats, with the roles [`identity_roles`] gives them.
    fn with_identities(rows: usize, mrn: &[i64], ssn: &[u32], identity: usize) -> Table {
        let base = &hospital().table;
        let (mrn_role, ssn_role) = identity_roles(identity);
        let mut defs = vec![ColumnDef::new("mrn", mrn_role)];
        defs.extend(base.schema().columns().iter().map(|c| match c.name.as_str() {
            "ssn" => ColumnDef::new("ssn", ssn_role),
            _ => c.clone(),
        }));
        let mut table = Table::new(Schema::new(defs).unwrap());
        let ssn_col = base.schema().index_of("ssn").unwrap();
        for row in 0..rows {
            let mut values = vec![Value::int(mrn[row])];
            for col in 0..base.schema().arity() {
                values.push(if col == ssn_col {
                    match ssn[row] {
                        v if v % 5 == 0 => Value::Null,
                        v => Value::text(format!("ssn-{v}")),
                    }
                } else {
                    base.value_at(row, col).unwrap().clone()
                });
            }
            table.insert(values).unwrap();
        }
        table
    }

    /// Equal results, errors compared by their message.
    fn assert_same<T: PartialEq + std::fmt::Debug>(
        batched: Result<T, WatermarkError>,
        reference: Result<T, WatermarkError>,
    ) {
        match (batched, reference) {
            (Ok(b), Ok(r)) => assert_eq!(b, r),
            (b, r) => assert_eq!(format!("{b:?}"), format!("{r:?}")),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The batched kernels give the row-at-a-time kernels' edits, report
        /// and tally on any row range: row counts that are not multiples of
        /// the lane or block size, ranges from odd offsets, integer, text
        /// (with nulls) and two-column identities, both embedding styles,
        /// ultimate nodes at any depth, and (with a maximal set below some
        /// ultimate nodes) the covering-node error of the first failing cell.
        #[test]
        fn batched_kernels_match_the_row_at_a_time_reference(
            rows in 0usize..=300,
            bounds in (0usize..=300, 0usize..=300),
            ids in (vec(any::<i64>(), 300..=300), vec(0u32..60, 300..=300)),
            identity in 0usize..3,
            key in (any::<u32>(), 1u64..=4),
            depths in (
                vec(0usize..=4, 5..=5),
                prop_oneof![Just(None), (0usize..5, 1usize..=3).prop_map(Some)],
            ),
        ) {
            let trees = &hospital().trees;
            let table = with_identities(rows, &ids.0, &ids.1, identity);
            let start = bounds.0 % (rows + 1);
            let range = start..rows - bounds.1 % (rows - start + 1);
            let config = WatermarkConfig::new(WatermarkKey::from_master(
                &key.0.to_be_bytes(),
                key.1,
            ));
            // Raw values under ultimate nodes `depths` levels down (a
            // shallow leaf stands for itself), maximal nodes at the roots; or,
            // for one column, maximal nodes that leave some ultimate nodes
            // uncovered.
            let columns: Vec<ColumnBinning> = trees
                .iter()
                .zip(&depths.0)
                .enumerate()
                .map(|(i, ((name, tree), depth))| {
                    let ultimate = GeneralizationSet::at_depth(tree, *depth);
                    let maximal = match depths.1 {
                        Some((column, deeper)) if column == i => {
                            GeneralizationSet::at_depth(tree, deeper)
                        }
                        _ => GeneralizationSet::at_depth(tree, 0),
                    };
                    ColumnBinning {
                        column: name.clone(),
                        maximal,
                        minimal: ultimate.clone(),
                        ultimate,
                    }
                })
                .collect();
            let mark = Mark::from_bytes(b"mark", 20);
            for style in [EmbedStyle::Hierarchical, EmbedStyle::SingleLevel] {
                let plan = EmbedPlan::build(&config, table.schema(), &columns, trees, &mark).unwrap();
                let mut marked = table.snapshot();
                let kernel = EmbedKernel::prepare(&plan, &mut marked, style).unwrap();
                assert_same(
                    kernel.run_range(&plan, &marked, range.clone()),
                    reference::embed_rows(&kernel, &plan, &marked, range.clone()),
                );
                // Detect over the marked table (or the unmarked one, when
                // embedding fails).
                if let Ok(chunk) = kernel.run_range(&plan, &marked, 0..rows) {
                    kernel.apply(&plan, &mut marked, vec![chunk]).unwrap();
                }
                let plan = DetectPlan::build(&config, marked.schema(), &columns, trees, mark.len())
                    .unwrap();
                let kernel = match style {
                    EmbedStyle::Hierarchical => {
                        DetectKernel::prepare(&plan, &marked, hierarchical_cell_vote)
                    }
                    EmbedStyle::SingleLevel => {
                        DetectKernel::prepare(&plan, &marked, single_level_cell_vote)
                    }
                }
                .unwrap();
                assert_same(
                    kernel.run_range(&plan, &marked, range.clone()),
                    reference::detect_rows(&kernel, &plan, &marked, range.clone()),
                );
            }
        }
    }
}
