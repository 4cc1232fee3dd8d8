//! Mark loss — the y-axis of the robustness experiments (Fig. 12).
//!
//! Mark loss is the fraction of mark bits that differ between the mark the
//! owner embedded and the mark recovered from the (possibly attacked) table.

/// Fraction of differing bits between `original` and `recovered`, in `[0,1]`.
///
/// If `recovered` is shorter than `original` the missing bits count as lost;
/// extra bits in `recovered` are ignored. An empty original mark has zero
/// loss by convention.
pub fn mark_loss(original: &[bool], recovered: &[bool]) -> f64 {
    if original.is_empty() {
        return 0.0;
    }
    let mut lost = 0usize;
    for (i, &bit) in original.iter().enumerate() {
        match recovered.get(i) {
            Some(&r) if r == bit => {}
            _ => lost += 1,
        }
    }
    lost as f64 / original.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_marks_have_zero_loss() {
        let m = vec![true, false, true, true];
        assert_eq!(mark_loss(&m, &m), 0.0);
    }

    #[test]
    fn completely_flipped_mark_is_total_loss() {
        let m = vec![true, false, true, false];
        let r: Vec<bool> = m.iter().map(|b| !b).collect();
        assert_eq!(mark_loss(&m, &r), 1.0);
    }

    #[test]
    fn partial_loss() {
        let m = vec![true, true, true, true];
        let r = vec![true, false, true, false];
        assert!((mark_loss(&m, &r) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn short_recovered_mark_counts_missing_bits_as_lost() {
        let m = vec![true, true, true, true];
        let r = vec![true, true];
        assert!((mark_loss(&m, &r) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn extra_recovered_bits_are_ignored() {
        let m = vec![true, false];
        let r = vec![true, false, true, true, false];
        assert_eq!(mark_loss(&m, &r), 0.0);
    }

    #[test]
    fn empty_original_is_zero_loss() {
        assert_eq!(mark_loss(&[], &[true]), 0.0);
    }
}
