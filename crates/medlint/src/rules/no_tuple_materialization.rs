//! `no-tuple-materialization`: the migrated hot modules must stay columnar.
//!
//! `Table::tuples()` clones every cell of every row into owned `Tuple`s —
//! exactly the per-row allocation the columnar refactor removed from the
//! binning leaf resolution, search and apply step, the watermark
//! plan/kernels, the per-recipient fingerprint kernels, the chunk-parallel
//! engine and the attack models. A call creeping back into one of those modules
//! silently reverts the hot path to row-at-a-time work while every
//! equivalence test keeps passing, so the regression only shows up as a
//! throughput cliff. This rule turns it into a lint failure instead: inside
//! the migrated modules, `.tuples()` receiver calls on the non-test path are
//! flagged. Genuine exceptions (cold paths, API shims) carry the standard
//! `// medlint::allow(no-tuple-materialization, reason)`.

use super::Rule;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// See the module docs.
pub struct NoTupleMaterialization;

/// The modules whose hot loops have been migrated to column scans.
fn in_scope(rel: &str) -> bool {
    rel == "crates/binning/src/plan.rs"
        || rel == "crates/binning/src/binner.rs"
        || rel == "crates/binning/src/multi.rs"
        || rel == "crates/binning/src/mono.rs"
        || (rel.starts_with("crates/attacks/src/") && rel.ends_with(".rs"))
        || rel == "crates/watermark/src/plan.rs"
        || rel == "crates/watermark/src/kernel.rs"
        || rel == "crates/watermark/src/fingerprint.rs"
        || rel == "crates/core/src/engine.rs"
}

impl Rule for NoTupleMaterialization {
    fn name(&self) -> &'static str {
        "no-tuple-materialization"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in ws.files.iter().filter(|f| in_scope(&f.rel_path)) {
            check_file(file, out);
        }
    }
}

fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.is_test_token(i) {
            continue;
        }
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if tok.text(&file.text) != "tuples" {
            continue;
        }
        // Only receiver calls: `<expr>.tuples(`.
        let is_method_call = file.prev_code(i).is_some_and(|p| file.tok_text(p) == ".")
            && file.next_code(i).is_some_and(|n| file.tok_text(n) == "(");
        if !is_method_call {
            continue;
        }
        out.push(Diagnostic::new(
            &file.rel_path,
            tok.line,
            "no-tuple-materialization",
            "`.tuples()` materializes owned rows inside a module migrated to \
             column scans; read the typed columns (`columns()` / `ColumnData`) \
             instead, or justify a cold-path exception with an allow",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_memory(vec![(path.to_string(), src.to_string())], None, None);
        let mut out = Vec::new();
        NoTupleMaterialization.check(&ws, &mut out);
        out
    }

    #[test]
    fn flags_tuples_calls_in_hot_modules() {
        let src =
            "fn f(t: &Table) {\n let rows = t.tuples();\n for tp in t.iter() { let _ = tp; }\n}\n";
        for path in [
            "crates/binning/src/plan.rs",
            "crates/binning/src/binner.rs",
            "crates/binning/src/multi.rs",
            "crates/binning/src/mono.rs",
            "crates/attacks/src/alteration.rs",
            "crates/attacks/src/generalization.rs",
            "crates/watermark/src/plan.rs",
            "crates/watermark/src/kernel.rs",
            "crates/watermark/src/fingerprint.rs",
            "crates/core/src/engine.rs",
        ] {
            let found = diags(path, src);
            // `.tuples()` is flagged; plain `.iter()` is not (it is how the
            // column scans themselves walk slices).
            assert_eq!(found.len(), 1, "{path}: {found:?}");
            assert!(found[0].message.contains("tuples"));
            assert_eq!(found[0].line, 2);
        }
    }

    #[test]
    fn cold_modules_and_non_method_uses_pass() {
        let src = "fn f(t: &Table) { let _ = t.tuples(); }\n";
        assert!(diags("crates/relation/src/table.rs", src).is_empty());
        assert!(diags("crates/serve/src/server.rs", src).is_empty());
        // A field or free fn named `tuples` is not a receiver call.
        let free =
            "fn g(tuples: usize) -> usize { tuples + 1 }\nfn tuples(n: usize) -> usize { n }\n";
        assert!(diags("crates/core/src/engine.rs", free).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(t: &Table) { let _ = t.tuples(); }\n}\n";
        assert!(diags("crates/core/src/engine.rs", src).is_empty());
    }
}
