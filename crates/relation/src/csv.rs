//! Plain-text (CSV-like) import and export.
//!
//! Deliberately minimal: comma-separated with double-quote escaping only for
//! values that themselves contain a comma (generalized numeric intervals such
//! as `[30,40)`), header row carries the column names. Useful for eyeballing
//! generated data sets and for shipping the protected table to an
//! "outsourcee" in the examples.

use crate::column::{slot, ColumnData};
use crate::error::RelationError;
use crate::schema::{ColumnDef, ColumnRole, Schema};
use crate::table::Table;
use crate::value::Value;
use std::fmt::Write;

/// Serialize a table to CSV text: a header of column names followed by one
/// line per tuple, values in display form. Each dictionary entry is
/// rendered once; rows are written by code lookup.
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    for (i, column) in table.schema().columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape_field(&column.name));
    }
    out.push('\n');
    let rendered: Vec<Vec<String>> = table
        .columns()
        .iter()
        .map(|column| match column.data() {
            ColumnData::Int(_) => Vec::new(),
            ColumnData::Dict { dict, .. } => {
                dict.iter().map(|v| escape_field(&v.to_string())).collect()
            }
        })
        .collect();
    for row in 0..table.len() {
        for (i, (column, fields)) in table.columns().iter().zip(&rendered).enumerate() {
            if i > 0 {
                out.push(',');
            }
            match column.data() {
                // An integer renders without a comma, quote or line break.
                ColumnData::Int(values) => {
                    let _ = write!(out, "{}", values[row]);
                }
                ColumnData::Dict { codes, .. } => out.push_str(&fields[slot(codes[row])]),
            }
        }
        out.push('\n');
    }
    out
}

/// Quote a field if it contains a comma, a double quote, or a line break
/// (all three would otherwise corrupt the record structure on re-parse).
fn escape_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// One parsed record: the 1-based physical line on which it starts, its
/// fields, and whether any field was explicitly quoted (a lone `""` record
/// is a deliberate empty value, not a blank line).
struct Record {
    line: usize,
    fields: Vec<String>,
    quoted: bool,
}

/// Split CSV text into records, honouring double-quoted fields. Inside
/// quotes, commas, escaped quotes (`""`) and line breaks are field content;
/// outside quotes, `\n` and `\r\n` both terminate a record. An unterminated
/// quote at end of input is an error.
fn parse_records(text: &str) -> Result<Vec<Record>, RelationError> {
    let mut records = Vec::new();
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut quoted = false;
    let mut line = 1usize;
    let mut record_line = 1usize;
    // True once the current record has any content (a character, a quote or
    // a comma), so a trailing newline does not emit a phantom empty record.
    let mut pending = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    current.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => {
                in_quotes = true;
                quoted = true;
                pending = true;
            }
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut current));
                pending = true;
            }
            '\r' | '\n' if !in_quotes => {
                // CRLF (or a stray CR) terminates the record exactly like LF.
                if c == '\r' && chars.peek() == Some(&'\n') {
                    chars.next();
                }
                line += 1;
                if pending {
                    fields.push(std::mem::take(&mut current));
                    records.push(Record {
                        line: record_line,
                        fields: std::mem::take(&mut fields),
                        quoted,
                    });
                    pending = false;
                    quoted = false;
                }
                record_line = line;
            }
            other => {
                if other == '\n' {
                    line += 1;
                }
                current.push(other);
                pending = true;
            }
        }
    }
    if in_quotes {
        return Err(RelationError::CsvParse {
            line: record_line,
            message: "unterminated quoted field".into(),
        });
    }
    if pending {
        fields.push(current);
        records.push(Record { line: record_line, fields, quoted });
    }
    Ok(records)
}

/// Parse CSV text produced by [`to_csv`] back into a table.
///
/// `roles` assigns a [`ColumnRole`] to each header column by name; columns not
/// listed default to [`ColumnRole::NonIdentifying`]. Quoted fields may carry
/// embedded commas, escaped quotes and line breaks; records may be separated
/// by `\n` or `\r\n`.
pub fn from_csv(text: &str, roles: &[(&str, ColumnRole)]) -> Result<Table, RelationError> {
    let records = parse_records(text)?;
    let mut iter = records.into_iter();
    let header =
        iter.next().ok_or(RelationError::CsvParse { line: 1, message: "missing header".into() })?;
    let columns: Vec<ColumnDef> = header
        .fields
        .iter()
        .map(|name| {
            let name = name.trim();
            let role = roles
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, r)| *r)
                .unwrap_or(ColumnRole::NonIdentifying);
            ColumnDef::new(name, role)
        })
        .collect();
    let schema = Schema::new(columns)?;
    let arity = schema.arity();
    let mut table = Table::new(schema);
    for record in iter {
        if record.fields.len() == 1 && !record.quoted && record.fields[0].trim().is_empty() {
            // A blank (or whitespace-only) line is not a tuple; an explicitly
            // quoted empty field (`""`) is.
            continue;
        }
        let values: Vec<Value> = record.fields.iter().map(|f| Value::parse(f)).collect();
        if values.len() != arity {
            return Err(RelationError::CsvParse {
                line: record.line,
                message: format!("expected {arity} fields, found {}", values.len()),
            });
        }
        table.insert(values)?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value at `row` of the column named `column`.
    fn cell(t: &Table, row: usize, column: &str) -> Value {
        t.value_at(row, t.schema().index_of(column).unwrap()).unwrap()
    }

    fn sample() -> Table {
        let mut t = Table::new(Schema::medical_example());
        t.insert(vec![
            Value::text("111-22-3333"),
            Value::int(34),
            Value::int(53001),
            Value::text("Surgeon"),
            Value::text("428.0"),
            Value::text("Lisinopril"),
        ])
        .unwrap();
        t.insert(vec![
            Value::text("222-33-4444"),
            Value::interval(30, 40),
            Value::int(53002),
            Value::text("Nurse"),
            Value::text("401.9"),
            Value::Null,
        ])
        .unwrap();
        t
    }

    #[test]
    fn to_csv_has_header_and_rows() {
        let csv = to_csv(&sample());
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "ssn,age,zip_code,doctor,symptom,prescription");
        assert_eq!(lines.count(), 2);
    }

    #[test]
    fn roundtrip_preserves_values() {
        let original = sample();
        let csv = to_csv(&original);
        let roles = [
            ("ssn", ColumnRole::Identifying),
            ("age", ColumnRole::QuasiNumeric),
            ("zip_code", ColumnRole::QuasiNumeric),
            ("doctor", ColumnRole::QuasiCategorical),
            ("symptom", ColumnRole::QuasiCategorical),
            ("prescription", ColumnRole::QuasiCategorical),
        ];
        let parsed = from_csv(&csv, &roles).unwrap();
        assert_eq!(parsed.len(), original.len());
        assert_eq!(cell(&parsed, 1, "age"), Value::interval(30, 40));
        assert_eq!(cell(&parsed, 1, "prescription"), Value::Null);
        assert_eq!(parsed.schema().column_by_name("ssn").unwrap().role, ColumnRole::Identifying);
    }

    #[test]
    fn symptom_codes_stay_text() {
        // ICD-9-like codes such as "428.0" must not be mangled into numbers.
        let csv = to_csv(&sample());
        let parsed = from_csv(&csv, &[]).unwrap();
        assert_eq!(cell(&parsed, 0, "symptom"), Value::text("428.0"));
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(from_csv("", &[]).is_err());
    }

    #[test]
    fn arity_mismatch_reports_line() {
        let text = "a,b\n1,2\n3\n";
        let err = from_csv(text, &[]).unwrap_err();
        match err {
            RelationError::CsvParse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "a,b\n1,2\n\n3,4\n";
        let t = from_csv(text, &[]).unwrap();
        assert_eq!(t.len(), 2);
    }

    /// Adversarial field contents must survive parse → write → parse
    /// losslessly: embedded commas, embedded double quotes, embedded line
    /// breaks (LF and CRLF), and combinations.
    #[test]
    fn quoted_fields_roundtrip_losslessly() {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnRole::Identifying),
            ColumnDef::new("note", ColumnRole::NonIdentifying),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for note in [
            "plain",
            "with,comma",
            "with \"quotes\"",
            "\"leading and trailing\"",
            "comma, \"and\" quote",
            "line\nbreak",
            "crlf\r\nbreak",
            "trailing,",
            ",leading",
            "a,\"b\",c",
        ] {
            t.insert(vec![Value::text("x"), Value::text(note)]).unwrap();
        }
        let once = to_csv(&t);
        let parsed = from_csv(&once, &[("id", ColumnRole::Identifying)]).unwrap();
        assert_eq!(parsed.len(), t.len());
        assert_eq!(parsed.column_values("note").unwrap(), t.column_values("note").unwrap());
        // Idempotent: a second round-trip reproduces the same text.
        let twice = to_csv(&parsed);
        assert_eq!(once, twice);
    }

    #[test]
    fn quoted_empty_field_is_a_row_not_a_blank_line() {
        // `""` on its own line is a deliberate empty value in a one-column
        // table; only genuinely blank lines are skipped.
        let text = "note\n\"\"\nx\n";
        let t = from_csv(text, &[]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(cell(&t, 0, "note"), Value::Null);
        assert_eq!(cell(&t, 1, "note"), Value::text("x"));
    }

    #[test]
    fn crlf_record_separators_parse_like_lf() {
        let lf = "a,b\n1,x\n2,y\n";
        let crlf = "a,b\r\n1,x\r\n2,y\r\n";
        let t_lf = from_csv(lf, &[]).unwrap();
        let t_crlf = from_csv(crlf, &[]).unwrap();
        assert_eq!(t_lf.len(), t_crlf.len());
        for column in ["a", "b"] {
            assert_eq!(t_lf.column_values(column).unwrap(), t_crlf.column_values(column).unwrap());
        }
        // Mixed separators in one file also work.
        let mixed = "a,b\r\n1,x\n2,y\r\n";
        assert_eq!(from_csv(mixed, &[]).unwrap().len(), 2);
    }

    #[test]
    fn quoted_header_names_get_their_roles() {
        // A header field that needs quoting (or carries padding) must still
        // match its role entry after unquoting and trimming.
        let text = "\"ssn\", age \n123-45-6789,30\n";
        let t =
            from_csv(text, &[("ssn", ColumnRole::Identifying), ("age", ColumnRole::QuasiNumeric)])
                .unwrap();
        assert_eq!(t.schema().column_by_name("ssn").unwrap().role, ColumnRole::Identifying);
        assert_eq!(t.schema().column_by_name("age").unwrap().role, ColumnRole::QuasiNumeric);
    }

    #[test]
    fn header_names_with_commas_and_quotes_roundtrip() {
        let text = "\"a,b\",c\n1,2\n";
        let t = from_csv(text, &[]).unwrap();
        assert_eq!(t.schema().columns()[0].name, "a,b");
        let once = to_csv(&t);
        assert_eq!(once, text);
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnRole::Identifying),
            ColumnDef::new("say \"hi\", twice", ColumnRole::NonIdentifying),
            ColumnDef::new("\"", ColumnRole::NonIdentifying),
        ])
        .unwrap();
        let mut t = Table::new(schema.clone());
        t.insert(vec![Value::text("x"), Value::int(1), Value::text("y,z")]).unwrap();
        let once = to_csv(&t);
        assert_eq!(once.lines().next().unwrap(), "id,\"say \"\"hi\"\", twice\",\"\"\"\"");
        let parsed = from_csv(&once, &[("id", ColumnRole::Identifying)]).unwrap();
        assert_eq!(parsed.schema(), &schema);
        assert_eq!(parsed.value_at(0, 2), Some(Value::text("y,z")));
        assert_eq!(to_csv(&parsed), once);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let text = "a,b\n1,\"unclosed\n";
        let err = from_csv(text, &[]).unwrap_err();
        match err {
            RelationError::CsvParse { message, .. } => {
                assert!(message.contains("unterminated"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn arity_error_line_number_survives_multiline_fields() {
        // The record on physical line 2 spans three lines; the bad record
        // starts on physical line 5.
        let text = "a,b\n1,\"x\ny\nz\"\n3\n";
        let err = from_csv(text, &[]).unwrap_err();
        match err {
            RelationError::CsvParse { line, .. } => assert_eq!(line, 5),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
